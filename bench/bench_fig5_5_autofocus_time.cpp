// Fig. 5.5: accuracy of the autofocus query over time at light overload
// (K = 0.2) under four systems. Its high minimum-rate constraint (0.69)
// makes it the canary: eq_srates disables it whenever traffic bursts, while
// the mmfs strategies hold its rate above the floor.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 5.5", "autofocus accuracy over time at K = 0.2");

  trace::TraceSpec spec = trace::CescaII();
  spec.burstiness = 0.7;  // variability is what trips eq_srates here
  const auto trace =
      trace::TraceGenerator(bench::Scaled(spec, args, args.quick ? 8.0 : 20.0)).Generate();
  const auto names = query::StandardNineQueryNames();
  const size_t autofocus_idx = 1;  // position in StandardNineQueryNames()

  struct System {
    std::string label;
    core::ShedderKind shedder;
    shed::StrategyKind strategy;
  };
  const std::vector<System> systems = {
      {"no_lshed", core::ShedderKind::kNoShed, shed::StrategyKind::kEqSrates},
      {"eq_srates", core::ShedderKind::kPredictive, shed::StrategyKind::kEqSrates},
      {"mmfs_cpu", core::ShedderKind::kPredictive, shed::StrategyKind::kMmfsCpu},
      {"mmfs_pkt", core::ShedderKind::kPredictive, shed::StrategyKind::kMmfsPkt},
  };

  std::vector<std::vector<double>> series;
  for (const auto& system : systems) {
    auto result = bench::RunAtOverload(trace, names, 0.2, system.shedder, system.strategy,
                                       args, /*custom=*/false, /*min_rates=*/true);
    std::vector<double> acc;
    const auto& est = result->system().query(autofocus_idx);
    const auto& ref = result->ReferenceAt(autofocus_idx);
    const size_t n = std::min(est.completed_intervals(), ref.completed_intervals());
    for (size_t i = 0; i < n; ++i) {
      acc.push_back(1.0 - est.IntervalError(ref, i));
    }
    series.push_back(std::move(acc));
  }

  std::vector<std::string> header = {"interval (s)"};
  for (const auto& system : systems) {
    header.push_back(system.label);
  }
  util::Table table(header);
  for (size_t i = 0; i < series[0].size(); ++i) {
    std::vector<std::string> row = {std::to_string(i + 1)};
    for (const auto& acc : series) {
      row.push_back(i < acc.size() ? util::Fmt(acc[i], 2) : "-");
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::printf("\nFraction of intervals with accuracy >= 0.5 (skipping warm-up):\n\n");
  util::Table frac({"system", "stable fraction"});
  for (size_t s = 0; s < systems.size(); ++s) {
    size_t good = 0;
    size_t total = 0;
    for (size_t i = 1; i < series[s].size(); ++i) {
      ++total;
      if (series[s][i] >= 0.5) {
        ++good;
      }
    }
    frac.AddRow({systems[s].label,
                 util::Fmt(total > 0 ? static_cast<double>(good) / total : 0.0, 2)});
  }
  frac.Print(std::cout);
  std::printf(
      "\nPaper shape: eq_srates (and no_lshed) drop autofocus to zero in many\n"
      "intervals even at light overload, while mmfs_cpu/mmfs_pkt keep it\n"
      "consistently accurate (Fig 5.5).\n\n");
  return 0;
}
