// Fig. 5.4: average (left) and minimum (right) accuracy of the five load
// shedding systems as the overload level K grows from 0 to 1, running the
// representative nine-query set with its Table 5.2 rate constraints.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 5.4", "avg/min accuracy of five strategies vs overload K");

  const auto trace = trace::TraceGenerator(
                         bench::Scaled(trace::CescaII(), args, args.quick ? 6.0 : 10.0))
                         .Generate();
  const auto names = query::StandardNineQueryNames();

  struct System {
    std::string label;
    core::ShedderKind shedder;
    shed::StrategyKind strategy;
  };
  const std::vector<System> systems = {
      {"no_lshed", core::ShedderKind::kNoShed, shed::StrategyKind::kEqSrates},
      {"reactive", core::ShedderKind::kReactive, shed::StrategyKind::kEqSrates},
      {"eq_srates", core::ShedderKind::kPredictive, shed::StrategyKind::kEqSrates},
      {"mmfs_cpu", core::ShedderKind::kPredictive, shed::StrategyKind::kMmfsCpu},
      {"mmfs_pkt", core::ShedderKind::kPredictive, shed::StrategyKind::kMmfsPkt},
  };

  // One grid cell per (K, system) pair; the whole grid fans out over the
  // pool with --threads=N (cells are independent pipeline runs, so results
  // are bit-identical to the serial sweep) and both tables print from one
  // pass. Each cell drives the api::Pipeline facade.
  const double step = args.quick ? 0.25 : 0.1;
  std::vector<double> ks;
  for (double k = 0.0; k <= 1.0 + 1e-9; k += step) {
    ks.push_back(k);
  }
  const double demand = core::MeasureMeanDemand(names, trace, args.oracle);
  const auto pool = args.MakePool();
  const auto results = api::RunPipelineGrid(
      ks.size() * systems.size(),
      [&](size_t cell) {
        return bench::BuilderAtOverload(demand, names, ks[cell / systems.size()],
                                        systems[cell % systems.size()].shedder,
                                        systems[cell % systems.size()].strategy, args,
                                        /*custom_shedding=*/false, /*default_min_rates=*/true);
      },
      trace, pool.get());

  for (const bool minimum : {false, true}) {
    std::printf("\n%s accuracy:\n\n", minimum ? "Minimum" : "Average");
    std::vector<std::string> header = {"K"};
    for (const auto& system : systems) {
      header.push_back(system.label);
    }
    util::Table table(header);
    for (size_t ki = 0; ki < ks.size(); ++ki) {
      std::vector<std::string> row = {util::Fmt(ks[ki], 2)};
      for (size_t s = 0; s < systems.size(); ++s) {
        const auto& result = *results[ki * systems.size() + s];
        row.push_back(util::Fmt(minimum ? result.MinimumAccuracy() : result.AverageAccuracy(),
                                2));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  std::printf(
      "\nPaper shape: the mmfs variants dominate at every K > 0; mmfs_pkt gives\n"
      "the best minimum accuracy; all curves fall to ~0 at K = 1 (Fig 5.4).\n\n");
  return 0;
}
