// Table 5.2: minimum sampling-rate constraints (m_q) and per-query accuracy
// of the five systems (no_lshed / reactive / eq_srates / mmfs_cpu /
// mmfs_pkt) when resource demands are twice the system capacity (K = 0.5),
// on the nine-query set.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Table 5.2", "per-query accuracy of five strategies at K = 0.5");

  const auto trace =
      trace::TraceGenerator(bench::Scaled(trace::CescaII(), args, 15.0)).Generate();
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

  std::vector<std::unique_ptr<api::Pipeline>> results;
  for (const auto& system : systems) {
    results.push_back(bench::RunAtOverload(trace, names, 0.5, system.shedder, system.strategy,
                                           args, /*custom=*/false, /*min_rates=*/true));
  }

  util::Table table({"query", "mq", "no_lshed", "reactive", "eq_srates", "mmfs_cpu",
                     "mmfs_pkt"});
  for (size_t q = 0; q < names.size(); ++q) {
    std::vector<std::string> row = {names[q], util::Fmt(core::DefaultMinRate(names[q]), 2)};
    for (auto& result : results) {
      // Accuracy per Fig. 5.3: 1 - error when the minimum rate was honoured.
      row.push_back(util::Fmt(result->MeanAccuracyAt(q), 2));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::printf("\nAverage / minimum accuracy across queries:\n\n");
  util::Table avg({"system", "avg", "min"});
  for (size_t s = 0; s < systems.size(); ++s) {
    avg.AddRow({systems[s].label, util::Fmt(results[s]->AverageAccuracy(), 2),
                util::Fmt(results[s]->MinimumAccuracy(), 2)});
  }
  avg.Print(std::cout);
  std::printf(
      "\nPaper shape: mmfs_cpu and mmfs_pkt keep every query's accuracy within\n"
      "its bound (autofocus/super-sources near 0.95+ where the alternatives\n"
      "drive them to ~0); eq_srates loses the high-m_q queries; no_lshed and\n"
      "reactive lose several (Table 5.2).\n\n");
  return 0;
}
