// Fig. 6.6 / 6.7: a monitoring system without custom shedding running
// eq_srates versus the full system (mmfs_pkt + custom shedding), under the
// same overload: CPU control, drops, and per-query accuracy.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 6.6/6.7",
                     "eq_srates without custom shedding vs mmfs_pkt with custom shedding");

  const auto trace = trace::TraceGenerator(
                         bench::Scaled(trace::UpcI(), args, args.quick ? 8.0 : 15.0))
                         .Generate();
  const std::vector<std::string> names = {"high-watermark", "top-k", "p2p-detector",
                                          "counter", "flows"};

  struct System {
    std::string label;
    shed::StrategyKind strategy;
    bool custom;
  };
  const std::vector<System> systems = {
      {"eq_srates, no custom (Fig 6.6)", shed::StrategyKind::kEqSrates, false},
      {"mmfs_pkt + custom (Fig 6.7)", shed::StrategyKind::kMmfsPkt, true},
  };

  // Both system runs are independent; --threads=N runs them concurrently
  // over the pool with bit-identical results. Each cell drives the
  // api::Pipeline facade.
  const double demand = core::MeasureMeanDemand(names, trace, args.oracle);
  const auto pool = args.MakePool();
  const auto results = api::RunPipelineGrid(
      systems.size(),
      [&](size_t cell) {
        return bench::BuilderAtOverload(demand, names, 0.5, core::ShedderKind::kPredictive,
                                        systems[cell].strategy, args, systems[cell].custom,
                                        /*default_min_rates=*/true);
      },
      trace, pool.get());

  for (size_t s = 0; s < systems.size(); ++s) {
    const auto& system = systems[s];
    const auto& result = *results[s];
    std::printf("\n%s:\n\n", system.label.c_str());
    util::Table table({"query", "accuracy", "mean rate"});
    for (size_t q = 0; q < names.size(); ++q) {
      util::RunningStats rate;
      for (const auto& bin : result.log()) {
        if (q < bin.rate.size()) {
          rate.Add(bin.rate[q]);
        }
      }
      table.AddRow({names[q], util::Fmt(result.MeanAccuracyAt(q), 2),
                    util::Fmt(rate.mean(), 2)});
    }
    table.Print(std::cout);
    std::printf("avg accuracy %.2f | min accuracy %.2f | uncontrolled drops %llu\n",
                result.AverageAccuracy(), result.MinimumAccuracy(),
                static_cast<unsigned long long>(result.total_dropped()));
  }
  std::printf(
      "\nPaper shape: the full system raises both the average and (especially)\n"
      "the minimum accuracy over the eq_srates baseline while staying free of\n"
      "uncontrolled drops (Figs 6.6/6.7).\n\n");
  return 0;
}
