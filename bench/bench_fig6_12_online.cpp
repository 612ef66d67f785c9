// Fig. 6.12 / 6.13 / 6.14 and Table 6.2: the long "online execution" of
// §6.4, scaled down — the complete system (mmfs_pkt + custom shedding)
// running every query for an extended period: CPU after shedding vs
// predicted load, traffic/buffer/drops, overall accuracy and mean shedding
// rate over time, and the final per-query accuracy table.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 6.12-6.14 / Table 6.2", "long online execution of the full system");

  trace::TraceSpec spec = trace::UpcI();
  spec.duration_s = args.quick ? 15.0 : 60.0;
  auto trace = trace::TraceGenerator(bench::Scaled(spec, args)).Generate();
  // Mid-run anomaly, as the online runs of the thesis experienced.
  trace::DdosSpec ddos;
  ddos.start_s = spec.duration_s * 0.55;
  ddos.duration_s = spec.duration_s * 0.12;
  ddos.pps = 3000.0;
  InjectDdos(trace, ddos, 3 + args.seed_offset);

  const auto names = query::AllQueryNames();
  auto result = bench::RunAtOverload(trace, names, 0.3, core::ShedderKind::kPredictive,
                                     shed::StrategyKind::kMmfsPkt, args,
                                     /*custom=*/true, /*min_rates=*/true);

  std::printf("Fig 6.12/6.13 — CPU, predicted load, buffer and drops over time:\n\n");
  const auto seconds = bench::PerSecond(result->log());
  util::Table ts({"t (s)", "packets", "used cycles", "predicted", "buffer occ", "drops"});
  const size_t stride = seconds.size() > 20 ? seconds.size() / 20 : 1;
  for (size_t s = 0; s < seconds.size(); s += stride) {
    ts.AddRow({util::Fmt(static_cast<double>(s), 0), util::Fmt(seconds[s].packets, 0),
               util::FmtSci(seconds[s].query_cycles, 2),
               util::FmtSci(seconds[s].predicted, 2),
               util::Fmt(seconds[s].backlog / (2.0 * result->system().capacity()), 2),
               util::Fmt(seconds[s].dropped, 0)});
  }
  ts.Print(std::cout);

  std::printf("\nFig 6.14 — overall accuracy and mean shedding rate per second:\n\n");
  util::Table acc_ts({"t (s)", "mean srate"});
  for (size_t s = 0; s < seconds.size(); s += stride) {
    acc_ts.AddRow({util::Fmt(static_cast<double>(s), 0),
                   util::Fmt(seconds[s].mean_rate, 2)});
  }
  acc_ts.Print(std::cout);

  std::printf("\nTable 6.2 — breakdown of the accuracy by query (mean ± stdev):\n\n");
  util::Table acc({"query", "accuracy"});
  for (size_t q = 0; q < names.size(); ++q) {
    const auto row = result->AccuracyAt(q);
    acc.AddRow({names[q], util::Fmt(1.0 - row.mean_error, 2) + " ±" +
                              util::Fmt(row.stdev_error, 2)});
  }
  acc.Print(std::cout);
  std::printf("\noverall: avg accuracy %.2f | min %.2f | drops %llu / %llu packets\n",
              result->AverageAccuracy(), result->MinimumAccuracy(),
              static_cast<unsigned long long>(result->total_dropped()),
              static_cast<unsigned long long>(result->total_packets()));
  std::printf(
      "\nPaper shape: predicted load exceeds the capacity for most of the run;\n"
      "post-shedding usage hugs it; the buffer stays far from full (no DAG\n"
      "drops) and per-query accuracy stays high (Figs 6.12-6.14, Table 6.2).\n\n");
  return result->total_dropped() == 0 ? 0 : 1;
}
