// Fig. 6.8: performance of the complete system in the presence of massive
// DDoS attacks: overall accuracy and shedding rate over time while spoofed
// floods multiply the resource demands.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 6.8", "system performance under massive DDoS attacks");

  auto trace = trace::TraceGenerator(
                   bench::Scaled(trace::UpcI(), args, args.quick ? 10.0 : 20.0))
                   .Generate();
  const double dur = trace.spec.duration_s;
  trace::DdosSpec first;
  first.start_s = dur * 0.25;
  first.duration_s = dur * 0.15;
  first.pps = 4000.0;
  InjectDdos(trace, first, 11 + args.seed_offset);
  trace::DdosSpec second = first;
  second.start_s = dur * 0.6;
  second.duration_s = dur * 0.2;
  second.pps = 6000.0;
  InjectDdos(trace, second, 12 + args.seed_offset);

  const std::vector<std::string> names = {"high-watermark", "top-k", "p2p-detector",
                                          "counter", "flows"};
  auto result = bench::RunAtOverload(trace, names, 0.3, core::ShedderKind::kPredictive,
                                     shed::StrategyKind::kMmfsPkt, args,
                                     /*custom=*/true, /*min_rates=*/true);

  const auto seconds = bench::PerSecond(result->log());
  util::Table table({"t (s)", "packets", "mean srate", "drops", "backlog/cap"});
  for (size_t s = 0; s < seconds.size(); ++s) {
    table.AddRow({util::Fmt(static_cast<double>(s), 0), util::Fmt(seconds[s].packets, 0),
                  util::Fmt(seconds[s].mean_rate, 2), util::Fmt(seconds[s].dropped, 0),
                  util::Fmt(seconds[s].backlog / result->system().capacity(), 2)});
  }
  table.Print(std::cout);

  std::printf("\nPer-query accuracy over the whole run (attacks included):\n\n");
  util::Table acc({"query", "accuracy"});
  for (size_t q = 0; q < names.size(); ++q) {
    acc.AddRow({names[q], util::Fmt(result->MeanAccuracyAt(q), 2)});
  }
  acc.Print(std::cout);
  std::printf("total uncontrolled drops: %llu\n",
              static_cast<unsigned long long>(result->total_dropped()));
  std::printf(
      "\nPaper shape: during the floods the sampling rate dives but the system\n"
      "stays responsive with no uncontrolled losses and bounded errors\n"
      "(Fig 6.8).\n\n");
  return result->total_dropped() == 0 ? 0 : 1;
}
