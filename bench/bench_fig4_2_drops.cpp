// Fig. 4.2: link load, uncontrolled capture drops ("DAG drops") and packets
// deliberately unsampled over time, for the predictive / original / reactive
// systems. The headline Ch. 4 result: the predictive system never loses a
// packet uncontrolled, the baselines drop continuously.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 4.2", "link load and packet drops per load-shedding method");

  const auto trace =
      trace::TraceGenerator(bench::Scaled(trace::CescaI(), args, 20.0)).Generate();
  const auto names = query::StandardSevenQueryNames();

  for (const auto shedder : {core::ShedderKind::kPredictive, core::ShedderKind::kNoShed,
                             core::ShedderKind::kReactive}) {
    auto result = bench::RunAtOverload(trace, names, 0.5, shedder,
                                       shed::StrategyKind::kEqSrates, args,
                                       /*custom=*/false, /*min_rates=*/false,
                                       /*buffer_bins=*/2.0);
    const auto seconds = bench::PerSecond(result->log());
    std::printf("\n(%s)\n\n", bench::ShedderName(shedder).c_str());
    util::Table table({"t (s)", "packets", "DAG drops", "unsampled"});
    for (size_t s = 0; s < seconds.size(); ++s) {
      table.AddRow({util::Fmt(static_cast<double>(s), 0), util::Fmt(seconds[s].packets, 0),
                    util::Fmt(seconds[s].dropped, 0), util::Fmt(seconds[s].unsampled, 0)});
    }
    table.Print(std::cout);
    std::printf("totals: %llu packets, %llu uncontrolled drops (%.1f%%)\n",
                static_cast<unsigned long long>(result->total_packets()),
                static_cast<unsigned long long>(result->total_dropped()),
                100.0 * static_cast<double>(result->total_dropped()) /
                    static_cast<double>(result->total_packets()));
  }
  std::printf(
      "\nPaper shape: zero uncontrolled drops for the predictive system during\n"
      "the whole run (Fig 4.2a); the original system drops packets at the\n"
      "capture card throughout (Fig 4.2b). The reactive system's drops\n"
      "(Fig 4.2c) depend on burst scale vs buffer: shrink the buffer or\n"
      "deepen the bursts and they reappear.\n\n");
  return 0;
}
