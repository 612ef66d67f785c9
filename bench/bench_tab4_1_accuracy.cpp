// Table 4.1 / Fig. 4.3: per-query accuracy error of the three load-shedding
// methods at 2x overload. The predictive system keeps the error of every
// scalable query in the low percent range; the original system's results are
// wrecked by uncontrolled loss; reactive sits in between.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Table 4.1 / Fig 4.3", "accuracy error per query per method (K = 0.5)");

  const auto trace =
      trace::TraceGenerator(bench::Scaled(trace::CescaI(), args, 20.0)).Generate();
  // The table's rows: queries whose unsampled output can be recovered.
  const std::vector<std::string> names = {"application", "counter", "flows",
                                          "high-watermark", "top-k"};

  struct MethodRun {
    std::string label;
    std::unique_ptr<api::Pipeline> result;
  };
  std::vector<MethodRun> runs;
  for (const auto shedder : {core::ShedderKind::kPredictive, core::ShedderKind::kNoShed,
                             core::ShedderKind::kReactive}) {
    runs.push_back({bench::ShedderName(shedder),
                    bench::RunAtOverload(trace, names, 0.5, shedder,
                                         shed::StrategyKind::kEqSrates, args,
                                         /*custom=*/false, /*min_rates=*/false,
                                         /*buffer_bins=*/2.0)});
  }

  util::Table table({"query", "predictive", "original", "reactive"});
  for (size_t q = 0; q < names.size(); ++q) {
    std::vector<std::string> row = {names[q]};
    for (auto& run : runs) {
      const auto acc = run.result->AccuracyAt(q);
      row.push_back(util::FmtPercent(acc.mean_error, 2) + " ±" +
                    util::Fmt(acc.stdev_error * 100.0, 2));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::printf("\nFig 4.3 — average error across queries:\n\n");
  util::Table avg({"method", "avg error"});
  double pred_err = 0.0;
  double orig_err = 0.0;
  for (auto& run : runs) {
    util::RunningStats err;
    for (size_t q = 0; q < names.size(); ++q) {
      err.Add(run.result->AccuracyAt(q).mean_error);
    }
    avg.AddRow({run.label, util::FmtPercent(err.mean(), 2)});
    if (run.label.rfind("predictive", 0) == 0) {
      pred_err = err.mean();
    }
    if (run.label.rfind("original", 0) == 0) {
      orig_err = err.mean();
    }
  }
  avg.Print(std::cout);
  std::printf(
      "\nPaper shape: predictive ~1-3%% per query; original tens of percent;\n"
      "reactive intermediate (Table 4.1, Fig 4.3).\n\n");
  return pred_err < orig_err ? 0 : 1;
}
