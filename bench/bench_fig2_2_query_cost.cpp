// Fig. 2.2: average cost per second of the CoMo queries (CESCA-II trace).
// The paper's bar chart ranks p2p-detector and pattern-search far above the
// simple counters; this harness reports cycles/s per query and the ratio to
// the cheapest query so the ranking is directly comparable.

#include "bench/bench_common.h"

#include <algorithm>

#include "src/core/cost.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 2.2", "average cost per second of the CoMo queries (CESCA-II)");

  const auto trace = trace::TraceGenerator(bench::Scaled(trace::CescaII(), args, 15.0)).Generate();
  auto oracle = core::MakeOracle(args.oracle);

  struct Row {
    std::string name;
    double cycles_per_s;
  };
  std::vector<Row> rows;
  for (const auto& name : query::AllQueryNames()) {
    auto q = query::MakeQuery(name);
    // Registered for its lifetime: the model oracle keys its per-query work
    // baseline by address, which the next name's instance may reuse.
    oracle->OnQueryAdded(q.get());
    trace::Batcher batcher(trace, 100'000);
    trace::Batch batch;
    double total = 0.0;
    size_t bins = 0;
    while (batcher.Next(batch)) {
      query::BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0};
      core::WorkHint hint{q.get(), &batch.packets, 0.0};
      total += oracle->Run(core::WorkKind::kQuery, hint, [&] { q->ProcessBatch(in); });
      q->EndBin();
      ++bins;
    }
    oracle->OnQueryRemoved(q.get());
    rows.push_back({name, total / (static_cast<double>(bins) * 0.1)});
  }

  double min_cost = rows.front().cycles_per_s;
  for (const auto& row : rows) {
    min_cost = std::min(min_cost, row.cycles_per_s);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.cycles_per_s > b.cycles_per_s; });

  util::Table table({"query", "CPU cost (cycles/s)", "x cheapest"});
  for (const auto& row : rows) {
    table.AddRow({row.name, util::FmtSci(row.cycles_per_s),
                  util::Fmt(row.cycles_per_s / min_cost, 1)});
  }
  table.Print(std::cout);
  std::printf(
      "\nPaper shape: p2p-detector and pattern-search dominate; counter /\n"
      "high-watermark / application are the cheapest (Fig. 2.2).\n\n");
  return 0;
}
