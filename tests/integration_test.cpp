#include <gtest/gtest.h>

#include "src/api/run.h"
#include "src/core/runner.h"
#include "src/query/queries.h"
#include "src/trace/anomaly.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/stats.h"

namespace shedmon {
namespace {

using core::MeasureMeanDemand;
using core::OracleKind;
using core::ShedderKind;

trace::Trace IntegrationTrace() {
  trace::TraceSpec spec;
  spec.name = "integration";
  spec.duration_s = 10.0;
  spec.flows_per_s = 220.0;
  spec.payloads = true;
  spec.seed = 101;
  return trace::TraceGenerator(spec).Generate();
}

// Predictive shedding over `names` at the given capacity, no rate floors.
api::PipelineBuilder BuilderFor(const std::vector<std::string>& names, double capacity,
                                OracleKind oracle = OracleKind::kModel) {
  api::PipelineBuilder builder;
  builder.Shedder(ShedderKind::kPredictive)
      .CyclesPerBin(capacity)
      .Oracle(oracle)
      .DefaultMinRates(false);
  for (const auto& name : names) {
    builder.AddQuery(name);
  }
  return builder;
}

const std::vector<std::string> kSeven = {"application", "counter",        "flows",
                                         "high-watermark", "pattern-search", "top-k",
                                         "trace"};

// Full seven-query pipeline at K = 0.5 with the model oracle: the Ch. 4
// headline result in miniature.
TEST(Integration, SevenQueriesUnderTwoTimesOverload) {
  const auto t = IntegrationTrace();
  const double demand = MeasureMeanDemand(kSeven, t, OracleKind::kModel);

  api::PipelineBuilder builder = BuilderFor(kSeven, 0.5 * demand);
  builder.Strategy(shed::StrategyKind::kEqSrates);
  auto result = api::RunTrace(builder, t);

  EXPECT_EQ(result->total_dropped(), 0u);
  // Scalable-metric queries stay accurate under 2x overload.
  for (size_t q = 0; q < kSeven.size(); ++q) {
    const auto& name = kSeven[q];
    if (name == "trace" || name == "pattern-search") {
      continue;  // their "error" is the processed fraction by definition
    }
    // high-watermark estimates a maximum, whose sampled estimator carries an
    // upward bias; the thesis likewise reports it as its least accurate
    // scalable query (Table 4.1).
    const double bound = name == "high-watermark" ? 0.22 : 0.12;
    EXPECT_LT(result->AccuracyAt(q).mean_error, bound) << name;
  }
}

TEST(Integration, MmfsPktRaisesWorstQueryAccuracy) {
  const auto t = IntegrationTrace();
  const std::vector<std::string> names = {"counter", "flows", "p2p-detector"};
  const double demand = MeasureMeanDemand(names, t, OracleKind::kModel);

  api::PipelineBuilder eq = BuilderFor(names, 0.4 * demand);
  eq.Strategy(shed::StrategyKind::kEqSrates);

  api::PipelineBuilder mmfs = eq;
  mmfs.Strategy(shed::StrategyKind::kMmfsPkt);

  auto r_eq = api::RunTrace(eq, t);
  auto r_mmfs = api::RunTrace(mmfs, t);
  // Both run stably without uncontrolled loss.
  EXPECT_EQ(r_eq->total_dropped(), 0u);
  EXPECT_EQ(r_mmfs->total_dropped(), 0u);
  // mmfs_pkt cannot be much worse on the minimum and is typically better.
  EXPECT_GE(r_mmfs->MinimumAccuracy() + 0.05, r_eq->MinimumAccuracy());
}

// §4.5.5-style anomaly robustness: a spoofed SYN flood multiplies the flows
// query's cost; with predictive shedding the flow-count estimate holds.
TEST(Integration, SynFloodFlowsQueryStaysAccurate) {
  trace::Trace t = IntegrationTrace();
  trace::DdosSpec ddos;
  ddos.start_s = 4.0;
  ddos.duration_s = 3.0;
  ddos.pps = 2500.0;
  ddos.spoofed_sources = true;
  ddos.syn_flood = true;
  InjectDdos(t, ddos, 999);

  const std::vector<std::string> names = {"flows"};
  const double demand = MeasureMeanDemand(names, t, OracleKind::kModel);
  auto result = api::RunTrace(BuilderFor(names, 0.6 * demand), t);

  EXPECT_EQ(result->total_dropped(), 0u);
  EXPECT_LT(result->AccuracyAt(0).mean_error, 0.10);
}

// The same scenario without load shedding loses batches wholesale and the
// flow count collapses.
TEST(Integration, SynFloodWithoutSheddingFails) {
  trace::Trace t = IntegrationTrace();
  trace::DdosSpec ddos;
  ddos.start_s = 4.0;
  ddos.duration_s = 3.0;
  ddos.pps = 2500.0;
  InjectDdos(t, ddos, 999);

  const std::vector<std::string> names = {"flows"};
  const double demand = MeasureMeanDemand(names, t, OracleKind::kModel);
  api::PipelineBuilder builder = BuilderFor(names, 0.6 * demand);
  builder.Shedder(ShedderKind::kNoShed);
  auto result = api::RunTrace(builder, t);

  EXPECT_GT(result->total_dropped(), 0u);
  EXPECT_GT(result->AccuracyAt(0).mean_error, 0.15);
}

// Custom shedding end-to-end: the p2p-detector's own method beats uniform
// packet sampling at equal budget (the Fig. 6.1/6.2 phenomenon).
TEST(Integration, CustomSheddingBeatsPacketSamplingForP2p) {
  const auto t = IntegrationTrace();
  const std::vector<std::string> names = {"p2p-detector", "pattern-search"};
  const double demand = MeasureMeanDemand(names, t, OracleKind::kModel);

  api::PipelineBuilder base = BuilderFor(names, 0.45 * demand);
  base.Strategy(shed::StrategyKind::kMmfsPkt);

  api::PipelineBuilder custom = base;
  custom.CustomShedding(true);

  auto r_plain = api::RunTrace(base, t);
  auto r_custom = api::RunTrace(custom, t);
  EXPECT_GT(r_custom->MeanAccuracyAt(0) + 0.02, r_plain->MeanAccuracyAt(0));
}

// Smoke test with the measured (rdtsc) oracle: real cycles, real queries.
// Uses the payload-heavy queries so that query cost dominates the (real)
// feature-extraction overhead, as it does on the paper's testbed.
TEST(Integration, MeasuredOracleSmokeTest) {
  trace::TraceSpec spec_t;
  spec_t.duration_s = 4.0;
  spec_t.flows_per_s = 150.0;
  spec_t.payloads = true;
  spec_t.seed = 202;
  const auto t = trace::TraceGenerator(spec_t).Generate();
  const std::vector<std::string> names = {"pattern-search", "p2p-detector", "counter"};

  // Real measurement is noisy; require the pipeline to remain sane: the
  // budget is 60% of demand, so average accuracy well above that of a
  // collapsed system (~0) and bounded drops. Even with RUN_SERIAL the rdtsc
  // readings are at the mercy of the host (CI neighbors, frequency steps),
  // so the sanity bar gets a bounded number of attempts: scheduler noise
  // clears it on a retry, a genuine regression fails every attempt.
  constexpr int kAttempts = 3;
  bool sane = false;
  double accuracy = 0.0;
  uint64_t dropped = 0;
  uint64_t packets = 0;
  for (int attempt = 0; attempt < kAttempts && !sane; ++attempt) {
    const double demand = MeasureMeanDemand(names, t, OracleKind::kMeasured);
    ASSERT_GT(demand, 0.0);

    auto result = api::RunTrace(BuilderFor(names, 0.6 * demand, OracleKind::kMeasured), t);
    ASSERT_EQ(result->log().size(), 40u);
    accuracy = result->AverageAccuracy();
    dropped = result->total_dropped();
    packets = result->total_packets();
    sane = accuracy > 0.4 && dropped < packets / 4;
  }
  EXPECT_TRUE(sane) << "accuracy " << accuracy << ", dropped " << dropped << "/" << packets
                    << " after " << kAttempts << " attempts";
}

// Long-run stability: prediction error EWMA keeps the system inside its
// budget across a longer execution (mini Fig. 6.12).
TEST(Integration, LongRunStaysStable) {
  trace::TraceSpec spec_t;
  spec_t.duration_s = 30.0;
  spec_t.flows_per_s = 200.0;
  spec_t.seed = 303;
  const auto t = trace::TraceGenerator(spec_t).Generate();
  const std::vector<std::string> names = {"counter", "flows", "application", "top-k"};
  const double demand = MeasureMeanDemand(names, t, OracleKind::kModel);

  auto result = api::RunTrace(BuilderFor(names, 0.5 * demand), t);
  EXPECT_EQ(result->total_dropped(), 0u);

  // Backlog must not trend upward: compare first and second half occupancy.
  util::RunningStats first_half;
  util::RunningStats second_half;
  const auto& log = result->log();
  for (size_t i = 0; i < log.size(); ++i) {
    (i < log.size() / 2 ? first_half : second_half).Add(log[i].backlog_cycles);
  }
  EXPECT_LT(second_half.mean(),
            first_half.mean() + 0.5 * result->system().capacity());
}

}  // namespace
}  // namespace shedmon
