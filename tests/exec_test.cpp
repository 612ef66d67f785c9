// src/exec/ tests: ThreadPool semantics (ordering, exception propagation,
// zero-task and one-worker edges), QueryExecutor's task fan-out, and the
// subsystem's headline property — parallel pipelines are bit-identical to
// serial ones at every thread count, for every shedder kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/api/pipeline.h"
#include "src/api/run.h"
#include "src/core/runner.h"
#include "src/exec/query_executor.h"
#include "src/exec/thread_pool.h"
#include "src/query/queries.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"

namespace shedmon {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, SubmitReturnsTaskResult) {
  exec::ThreadPool pool(2);
  auto future = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenWhenZeroRequested) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, SingleWorkerPreservesSubmissionOrder) {
  // The queue is FIFO, so one worker must observe tasks in submission order.
  exec::ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i, &order] { order.push_back(i); }));
  }
  for (auto& future : futures) {
    future.get();
  }
  std::vector<int> expected(32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  exec::ThreadPool pool(2);
  auto future = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  for (const size_t grain : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(257);
    pool.ParallelFor(0, hits.size(), grain, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
    for (auto& h : hits) {
      h.store(0);
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndSingleIteration) {
  exec::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](size_t) { ++calls; });  // empty range: no calls
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(5, 6, 1, [&](size_t i) {
    ++calls;
    EXPECT_EQ(i, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForGrainBeyondRangeNeverMakesEmptyChunks) {
  // Regression: the caller-participation path re-checks the grain against
  // the range, so a 1-item range with a huge grain (a 1-packet batch after
  // shard splitting) runs exactly one non-empty caller chunk.
  exec::ThreadPool pool(4);
  for (const size_t grain : {size_t{1}, size_t{2}, size_t{1000}}) {
    int calls = 0;
    pool.ParallelFor(7, 8, grain, [&](size_t i) {
      ++calls;
      EXPECT_EQ(i, 7u);
    });
    EXPECT_EQ(calls, 1) << "grain " << grain;
  }
}

TEST(ThreadPoolTest, ParallelForOnOneWorkerPoolDoesNotDeadlock) {
  // An external caller runs the first chunk itself and the single worker
  // drains the rest. (Calling ParallelFor from a worker of the same pool is
  // outside the contract — see the header.)
  exec::ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(0, 100, 7, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstIterationError) {
  exec::ThreadPool pool(3);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.ParallelFor(0, 64, 1,
                                [&](size_t i) {
                                  executed.fetch_add(1);
                                  if (i == 13) {
                                    throw std::invalid_argument("13");
                                  }
                                }),
               std::invalid_argument);
  // All chunks ran to completion before the rethrow (no detached work left).
  EXPECT_EQ(executed.load(), 64);
}

// ---------------------------------------------------------------------------
// QueryExecutor
// ---------------------------------------------------------------------------

TEST(QueryExecutorTest, NullPoolRunsInline) {
  exec::QueryExecutor executor(nullptr);
  EXPECT_FALSE(executor.parallel());
  std::vector<std::string> events;
  executor.Run(2, [&](size_t i) { events.push_back("task" + std::to_string(i)); });
  EXPECT_EQ(events, (std::vector<std::string>{"task0", "task1"}));
}

TEST(QueryExecutorTest, TaskFailurePropagates) {
  exec::ThreadPool pool(2);
  exec::QueryExecutor executor(&pool);
  EXPECT_THROW(executor.Run(4,
                            [](size_t i) {
                              if (i == 2) {
                                throw std::runtime_error("task failed");
                              }
                            }),
               std::runtime_error);
}

TEST(QueryExecutorTest, ZeroTasksIsANoOp) {
  exec::ThreadPool pool(2);
  exec::QueryExecutor executor(&pool);
  int calls = 0;
  executor.Run(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// ---------------------------------------------------------------------------
// Shard planning and unit splitting
// ---------------------------------------------------------------------------

void ExpectCoversOnce(const std::vector<exec::ShardRange>& ranges, size_t units) {
  size_t pos = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, pos);
    EXPECT_LE(r.begin, r.end);
    pos = r.end;
  }
  EXPECT_EQ(pos, units);
}

TEST(ShardSplitTest, SplitUnitsNeverProducesEmptyRanges) {
  // Regression for the 1-packet-batch guard: more shards than units clamps
  // to one unit per shard instead of emitting zero-width ranges.
  const auto one = exec::QueryExecutor::SplitUnits(1, 8);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 0u);
  EXPECT_EQ(one[0].end, 1u);

  const auto three = exec::QueryExecutor::SplitUnits(3, 8);
  ASSERT_EQ(three.size(), 3u);
  ExpectCoversOnce(three, 3);
  for (const auto& r : three) {
    EXPECT_EQ(r.end - r.begin, 1u);
  }
}

TEST(ShardSplitTest, SplitUnitsZeroUnitsDegradesToOneEmptySpan) {
  const auto ranges = exec::QueryExecutor::SplitUnits(0, 4);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 0u);
}

TEST(ShardSplitTest, SplitUnitsSpreadsRemainderOverLeadingRanges) {
  const auto ranges = exec::QueryExecutor::SplitUnits(10, 4);
  ASSERT_EQ(ranges.size(), 4u);
  ExpectCoversOnce(ranges, 10);
  EXPECT_EQ(ranges[0].end - ranges[0].begin, 3u);
  EXPECT_EQ(ranges[1].end - ranges[1].begin, 3u);
  EXPECT_EQ(ranges[2].end - ranges[2].begin, 2u);
  EXPECT_EQ(ranges[3].end - ranges[3].begin, 2u);
}

TEST(ShardSplitTest, PlanShardsRespectsPoolGrainAndBudget) {
  exec::ThreadPool pool(3);
  exec::QueryExecutor executor(&pool);
  // Capped by the max-shards budget.
  EXPECT_EQ(executor.PlanShards(10'000, 2, 256), 2u);
  // Capped by execution contexts (3 workers + the participating caller).
  EXPECT_EQ(executor.PlanShards(10'000, 16, 256), 4u);
  // Capped by the minimum grain; tiny batches stay whole.
  EXPECT_EQ(executor.PlanShards(600, 16, 256), 2u);
  EXPECT_EQ(executor.PlanShards(255, 16, 256), 1u);
  EXPECT_EQ(executor.PlanShards(1, 16, 256), 1u);
  EXPECT_EQ(executor.PlanShards(0, 16, 256), 1u);
  // max_shards <= 1 and inline executors never shard.
  EXPECT_EQ(executor.PlanShards(10'000, 1, 256), 1u);
  EXPECT_EQ(exec::QueryExecutor(nullptr).PlanShards(10'000, 16, 256), 1u);
}

// ---------------------------------------------------------------------------
// Parallel == serial, bit for bit
// ---------------------------------------------------------------------------

const trace::Trace& EquivalenceTrace() {
  static const trace::Trace t = [] {
    trace::TraceSpec spec;
    spec.name = "exec-equivalence";
    spec.duration_s = 4.0;
    spec.flows_per_s = 180.0;
    spec.payloads = true;
    spec.seed = 777;
    return trace::TraceGenerator(spec).Generate();
  }();
  return t;
}

std::vector<std::string> EquivalenceQueries() {
  // Mixed packet/flow sampling, custom-shedding support (high-watermark,
  // top-k), byte-heavy work with sub-packet shard seams (pattern-search),
  // and a deliberately non-shardable query (trace: order-sensitive rolling
  // storage) so sharded bins mix split and whole batches.
  return {"counter", "flows", "high-watermark", "top-k", "pattern-search", "trace"};
}

double EquivalenceDemand() {
  static const double demand = core::MeasureMeanDemand(
      EquivalenceQueries(), EquivalenceTrace(), core::OracleKind::kModel);
  return demand;
}

void ExpectBinLogsIdentical(const std::vector<core::BinLog>& serial,
                            const std::vector<core::BinLog>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t b = 0; b < serial.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    const core::BinLog& s = serial[b];
    const core::BinLog& p = parallel[b];
    EXPECT_EQ(s.start_us, p.start_us);
    EXPECT_EQ(s.packets_in, p.packets_in);
    EXPECT_EQ(s.packets_dropped, p.packets_dropped);
    EXPECT_EQ(s.packets_unsampled, p.packets_unsampled);
    EXPECT_EQ(s.batch_dropped, p.batch_dropped);
    EXPECT_EQ(s.overload, p.overload);
    EXPECT_EQ(s.predicted_cycles, p.predicted_cycles);
    EXPECT_EQ(s.avail_cycles, p.avail_cycles);
    EXPECT_EQ(s.query_cycles, p.query_cycles);
    EXPECT_EQ(s.ps_cycles, p.ps_cycles);
    EXPECT_EQ(s.ls_cycles, p.ls_cycles);
    EXPECT_EQ(s.como_cycles, p.como_cycles);
    EXPECT_EQ(s.backlog_cycles, p.backlog_cycles);
    EXPECT_EQ(s.rtthresh, p.rtthresh);
    EXPECT_EQ(s.rate, p.rate);
    EXPECT_EQ(s.per_query_cycles, p.per_query_cycles);
    EXPECT_EQ(s.disabled, p.disabled);
  }
}

struct EquivalenceCase {
  std::string label;
  core::ShedderKind shedder = core::ShedderKind::kPredictive;
  shed::StrategyKind strategy = shed::StrategyKind::kEqSrates;
  double k = 0.5;  // overload factor
  bool custom_shedding = false;
};

api::PipelineBuilder EquivalenceBuilder(const EquivalenceCase& c) {
  api::PipelineBuilder builder;
  builder.Shedder(c.shedder)
      .Strategy(c.strategy)
      .CyclesPerBin(std::max(1.0, EquivalenceDemand() * (1.0 - c.k)))
      .CustomShedding(c.custom_shedding)
      .Oracle(core::OracleKind::kModel);
  for (const auto& name : EquivalenceQueries()) {
    builder.AddQuery(name);
  }
  return builder;
}

// One serial (threads 0, shards 1) golden run per case, shared across the
// (threads x shards) grid so the sweep stays fast.
const api::Pipeline& SerialBaseline(const EquivalenceCase& c) {
  static std::map<std::string, std::unique_ptr<api::Pipeline>>& cache =
      *new std::map<std::string, std::unique_ptr<api::Pipeline>>();
  auto it = cache.find(c.label);
  if (it == cache.end()) {
    api::PipelineBuilder builder = EquivalenceBuilder(c);
    builder.Threads(0);
    it = cache.emplace(c.label, api::RunTrace(builder, EquivalenceTrace())).first;
  }
  return *it->second;
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<EquivalenceCase, size_t, size_t>> {};

TEST_P(ParallelEquivalence, BinLogsAndAccuraciesBitIdenticalToSerial) {
  const auto& [c, threads, shards] = GetParam();
  api::PipelineBuilder builder = EquivalenceBuilder(c);
  builder.Threads(threads).MaxShardsPerQuery(shards);
  if (threads == 0 && shards > 1) {
    // Shards without a worker pool used to be silently inert; the eager
    // builder validation now rejects the combination outright.
    EXPECT_THROW(api::RunTrace(builder, EquivalenceTrace()), shedmon::ConfigError);
    return;
  }
  const auto& serial = SerialBaseline(c);
  const auto parallel = api::RunTrace(builder, EquivalenceTrace());

  EXPECT_EQ(serial.total_packets(), parallel->total_packets());
  EXPECT_EQ(serial.total_dropped(), parallel->total_dropped());
  ExpectBinLogsIdentical(serial.log(), parallel->log());
  ASSERT_EQ(serial.num_queries(), parallel->num_queries());
  for (size_t q = 0; q < serial.num_queries(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const auto sa = serial.AccuracyAt(q);
    const auto pa = parallel->AccuracyAt(q);
    EXPECT_EQ(sa.mean_error, pa.mean_error);
    EXPECT_EQ(sa.stdev_error, pa.stdev_error);
    EXPECT_EQ(serial.MeanAccuracyAt(q), parallel->MeanAccuracyAt(q));
  }
}

// threads 0 (inline) x shards > 1 proves the builder rejects sharding
// without a pool; threads > 0 x shards {2, 8} exercises real (query, shard)
// fan-out, including shard counts past the pool width.
INSTANTIATE_TEST_SUITE_P(
    ShedderByThreadsAndShards, ParallelEquivalence,
    ::testing::Combine(
        ::testing::Values(
            EquivalenceCase{"predictive_eq", core::ShedderKind::kPredictive,
                            shed::StrategyKind::kEqSrates, 0.5, false},
            EquivalenceCase{"predictive_mmfs_noshed_k0", core::ShedderKind::kPredictive,
                            shed::StrategyKind::kMmfsPkt, 0.0, false},
            EquivalenceCase{"predictive_custom", core::ShedderKind::kPredictive,
                            shed::StrategyKind::kMmfsCpu, 0.6, true},
            EquivalenceCase{"reactive", core::ShedderKind::kReactive,
                            shed::StrategyKind::kEqSrates, 0.5, false},
            EquivalenceCase{"no_shed", core::ShedderKind::kNoShed,
                            shed::StrategyKind::kEqSrates, 0.5, false}),
        ::testing::Values(0, 2, 4), ::testing::Values(1, 2, 8)),
    [](const auto& info) {
      return std::get<0>(info.param).label + "_t" + std::to_string(std::get<1>(info.param)) +
             "_s" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Sharded determinism (ROADMAP gap: oracle behavior under threads + shards)
// ---------------------------------------------------------------------------

// Runs the public Pipeline facade over the equivalence trace with worker
// threads and intra-query sharding; returns the run's BinLogs plus per-query
// accuracies.
std::unique_ptr<api::Pipeline> RunShardedPipeline(core::OracleKind oracle, size_t threads,
                                                  size_t shards, double capacity) {
  auto pipeline = PipelineBuilder()
                      .Oracle(oracle)
                      .CyclesPerBin(capacity)
                      .Threads(threads)
                      .MaxShardsPerQuery(shards)
                      .BuildUnique();
  for (const auto& name : EquivalenceQueries()) {
    pipeline->AddQuery(name);
  }
  pipeline->Push(EquivalenceTrace());
  pipeline->Finish();
  return pipeline;
}

TEST(ShardedDeterminism, ModelOracleSheddingDecisionsIdenticalAcrossRuns) {
  // Two independent pipelines, each with 4 workers and real shard fan-out:
  // every shedding decision (rates, disabled flags, overload bits) and every
  // charge must be bit-identical between the runs — the model oracle's
  // determinism survives the extra (query, shard) scheduling freedom.
  const double capacity = std::max(1.0, EquivalenceDemand() * 0.5);
  const auto a = RunShardedPipeline(core::OracleKind::kModel, 4, 4, capacity);
  const auto b = RunShardedPipeline(core::OracleKind::kModel, 4, 4, capacity);
  ExpectBinLogsIdentical(a->log(), b->log());
  ASSERT_EQ(a->num_queries(), b->num_queries());
  for (size_t q = 0; q < a->num_queries(); ++q) {
    EXPECT_EQ(a->MeanAccuracyAt(q), b->MeanAccuracyAt(q)) << "query " << q;
  }
}

// Records what the kQuery charges actually see, so the shard-cycles plumbing
// (worker-timed OnShardBatch -> WorkHint::shard_cycles -> wall-measuring
// oracle) is pinned deterministically instead of via flaky TSC assertions.
class ShardCyclesProbeOracle : public core::CostOracle {
 public:
  double Run(core::WorkKind kind, const core::WorkHint& hint,
             const std::function<void()>& fn) override {
    fn();
    if (kind == core::WorkKind::kQuery) {
      std::lock_guard<std::mutex> lock(mutex_);
      query_shard_cycles_.push_back(hint.shard_cycles);
    }
    // A wall-measuring oracle must fold the pre-spent shard cycles into the
    // charge; mimic that so the BinLog exposes whether they arrived.
    return 1.0 + hint.shard_cycles;
  }
  double DefaultBinBudget(uint64_t /*bin_us*/) const override { return 1e12; }
  std::string_view name() const override { return "shard-cycles-probe"; }

  std::vector<double> query_shard_cycles() {
    std::lock_guard<std::mutex> lock(mutex_);
    return query_shard_cycles_;
  }

 private:
  std::mutex mutex_;
  std::vector<double> query_shard_cycles_;
};

TEST(ShardedDeterminism, MeasuringOraclesChargeWorkerShardCycles) {
  core::SystemConfig cfg;
  cfg.cycles_per_bin = 1e12;
  cfg.num_threads = 4;
  cfg.max_shards_per_query = 4;
  auto owned_oracle = std::make_unique<ShardCyclesProbeOracle>();
  ShardCyclesProbeOracle* oracle = owned_oracle.get();
  core::MonitoringSystem system(cfg, std::move(owned_oracle));
  system.AddQuery(query::MakeQuery("pattern-search"));  // byte-heavy, shards
  system.AddQuery(query::MakeQuery("trace"));           // never shards

  trace::Batcher batcher(EquivalenceTrace(), cfg.time_bin_us);
  trace::Batch batch;
  ASSERT_TRUE(batcher.Next(batch));
  ASSERT_GT(batch.size(), 0u);
  system.ProcessBatch(batch);
  system.Finish();

  // Both queries charged; the sharded one carried worker-timed shard cycles
  // into its hint, the non-shardable one must not have.
  const auto charges = oracle->query_shard_cycles();
  ASSERT_EQ(charges.size(), 2u);
  EXPECT_GT(*std::max_element(charges.begin(), charges.end()), 0.0);
  EXPECT_EQ(*std::min_element(charges.begin(), charges.end()), 0.0);
  // And the charge (1 + shard_cycles) flowed into the BinLog's accounting.
  ASSERT_EQ(system.log().size(), 1u);
  EXPECT_GT(system.log()[0].query_cycles, 2.0);
}

TEST(ShardedDeterminism, MeasuredOracleToleranceBandSmoke) {
  // The measured oracle charges real TSC cycles, so two runs are never
  // bit-identical; under threads + shards it must still behave sanely. With
  // ample capacity nothing but the cold-start probe ever sheds: every
  // post-warmup rate stays 1.0, no uncontrolled drops, and the accounting
  // stays inside loose structural bands.
  auto pipeline = RunShardedPipeline(core::OracleKind::kMeasured, 4, 4, /*capacity=*/1e12);
  EXPECT_EQ(pipeline->total_dropped(), 0u);
  EXPECT_EQ(pipeline->total_packets(), EquivalenceTrace().packets.size());
  const auto& log = pipeline->log();
  ASSERT_FALSE(log.empty());
  // Warm-up: the cost models need SystemConfig::warmup_observations bins.
  const size_t warmup = core::SystemConfig{}.warmup_observations;
  for (size_t b = 0; b < log.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    EXPECT_FALSE(log[b].batch_dropped);
    EXPECT_GE(log[b].query_cycles, 0.0);
    for (size_t q = 0; q < log[b].rate.size(); ++q) {
      EXPECT_GE(log[b].rate[q], 0.0);
      EXPECT_LE(log[b].rate[q], 1.0);
      if (b >= warmup) {
        EXPECT_EQ(log[b].rate[q], 1.0) << "query " << q;
      }
    }
  }
  for (size_t q = 0; q < pipeline->num_queries(); ++q) {
    const double accuracy = pipeline->MeanAccuracyAt(q);
    EXPECT_GE(accuracy, 0.0) << "query " << q;
    EXPECT_LE(accuracy, 1.0) << "query " << q;
  }
}

}  // namespace
}  // namespace shedmon
