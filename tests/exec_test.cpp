// src/exec/ tests: ThreadPool semantics (ordering, exception propagation,
// zero-task and one-worker edges), QueryExecutor's task fan-out, and the
// subsystem's headline property — parallel pipelines are bit-identical to
// serial ones at every thread count, for every shedder kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
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
  // the range, so a 1-item range with a huge grain runs exactly one
  // non-empty caller chunk.
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
  // top-k), byte-heavy work (pattern-search) and order-sensitive state
  // (trace: rolling storage).
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

// One serial (threads 0) golden run per case, shared across the thread-count
// grid so the sweep stays fast.
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
    : public ::testing::TestWithParam<std::tuple<EquivalenceCase, size_t>> {};

TEST_P(ParallelEquivalence, BinLogsAndAccuraciesBitIdenticalToSerial) {
  const auto& [c, threads] = GetParam();
  api::PipelineBuilder builder = EquivalenceBuilder(c);
  builder.Threads(threads);
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

// threads 0 re-runs the inline path against its own golden; threads
// {1, 2, 3, 4, 8} fan the per-query tasks out over a real pool: a single
// worker, counts that do and do not divide the six queries evenly, and more
// workers than queries.
INSTANTIATE_TEST_SUITE_P(
    ShedderByThreads, ParallelEquivalence,
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
                            shed::StrategyKind::kEqSrates, 0.5, false},
            EquivalenceCase{"predictive_mmfs_cpu", core::ShedderKind::kPredictive,
                            shed::StrategyKind::kMmfsCpu, 0.5, false},
            EquivalenceCase{"predictive_eq_k09", core::ShedderKind::kPredictive,
                            shed::StrategyKind::kEqSrates, 0.9, false}),
        ::testing::Values(0, 1, 2, 3, 4, 8)),
    [](const auto& info) {
      return std::get<0>(info.param).label + "_t" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Threaded determinism (oracle behavior under a worker pool)
// ---------------------------------------------------------------------------

// Runs the public Pipeline facade over the equivalence trace with worker
// threads; returns the run's BinLogs plus per-query accuracies.
std::unique_ptr<api::Pipeline> RunThreadedPipeline(core::OracleKind oracle, size_t threads,
                                                   double capacity) {
  auto pipeline = PipelineBuilder()
                      .Oracle(oracle)
                      .CyclesPerBin(capacity)
                      .Threads(threads)
                      .BuildUnique();
  for (const auto& name : EquivalenceQueries()) {
    pipeline->AddQuery(name);
  }
  pipeline->Push(EquivalenceTrace());
  pipeline->Finish();
  return pipeline;
}

TEST(ThreadedDeterminism, ModelOracleSheddingDecisionsIdenticalAcrossRuns) {
  // Two independent pipelines, each with 4 workers: every shedding decision
  // (rates, disabled flags, overload bits) and every charge must be
  // bit-identical between the runs — the model oracle's determinism
  // survives the pool's scheduling freedom.
  const double capacity = std::max(1.0, EquivalenceDemand() * 0.5);
  const auto a = RunThreadedPipeline(core::OracleKind::kModel, 4, capacity);
  const auto b = RunThreadedPipeline(core::OracleKind::kModel, 4, capacity);
  ExpectBinLogsIdentical(a->log(), b->log());
  ASSERT_EQ(a->num_queries(), b->num_queries());
  for (size_t q = 0; q < a->num_queries(); ++q) {
    EXPECT_EQ(a->MeanAccuracyAt(q), b->MeanAccuracyAt(q)) << "query " << q;
  }
}

TEST(ThreadedDeterminism, MeasuredOracleToleranceBandSmoke) {
  // The measured oracle charges real TSC cycles, so two runs are never
  // bit-identical; under a worker pool it must still behave sanely. With
  // ample capacity nothing but the cold-start probe ever sheds: every
  // post-warmup rate stays 1.0, no uncontrolled drops, and the accounting
  // stays inside loose structural bands.
  auto pipeline = RunThreadedPipeline(core::OracleKind::kMeasured, 4, /*capacity=*/1e12);
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
