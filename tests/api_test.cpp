// shedmon::Pipeline facade tests: the golden equivalence suite (a
// Pipeline-driven run produces field-exact BinLogs and accuracies vs. the
// pre-refactor batch path, serial and threaded, including mid-run query
// arrivals), QueryHandle add/remove semantics, observer ordering on the
// coordinator thread at any thread count, and the CSV/JSONL sinks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/api/config.h"
#include "src/api/pipeline.h"
#include "src/api/run.h"
#include "src/api/sinks.h"
#include "src/core/runner.h"
#include "src/obs/prometheus.h"
#include "src/obs/snapshot.h"
#include "src/query/queries.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"

namespace shedmon {
namespace {

const trace::Trace& SharedTrace() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::CescaII();
    spec.duration_s = 3.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  return trace;
}

// Output of the golden batch path: the shed system plus the unsampled
// reference instances its accuracy is measured against.
struct GoldenRun {
  std::unique_ptr<core::MonitoringSystem> system;
  std::vector<std::unique_ptr<query::Query>> reference;

  query::AccuracyRow Accuracy(size_t i) const {
    return query::SummarizeAccuracy(system->query(i), *reference[i]);
  }
  double MeanAccuracy(size_t i) const {
    return std::clamp(1.0 - Accuracy(i).mean_error, 0.0, 1.0);
  }
  double AverageAccuracy() const {
    double sum = 0.0;
    for (size_t i = 0; i < system->num_queries(); ++i) {
      sum += MeanAccuracy(i);
    }
    return system->num_queries() == 0 ? 0.0 : sum / static_cast<double>(system->num_queries());
  }
  double MinimumAccuracy() const {
    double min = 1.0;
    for (size_t i = 0; i < system->num_queries(); ++i) {
      min = std::min(min, MeanAccuracy(i));
    }
    return min;
  }
};

// The pre-facade batch runner, replicated verbatim (modulo the serial
// reference helper) for the builder defaults every caller here uses: model
// oracle, DefaultMinRate per query. It is the golden batch path every
// Pipeline run must reproduce bit for bit, kept in the test so the facade
// can never drift from the historical semantics unnoticed.
GoldenRun GoldenBatchRun(const core::SystemConfig& system, const std::vector<std::string>& names,
                         const trace::Trace& trace) {
  GoldenRun result;
  result.system =
      std::make_unique<core::MonitoringSystem>(system, core::MakeOracle(core::OracleKind::kModel));
  for (const std::string& name : names) {
    core::QueryConfig qc;
    qc.min_sampling_rate = core::DefaultMinRate(name);
    result.system->AddQuery(query::MakeQuery(name), qc);
  }

  trace::Batcher batcher(trace, system.time_bin_us);
  trace::Batch batch;
  while (batcher.Next(batch)) {
    result.system->ProcessBatch(batch);
  }
  result.system->Finish();

  result.reference = query::RunReference(names, trace, system.time_bin_us);
  return result;
}

void ExpectBinLogsIdentical(const std::vector<core::BinLog>& golden,
                            const std::vector<core::BinLog>& actual) {
  ASSERT_EQ(golden.size(), actual.size());
  for (size_t b = 0; b < golden.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    const core::BinLog& g = golden[b];
    const core::BinLog& a = actual[b];
    EXPECT_EQ(g.start_us, a.start_us);
    EXPECT_EQ(g.packets_in, a.packets_in);
    EXPECT_EQ(g.packets_dropped, a.packets_dropped);
    EXPECT_EQ(g.packets_unsampled, a.packets_unsampled);
    EXPECT_EQ(g.batch_dropped, a.batch_dropped);
    EXPECT_EQ(g.overload, a.overload);
    EXPECT_EQ(g.predicted_cycles, a.predicted_cycles);
    EXPECT_EQ(g.avail_cycles, a.avail_cycles);
    EXPECT_EQ(g.query_cycles, a.query_cycles);
    EXPECT_EQ(g.ps_cycles, a.ps_cycles);
    EXPECT_EQ(g.ls_cycles, a.ls_cycles);
    EXPECT_EQ(g.como_cycles, a.como_cycles);
    EXPECT_EQ(g.backlog_cycles, a.backlog_cycles);
    EXPECT_EQ(g.rtthresh, a.rtthresh);
    EXPECT_EQ(g.rate, a.rate);
    EXPECT_EQ(g.per_query_cycles, a.per_query_cycles);
    EXPECT_EQ(g.disabled, a.disabled);
    EXPECT_EQ(g.degradation, a.degradation);
    EXPECT_EQ(g.deadline_missed, a.deadline_missed);
    EXPECT_EQ(g.deadline_overrun_us, a.deadline_overrun_us);
  }
}

// A builder without a query roster, provisioned at K = 0.5 for `names`;
// callers add the queries (through the builder or the built pipeline).
api::PipelineBuilder BuilderFor(const std::vector<std::string>& names, core::ShedderKind shedder,
                                shed::StrategyKind strategy, bool custom, size_t threads) {
  api::PipelineBuilder builder;
  builder.Shedder(shedder)
      .Strategy(strategy)
      .CustomShedding(custom)
      .Threads(threads)
      .CyclesPerBin(0.5 *
                    core::MeasureMeanDemand(names, SharedTrace(), core::OracleKind::kModel));
  return builder;
}

// ---------------------------------------------------------------------------
// Golden equivalence: Pipeline vs pre-refactor batch path
// ---------------------------------------------------------------------------

struct GoldenCase {
  std::string label;
  std::vector<std::string> names;
  core::ShedderKind shedder = core::ShedderKind::kPredictive;
  shed::StrategyKind strategy = shed::StrategyKind::kMmfsPkt;
  bool custom = false;
};

class PipelineGolden : public ::testing::TestWithParam<std::tuple<GoldenCase, size_t>> {};

TEST_P(PipelineGolden, BinLogsAndAccuraciesMatchPreRefactorPath) {
  const auto& [config, threads] = GetParam();
  const api::PipelineBuilder builder =
      BuilderFor(config.names, config.shedder, config.strategy, config.custom, threads);

  const GoldenRun golden = GoldenBatchRun(builder.config(), config.names, SharedTrace());

  auto pipeline = builder.BuildUnique();
  std::vector<api::QueryHandle> handles;
  for (const auto& name : config.names) {
    handles.push_back(pipeline->AddQuery(name));
  }
  pipeline->Push(SharedTrace());
  pipeline->Finish();

  EXPECT_EQ(golden.system->total_packets(), pipeline->total_packets());
  EXPECT_EQ(golden.system->total_dropped(), pipeline->total_dropped());
  ExpectBinLogsIdentical(golden.system->log(), pipeline->log());
  for (size_t q = 0; q < config.names.size(); ++q) {
    SCOPED_TRACE(config.names[q]);
    const query::AccuracyRow want = golden.Accuracy(q);
    const query::AccuracyRow live = handles[q].Accuracy();
    EXPECT_EQ(want.mean_error, live.mean_error);
    EXPECT_EQ(want.stdev_error, live.stdev_error);
    EXPECT_EQ(golden.MeanAccuracy(q), handles[q].MeanAccuracy());
  }
  EXPECT_EQ(golden.AverageAccuracy(), pipeline->AverageAccuracy());
  EXPECT_EQ(golden.MinimumAccuracy(), pipeline->MinimumAccuracy());
}

INSTANTIATE_TEST_SUITE_P(
    ShedderStrategySweep, PipelineGolden,
    ::testing::Combine(
        ::testing::Values(
            GoldenCase{"predictive_mmfs_pkt",
                       {"counter", "flows", "top-k"},
                       core::ShedderKind::kPredictive,
                       shed::StrategyKind::kMmfsPkt,
                       false},
            GoldenCase{"predictive_eq_srates",
                       {"counter", "flows"},
                       core::ShedderKind::kPredictive,
                       shed::StrategyKind::kEqSrates,
                       false},
            GoldenCase{"reactive",
                       {"counter", "flows"},
                       core::ShedderKind::kReactive,
                       shed::StrategyKind::kEqSrates,
                       false},
            GoldenCase{"no_shed",
                       {"counter", "flows"},
                       core::ShedderKind::kNoShed,
                       shed::StrategyKind::kEqSrates,
                       false},
            GoldenCase{"predictive_custom",
                       {"high-watermark", "p2p-detector", "counter"},
                       core::ShedderKind::kPredictive,
                       shed::StrategyKind::kMmfsPkt,
                       true}),
        ::testing::Values(size_t{0}, size_t{2}, size_t{4})),
    [](const auto& info) {
      return std::get<0>(info.param).label + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

// The one-call batch entry point (builder roster + whole trace) must also
// match the golden path exactly.
TEST(PipelineGoldenWrapper, RunTraceMatchesGoldenPath) {
  const std::vector<std::string> names = {"counter", "flows"};
  for (const size_t threads : {size_t{0}, size_t{2}}) {
    api::PipelineBuilder builder = BuilderFor(names, core::ShedderKind::kPredictive,
                                              shed::StrategyKind::kMmfsPkt, false, threads);
    const GoldenRun golden = GoldenBatchRun(builder.config(), names, SharedTrace());
    for (const auto& name : names) {
      builder.AddQuery(name);
    }
    const auto wrapped = api::RunTrace(builder, SharedTrace());
    ExpectBinLogsIdentical(golden.system->log(), wrapped->log());
    for (size_t q = 0; q < names.size(); ++q) {
      EXPECT_EQ(golden.Accuracy(q).mean_error, wrapped->AccuracyAt(q).mean_error);
      EXPECT_EQ(golden.Accuracy(q).stdev_error, wrapped->AccuracyAt(q).stdev_error);
    }
  }
}

// Every estimate and its reference close intervals by the same clock, so a
// run whose bin count is a multiple of none of the intervals ends with both
// on the same completed_intervals(), the flushed partial interval included,
// under each shedder.
TEST(PipelineIntervals, EstimatesAndReferencesEndOnTheSameInterval) {
  trace::TraceSpec spec = trace::CescaII();
  spec.duration_s = 2.35;
  const trace::Trace trace = trace::TraceGenerator(spec).Generate();
  const double demand =
      core::MeasureMeanDemand({"counter", "flows", "top-k"}, trace, core::OracleKind::kModel);
  for (const core::ShedderKind shedder :
       {core::ShedderKind::kPredictive, core::ShedderKind::kReactive,
        core::ShedderKind::kNoShed}) {
    for (const size_t threads : {size_t{0}, size_t{2}}) {
      SCOPED_TRACE("shedder " + std::to_string(static_cast<int>(shedder)) + " threads " +
                   std::to_string(threads));
      auto pipeline = api::PipelineBuilder()
                          .Shedder(shedder)
                          .Threads(threads)
                          .CyclesPerBin(0.5 * demand)
                          .BuildUnique();
      std::vector<api::QueryHandle> handles;
      handles.push_back(pipeline->AddQuery(std::make_unique<query::CounterQuery>(7), {},
                                           std::make_unique<query::CounterQuery>(7)));
      handles.push_back(pipeline->AddQuery(std::make_unique<query::FlowsQuery>(11), {},
                                           std::make_unique<query::FlowsQuery>(11)));
      handles.push_back(pipeline->AddQuery("top-k"));
      pipeline->Push(trace);
      pipeline->Finish();
      const size_t bins = pipeline->bins_processed();
      for (const api::QueryHandle& handle : handles) {
        SCOPED_TRACE(handle.name());
        const size_t interval = handle.query().interval_bins();
        ASSERT_NE(bins % interval, 0u);
        ASSERT_TRUE(handle.has_reference());
        EXPECT_EQ(handle.query().completed_intervals(), (bins + interval - 1) / interval);
        EXPECT_EQ(handle.reference()->completed_intervals(),
                  handle.query().completed_intervals());
        EXPECT_EQ(handle.query().bins_in_interval(), 0u);
        EXPECT_EQ(handle.reference()->bins_in_interval(), 0u);
      }
    }
  }
}

// Mid-run query arrival (Fig. 6.9 shape): golden = manual batch loop adding
// a query between two ProcessBatch calls; pipeline = AdvanceTime + AddQuery
// at the same bin boundary while pushing raw packets.
TEST(PipelineGoldenArrival, MidRunAddQueryMatchesManualBatchLoop) {
  const std::vector<std::string> initial = {"counter", "flows"};
  const std::string arrival = "top-k";
  constexpr uint64_t kBinUs = 100'000;
  constexpr size_t kArrivalBin = 12;
  const double demand =
      core::MeasureMeanDemand({"counter", "flows", "top-k"}, SharedTrace(),
                              core::OracleKind::kModel);

  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::SystemConfig cfg;
    cfg.shedder = core::ShedderKind::kPredictive;
    cfg.strategy = shed::StrategyKind::kMmfsPkt;
    cfg.cycles_per_bin = 0.5 * demand;
    cfg.num_threads = threads;

    // Golden: the manual loop the fig6.9 driver used before the facade.
    core::MonitoringSystem golden(cfg, core::MakeOracle(core::OracleKind::kModel));
    for (const auto& name : initial) {
      golden.AddQuery(query::MakeQuery(name), {core::DefaultMinRate(name), true});
    }
    trace::Batcher batcher(SharedTrace(), kBinUs);
    trace::Batch batch;
    size_t bin = 0;
    while (batcher.Next(batch)) {
      if (bin == kArrivalBin) {
        golden.AddQuery(query::MakeQuery(arrival), {core::DefaultMinRate(arrival), true});
      }
      golden.ProcessBatch(batch);
      ++bin;
    }
    golden.Finish();
    ASSERT_GT(bin, kArrivalBin) << "trace too short for the arrival scenario";

    // Facade: push packets, sequence the arrival with AdvanceTime.
    auto pipeline = api::PipelineBuilder().Config(cfg).BuildUnique();
    for (const auto& name : initial) {
      pipeline->AddQuery(name);
    }
    bool added = false;
    for (const net::PacketRecord& packet : SharedTrace().packets) {
      if (!added && packet.ts_us >= kArrivalBin * kBinUs) {
        pipeline->AdvanceTime(kArrivalBin * kBinUs);
        pipeline->AddQuery(arrival);
        added = true;
      }
      pipeline->Push(net::Packet::View(packet));
    }
    pipeline->Finish();
    ASSERT_TRUE(added);

    EXPECT_EQ(golden.total_packets(), pipeline->total_packets());
    EXPECT_EQ(golden.total_dropped(), pipeline->total_dropped());
    ExpectBinLogsIdentical(golden.log(), pipeline->log());
    // The late query's results match too: compare against a fresh reference
    // run of the same post-arrival stream the golden system saw.
    EXPECT_EQ(golden.num_queries(), pipeline->num_queries());
    for (size_t q = 0; q < golden.num_queries(); ++q) {
      EXPECT_EQ(golden.query(q).completed_intervals(),
                pipeline->system().query(q).completed_intervals());
      EXPECT_EQ(golden.query(q).work_units(), pipeline->system().query(q).work_units());
    }
  }
}

// ---------------------------------------------------------------------------
// Push ingestion semantics
// ---------------------------------------------------------------------------

TEST(PipelinePush, PacketViewSpansMatchRecordPush) {
  const api::PipelineBuilder builder = BuilderFor({"counter", "pattern-search"},
                                                  core::ShedderKind::kPredictive,
                                                  shed::StrategyKind::kMmfsPkt, false, 0);

  auto by_record = builder.BuildUnique();
  by_record->AddQuery("counter");
  by_record->AddQuery("pattern-search");
  by_record->Push(SharedTrace());
  by_record->Finish();

  // Same traffic, ingested as materialized Packet views batch by batch (the
  // shape a live capture path would use); payload bytes are copied.
  auto by_view = builder.BuildUnique();
  by_view->AddQuery("counter");
  by_view->AddQuery("pattern-search");
  trace::Batcher batcher(SharedTrace(), builder.config().time_bin_us);
  trace::Batch batch;
  while (batcher.Next(batch)) {
    by_view->Push(std::span<const net::Packet>(batch.packets));
    // Recycling the batch right after Push must be safe: views were copied.
  }
  by_view->Finish();

  ExpectBinLogsIdentical(by_record->log(), by_view->log());
}

TEST(PipelinePush, RejectsPacketsOlderThanTheOpenBin) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  net::PacketRecord record;
  record.ts_us = 250'000;
  pipeline->Push(net::Packet::View(record));
  net::PacketRecord late;
  late.ts_us = 90'000;  // bin 0, but bin 2 is open
  EXPECT_THROW(pipeline->Push(net::Packet::View(late)), std::invalid_argument);
  // Same-bin and later packets still flow.
  record.ts_us = 260'000;
  pipeline->Push(net::Packet::View(record));
  pipeline->Finish();
  EXPECT_EQ(pipeline->bins_processed(), 3u);
}

TEST(PipelinePush, AdvanceTimeClosesEmptyBins) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AdvanceTime(500'000);  // five empty bins
  EXPECT_EQ(pipeline->bins_processed(), 5u);
  for (const auto& bin : pipeline->log()) {
    EXPECT_EQ(bin.packets_in, 0u);
  }
  pipeline->Finish();
  EXPECT_EQ(pipeline->bins_processed(), 5u);  // Finish adds no empty bin
}

TEST(PipelinePush, FinishIsIdempotentAndClosesThePipeline) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  net::PacketRecord record;
  record.ts_us = 10;
  pipeline->Push(net::Packet::View(record));
  pipeline->Finish();
  EXPECT_EQ(pipeline->bins_processed(), 1u);
  pipeline->Finish();  // no-op
  EXPECT_EQ(pipeline->bins_processed(), 1u);
  EXPECT_TRUE(pipeline->finished());
  EXPECT_THROW(pipeline->Push(net::Packet::View(record)), std::logic_error);
  EXPECT_THROW(pipeline->AddQuery("flows"), std::logic_error);
}

// ---------------------------------------------------------------------------
// QueryHandle lifecycle: mid-run add, remove/detach, stable handles
// ---------------------------------------------------------------------------

TEST(PipelineHandles, DetachReturnsQueryAndReferenceAndInvalidatesHandle) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  api::QueryHandle flows = pipeline->AddQuery("flows");
  ASSERT_TRUE(counter.valid());
  EXPECT_EQ(counter.index(), 0u);
  EXPECT_EQ(flows.index(), 1u);

  // Run a little over both queries, then detach the first mid-run.
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 15 * 100'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->AdvanceTime(15 * 100'000);
  ASSERT_EQ(pipeline->bins_processed(), 15u);

  api::DetachedQuery detached = pipeline->Detach(counter);
  ASSERT_NE(detached.query, nullptr);
  ASSERT_NE(detached.reference, nullptr);
  EXPECT_EQ(detached.query->name(), "counter");
  EXPECT_FALSE(counter.valid());
  EXPECT_THROW(counter.query(), std::logic_error);
  EXPECT_THROW(pipeline->Detach(counter), std::logic_error);

  // The surviving handle shifted down but still addresses its query.
  EXPECT_TRUE(flows.valid());
  EXPECT_EQ(flows.index(), 0u);
  EXPECT_EQ(flows.name(), "flows");
  EXPECT_EQ(pipeline->num_queries(), 1u);

  // Later bins are sized for the remaining query only.
  pipeline->AdvanceTime(20 * 100'000);
  pipeline->Finish();
  EXPECT_EQ(pipeline->log().back().rate.size(), 1u);
  // The detached pair still yields the standard accuracy summary.
  const auto row = query::SummarizeAccuracy(*detached.query, *detached.reference);
  EXPECT_GE(row.mean_error, 0.0);
  EXPECT_TRUE(flows.has_reference());
  EXPECT_GE(flows.Accuracy().mean_error, 0.0);
}

TEST(PipelineHandles, RemovedQueryStopsAffectingTheRun) {
  // A pipeline where the expensive query leaves matches a fresh system that
  // continues with the survivor's state — we can't replay history, but the
  // column count and rate allocation must reflect the removal immediately.
  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  api::QueryHandle pattern = pipeline->AddQuery("pattern-search");
  pipeline->AdvanceTime(10 * 100'000);
  EXPECT_EQ(pipeline->log().back().rate.size(), 2u);
  pipeline->Remove(pattern);
  pipeline->AdvanceTime(12 * 100'000);
  pipeline->Finish();
  EXPECT_EQ(pipeline->log().back().rate.size(), 1u);
  EXPECT_FALSE(pattern.valid());
  EXPECT_TRUE(counter.valid());
}

TEST(PipelineHandles, UserQueryWithoutReferenceHasNoAccuracy) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle custom =
      pipeline->AddQuery(std::make_unique<query::CounterQuery>(), {0.1, true});
  EXPECT_FALSE(custom.has_reference());
  EXPECT_THROW(custom.Accuracy(), std::logic_error);
  EXPECT_THROW((void)pipeline->AddQuery(std::unique_ptr<query::Query>()),
               std::invalid_argument);
}

TEST(PipelineHandles, TrackAccuracyOffSkipsReferences) {
  auto pipeline = api::PipelineBuilder().TrackAccuracy(false).BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  EXPECT_FALSE(counter.has_reference());
  EXPECT_THROW(counter.Accuracy(), std::logic_error);
  EXPECT_EQ(pipeline->AverageAccuracy(), 0.0);
}

TEST(PipelineHandles, UnattachedHandlesThrowInsteadOfCrashing) {
  api::QueryHandle unattached;
  EXPECT_FALSE(unattached.valid());
  EXPECT_THROW(unattached.index(), std::logic_error);
  EXPECT_THROW(unattached.name(), std::logic_error);
  EXPECT_THROW(unattached.query(), std::logic_error);
  EXPECT_THROW(unattached.reference(), std::logic_error);
  EXPECT_THROW(unattached.Accuracy(), std::logic_error);
}

TEST(PipelineHandles, ZeroTimeBinIsRejectedAtBuild) {
  EXPECT_THROW(api::PipelineBuilder().TimeBin(0).BuildUnique(), std::invalid_argument);
  core::SystemConfig config;
  config.time_bin_us = 0;
  EXPECT_THROW(api::PipelineBuilder().Config(config).BuildUnique(), std::invalid_argument);
}

TEST(PipelineHandles, ReAddedDetachedQueryIsChargedOnlyForNewWork) {
  // The oracle charges the delta of the query's lifetime work counter. A
  // detached instance that re-joins must be re-baselined (not charged its
  // whole history), and its old baseline must not linger for whatever
  // allocation reuses the address (CostOracle::OnQueryAdded/OnQueryRemoved).
  auto pipeline = api::PipelineBuilder().Shedder(core::ShedderKind::kNoShed).BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 100'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->AdvanceTime(100'000);
  const double first_charge = pipeline->log()[0].per_query_cycles[0];
  ASSERT_GT(first_charge, 0.0);

  api::DetachedQuery detached = pipeline->Detach(counter);
  api::QueryHandle back = pipeline->AddQuery(std::move(detached.query), {},
                                             std::move(detached.reference));
  // Replay the same packets one bin later: same work, so the charge must be
  // within the oracle's +/-1% pseudo-noise of the first bin — not doubled by
  // the instance's pre-detach history.
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 100'000) {
      break;
    }
    net::PacketRecord shifted = packet;
    shifted.ts_us += 100'000;
    pipeline->Push(net::Packet::View(shifted));
  }
  pipeline->AdvanceTime(200'000);
  pipeline->Finish();
  const double second_charge = pipeline->log()[1].per_query_cycles[back.index()];
  EXPECT_NEAR(second_charge, first_charge, 0.05 * first_charge);
}

// ---------------------------------------------------------------------------
// Observer dispatch: coordinator thread, bin order, at any thread count
// ---------------------------------------------------------------------------

class RecordingObserver : public api::BinObserver {
 public:
  void OnBin(const core::BinLog& log, const api::BinStats& stats) override {
    bins.push_back(stats.bin_index);
    start_us.push_back(log.start_us);
    num_queries.push_back(stats.num_queries);
    threads.push_back(std::this_thread::get_id());
    names.emplace_back(stats.query_names.begin(), stats.query_names.end());
  }
  void OnRunEnd() override { ++run_ends; }

  std::vector<size_t> bins;
  std::vector<uint64_t> start_us;
  std::vector<size_t> num_queries;
  std::vector<std::thread::id> threads;
  std::vector<std::vector<std::string>> names;
  int run_ends = 0;
};

TEST(PipelineApi, ObserversFireOnCoordinatorThreadInBinOrder) {
  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto pipeline = api::PipelineBuilder().Threads(threads).BuildUnique();
    pipeline->AddQuery("counter");
    pipeline->AddQuery("flows");
    RecordingObserver recorder;
    pipeline->AddObserver(&recorder);
    pipeline->Push(SharedTrace());
    pipeline->Finish();

    ASSERT_EQ(recorder.bins.size(), pipeline->bins_processed());
    for (size_t b = 0; b < recorder.bins.size(); ++b) {
      EXPECT_EQ(recorder.bins[b], b);
      EXPECT_EQ(recorder.start_us[b], b * pipeline->time_bin_us());
      EXPECT_EQ(recorder.threads[b], std::this_thread::get_id());
    }
    EXPECT_EQ(recorder.run_ends, 1);
  }
}

TEST(PipelineApi, ObserverSeesArrivalsAndRemovalsInStats) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  RecordingObserver recorder;
  pipeline->AddObserver(&recorder);

  pipeline->AdvanceTime(2 * 100'000);  // bins 0-1: one query
  pipeline->AddQuery("flows");
  pipeline->AdvanceTime(4 * 100'000);  // bins 2-3: two queries
  pipeline->Remove(counter);
  pipeline->AdvanceTime(5 * 100'000);  // bin 4: flows only
  pipeline->Finish();

  ASSERT_EQ(recorder.num_queries.size(), 5u);
  EXPECT_EQ(recorder.num_queries, (std::vector<size_t>{1, 1, 2, 2, 1}));
  EXPECT_EQ(recorder.names[0], (std::vector<std::string>{"counter"}));
  EXPECT_EQ(recorder.names[2], (std::vector<std::string>{"counter", "flows"}));
  EXPECT_EQ(recorder.names[4], (std::vector<std::string>{"flows"}));
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (const char c : text) {
    lines += c == '\n' ? 1 : 0;
  }
  return lines;
}

TEST(PipelineSinks, CsvSinkWritesHeaderAndOneRowPerBin) {
  std::ostringstream out;
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddObserver(std::make_unique<api::CsvBinSink>(out));
  pipeline->AdvanceTime(3 * 100'000);
  pipeline->Finish();

  const std::string text = out.str();
  EXPECT_EQ(CountLines(text), 4u);  // header + 3 bins
  EXPECT_EQ(text.rfind("bin,start_us,num_queries", 0), 0u);
}

TEST(PipelineSinks, JsonlSinkWritesOneObjectPerBinWithPerQueryArrays) {
  std::ostringstream out;
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddQuery("flows");
  pipeline->AddObserver(std::make_unique<api::JsonlBinSink>(out));
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 2 * 100'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->AdvanceTime(2 * 100'000);
  pipeline->Finish();

  const std::string text = out.str();
  EXPECT_EQ(CountLines(text), 2u);
  EXPECT_NE(text.find("\"bin\":0"), std::string::npos);
  EXPECT_NE(text.find("\"queries\":[\"counter\",\"flows\"]"), std::string::npos);
  EXPECT_NE(text.find("\"rate\":["), std::string::npos);
  EXPECT_EQ(text.find('\t'), std::string::npos);
}

// The number after `"key":` in a JSONL row.
double JsonNumber(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key;
  return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

// Field `column` of a CSV row, as a number.
double CsvField(const std::string& line, size_t column) {
  size_t start = 0;
  for (size_t c = 0; c < column; ++c) {
    start = line.find(',', start) + 1;
  }
  return std::strtod(line.c_str() + start, nullptr);
}

// Both sinks print doubles with max_digits10 significant digits, so every
// cycle count in a per-bin log parses back to the BinLog's exact value.
TEST(PipelineSinks, CsvAndJsonlRoundTripCycleCountsExactly) {
  const std::vector<std::string> names = {"counter", "flows"};
  std::ostringstream csv;
  std::ostringstream jsonl;
  auto pipeline = BuilderFor(names, core::ShedderKind::kPredictive,
                             shed::StrategyKind::kMmfsPkt, false, 0)
                      .BuildUnique();
  for (const std::string& name : names) {
    pipeline->AddQuery(name);
  }
  pipeline->AddObserver(std::make_unique<api::CsvBinSink>(csv));
  pipeline->AddObserver(std::make_unique<api::JsonlBinSink>(jsonl));
  pipeline->Push(SharedTrace());
  pipeline->Finish();
  const std::vector<core::BinLog>& log = pipeline->log();
  ASSERT_GT(log.size(), 10u);

  std::istringstream csv_in(csv.str());
  std::string header;
  std::getline(csv_in, header);
  const auto column = [&header](const std::string& name) {
    const size_t at = ("," + header + ",").find("," + name + ",");
    EXPECT_NE(at, std::string::npos) << name;
    return static_cast<size_t>(std::count(header.begin(), header.begin() + at, ','));
  };
  const size_t avail_col = column("avail_cycles");
  const size_t predicted_col = column("predicted_cycles");
  std::istringstream jsonl_in(jsonl.str());
  size_t rounded = 0;  // bins whose values the old 6-digit output lost
  for (size_t b = 0; b < log.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    std::string csv_row;
    std::string json_row;
    ASSERT_TRUE(std::getline(csv_in, csv_row));
    ASSERT_TRUE(std::getline(jsonl_in, json_row));
    EXPECT_EQ(CsvField(csv_row, avail_col), log[b].avail_cycles);
    EXPECT_EQ(CsvField(csv_row, predicted_col), log[b].predicted_cycles);
    EXPECT_EQ(JsonNumber(json_row, "avail_cycles"), log[b].avail_cycles);
    EXPECT_EQ(JsonNumber(json_row, "predicted_cycles"), log[b].predicted_cycles);
    std::ostringstream six;
    six << log[b].predicted_cycles;
    rounded += std::strtod(six.str().c_str(), nullptr) != log[b].predicted_cycles ? 1 : 0;
  }
  EXPECT_GT(rounded, 0u);  // the check has teeth: 6 digits would have failed
}

TEST(PipelineSinks, FileSinkThrowsOnUnwritablePath) {
  EXPECT_THROW(api::CsvBinSink("/nonexistent-dir/x.csv"), std::runtime_error);
  EXPECT_THROW(api::JsonlBinSink("/nonexistent-dir/x.jsonl"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// api::RunPipelineGrid
// ---------------------------------------------------------------------------

TEST(PipelineApi, RunPipelineGridMatchesSerialCells) {
  const std::vector<std::string> names = {"counter", "flows"};
  const double demand =
      core::MeasureMeanDemand(names, SharedTrace(), core::OracleKind::kModel);
  // Cells differ in capacity, so a result landing at the wrong index shows.
  const auto capacity = [&](size_t cell) {
    return (0.3 + 0.2 * static_cast<double>(cell)) * demand;
  };
  const auto make_builder = [&](size_t cell) {
    api::PipelineBuilder builder;
    builder.CyclesPerBin(capacity(cell));
    for (const auto& name : names) {
      builder.AddQuery(name);
    }
    return builder;
  };
  const auto serial = api::RunPipelineGrid(3, make_builder, SharedTrace(), nullptr);
  exec::ThreadPool pool(3);
  const auto parallel = api::RunPipelineGrid(3, make_builder, SharedTrace(), &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    ExpectBinLogsIdentical(serial[i]->log(), parallel[i]->log());
    EXPECT_EQ(serial[i]->AverageAccuracy(), parallel[i]->AverageAccuracy());
    EXPECT_EQ(parallel[i]->system().capacity(), capacity(i));
  }
}

TEST(PipelineApi, RunPipelineGridRethrowsACellsConfigError) {
  // One invalid cell fails the whole grid with its ConfigError, on the
  // calling thread, whether the cells run serially or on the pool.
  const auto make_builder = [](size_t cell) {
    api::PipelineBuilder builder;
    builder.AddQuery("counter");
    if (cell == 1) {
      builder.TimeBin(0);
    }
    return builder;
  };
  EXPECT_THROW(api::RunPipelineGrid(3, make_builder, SharedTrace(), nullptr), ConfigError);
  exec::ThreadPool pool(2);
  EXPECT_THROW(api::RunPipelineGrid(3, make_builder, SharedTrace(), &pool), ConfigError);
}

// ---------------------------------------------------------------------------
// Eager builder validation: Build() rejects bad configs with ConfigError
// ---------------------------------------------------------------------------

TEST(PipelineValidation, RejectsOutOfRangeSystemKnobs) {
  using B = api::PipelineBuilder;
  EXPECT_THROW(B().TimeBin(0).Build(), ConfigError);
  EXPECT_THROW(B().CyclesPerBin(-1.0).Build(), ConfigError);
  EXPECT_THROW(B().BufferBins(0.0).Build(), ConfigError);
  EXPECT_THROW(B().BufferBins(-2.0).Build(), ConfigError);

  core::SystemConfig config;
  config.ewma_alpha = 0.0;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.ewma_alpha = 1.5;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.como_overhead_fraction = 1.0;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.bootstrap_rate = -0.1;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.system_interval_bins = 0;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
}

TEST(PipelineValidation, RejectsUnknownRosterEntriesAndBadMinRates) {
  EXPECT_THROW(api::PipelineBuilder().AddQuery("no-such-query").Build(), ConfigError);
  core::QueryConfig config;
  config.min_sampling_rate = 1.5;
  EXPECT_THROW(api::PipelineBuilder().AddQuery("counter", config).Build(), ConfigError);
  config.min_sampling_rate = -0.25;
  EXPECT_THROW(api::PipelineBuilder().AddQuery("counter", config).Build(), ConfigError);
}

TEST(PipelineValidation, RejectsUnwritableSinkPathsBeforeBuildingASystem) {
  EXPECT_THROW(api::PipelineBuilder().CsvTo("/nonexistent-dir/x.csv").Build(), ConfigError);
  EXPECT_THROW(api::PipelineBuilder().JsonlTo("/nonexistent-dir/x.jsonl").Build(), ConfigError);
  EXPECT_THROW(api::PipelineBuilder().LogTo("/nonexistent-dir/x.log").Build(), ConfigError);
  // Validate() alone reports the same failures without constructing anything.
  EXPECT_THROW(api::PipelineBuilder().AddQuery("no-such-query").Validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// Declarative roster, config files, Stats, metrics, event log
// ---------------------------------------------------------------------------

TEST(PipelineApi, BuilderRosterRegistersQueriesAtBuild) {
  auto pipeline =
      api::PipelineBuilder().AddQuery("counter").AddQuery("flows").BuildUnique();
  EXPECT_EQ(pipeline->num_queries(), 2u);
  pipeline->AdvanceTime(3 * 100'000);
  pipeline->Finish();
  EXPECT_EQ(pipeline->log().back().rate.size(), 2u);
}

TEST(PipelineApi, FromConfigFileBuildsTheDescribedPipeline) {
  const std::string config_path = ::testing::TempDir() + "shedmon_api_test_config.ini";
  const std::string csv_path = ::testing::TempDir() + "shedmon_api_test_bins.csv";
  {
    std::ofstream file(config_path, std::ios::trunc);
    file << "# pipeline config exercised by api_test\n"
            "[system]\n"
            "time_bin_us = 100000\n"
            "cycles_per_bin = 2.5e6\n"
            "shedder = reactive\n"
            "strategy = mmfs_cpu\n"
            "seed = 7\n"
            "\n"
            "[predictor]\n"
            "kind = ewma\n"
            "ewma_alpha = 0.3\n"
            "\n"
            "[queries]\n"
            "add = counter\n"
            "add = flows\n"
            "\n"
            "[sinks]\n"
            "csv = " << csv_path << "\n";
  }
  api::PipelineBuilder builder = api::PipelineBuilder::FromConfigFile(config_path);
  EXPECT_EQ(builder.config().time_bin_us, 100'000u);
  EXPECT_EQ(builder.config().shedder, core::ShedderKind::kReactive);
  EXPECT_EQ(builder.config().strategy, shed::StrategyKind::kMmfsCpu);
  EXPECT_EQ(builder.config().seed, 7u);
  EXPECT_EQ(builder.config().predictor.kind, predict::PredictorKind::kEwma);

  // The fluent setters still apply on top of the file.
  auto pipeline = builder.Threads(0).BuildUnique();
  EXPECT_EQ(pipeline->num_queries(), 2u);
  pipeline->AdvanceTime(3 * 100'000);
  pipeline->Finish();

  std::ifstream csv(csv_path);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.rfind("bin,start_us,num_queries", 0), 0u);
  std::remove(config_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(PipelineApi, ConfigParserRejectsUnknownKeysWithTheOffendingLine) {
  // {file body, token the error must name}: unknown keys and unknown names
  // alike fail on their own line instead of falling back to a default.
  const std::pair<const char*, const char*> cases[] = {
      {"[system]\nbogus_key = 1\n", "bogus_key"},
      {"[system]\nshedder = reactve\n", "reactve"},
      {"[system]\nstrategy = bogus\n", "bogus"},
      {"[system]\noracle = rdtsc\n", "rdtsc"},
      {"[predictor]\nkind = arima\n", "arima"},
  };
  for (const auto& [body, token] : cases) {
    SCOPED_TRACE(body);
    std::istringstream bad(body);
    try {
      (void)api::ParseConfig(bad, "test.ini");
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("test.ini:2"), std::string::npos);
      EXPECT_NE(std::string(error.what()).find(token), std::string::npos);
    }
  }
}

// The config file and the CLI share one parser per setting: both historical
// spellings map to the same value, anything else is a ConfigError.
TEST(PipelineApi, NameParsersAcceptBothSpellingsAndNothingElse) {
  EXPECT_EQ(api::ParseShedder("none"), core::ShedderKind::kNoShed);
  EXPECT_EQ(api::ParseShedder("noshed"), core::ShedderKind::kNoShed);
  EXPECT_EQ(api::ParseShedder("reactive"), core::ShedderKind::kReactive);
  EXPECT_EQ(api::ParseShedder("predictive"), core::ShedderKind::kPredictive);
  EXPECT_EQ(api::ParseStrategy("eq"), shed::StrategyKind::kEqSrates);
  EXPECT_EQ(api::ParseStrategy("eq_srates"), shed::StrategyKind::kEqSrates);
  EXPECT_EQ(api::ParseStrategy("cpu"), shed::StrategyKind::kMmfsCpu);
  EXPECT_EQ(api::ParseStrategy("mmfs_cpu"), shed::StrategyKind::kMmfsCpu);
  EXPECT_EQ(api::ParseStrategy("pkt"), shed::StrategyKind::kMmfsPkt);
  EXPECT_EQ(api::ParseStrategy("mmfs_pkt"), shed::StrategyKind::kMmfsPkt);
  EXPECT_EQ(api::ParseOracle("model"), core::OracleKind::kModel);
  EXPECT_EQ(api::ParseOracle("measured"), core::OracleKind::kMeasured);
  EXPECT_EQ(api::ParseOverflowPolicy("block"), rt::OverflowPolicy::kBlock);
  EXPECT_EQ(api::ParseOverflowPolicy("drop-newest"), rt::OverflowPolicy::kDropNewest);
  EXPECT_EQ(api::ParseOverflowPolicy("drop-oldest"), rt::OverflowPolicy::kDropOldest);
  EXPECT_THROW(api::ParseShedder("reactve"), ConfigError);
  EXPECT_THROW(api::ParseStrategy("bogus"), ConfigError);
  EXPECT_THROW(api::ParseOracle(""), ConfigError);
  EXPECT_THROW(api::ParseOverflowPolicy("drop_newest"), ConfigError);
}

TEST(PipelineApi, StatsSummarizesTheRunFromRunningTallies) {
  const api::PipelineBuilder builder = BuilderFor({"counter", "flows"},
                                                  core::ShedderKind::kPredictive,
                                                  shed::StrategyKind::kMmfsPkt, false, 0);
  auto pipeline = builder.BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddQuery("flows");
  pipeline->Push(SharedTrace());
  pipeline->Finish();

  const api::PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.bins, pipeline->bins_processed());
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.packets, pipeline->total_packets());
  EXPECT_EQ(stats.dropped, pipeline->total_dropped());
  EXPECT_EQ(stats.capacity, builder.config().cycles_per_bin);

  const auto& log = pipeline->log();
  size_t overload = 0;
  double shed = 0.0;
  for (const core::BinLog& bin : log) {
    overload += bin.overload ? 1 : 0;
    shed += bin.packets_unsampled;
  }
  EXPECT_EQ(stats.overload_bins, overload);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_GT(stats.mean_utilization, 0.0);
  const core::BinLog& last = log.back();
  const double last_spent =
      last.query_cycles + last.ps_cycles + last.ls_cycles + last.como_cycles;
  EXPECT_DOUBLE_EQ(stats.last_utilization, last_spent / stats.capacity);
}

const obs::MetricSample* FindSample(const obs::MetricsSnapshot& snapshot,
                                    std::string_view name,
                                    const obs::LabelSet& labels = {}) {
  for (const obs::MetricSample& sample : snapshot.samples) {
    if (sample.name == name && sample.labels == labels) {
      return &sample;
    }
  }
  return nullptr;
}

TEST(PipelineMetrics, RegistryMirrorsTheBinLogTallies) {
  const api::PipelineBuilder builder = BuilderFor({"counter", "flows"},
                                                  core::ShedderKind::kPredictive,
                                                  shed::StrategyKind::kMmfsPkt, false, 0);
  auto pipeline = builder.BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddQuery("flows");
  pipeline->Push(SharedTrace());
  pipeline->Finish();

  const auto& log = pipeline->log();
  size_t packets = 0;
  size_t dropped = 0;
  size_t overload = 0;
  for (const core::BinLog& bin : log) {
    packets += bin.packets_in;
    dropped += bin.packets_dropped;
    overload += bin.overload ? 1 : 0;
  }

  const obs::MetricsSnapshot snapshot = pipeline->Metrics().Snapshot();
  const obs::MetricSample* bins = FindSample(snapshot, "shedmon_bins_total");
  ASSERT_NE(bins, nullptr);
  EXPECT_EQ(bins->value, static_cast<double>(log.size()));
  const obs::MetricSample* in = FindSample(snapshot, "shedmon_packets_total");
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(in->value, static_cast<double>(packets));
  const obs::MetricSample* drop = FindSample(snapshot, "shedmon_packets_dropped_total");
  ASSERT_NE(drop, nullptr);
  EXPECT_EQ(drop->value, static_cast<double>(dropped));
  const obs::MetricSample* over = FindSample(snapshot, "shedmon_overload_bins_total");
  ASSERT_NE(over, nullptr);
  EXPECT_EQ(over->value, static_cast<double>(overload));
  const obs::MetricSample* capacity = FindSample(snapshot, "shedmon_capacity_cycles");
  ASSERT_NE(capacity, nullptr);
  EXPECT_EQ(capacity->value, builder.config().cycles_per_bin);

  // Per-query series carry the query name as a label; the sampling-rate gauge
  // holds the last bin's applied rate.
  const obs::MetricSample* rate =
      FindSample(snapshot, "shedmon_query_sampling_rate", {{"query", "counter"}});
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->value, log.back().rate[0]);

  const obs::MetricSample* util = FindSample(snapshot, "shedmon_bin_utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->histogram.count, log.size());

  // The Prometheus exposition names every family with a TYPE line.
  const std::string text = obs::PrometheusEncoder::Encode(snapshot);
  EXPECT_NE(text.find("# TYPE shedmon_bins_total counter"), std::string::npos);
  EXPECT_NE(text.find("shedmon_query_sampling_rate{query=\"counter\"}"), std::string::npos);
  EXPECT_NE(text.find("shedmon_bin_utilization_bucket{le=\"+Inf\"}"), std::string::npos);
}

TEST(PipelineApi, JsonlEventLogRecordsTheLifecycle) {
  const std::string path = ::testing::TempDir() + "shedmon_api_event_log.jsonl";
  auto pipeline = api::PipelineBuilder().LogTo(path).BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  pipeline->AdvanceTime(2 * 100'000);
  pipeline->Remove(counter);
  pipeline->Finish();

  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(text.find("{\"event\":\"query_added\""), std::string::npos);
  EXPECT_NE(text.find("\"query\":\"counter\""), std::string::npos);
  EXPECT_NE(text.find("{\"event\":\"bin_closed\""), std::string::npos);
  EXPECT_NE(text.find("{\"event\":\"query_removed\""), std::string::npos);
  EXPECT_NE(text.find("{\"event\":\"finish\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

// The acceptance bar: snapshot at a measurement-interval boundary, restore in
// a "new process", replay the remaining packets — the BinLogs must equal the
// uninterrupted run's field for field, serial and threaded.
TEST(PipelineSnapshot, RestoreThenReplayReproducesTheUninterruptedRun) {
  constexpr uint64_t kCutUs = 2'000'000;  // bin 20 = interval boundary (10-bin intervals)
  for (const size_t threads : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const api::PipelineBuilder builder =
        BuilderFor({"counter", "flows", "top-k"}, core::ShedderKind::kPredictive,
                   shed::StrategyKind::kMmfsPkt, false, threads);

    auto full = builder.BuildUnique();
    for (const char* name : {"counter", "flows", "top-k"}) {
      full->AddQuery(name);
    }
    full->Push(SharedTrace());
    full->Finish();

    auto first = builder.BuildUnique();
    for (const char* name : {"counter", "flows", "top-k"}) {
      first->AddQuery(name);
    }
    for (const net::PacketRecord& packet : SharedTrace().packets) {
      if (packet.ts_us >= kCutUs) {
        break;
      }
      first->Push(net::Packet::View(packet));
    }
    first->AdvanceTime(kCutUs);
    std::stringstream snapshot;
    first->Snapshot(snapshot);

    auto restored = api::PipelineBuilder::Restore(snapshot);
    EXPECT_EQ(restored->num_queries(), 3u);
    for (const net::PacketRecord& packet : SharedTrace().packets) {
      if (packet.ts_us < kCutUs) {
        continue;
      }
      restored->Push(net::Packet::View(packet));
    }
    restored->Finish();

    const auto& full_log = full->log();
    const auto& replay_log = restored->log();
    ASSERT_GT(full_log.size(), 20u);
    ASSERT_EQ(full_log.size(), 20 + replay_log.size());
    const std::vector<core::BinLog> tail(full_log.begin() + 20, full_log.end());
    ExpectBinLogsIdentical(tail, replay_log);
    // The packet tallies are part of the serialized state, so the restored
    // run ends at the uninterrupted run's totals.
    EXPECT_EQ(full->total_packets(), restored->total_packets());
    EXPECT_EQ(full->total_dropped(), restored->total_dropped());
  }
}

// The same bar once every query's 60-observation MLR window has turned over
// more than 2.5 times and its running moments sit mid-way between two exact
// rebuilds: the moments and their recompute phase are part of the snapshot.
TEST(PipelineSnapshot, RestoreAfterWindowTurnoversReproducesTheUninterruptedRun) {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::CescaII();
    spec.duration_s = 22.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  constexpr uint64_t kCutUs = 17'000'000;  // bin 170: 2.83 windows in
  const std::vector<std::string> names = {"counter", "flows", "top-k"};
  const api::PipelineBuilder builder = BuilderFor(names, core::ShedderKind::kPredictive,
                                                  shed::StrategyKind::kMmfsPkt, false, 0);
  auto full = builder.BuildUnique();
  auto first = builder.BuildUnique();
  for (const std::string& name : names) {
    full->AddQuery(name);
    first->AddQuery(name);
  }
  full->Push(trace);
  full->Finish();
  for (const net::PacketRecord& packet : trace.packets) {
    if (packet.ts_us >= kCutUs) {
      break;
    }
    first->Push(net::Packet::View(packet));
  }
  first->AdvanceTime(kCutUs);
  std::stringstream snapshot;
  first->Snapshot(snapshot);

  auto restored = api::PipelineBuilder::Restore(snapshot);
  for (const net::PacketRecord& packet : trace.packets) {
    if (packet.ts_us >= kCutUs) {
      restored->Push(net::Packet::View(packet));
    }
  }
  restored->Finish();

  const auto& full_log = full->log();
  ASSERT_EQ(full_log.size(), 170 + restored->log().size());
  ASSERT_GT(restored->log().size(), 30u);
  const std::vector<core::BinLog> tail(full_log.begin() + 170, full_log.end());
  ExpectBinLogsIdentical(tail, restored->log());
}

TEST(PipelineSnapshot, SnapshotRestoreSnapshotIsByteIdentical) {
  const api::PipelineBuilder builder = BuilderFor({"counter", "flows"},
                                                  core::ShedderKind::kPredictive,
                                                  shed::StrategyKind::kMmfsPkt, false, 0);
  auto pipeline = builder.BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddQuery("flows");
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 1'000'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->AdvanceTime(1'000'000);

  std::stringstream original;
  pipeline->Snapshot(original);
  auto restored = api::PipelineBuilder::Restore(original);
  std::stringstream again;
  restored->Snapshot(again);
  ASSERT_FALSE(original.str().empty());
  EXPECT_EQ(original.str(), again.str());
}

TEST(PipelineSnapshot, RejectsMidBinMidIntervalAndNonStandardQueries) {
  std::ostringstream sink;

  auto mid_bin = api::PipelineBuilder().AddQuery("counter").BuildUnique();
  net::PacketRecord record;
  record.ts_us = 10;
  mid_bin->Push(net::Packet::View(record));
  EXPECT_THROW(mid_bin->Snapshot(sink), obs::SnapshotError);

  auto mid_interval = api::PipelineBuilder().AddQuery("counter").BuildUnique();
  mid_interval->AdvanceTime(100'000);  // one bin into a ten-bin interval
  EXPECT_THROW(mid_interval->Snapshot(sink), obs::SnapshotError);

  // A user-supplied query whose name is not in the standard roster cannot be
  // reconstructed from a name, so Snapshot refuses. (A user-supplied instance
  // of a *standard* query is fine: at an interval boundary it is
  // state-equivalent to the fresh instance Restore builds.)
  class BespokeQuery : public query::Query {
   public:
    BespokeQuery() : Query("bespoke-query", 10) {}

   protected:
    void OnBatch(const query::BatchInput& in) override {
      ChargeWork(static_cast<double>(in.packets.size()));
    }
    void OnEndInterval(size_t) override {}
  };
  auto custom = api::PipelineBuilder().BuildUnique();
  custom->AddQuery(std::make_unique<BespokeQuery>(), {0.1, true});
  EXPECT_THROW(custom->Snapshot(sink), obs::SnapshotError);

  std::istringstream garbage("not a snapshot");
  EXPECT_THROW(api::PipelineBuilder::Restore(garbage), obs::SnapshotError);
}

// The v2 checksum trailer: a snapshot that lost its tail or took a bit flip
// anywhere in the payload must be rejected with SnapshotError, never
// restored into a silently-wrong pipeline.
TEST(PipelineSnapshot, RejectsTruncatedAndBitFlippedSnapshots) {
  auto pipeline = api::PipelineBuilder().AddQuery("counter").AddQuery("flows").BuildUnique();
  std::stringstream good;
  pipeline->Snapshot(good);
  const std::string bytes = good.str();
  ASSERT_GT(bytes.size(), 64u);

  {
    std::istringstream intact(bytes);
    EXPECT_NO_THROW(api::PipelineBuilder::Restore(intact));
  }
  for (const size_t keep : {bytes.size() - 1, bytes.size() - 8, bytes.size() / 2}) {
    SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
    std::istringstream truncated(bytes.substr(0, keep));
    EXPECT_THROW(api::PipelineBuilder::Restore(truncated), obs::SnapshotError);
  }
  // Flip one bit at several payload positions (past the magic, whose own
  // check fires first and is already covered above).
  for (const size_t pos : {size_t{16}, bytes.size() / 2, bytes.size() - 9}) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(pos));
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
    std::istringstream in(flipped);
    EXPECT_THROW(api::PipelineBuilder::Restore(in), obs::SnapshotError);
  }
}

// A snapshot written by another format version is refused outright (the
// layout of what follows the header is not this build's), and a checkpoint
// in that state must not keep the monitor down: RestoreOrBuild starts fresh.
TEST(PipelineSnapshot, OtherFormatVersionIsRefusedAndRestoreOrBuildStartsFresh) {
  auto pipeline = api::PipelineBuilder().AddQuery("counter").AddQuery("flows").BuildUnique();
  std::stringstream good;
  pipeline->Snapshot(good);
  const std::string bytes = good.str();
  const size_t version_at = obs::kSnapshotMagic.size();  // little-endian u32
  ASSERT_GT(bytes.size(), version_at + 4);

  const std::string path = ::testing::TempDir() + "shedmon_snapshot_other_version.bin";
  const api::PipelineBuilder fallback = api::PipelineBuilder().AddQuery("top-k");
  {
    std::ofstream(path, std::ios::binary) << bytes;
    EXPECT_EQ(fallback.RestoreOrBuild(path)->num_queries(), 2u);  // intact: restored
  }
  for (const uint32_t version : {obs::kSnapshotVersion - 1, obs::kSnapshotVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string other = bytes;
    for (size_t i = 0; i < 4; ++i) {
      other[version_at + i] = static_cast<char>((version >> (8 * i)) & 0xFF);
    }
    std::istringstream in(other);
    try {
      api::PipelineBuilder::Restore(in);
      ADD_FAILURE() << "a snapshot of another version was restored";
    } catch (const obs::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"), std::string::npos)
          << e.what();
    }

    std::ofstream(path, std::ios::binary) << other;
    auto fresh = fallback.RestoreOrBuild(path);
    ASSERT_EQ(fresh->num_queries(), 1u);
    EXPECT_EQ(fresh->system().query(0).name(), "top-k");
    EXPECT_TRUE(fresh->log().empty());
  }
  std::remove(path.c_str());
}

// Path-based snapshots publish via write-to-temp + fsync + atomic rename:
// the final file is complete and restorable, and no temp litter survives.
TEST(PipelineSnapshot, PathSnapshotIsAtomicAndRestorable) {
  const std::string path = ::testing::TempDir() + "shedmon_snapshot_atomic.bin";
  auto pipeline = api::PipelineBuilder().AddQuery("counter").BuildUnique();
  pipeline->Snapshot(path);

  auto restored = api::PipelineBuilder::Restore(path);
  EXPECT_EQ(restored->num_queries(), 1u);
  EXPECT_FALSE(std::ifstream(path + ".tmp." + std::to_string(::getpid())).good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Metrics never perturb determinism, even with a scraper hammering away
// ---------------------------------------------------------------------------

TEST(PipelineDeterminism, ScrapingUnderLoadNeverPerturbsResults) {
  const std::vector<std::string> names = {"counter", "flows", "top-k"};
  const api::PipelineBuilder golden_builder =
      BuilderFor(names, core::ShedderKind::kPredictive, shed::StrategyKind::kMmfsPkt, false, 0);
  const GoldenRun golden = GoldenBatchRun(golden_builder.config(), names, SharedTrace());

  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    api::PipelineBuilder builder = BuilderFor(names, core::ShedderKind::kPredictive,
                                              shed::StrategyKind::kMmfsPkt, false, threads);
    auto pipeline = builder.BuildUnique();
    std::vector<api::QueryHandle> handles;
    for (const auto& name : names) {
      handles.push_back(pipeline->AddQuery(name));
    }

    std::atomic<bool> stop{false};
    std::atomic<size_t> scrapes{0};
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string text = obs::PrometheusEncoder::Encode(pipeline->Metrics().Snapshot());
        if (!text.empty()) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    pipeline->Push(SharedTrace());
    pipeline->Finish();
    stop.store(true);
    scraper.join();

    EXPECT_GT(scrapes.load(), 0u);
    ExpectBinLogsIdentical(golden.system->log(), pipeline->log());
    for (size_t q = 0; q < names.size(); ++q) {
      SCOPED_TRACE(names[q]);
      EXPECT_EQ(golden.Accuracy(q).mean_error, handles[q].Accuracy().mean_error);
      EXPECT_EQ(golden.Accuracy(q).stdev_error, handles[q].Accuracy().stdev_error);
    }
  }
}

}  // namespace
}  // namespace shedmon
