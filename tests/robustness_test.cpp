// End-to-end robustness suite: the deadline governor's degradation ladder
// firing under injected stalls, bounded ingest policies, sink quarantine
// under injected I/O faults, crash-safe checkpoint / restore replay, and —
// the other side of the coin — proof that a pipeline with every rt feature
// armed but no faults firing produces BinLogs bit-identical to a plain
// pipeline at every (threads x shards) combination.
//
// All time is a ManualClock: "this bin overran" is something the fault plan
// states, never something the test hopes the scheduler reproduces.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/pipeline.h"
#include "src/api/sinks.h"
#include "src/core/runner.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/query/queries.h"
#include "src/rt/clock.h"
#include "src/rt/fault.h"
#include "src/rt/governor.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"

namespace shedmon {
namespace {

const trace::Trace& RobustnessTrace() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::CescaII();
    spec.duration_s = 3.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  return trace;
}

core::SystemConfig BaseConfig(size_t threads, size_t shards) {
  core::SystemConfig config;
  config.shedder = core::ShedderKind::kPredictive;
  config.num_threads = threads;
  config.max_shards_per_query = shards;
  config.cycles_per_bin = 0.5 * core::MeasureMeanDemand({"counter", "flows"}, RobustnessTrace(),
                                                        core::OracleKind::kModel);
  return config;
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

// Sums every series of the family: rt counters split by {rung=...} labels
// still report their ladder-wide totals here.
double CounterValue(const obs::MetricsRegistry& metrics, const std::string& name) {
  double sum = 0.0;
  for (const auto& sample : metrics.Snapshot().samples) {
    if (sample.name == name) {
      sum += sample.value;
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Deadline governor end-to-end
// ---------------------------------------------------------------------------

// Every bin stalls past the wall-clock budget, so the ladder must climb one
// rung per bin — boost, truncate, drop — and its footprint must be visible
// in the BinLogs, the stats and the metrics.
TEST(Robustness, DeadlineLadderFiresUnderInjectedStalls) {
  auto clock = std::make_shared<rt::ManualClock>();
  rt::GovernorConfig governor;
  governor.budget_fraction = 0.5;  // 100ms bins -> 50ms budget
  governor.boost_factor = 2.0;
  governor.decay_bins = 2;

  auto pipeline = api::PipelineBuilder()
                      .Config(BaseConfig(0, 1))
                      .AddQuery("counter")
                      .AddQuery("flows")
                      .RtClock(clock)
                      .Deadline(governor)
                      .InjectFaults(rt::FaultPlan::Parse("stall_every=1:80000"))
                      .BuildUnique();
  pipeline->Push(RobustnessTrace());
  pipeline->Finish();

  const auto& log = pipeline->log();
  ASSERT_GE(log.size(), 6u);
  // Bin 0 runs undegraded (the first overrun can only shape bin 1), then the
  // ladder climbs one rung per bin and pins at drop.
  EXPECT_EQ(log[0].degradation, 0);
  EXPECT_TRUE(log[0].deadline_missed);
  EXPECT_GT(log[0].deadline_overrun_us, 0.0);
  EXPECT_EQ(log[1].degradation, 1);  // boost shedding
  EXPECT_EQ(log[2].degradation, 2);  // truncate: last query disabled
  EXPECT_TRUE(log[2].disabled.back());
  EXPECT_EQ(log[3].degradation, 3);  // drop bin
  EXPECT_TRUE(log[3].batch_dropped);
  EXPECT_EQ(log.back().degradation, 3);

  const api::PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.deadline_misses, log.size());
  EXPECT_EQ(stats.degradation_level, 3);

  const obs::MetricsRegistry& metrics = pipeline->Metrics();
  EXPECT_EQ(CounterValue(metrics, "shedmon_rt_deadline_miss_total"),
            static_cast<double>(log.size()));
  EXPECT_GT(CounterValue(metrics, "shedmon_rt_degraded_bins_total"), 0.0);
  EXPECT_GT(CounterValue(metrics, "shedmon_rt_dropped_bins_total"), 0.0);
  EXPECT_GT(CounterValue(metrics, "shedmon_rt_truncated_queries_total"), 0.0);
}

// A transient overload: a few stalled bins, then clean ones. The ladder must
// escalate while the stalls last and decay all the way back to rung 0, after
// which bins carry no degradation markers at all.
TEST(Robustness, LadderDecaysToCleanAfterTheOverloadPasses) {
  auto clock = std::make_shared<rt::ManualClock>();
  rt::GovernorConfig governor;
  governor.budget_fraction = 0.5;
  governor.decay_bins = 2;

  auto pipeline = api::PipelineBuilder()
                      .Config(BaseConfig(0, 1))
                      .AddQuery("counter")
                      .AddQuery("flows")
                      .RtClock(clock)
                      .Deadline(governor)
                      .InjectFaults(rt::FaultPlan::Parse("stall_bin=2:80000,stall_bin=3:80000"))
                      .BuildUnique();
  pipeline->Push(RobustnessTrace());
  pipeline->Finish();

  const auto& log = pipeline->log();
  ASSERT_GE(log.size(), 10u);
  EXPECT_EQ(log[2].degradation, 0);  // first miss happens here...
  EXPECT_TRUE(log[2].deadline_missed);
  EXPECT_EQ(log[3].degradation, 1);  // ...and degrades this one
  EXPECT_EQ(log[4].degradation, 2);  // second miss escalated further
  // Two clean bins per rung: level 2 -> 1 after bins 4-5, 1 -> 0 after 6-7.
  EXPECT_EQ(log[5].degradation, 2);
  EXPECT_EQ(log[6].degradation, 1);
  EXPECT_EQ(log[7].degradation, 1);
  EXPECT_EQ(log[8].degradation, 0);
  EXPECT_EQ(log[9].degradation, 0);
  EXPECT_EQ(pipeline->Stats().degradation_level, 0);
  EXPECT_EQ(pipeline->Stats().deadline_misses, 2u);
}

// ---------------------------------------------------------------------------
// No-fault bit-identity: the rt layer must be invisible until it fires
// ---------------------------------------------------------------------------

TEST(Robustness, NoFaultRunsAreBitIdenticalAtEveryThreadAndShardCount) {
  // Golden: a plain pipeline with no rt features at all.
  auto golden = api::PipelineBuilder()
                    .Config(BaseConfig(0, 1))
                    .AddQuery("counter")
                    .AddQuery("flows")
                    .BuildUnique();
  golden->Push(RobustnessTrace());
  golden->Finish();

  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    for (const size_t shards : {size_t{1}, size_t{8}}) {
      if (threads == 0 && shards > 1) {
        continue;  // rejected by eager validation; covered in exec_test
      }
      SCOPED_TRACE("threads " + std::to_string(threads) + " shards " + std::to_string(shards));
      // Everything armed: governor (never fires — the ManualClock does not
      // move), fault injector with an empty plan, bounded ingest with a cap
      // far above any bin, sink retry on a JSONL sink.
      const std::string jsonl = ::testing::TempDir() + "shedmon_robustness_identity.jsonl";
      auto armed = api::PipelineBuilder()
                       .Config(BaseConfig(threads, shards))
                       .AddQuery("counter")
                       .AddQuery("flows")
                       .JsonlTo(jsonl)
                       .RtClock(std::make_shared<rt::ManualClock>())
                       .Deadline(0.9)
                       .InjectFaults(rt::FaultPlan::Parse("seed=42"))
                       .IngestCap(1 << 20, rt::OverflowPolicy::kDropNewest)
                       .SinkRetry(rt::RetryPolicy{})
                       .BuildUnique();
      armed->Push(RobustnessTrace());
      armed->Finish();

      ExpectBinLogsIdentical(golden->log(), armed->log());
      EXPECT_EQ(armed->Stats().deadline_misses, 0u);
      EXPECT_EQ(armed->Stats().ingest_dropped, 0u);
      std::remove(jsonl.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded ingest
// ---------------------------------------------------------------------------

net::PacketRecord RecordAt(uint64_t ts_us, uint16_t wire_len) {
  net::PacketRecord record;
  record.ts_us = ts_us;
  record.wire_len = wire_len;
  return record;
}

TEST(Robustness, IngestCapDropNewestKeepsTheHeadOfEachBin) {
  auto pipeline = api::PipelineBuilder()
                      .AddQuery("counter")
                      .IngestCap(10, rt::OverflowPolicy::kDropNewest)
                      .BuildUnique();
  for (int i = 0; i < 25; ++i) {
    pipeline->Push(net::Packet::View(RecordAt(1000 * static_cast<uint64_t>(i), 100)));
  }
  pipeline->AdvanceTime(100'000);  // close bin 0
  EXPECT_EQ(pipeline->log().back().packets_in, 10u);
  EXPECT_EQ(pipeline->ingest_dropped(), 15u);
  EXPECT_EQ(pipeline->Stats().ingest_dropped, 15u);
  // Drops are ingest-buffer accounting, never BinLog packet fields.
  EXPECT_EQ(pipeline->log().back().packets_dropped, 0u);
  EXPECT_EQ(CounterValue(pipeline->Metrics(), "shedmon_rt_ingest_dropped_total"), 15.0);
}

TEST(Robustness, IngestCapDropOldestKeepsTheTailOfEachBin) {
  auto pipeline = api::PipelineBuilder()
                      .IngestCap(10, rt::OverflowPolicy::kDropOldest)
                      .BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  // Distinct wire lengths let the counter query prove WHICH records survived.
  for (int i = 0; i < 25; ++i) {
    const uint16_t wire = static_cast<uint16_t>(i < 15 ? 100 : 500);
    pipeline->Push(net::Packet::View(RecordAt(1000 * static_cast<uint64_t>(i), wire)));
  }
  pipeline->AdvanceTime(100'000);
  pipeline->Finish();
  EXPECT_EQ(pipeline->log().back().packets_in, 10u);
  EXPECT_EQ(pipeline->ingest_dropped(), 15u);
  // The survivors are the LAST ten records (the 500-byte ones).
  const auto& snaps = dynamic_cast<const query::CounterQuery&>(counter.query()).snapshots();
  ASSERT_FALSE(snaps.empty());
  EXPECT_EQ(snaps.back().pkts, 10.0);
  EXPECT_EQ(snaps.back().bytes, 10.0 * 500.0);
}

TEST(Robustness, IngestCapResetsAtEveryBinBoundary) {
  auto pipeline = api::PipelineBuilder()
                      .AddQuery("counter")
                      .IngestCap(10, rt::OverflowPolicy::kDropNewest)
                      .BuildUnique();
  for (int bin = 0; bin < 3; ++bin) {
    for (int i = 0; i < 12; ++i) {
      pipeline->Push(net::Packet::View(
          RecordAt(100'000 * static_cast<uint64_t>(bin) + static_cast<uint64_t>(i), 100)));
    }
  }
  pipeline->Finish();
  ASSERT_EQ(pipeline->log().size(), 3u);
  for (const core::BinLog& log : pipeline->log()) {
    EXPECT_EQ(log.packets_in, 10u);
  }
  EXPECT_EQ(pipeline->ingest_dropped(), 6u);
}

TEST(Robustness, IngestCapRejectsTheBlockPolicy) {
  // Push is synchronous: a "blocking" cap could never block, only absorb.
  EXPECT_THROW(api::PipelineBuilder().IngestCap(10, rt::OverflowPolicy::kBlock).BuildUnique(),
               ConfigError);
  auto pipeline = api::PipelineBuilder().BuildUnique();
  EXPECT_THROW(pipeline->SetIngestCap(10, rt::OverflowPolicy::kBlock), ConfigError);
}

// ---------------------------------------------------------------------------
// Sink fault tolerance
// ---------------------------------------------------------------------------

TEST(Robustness, SinkRetriesRecoverFromTransientFaults) {
  const std::string path = ::testing::TempDir() + "shedmon_robustness_retry.jsonl";
  auto clock = std::make_shared<rt::ManualClock>();
  rt::RetryPolicy retry;
  retry.max_retries = 3;
  retry.jitter_fraction = 0.0;
  auto pipeline = api::PipelineBuilder()
                      .Config(BaseConfig(0, 1))
                      .AddQuery("counter")
                      .JsonlTo(path)
                      .RtClock(clock)
                      .InjectFaults(rt::FaultPlan::Parse("sink_fail_n=2"))
                      .SinkRetry(retry)
                      .BuildUnique();
  pipeline->Push(RobustnessTrace());
  pipeline->Finish();

  // The first row needed retries but landed; every bin has its line.
  std::ifstream in(path);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  EXPECT_EQ(lines, pipeline->log().size());
  EXPECT_GT(CounterValue(pipeline->Metrics(), "shedmon_rt_sink_retries_total"), 0.0);
  EXPECT_EQ(CounterValue(pipeline->Metrics(), "shedmon_rt_sink_quarantined_total"), 0.0);
  std::remove(path.c_str());
}

TEST(Robustness, SinkQuarantineKeepsTheMeasurementAlive) {
  const std::string path = ::testing::TempDir() + "shedmon_robustness_quarantine.jsonl";
  auto clock = std::make_shared<rt::ManualClock>();
  rt::RetryPolicy retry;
  retry.max_retries = 2;
  retry.jitter_fraction = 0.0;
  auto pipeline = api::PipelineBuilder()
                      .Config(BaseConfig(0, 1))
                      .AddQuery("counter")
                      .AddQuery("flows")
                      .JsonlTo(path)
                      .RtClock(clock)
                      .InjectFaults(rt::FaultPlan::Parse("sink_fail_n=100000"))
                      .SinkRetry(retry)
                      .BuildUnique();
  pipeline->Push(RobustnessTrace());
  pipeline->Finish();  // must not throw: losing a sink != losing the run

  // The run itself is intact — bins were processed normally.
  EXPECT_GT(pipeline->log().size(), 10u);
  EXPECT_GT(pipeline->total_packets(), 0u);
  EXPECT_EQ(CounterValue(pipeline->Metrics(), "shedmon_rt_sink_quarantined_total"), 1.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash-safe checkpoints
// ---------------------------------------------------------------------------

// The acceptance bar: a pipeline checkpointing every interval "crashes"
// (is abandoned) mid-run; a new pipeline restored from the last checkpoint
// replays the remaining packets and produces field-exact BinLogs vs the
// uninterrupted run.
TEST(Robustness, CheckpointThenRestoreReplaysTheRemainingBinsFieldExactly) {
  const std::string path = ::testing::TempDir() + "shedmon_robustness_checkpoint.bin";
  std::remove(path.c_str());
  const core::SystemConfig config = BaseConfig(0, 1);

  auto full = api::PipelineBuilder().Config(config).AddQuery("counter").AddQuery("flows")
                  .BuildUnique();
  full->Push(RobustnessTrace());
  full->Finish();

  {
    // "Crashing" process: checkpoints every 10 bins, dies mid-run with the
    // open bin's packets lost (exactly what kill -9 leaves behind).
    auto victim = api::PipelineBuilder()
                      .Config(config)
                      .AddQuery("counter")
                      .AddQuery("flows")
                      .CheckpointTo(path)
                      .CheckpointEvery(10)
                      .BuildUnique();
    for (const net::PacketRecord& packet : RobustnessTrace().packets) {
      if (packet.ts_us >= 2'450'000) {
        break;  // dies mid-bin-24, after the bin-20 checkpoint
      }
      victim->Push(net::Packet::View(packet));
    }
    EXPECT_EQ(victim->checkpoints_written(), 2u);  // bins 10 and 20
    // No Finish(): the victim is simply abandoned.
  }

  // Restart: restore from the surviving checkpoint and replay everything
  // from the first un-checkpointed bin on.
  auto restored = api::PipelineBuilder()
                      .Config(config)
                      .AddQuery("counter")
                      .AddQuery("flows")
                      .RestoreOrBuild(path);
  EXPECT_EQ(restored->next_bin(), 20u);
  const uint64_t resume_us = restored->next_bin() * restored->time_bin_us();
  for (const net::PacketRecord& packet : RobustnessTrace().packets) {
    if (packet.ts_us < resume_us) {
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
  std::remove(path.c_str());
}

TEST(Robustness, RestoreOrBuildFallsBackPastMissingOrCorruptCheckpoints) {
  const std::string path = ::testing::TempDir() + "shedmon_robustness_corrupt.bin";
  std::remove(path.c_str());
  api::PipelineBuilder builder;
  builder.AddQuery("counter").CheckpointTo(path);

  // Missing file: a fresh build.
  auto fresh = builder.RestoreOrBuild(path);
  EXPECT_EQ(fresh->next_bin(), 0u);
  EXPECT_EQ(fresh->num_queries(), 1u);

  // Corrupt file: also a fresh build, not an exception.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "SHEDSNAPgarbage that is definitely not a valid snapshot";
  }
  auto fallback = builder.RestoreOrBuild(path);
  EXPECT_EQ(fallback->next_bin(), 0u);
  std::remove(path.c_str());
}

// An injected checkpoint corruption (bit flip as the file is written) must
// be caught by the snapshot checksum on restore, and RestoreOrBuild must
// fall back to a fresh pipeline rather than restoring garbage.
TEST(Robustness, InjectedCheckpointCorruptionIsDetectedOnRestore) {
  const std::string path = ::testing::TempDir() + "shedmon_robustness_bitflip.bin";
  std::remove(path.c_str());
  const core::SystemConfig config = BaseConfig(0, 1);
  {
    auto victim = api::PipelineBuilder()
                      .Config(config)
                      .AddQuery("counter")
                      .CheckpointTo(path)
                      .CheckpointEvery(10)
                      .InjectFaults(rt::FaultPlan::Parse("corrupt_snapshot=100"))
                      .BuildUnique();
    for (const net::PacketRecord& packet : RobustnessTrace().packets) {
      if (packet.ts_us >= 1'500'000) {
        break;
      }
      victim->Push(net::Packet::View(packet));
    }
    EXPECT_GE(victim->checkpoints_written(), 1u);
  }
  ASSERT_TRUE(std::ifstream(path).good());
  EXPECT_THROW(api::PipelineBuilder::Restore(path), obs::SnapshotError);
  auto fallback =
      api::PipelineBuilder().Config(config).AddQuery("counter").RestoreOrBuild(path);
  EXPECT_EQ(fallback->next_bin(), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Degradation is visible at the sink surface
// ---------------------------------------------------------------------------

TEST(Robustness, SinksCarryTheDegradationColumns) {
  std::ostringstream csv;
  std::ostringstream jsonl;
  auto clock = std::make_shared<rt::ManualClock>();
  rt::GovernorConfig governor;
  governor.budget_fraction = 0.5;
  auto pipeline = api::PipelineBuilder()
                      .Config(BaseConfig(0, 1))
                      .AddQuery("counter")
                      .RtClock(clock)
                      .Deadline(governor)
                      .InjectFaults(rt::FaultPlan::Parse("stall_every=1:80000"))
                      .BuildUnique();
  CsvBinSink csv_sink(csv);
  JsonlBinSink jsonl_sink(jsonl);
  pipeline->AddObserver(&csv_sink);
  pipeline->AddObserver(&jsonl_sink);
  pipeline->Push(RobustnessTrace());
  pipeline->Finish();

  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find(",degradation,degradation_rung,deadline_missed,deadline_overrun_us"),
            std::string::npos);
  EXPECT_NE(csv_text.find(",3,drop,"), std::string::npos);
  const std::string jsonl_text = jsonl.str();
  EXPECT_NE(jsonl_text.find("\"degradation\":3"), std::string::npos);
  EXPECT_NE(jsonl_text.find("\"degradation_rung\":\"drop\""), std::string::npos);
  EXPECT_NE(jsonl_text.find("\"deadline_missed\":true"), std::string::npos);
}

}  // namespace
}  // namespace shedmon
