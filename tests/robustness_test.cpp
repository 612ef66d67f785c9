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

// A reference instance that stalls the clock for `stall_us` on every batch:
// unsampled ground-truth work, which the probe's deadline must not pay for.
class StallingReference final : public query::Query {
 public:
  StallingReference(std::shared_ptr<rt::ManualClock> clock, uint64_t stall_us)
      : query::Query("counter", 10), clock_(std::move(clock)), stall_us_(stall_us) {}

 protected:
  void OnBatch(const query::BatchInput& /*in*/) override { clock_->Advance(stall_us_); }
  void OnEndInterval(size_t /*interval_index*/) override {}

 private:
  std::shared_ptr<rt::ManualClock> clock_;
  uint64_t stall_us_;
};

TEST(Robustness, ReferenceStallIsNotADeadlineMiss) {
  constexpr uint64_t kBinUs = 100'000;
  const auto run = [](bool governed) {
    auto clock = std::make_shared<rt::ManualClock>();
    api::PipelineBuilder builder;
    builder.Config(BaseConfig(0, 1)).RtClock(clock);
    if (governed) {
      builder.Deadline(0.9);
    }
    auto pipeline = builder.BuildUnique();
    pipeline->AddQuery(query::MakeQuery("counter"), {},
                       std::make_unique<StallingReference>(clock, 2 * kBinUs));
    pipeline->Push(RobustnessTrace());
    pipeline->Finish();
    // The stall really happened, once per closed bin.
    EXPECT_EQ(clock->NowUs(), 2 * kBinUs * pipeline->log().size());
    return pipeline;
  };
  const auto governed = run(true);
  const auto plain = run(false);
  ASSERT_NE(governed->governor(), nullptr);
  EXPECT_EQ(governed->governor()->deadline_misses(), 0u);
  ExpectBinLogsIdentical(plain->log(), governed->log());
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
      // move), fault injector with an empty plan, sink retry on a JSONL sink.
      const std::string jsonl = ::testing::TempDir() + "shedmon_robustness_identity.jsonl";
      auto armed = api::PipelineBuilder()
                       .Config(BaseConfig(threads, shards))
                       .AddQuery("counter")
                       .AddQuery("flows")
                       .JsonlTo(jsonl)
                       .RtClock(std::make_shared<rt::ManualClock>())
                       .Deadline(0.9)
                       .InjectFaults(rt::FaultPlan::Parse("seed=42"))
                       .SinkRetry(rt::RetryPolicy{})
                       .BuildUnique();
      armed->Push(RobustnessTrace());
      armed->Finish();

      ExpectBinLogsIdentical(golden->log(), armed->log());
      EXPECT_EQ(armed->Stats().deadline_misses, 0u);
      std::remove(jsonl.c_str());
    }
  }
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

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

// Runs a checkpointing pipeline from `builder` until it is abandoned
// mid-bin-24, after its bin-20 checkpoint.
void RunVictimPastBin20(const api::PipelineBuilder& builder) {
  auto victim = builder.BuildUnique();
  for (const net::PacketRecord& packet : RobustnessTrace().packets) {
    if (packet.ts_us >= 2'450'000) {
      break;
    }
    victim->Push(net::Packet::View(packet));
  }
  EXPECT_EQ(victim->checkpoints_written(), 2u);
}

// A restored pipeline is configured by the restoring builder exactly like a
// fresh one: its CSV/JSONL sinks (with the retry wrapper and fault injector)
// and its event log stream the resumed bins.
TEST(Robustness, RestoreOrBuildKeepsTheBuildersSinksAndLog) {
  const std::string base = ::testing::TempDir() + "shedmon_robustness_keep";
  const std::string checkpoint = base + ".bin";
  const std::string csv = base + ".csv";
  const std::string jsonl = base + ".jsonl";
  const std::string log = base + ".log";
  std::remove(checkpoint.c_str());
  rt::RetryPolicy retry;
  retry.max_retries = 3;
  api::PipelineBuilder builder;
  builder.Config(BaseConfig(0, 1))
      .AddQuery("counter")
      .AddQuery("flows")
      .CsvTo(csv)
      .JsonlTo(jsonl)
      .LogTo(log)
      .RtClock(std::make_shared<rt::ManualClock>())
      .InjectFaults(rt::FaultPlan::Parse("sink_fail_n=2"))
      .SinkRetry(retry)
      .CheckpointTo(checkpoint)
      .CheckpointEvery(10);
  RunVictimPastBin20(builder);

  auto restored = builder.RestoreOrBuild(checkpoint);
  ASSERT_EQ(restored->next_bin(), 20u);
  const uint64_t resume_us = restored->next_bin() * restored->time_bin_us();
  for (const net::PacketRecord& packet : RobustnessTrace().packets) {
    if (packet.ts_us >= resume_us) {
      restored->Push(net::Packet::View(packet));
    }
  }
  restored->Finish();
  const std::vector<core::BinLog>& bins = restored->log();
  ASSERT_GT(bins.size(), 1u);
  EXPECT_GT(CounterValue(restored->Metrics(), "shedmon_rt_sink_retries_total"), 0.0);

  // CSV: header, then one row per resumed bin from the resume time on.
  const std::vector<std::string> csv_lines = ReadLines(csv);
  ASSERT_EQ(csv_lines.size(), 1 + bins.size());
  const auto csv_start_us = [](const std::string& row) {
    const size_t first = row.find(',');
    return std::stoull(row.substr(first + 1, row.find(',', first + 1) - first - 1));
  };
  EXPECT_EQ(csv_start_us(csv_lines[1]), resume_us);
  EXPECT_EQ(csv_start_us(csv_lines.back()), bins.back().start_us);

  // JSONL: the same rows.
  const std::vector<std::string> jsonl_lines = ReadLines(jsonl);
  ASSERT_EQ(jsonl_lines.size(), bins.size());
  EXPECT_NE(jsonl_lines.front().find("\"start_us\":" + std::to_string(resume_us) + ","),
            std::string::npos);
  EXPECT_NE(jsonl_lines.back().find("\"start_us\":" + std::to_string(bins.back().start_us) + ","),
            std::string::npos);

  // Event log: the resumed run's lifecycle through finish.
  bool finished = false;
  for (const std::string& line : ReadLines(log)) {
    finished = finished || line.find("{\"event\":\"finish\"") != std::string::npos;
  }
  EXPECT_TRUE(finished);
  for (const std::string& path : {checkpoint, csv, jsonl, log}) {
    std::remove(path.c_str());
  }
}

// RestoreOrBuild validates the builder before reading the checkpoint, like
// Build does: a valid checkpoint does not excuse an unwritable sink path.
TEST(Robustness, RestoreOrBuildValidatesBeforeRestoring) {
  const std::string checkpoint = ::testing::TempDir() + "shedmon_robustness_validate.bin";
  std::remove(checkpoint.c_str());
  api::PipelineBuilder builder;
  builder.Config(BaseConfig(0, 1)).AddQuery("counter").CheckpointTo(checkpoint).CheckpointEvery(10);
  RunVictimPastBin20(builder);
  ASSERT_NO_THROW(api::PipelineBuilder::Restore(checkpoint));

  builder.CsvTo(::testing::TempDir() + "shedmon_no_such_dir/bins.csv");
  EXPECT_THROW(builder.RestoreOrBuild(checkpoint), ConfigError);
  std::remove(checkpoint.c_str());
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
