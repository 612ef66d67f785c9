#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/config.h"
#include "src/capture/capture.h"
#include "src/core/cost.h"
#include "src/core/runner.h"
#include "src/core/system.h"
#include "src/net/packet.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/server.h"
#include "src/obs/trace.h"
#include "src/query/accuracy.h"
#include "src/query/query.h"
#include "src/rt/clock.h"
#include "src/rt/fault.h"
#include "src/rt/governor.h"
#include "src/rt/resilient.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace shedmon::obs {
class SnapshotReader;
}  // namespace shedmon::obs

namespace shedmon::api {

class Pipeline;

// Derived per-bin quantities delivered to observers next to the raw BinLog.
// The name views point at the live queries in registration order; they are
// valid only for the duration of the OnBin call.
struct BinStats {
  size_t bin_index = 0;
  size_t num_queries = 0;
  double capacity = 0.0;
  double spent_cycles = 0.0;   // query + prediction + shedding + CoMo overhead
  double utilization = 0.0;    // spent_cycles / capacity
  double drop_fraction = 0.0;  // uncontrolled drops / packets_in
  double shed_fraction = 0.0;  // deliberately unsampled / packets_in
  std::vector<std::string_view> query_names;
};

// Typed whole-run summary, cheap to read at any point of a run (all fields
// are running tallies, no log scan). A restored pipeline starts these from
// zero: like the metrics registry, stats describe this process's activity.
struct PipelineStats {
  size_t bins = 0;             // closed time bins
  size_t queries = 0;          // currently registered
  uint64_t packets = 0;        // offered to the system
  uint64_t dropped = 0;        // uncontrolled (capture buffer overflow)
  double shed = 0.0;           // deliberately unsampled (query-averaged)
  size_t overload_bins = 0;    // bins with predicted demand over budget
  size_t batches_dropped = 0;  // whole batches lost to a full buffer
  double capacity = 0.0;       // cycle budget per bin
  double last_utilization = 0.0;
  double mean_utilization = 0.0;  // across closed bins
  double prediction_error_ewma = 0.0;
  double backlog_cycles = 0.0;
  // Real-time robustness tallies (all zero unless the rt features are on).
  uint64_t deadline_misses = 0;  // bins that overran their wall-clock budget
  int degradation_level = 0;     // current ladder rung (0 = none)
  size_t checkpoints = 0;        // crash-safe checkpoints written
  // Live-capture front-end tallies (all zero without CaptureFrom).
  uint64_t capture_packets = 0;  // frames decoded and pushed by the capture loop
  uint64_t capture_dropped = 0;  // capture-side losses (queue/slot/late/decode)
  // Payload bytes memcpy'd out of caller buffers at ingestion. The pinned
  // capture path keeps this at zero — the measurable form of "zero
  // per-packet copies between the wire and the query batch".
  uint64_t ingest_copied_bytes = 0;
};

// Streaming result sink: OnBin fires once per closed time bin, in bin order,
// on the thread that called Push/AdvanceTime/Finish (the coordinator), at any
// SystemConfig::num_threads — worker threads never touch observers.
class BinObserver {
 public:
  virtual ~BinObserver() = default;

  virtual void OnBin(const core::BinLog& log, const BinStats& stats) = 0;
  // Called once from Pipeline::Finish after the final bin; sinks flush here.
  virtual void OnRunEnd() {}
};

// Stable reference to a query registered with a Pipeline. Handles survive
// additions and removals of *other* queries (today's raw size_t indices do
// not); a handle dies only when its own query is removed. Copyable value
// type; all accessors throw std::logic_error once the handle is stale.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const;
  // Current registration index — the query's column in BinLog::rate and
  // friends. Shifts when earlier queries are removed, which is exactly why
  // callers should hold handles, not indices.
  size_t index() const;
  const std::string& name() const;
  query::Query& query() const;
  // Null when the pipeline does not track accuracy for this query.
  const query::Query* reference() const;
  bool has_reference() const { return reference() != nullptr; }

  // Live accuracy against the pipeline-managed reference instance, over the
  // intervals both instances have completed so far (§2.2.1 metric). Throws
  // std::logic_error when no reference is tracked.
  query::AccuracyRow Accuracy() const;
  // 1 - mean error, clamped to [0, 1] — the "accuracy" of the Ch. 5/6 plots.
  double MeanAccuracy() const;

 private:
  friend class Pipeline;
  QueryHandle(Pipeline* pipeline, uint64_t id) : pipeline_(pipeline), id_(id) {}

  Pipeline* pipeline_ = nullptr;
  uint64_t id_ = 0;  // 0 = never attached
};

// What Pipeline::Detach hands back: the live query instance (snapshots and
// all) plus its reference twin when accuracy was tracked.
struct DetachedQuery {
  std::unique_ptr<query::Query> query;
  std::unique_ptr<query::Query> reference;
};

// Fluent configuration for a Pipeline. A builder is reusable: Build() can be
// called repeatedly and every pipeline gets its own system and cost oracle.
class PipelineBuilder {
 public:
  PipelineBuilder() = default;

  // Wholesale escape hatch; the fluent setters below edit the same config.
  PipelineBuilder& Config(const core::SystemConfig& config);
  PipelineBuilder& TimeBin(uint64_t bin_us);
  PipelineBuilder& CyclesPerBin(double cycles);
  PipelineBuilder& Shedder(core::ShedderKind kind);
  PipelineBuilder& Strategy(shed::StrategyKind kind);
  PipelineBuilder& BufferBins(double bins);
  PipelineBuilder& CustomShedding(bool enable = true);
  PipelineBuilder& Threads(size_t num_threads);
  PipelineBuilder& Seed(uint64_t seed);
  PipelineBuilder& Oracle(core::OracleKind kind);
  // Run pipeline-managed reference instances over the unsampled stream so
  // per-query accuracy is queryable live from a handle (default on).
  PipelineBuilder& TrackAccuracy(bool enable = true);
  // Apply core::DefaultMinRate to queries added by name without an explicit
  // QueryConfig (default on).
  PipelineBuilder& DefaultMinRates(bool enable = true);

  // ---- Declarative roster & sinks ----------------------------------------
  // Standard queries (Table 2.2) registered automatically by Build(), with
  // the builder's min-rate policy (or an explicit config). Validated eagerly:
  // Build() throws ConfigError on an unknown name, before any system exists.
  PipelineBuilder& AddQuery(std::string_view name);
  PipelineBuilder& AddQuery(std::string_view name, const core::QueryConfig& config);
  // Per-bin result sinks attached by Build() (CSV / JSONL rows, one per
  // closed bin) and the structured JSONL event log (query_added /
  // query_removed / bin_closed / snapshot / rt / finish events, one JSON
  // object per line, written only from the coordinator thread). Empty path =
  // none. Build() throws ConfigError when a path cannot be opened for
  // writing.
  PipelineBuilder& CsvTo(std::string path);
  PipelineBuilder& JsonlTo(std::string path);
  PipelineBuilder& LogTo(std::string path);

  // ---- Tracing & HTTP endpoint (src/obs) ----------------------------------
  // Per-stage span tracing (extraction, prediction, shedding decision,
  // per-query execution, references, sinks, rt ladder transitions). One-way
  // like the metrics: BinLogs are bit-identical with tracing on or off.
  // Export with Pipeline::DumpTrace (Chrome trace-event JSON, loadable in
  // Perfetto) or scrape GET /trace.
  PipelineBuilder& Tracing(bool enable = true);
  // Embedded HTTP observability endpoint on 127.0.0.1:<port> serving
  // GET /metrics (Prometheus), /healthz, /stats and /trace. Port 0 picks an
  // ephemeral port — read it back with Pipeline::serve_port(). Build()
  // throws ConfigError when the port cannot be bound (e.g. already in use).
  PipelineBuilder& ServeOn(uint16_t port);

  // ---- Live capture (src/capture) -----------------------------------------
  // Attaches the live capture front-end: Build() opens the configured
  // sources (UDP/TCP listeners, pcap file follow) and starts a consumer
  // thread that decodes frames in pre-allocated slots and pushes pinned
  // packet views into the pipeline — zero per-packet payload copies — while
  // driving AdvanceTime from the capture clock (the pipeline's rt clock
  // unless the capture config injects its own). Build() throws ConfigError
  // when a listener cannot bind or a pcap file cannot be opened.
  PipelineBuilder& CaptureFrom(capture::CaptureConfig config);

  // ---- Real-time robustness (src/rt) --------------------------------------
  // Per-bin wall-clock deadline enforcement: each closed bin must finish
  // processing within budget_fraction x the bin duration; overruns escalate
  // the degradation ladder (boost shedding -> truncate low-priority queries
  // -> drop bins) one rung at a time and decay back after clean bins. 0
  // disables (the default). Runs where the governor never fires produce
  // BinLogs bit-identical to a governor-less pipeline.
  PipelineBuilder& Deadline(double budget_fraction);
  PipelineBuilder& Deadline(const rt::GovernorConfig& config);
  // Time source for the governor, sink retry backoff and fault injection;
  // inject a rt::ManualClock for deterministic tests. Defaults to the
  // steady-clock rt::SystemClock.
  PipelineBuilder& RtClock(std::shared_ptr<rt::Clock> clock);
  // Attaches a seeded deterministic fault plan (see rt::FaultPlan) injected
  // into the coordinator loop, exec workers, sinks and checkpoint writes.
  PipelineBuilder& InjectFaults(const rt::FaultPlan& plan);
  // Periodic crash-safe checkpoints: every `bins` closed bins (at the next
  // measurement-interval boundary, where snapshots are legal) the pipeline
  // snapshots itself to `path` via write-to-temp + fsync + atomic rename.
  // CheckpointEvery defaults to the system's measurement interval.
  PipelineBuilder& CheckpointTo(std::string path);
  PipelineBuilder& CheckpointEvery(size_t bins);
  // Retry/backoff policy for the CSV/JSONL sinks (see rt::ResilientWriter);
  // a sink that exhausts its retries is quarantined instead of failing the
  // run.
  PipelineBuilder& SinkRetry(const rt::RetryPolicy& policy);

  // Restore-on-restart: validates this builder, then restores from `path`
  // when it holds a readable snapshot; a missing, torn or corrupt file (e.g.
  // a crash mid-checkpoint, though the atomic checkpoint writer makes that
  // exceedingly unlikely) falls back to building fresh. A restored pipeline
  // takes its system config, oracle, accuracy/min-rate flags and roster from
  // the snapshot, and everything else — sinks, event log, rt, tracing,
  // endpoint, capture — from this builder, exactly as Build() would.
  std::unique_ptr<Pipeline> RestoreOrBuild(const std::string& path) const;

  // Loads a parsed config file (see api::ParseConfigFile for the format):
  // system knobs, query roster, and sinks. The fluent setters still apply on
  // top, so a file can serve as a base that code overrides.
  static PipelineBuilder FromConfig(const FileConfig& config);
  static PipelineBuilder FromConfigFile(const std::string& path);

  const core::SystemConfig& config() const { return config_; }

  // Validates the full configuration (ranges, cross-field rules, query
  // names, sink paths) and throws ConfigError on the first violation.
  // Build() calls this; exposed so tools can check a config without
  // constructing a system.
  void Validate() const;

  // Build() relies on guaranteed copy elision: Pipeline is neither copyable
  // nor movable so outstanding QueryHandles can never dangle.
  Pipeline Build() const;
  std::unique_ptr<Pipeline> BuildUnique() const;

  // Reconstructs a pipeline from a Pipeline::Snapshot stream: rebuilds the
  // serialized configuration and query roster, then reinstates the numeric
  // state (RNG, smoothers, buffer/threshold, samplers, predictors, oracle)
  // so that replaying the remaining input produces BinLogs field-identical
  // to the uninterrupted run. Accuracy references, the metrics registry and
  // PipelineStats restart from zero — they describe this process. Every
  // other option is a default builder's (no sinks, rt or obs features; use
  // RestoreOrBuild to keep them); Restore is static so call sites read as
  // PipelineBuilder::Restore(path). Throws obs::SnapshotError on a
  // malformed or incompatible stream.
  static std::unique_ptr<Pipeline> Restore(std::istream& in);
  static std::unique_ptr<Pipeline> Restore(const std::string& path);

 private:
  friend class Pipeline;  // Build() hands the whole builder to the ctor

  struct PendingQuery {
    std::string name;
    core::QueryConfig config;
    bool has_config = false;  // false: apply the builder's min-rate policy
  };

  core::SystemConfig config_;
  core::OracleKind oracle_ = core::OracleKind::kModel;
  bool track_accuracy_ = true;
  bool default_min_rates_ = true;
  std::vector<PendingQuery> queries_;
  std::string csv_path_;
  std::string jsonl_path_;
  std::string log_path_;
  // rt options.
  bool deadline_enabled_ = false;
  rt::GovernorConfig governor_config_;
  std::shared_ptr<rt::Clock> clock_;
  bool has_fault_plan_ = false;
  rt::FaultPlan fault_plan_;
  std::string checkpoint_path_;
  size_t checkpoint_every_ = 0;  // 0 = the system's measurement interval
  bool has_sink_retry_ = false;
  rt::RetryPolicy sink_retry_;
  // obs options.
  bool tracing_ = false;
  bool serve_enabled_ = false;
  uint16_t serve_port_ = 0;
  // capture option; started last, once everything it feeds is in place.
  bool has_capture_ = false;
  capture::CaptureConfig capture_config_;

  // Shared by Restore and RestoreOrBuild: reads the snapshot's config,
  // oracle, flags and roster into a copy of this builder and constructs
  // from it. Throws obs::SnapshotError on a malformed stream.
  std::unique_ptr<Pipeline> RestoreFrom(std::istream& in) const;
};

// The supported public entry point to shedmon: a long-lived, online
// monitoring pipeline. Callers push raw packets (no pre-batching); the
// pipeline bins them into SystemConfig::time_bin_us batches, runs the load
// shedding system as each bin closes, feeds pipeline-managed reference
// instances for live accuracy, and delivers every closed bin to the attached
// observers. Queries arrive and leave mid-run through stable QueryHandles
// (Fig. 6.9's arrivals, plus the removal today's index-based API forbids).
//
// Determinism: pushing a time-sorted trace through Push produces BinLogs and
// accuracies field-identical to the batch path (Batcher +
// MonitoringSystem::ProcessBatch + query::RunReference) at any num_threads:
// both assemble every bin with the same trace::Batch Reset/Add/Seal, and
// every query instance, estimate or reference, closes its measurement
// intervals by its own clock (Query::EndBin each bin, FlushInterval at
// Finish), so an estimate and its reference always close the same intervals.
//
// Not thread-safe: Push/AddQuery/Detach/Finish must come from one thread
// (the coordinator). Worker parallelism lives behind SystemConfig::
// num_threads inside the system and never reaches observers.
class Pipeline {
 public:
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  Pipeline(Pipeline&&) = delete;
  Pipeline& operator=(Pipeline&&) = delete;

  // ---- Queries -----------------------------------------------------------
  // Registers a standard query (Table 2.2) by name, with the builder's
  // min-rate policy. Queries may be added before any packet or mid-run; a
  // mid-run addition joins the bin that is open at call time.
  QueryHandle AddQuery(std::string_view name);
  QueryHandle AddQuery(std::string_view name, const core::QueryConfig& config);
  // Registers a user-supplied query. Accuracy tracking needs a second,
  // caller-supplied instance to run over the unsampled stream (user queries
  // cannot be cloned); pass nullptr to skip tracking for this query.
  QueryHandle AddQuery(std::unique_ptr<query::Query> query,
                       const core::QueryConfig& config = {},
                       std::unique_ptr<query::Query> reference = nullptr);

  // Removes the query from the system and returns it (plus its reference)
  // so final results stay readable. Takes effect immediately: the currently
  // open bin is processed without it. The handle and any copies become
  // stale; other handles stay valid (their index() shifts).
  DetachedQuery Detach(QueryHandle handle);
  void Remove(QueryHandle handle) { (void)Detach(handle); }

  // ---- Observers ---------------------------------------------------------
  // Borrowed observer: caller keeps it alive until Finish() returns.
  void AddObserver(BinObserver* observer);
  // Owning overload for fire-and-forget sinks.
  void AddObserver(std::unique_ptr<BinObserver> observer);

  // ---- Ingestion ---------------------------------------------------------
  // Pushes one packet. Timestamps must be non-decreasing across bins: a
  // packet older than the open bin throws std::invalid_argument. A packet in
  // a later bin first closes the open bin (and any empty bins in between),
  // firing observers, then starts the new bin.
  //
  // Packet is the one ingestion currency: it carries the record plus
  // (optionally) materialized payload bytes, and the pipeline copies both so
  // the caller's batch/arena may be recycled right after the call. A caller
  // holding bare PacketRecords wraps them for free with net::Packet::View.
  void Push(const net::Packet& packet);
  void Push(std::span<const net::Packet> packets);
  // Convenience: pushes a whole time-sorted trace record by record.
  void Push(const trace::Trace& trace);

  // Zero-copy variant for callers that guarantee packet.payload stays valid
  // until the packet's bin has closed (the capture front-end's slot
  // contract). The record is still copied; only the payload bytes are
  // borrowed instead of landing in the arena. A null payload with
  // payload_len > 0 falls back to deterministic materialization, exactly
  // like Push.
  void PushPinned(const net::Packet& packet);

  // Declares that the clock reached `ts_us`: closes every bin that ends at
  // or before it (empty bins included) without pushing a packet. This is how
  // live drivers close idle bins and how mid-run arrivals are sequenced
  // ("AdvanceTime(bin_start); AddQuery(...)" adds the query exactly at that
  // bin, Fig. 6.9 style).
  void AdvanceTime(uint64_t ts_us);

  // Closes the open bin (if it holds packets), flushes partially filled
  // measurement intervals, and fires OnRunEnd on the observers. Idempotent;
  // no packets may be pushed afterwards.
  void Finish();
  bool finished() const { return finished_; }

  // ---- Introspection -----------------------------------------------------
  const core::MonitoringSystem& system() const { return *system_; }
  const std::vector<core::BinLog>& log() const { return system_->log(); }
  size_t bins_processed() const { return bins_processed_; }
  size_t num_queries() const { return system_->num_queries(); }
  uint64_t total_packets() const { return system_->total_packets(); }
  uint64_t total_dropped() const { return system_->total_dropped(); }
  uint64_t time_bin_us() const { return bin_us_; }

  // ---- Observability -----------------------------------------------------
  // The live metrics registry (counters, gauges, histograms over the whole
  // system: shedding, prediction, execution). Scrape from any thread at any
  // time — e.g. obs::PrometheusEncoder::Encode(pipeline.Metrics().Snapshot())
  // — without perturbing results: instruments are updated lock-free and
  // never read back by the pipeline.
  obs::MetricsRegistry& Metrics() { return system_->metrics(); }
  const obs::MetricsRegistry& Metrics() const { return system_->metrics(); }

  // Typed whole-run summary. Returns the copy published when the last bin
  // closed (plus registration changes), guarded by a mutex, so any thread —
  // in particular the HTTP endpoint's — may call this mid-run without racing
  // the coordinator. Within the coordinator thread it is exact: every
  // mutation path republishes before returning to the caller.
  PipelineStats Stats() const;

  // ---- Tracing & HTTP endpoint (src/obs) ----------------------------------
  // The span tracer, null unless built with PipelineBuilder::Tracing. Spans
  // land in bounded lock-free rings; once full, further spans are counted in
  // shedmon_obs_trace_dropped_total and discarded. The tracer also feeds the
  // shedmon_stage_wall_us{stage=...} histograms.
  const obs::Tracer* tracer() const { return tracer_.get(); }

  // Writes the trace so far as Chrome trace-event JSON (Perfetto /
  // chrome://tracing). Throws std::logic_error when tracing is not enabled,
  // std::runtime_error when the file cannot be written.
  void DumpTrace(const std::string& path) const;

  // The bound port of the PipelineBuilder::ServeOn endpoint, 0 when not
  // serving.
  uint16_t serve_port() const { return server_ != nullptr ? server_->port() : 0; }
  // Stops the endpoint (idempotent; Finish and destruction also stop it).
  void StopServing() { server_.reset(); }

  // ---- Live capture (src/capture) -----------------------------------------
  // With PipelineBuilder::CaptureFrom, the capture consumer thread is the
  // coordinator: do not call Push/AdvanceTime/Finish from other threads
  // while capture runs. StopCapture stops the sources and drains everything
  // already captured into the pipeline (idempotent; Finish and destruction
  // also stop capture). The open bin stays open — Finish or AdvanceTime
  // closes it.
  void StopCapture();
  // The running loop, null without CaptureFrom. Ephemeral listener ports
  // are read back through capture()->port(i).
  const capture::CaptureLoop* capture() const { return capture_.get(); }
  capture::CaptureStats capture_stats() const;

  // ---- Real-time robustness (src/rt) --------------------------------------
  // The rt configuration is process-local and deliberately not serialized
  // into snapshots: RestoreOrBuild takes it from the restoring builder.
  // Checkpoint failures are logged and counted, never thrown — losing a
  // checkpoint must not kill the measurement.
  const rt::DeadlineGovernor* governor() const { return governor_.get(); }
  const rt::FaultInjector* fault_injector() const { return injector_.get(); }
  const std::shared_ptr<rt::Clock>& rt_clock() const { return clock_; }
  // First bin a packet may land in: everything before it is already closed.
  // A driver replaying input into a restored pipeline skips packets whose
  // bin is older than this.
  uint64_t next_bin() const { return open_bin_; }
  size_t checkpoints_written() const { return checkpoints_written_; }

  // ---- Snapshot ----------------------------------------------------------
  // Serializes the run state (versioned binary format) so that
  // PipelineBuilder::Restore + replaying the remaining input reproduces the
  // uninterrupted run's BinLogs field-exactly. Only valid between bins on a
  // measurement-interval boundary (every interval_bins-th closed bin, before
  // any packet of the next bin): per-interval query state is empty there, so
  // the numeric state is a complete description. Throws obs::SnapshotError
  // when called mid-bin or mid-interval, when the pipeline holds a
  // non-standard (user-supplied) query, or on I/O failure.
  void Snapshot(std::ostream& out) const;
  void Snapshot(const std::string& path) const;

  // Index-based twins of the QueryHandle accessors (index = current
  // registration order), for whole-run summaries. ReferenceAt and AccuracyAt
  // throw std::logic_error when the query has no tracked reference.
  const query::Query& ReferenceAt(size_t index) const;
  query::AccuracyRow AccuracyAt(size_t index) const;
  double MeanAccuracyAt(size_t index) const;
  double AverageAccuracy() const;  // across accuracy-tracked queries
  double MinimumAccuracy() const;  // worst accuracy-tracked query

 private:
  friend class PipelineBuilder;
  friend class QueryHandle;

  // Pipeline-side state for one registered query, parallel to the system's
  // registration order (slots_[i] <-> system query i).
  struct Slot {
    uint64_t id = 0;
    std::unique_ptr<query::Query> reference;  // null when not tracked
  };

  // The one place a builder's options are applied, for Build() and restore
  // alike, in a fixed order: queries (then `state`, the rest of a snapshot
  // stream, when restoring), sinks and logger, clock, rt, tracer, server,
  // capture. Loading the state before any thread starts means the server
  // and capture threads never see a half-restored pipeline. The builder
  // stays const — it is reusable.
  Pipeline(const PipelineBuilder& builder, obs::SnapshotReader* state);

  size_t FindSlot(uint64_t id) const noexcept;  // npos when unknown/removed
  size_t SlotIndex(uint64_t id) const;          // throws std::logic_error when stale
  QueryHandle Register(const core::QueryConfig& config, std::unique_ptr<query::Query> query,
                       std::unique_ptr<query::Query> reference);
  // Adds one packet to the open bin (trace::Batch::Add), closing earlier
  // bins first. `pin` is PushPinned's contract: the payload bytes outlive
  // the bin.
  void Append(const net::Packet& packet, bool pin);
  // Closes bins until `bin_index` is the open one.
  void FlushThrough(uint64_t bin_index);
  // Processes the open bin's packets (possibly none), advances the reference
  // instances, and fires the observers.
  void CloseOpenBin();
  void RunReferences();
  void NotifyObservers();
  void EnsureOpen(std::string_view op) const;
  void UpdateTallies(const core::BinLog& log);
  void MaybeCheckpoint();
  // Reads the numeric run state that follows the roster in a snapshot.
  void LoadState(obs::SnapshotReader& r);
  // Recomputes the coordinator-side tallies into the mutex-guarded published
  // copy behind Stats() / the HTTP endpoint.
  PipelineStats ComputeStats() const;
  void RefreshStats();
  obs::ObsServer::Response HandleHttp(const std::string& raw_path) const;

  bool track_accuracy_;
  bool default_min_rates_;
  core::OracleKind oracle_kind_;  // remembered for Snapshot()
  std::unique_ptr<core::MonitoringSystem> system_;
  std::vector<Slot> slots_;
  uint64_t next_id_ = 1;

  // The open bin, assembled packet by packet and sealed when it closes; one
  // Batch is reused for every bin. Push is synchronous and the capture
  // front-end pins one of its CaptureConfig::slots per packet until the bin
  // closes, so the bin holds at most what the caller or the slot ring does.
  uint64_t bin_us_;
  uint64_t open_bin_ = 0;
  trace::Batch open_;

  // Real-time robustness state (see src/rt). The clock is shared by the
  // governor, fault injector and sink retry backoff so one ManualClock
  // drives every rt decision in tests.
  std::shared_ptr<rt::Clock> clock_;
  std::unique_ptr<rt::DeadlineGovernor> governor_;
  std::unique_ptr<rt::FaultInjector> injector_;
  uint64_t ingest_copied_bytes_ = 0;
  std::string checkpoint_path_;
  size_t checkpoint_every_ = 0;
  size_t checkpoints_written_ = 0;
  // Owned sinks created from builder paths, remembered for their quarantine
  // state in Stats() and /healthz.
  std::vector<class ResilientSinkBase*> rt_sinks_;

  std::vector<BinObserver*> observers_;
  std::vector<std::unique_ptr<BinObserver>> owned_observers_;
  size_t bins_processed_ = 0;
  bool finished_ = false;

  // Running tallies behind Stats(); updated once per closed bin. Kept apart
  // from bins_processed_ (which a restore carries over for bin numbering):
  // tallies restart at restore, so the mean needs its own denominator.
  size_t tally_bins_ = 0;
  double shed_packets_ = 0.0;
  size_t overload_bins_ = 0;
  size_t batches_dropped_ = 0;
  double util_sum_ = 0.0;
  double last_util_ = 0.0;

  std::unique_ptr<obs::JsonlLogger> logger_;

  // Tracing & HTTP endpoint. The published stats are the only pipeline state
  // the server thread reads besides the (internally thread-safe) metrics
  // registry and tracer rings; the coordinator republishes them after every
  // mutation. tracer_ is fixed before the server starts, so the handler
  // reads it without synchronization. server_ is declared last on purpose:
  // it is destroyed (accept thread joined) before anything its handler
  // dereferences.
  mutable util::Mutex stats_mutex_;
  PipelineStats published_stats_ SHEDMON_GUARDED_BY(stats_mutex_);
  size_t published_quarantined_sinks_ SHEDMON_GUARDED_BY(stats_mutex_) = 0;
  std::unique_ptr<obs::Tracer> tracer_;
  // Capture front-end, declared just before server_ so destruction stops
  // the HTTP endpoint first, then drains capture, and only then tears down
  // the state both of them read. The loop (and thus slot memory backing any
  // still-pinned payload views) outlives every open bin.
  std::unique_ptr<capture::IngestSink> capture_sink_;
  std::unique_ptr<capture::CaptureLoop> capture_;
  std::unique_ptr<obs::ObsServer> server_;
};

}  // namespace shedmon::api

namespace shedmon {
// The facade is the supported public surface; hoist it to the top-level
// namespace so consumers write shedmon::Pipeline.
using api::BinObserver;
using api::BinStats;
using api::DetachedQuery;
using api::Pipeline;
using api::PipelineBuilder;
using api::PipelineStats;
using api::QueryHandle;
}  // namespace shedmon
