#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/cost.h"
#include "src/exec/query_executor.h"
#include "src/exec/thread_pool.h"
#include "src/features/extractor.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/predict/engine.h"
#include "src/query/query.h"
#include "src/shed/enforcement.h"
#include "src/shed/sampler.h"
#include "src/rt/fault.h"
#include "src/rt/governor.h"
#include "src/shed/strategy.h"
#include "src/trace/batch.h"
#include "src/util/ewma.h"
#include "src/util/rng.h"

namespace shedmon::core {

// How overload is handled (§4.5.1 / §5.5.3 systems under comparison).
enum class ShedderKind {
  kNoShed,     // "original": drop packets when the capture buffer fills
  kReactive,   // SEDA-like: rate from the previous bin's consumption (eq. 4.1)
  kPredictive  // Alg. 1: predict, then allocate via a ShedStrategy
};

struct QueryConfig {
  // m_q: minimum sampling rate the user declares (Ch. 5); 0 = no floor.
  double min_sampling_rate = 0.0;
  // Allow this query to use its own shedding method when it offers one and
  // the system has custom shedding enabled (Ch. 6).
  bool allow_custom_shedding = true;
};

struct SystemConfig {
  uint64_t time_bin_us = 100'000;
  // System capacity C in cycles per time bin. <= 0 means "use the oracle's
  // real-time budget" (only meaningful with the measured oracle).
  double cycles_per_bin = 0.0;
  ShedderKind shedder = ShedderKind::kPredictive;
  shed::StrategyKind strategy = shed::StrategyKind::kEqSrates;
  predict::PredictorConfig predictor;
  features::FeatureExtractor::Config extractor;
  // Capture buffer size in time bins. The thesis's testbed had 256 MB of DAG
  // buffer (seconds of traffic); its 200 ms figure was only the emulation
  // used to estimate the no-shedding baseline's error. Five bins (500 ms)
  // absorb a single badly under-predicted burst bin without uncontrolled
  // loss while still exposing sustained overload in the baselines.
  double buffer_bins = 5.0;
  // EWMA weight for the prediction-error and overhead smoothers (§4.3).
  double ewma_alpha = 0.9;
  // Inflate demands by the smoothed prediction error (Alg. 1 line 8's
  // "(1 + error_hat)" safeguard). Disable only for ablation studies.
  bool error_margin_enabled = true;
  // Fixed share of capacity consumed by core CoMo tasks (capture, storage).
  double como_overhead_fraction = 0.05;
  // alpha floor of the reactive controller (eq. 4.1).
  double reactive_min_rate = 0.05;
  // Measurement interval of the shared prediction-stage feature extractor.
  size_t system_interval_bins = 10;
  // §4.1 buffer-discovery (slow-start) threshold on top of avail_cycles.
  bool rtthresh_enabled = true;
  // Cold-start guard: while a query's prediction model has fewer than
  // `warmup_observations`, its batches are probed at most at `bootstrap_rate`
  // so an unknown (possibly expensive) query cannot blow the cycle budget
  // before the system has learned its cost. The linear feature model then
  // extrapolates from the sampled observations to full batches.
  size_t warmup_observations = 5;
  double bootstrap_rate = 0.1;
  // Ch. 6: let queries that support it shed their own load, policed by the
  // enforcement policy.
  bool enable_custom_shedding = false;
  shed::EnforcementConfig enforcement;
  uint64_t seed = 42;
  // Worker threads for the per-bin, per-query pipeline stages (sampling,
  // query processing, post-shed re-extraction, model fits) and for the
  // reference instances an api::Pipeline runs. 0 = serial, today's
  // single-threaded behavior. Any value yields bit-identical BinLogs and
  // accuracies under the deterministic model oracle: per-query work fans out
  // over an exec::ThreadPool while cost charges are sequenced and BinLog
  // merges folded on the coordinator in registration order.
  size_t num_threads = 0;
  // Upper bound on intra-query data parallelism: how many shards one query's
  // bin batch may be split into when the query implements
  // query::ShardableQuery and a pool is available (num_threads > 0). 1, the
  // default, keeps batches whole. Any value yields BinLogs, query results and
  // accuracies bit-identical to the serial path: shard partials are exact and
  // folded in shard-index order, and sharding consumes no extra cost-oracle
  // slots — the per-query kQuery charge is applied once, at the merge, from
  // the same reserved sequence slot as the unsharded path, so shedding
  // decisions cannot depend on the shard count.
  size_t max_shards_per_query = 1;
};

// Everything the system recorded about one time bin, the raw material for
// every Ch. 4-6 figure.
struct BinLog {
  uint64_t start_us = 0;
  size_t packets_in = 0;
  size_t packets_dropped = 0;    // uncontrolled (capture buffer overflow)
  double packets_unsampled = 0;  // shed deliberately via sampling
  bool batch_dropped = false;
  bool overload = false;
  double predicted_cycles = 0.0;  // sum over queries, before safety margin
  double avail_cycles = 0.0;
  double query_cycles = 0.0;  // measured, after shedding
  double ps_cycles = 0.0;     // prediction subsystem (extraction + fit)
  double ls_cycles = 0.0;     // load shedding (sampling + re-extraction)
  double como_cycles = 0.0;
  double backlog_cycles = 0.0;  // buffer occupancy after this bin
  double rtthresh = 0.0;
  std::vector<double> rate;          // per query
  std::vector<double> per_query_cycles;
  std::vector<bool> disabled;
  // Real-time robustness bookkeeping (src/rt). All three stay at their zero
  // defaults unless a deadline governor is attached and fired, so runs
  // without one are bit-identical to pre-rt builds.
  uint8_t degradation = 0;       // rt::DegradeAction applied to this bin
  bool deadline_missed = false;  // bin overran its wall-clock budget
  double deadline_overrun_us = 0.0;
};

// The CoMo-like monitoring pipeline with the thesis's load shedding scheme.
// Offline and online behave identically (§2.3.2); capacity is an explicit
// cycle budget per 100 ms bin, and a backlog/buffer emulation produces the
// uncontrolled drops the reactive and no-shedding baselines suffer.
class MonitoringSystem {
 public:
  MonitoringSystem(const SystemConfig& config, std::unique_ptr<CostOracle> oracle);
  ~MonitoringSystem();

  MonitoringSystem(const MonitoringSystem&) = delete;
  MonitoringSystem& operator=(const MonitoringSystem&) = delete;

  // Registers a query before or between batches (Fig. 6.9 adds them mid-run).
  query::Query& AddQuery(std::unique_ptr<query::Query> query, const QueryConfig& config = {});

  // Unregisters the query at `index` between batches and returns it so its
  // results stay readable. Later queries shift down one index, which is why
  // the supported public surface (api::Pipeline) hands out stable handles
  // instead of indices. Throws std::out_of_range on a bad index.
  std::unique_ptr<query::Query> RemoveQuery(size_t index);

  void ProcessBatch(const trace::Batch& batch);
  // Flushes any partially filled measurement intervals at end of input.
  void Finish();

  const std::vector<BinLog>& log() const { return log_; }
  size_t num_queries() const { return queries_.size(); }
  query::Query& query(size_t i) { return *queries_[i]->query; }
  const query::Query& query(size_t i) const { return *queries_[i]->query; }
  const shed::EnforcementPolicy& enforcement(size_t i) const { return queries_[i]->enforcement; }
  const predict::PredictionEngine& engine(size_t i) const { return queries_[i]->engine; }

  const SystemConfig& config() const { return config_; }
  double capacity() const { return capacity_; }
  // Worker pool behind num_threads; null when the system runs serially. The
  // facade reuses it between batches (e.g. for reference instances); it must
  // only be driven from the coordinating thread, never from inside a batch.
  exec::ThreadPool* pool() const { return pool_.get(); }

  uint64_t total_packets() const { return total_packets_; }
  uint64_t total_dropped() const { return total_dropped_; }

  // ---- Observability -------------------------------------------------------
  // Live metrics registry; always present. The hot path caches instrument
  // pointers, updates them once per bin on the coordinating thread, and
  // never reads them back, so scraping at any moment cannot perturb results.
  obs::MetricsRegistry& metrics() { return *registry_; }
  const obs::MetricsRegistry& metrics() const { return *registry_; }

  // Optional span tracer: when set, every bin records per-stage spans
  // (shared extraction, prediction, shedding decision, per-query and
  // per-shard execution waves, ordered merges). Borrowed pointer; nullptr
  // (the default) detaches. Spans are write-only like the metrics, so traced
  // runs stay bit-identical.
  void SetTracer(obs::Tracer* tracer);

  const QueryConfig& query_config(size_t i) const { return queries_[i]->config; }
  double backlog_cycles() const { return backlog_cycles_; }
  double rtthresh() const { return rtthresh_; }
  double error_ewma_value() const { return error_ewma_.value(); }

  // ---- Real-time robustness (src/rt) ---------------------------------------
  // Degradation directive for subsequent ProcessBatch calls, normally issued
  // per bin by a rt::DeadlineGovernor (via api::Pipeline). kBoostShedding
  // scales granted sampling rates by rate_scale (never below a query's
  // declared minimum — if the floors themselves bust the budget the ladder
  // escalates past them); kTruncate additionally disables the last
  // `truncate_queries` enabled queries (highest registration index = lowest
  // priority); kDropBin discards the whole batch like a capture-buffer
  // overflow. A default-constructed Directive restores normal processing and
  // is bit-exact with never having called this.
  void SetDegradation(const rt::Directive& directive) { degrade_ = directive; }
  // Fault-injection hook; nullptr (the default) detaches. The injector's
  // OnBinStart fires before each batch and its worker hook is threaded
  // through the exec fan-out.
  void SetFaultInjector(rt::FaultInjector* injector);
  // Stamps the governor's stopwatch verdict onto the most recent bin; the
  // fields are pure bookkeeping read by sinks/tests, never by shedding.
  void MarkDeadline(bool missed, double overrun_us);

  // ---- Snapshot/restore ----------------------------------------------------
  // True when every query's measurement interval and the system's shared
  // interval are freshly reset — the only points where per-interval query
  // and extractor state is empty, making the numeric state below a complete
  // description of the run.
  bool AtIntervalBoundary() const;
  // Serializes the mutable numeric state (RNG, smoothers, buffer/threshold,
  // per-query sampler/enforcement/predictor state, oracle state). The
  // configuration and query roster travel separately (api::Pipeline writes
  // them first); LoadState expects the same roster in the same order.
  void SaveState(obs::SnapshotWriter& w) const;
  void LoadState(obs::SnapshotReader& r);

 private:
  struct QueryRuntime {
    std::unique_ptr<query::Query> query;
    QueryConfig config;
    predict::PredictionEngine engine;
    shed::PacketSampler pkt_sampler;
    shed::FlowSampler flow_sampler;
    shed::EnforcementPolicy enforcement;
    size_t bins_in_interval = 0;
    double last_cycles = 0.0;  // previous bin's consumption (reactive)
    // Per-query instruments (labelled {query=<name>}), borrowed from
    // registry_; set right after registration, written once per bin by the
    // coordinator.
    obs::Gauge* m_rate = nullptr;
    obs::Counter* m_cycles = nullptr;
    obs::Counter* m_disabled_bins = nullptr;
    obs::Gauge* m_times_policed = nullptr;
    // Reusable buffer the samplers write into: sampling a batch stops
    // allocating once the buffer has grown to the query's working set.
    // Valid only within the bin's execute waves — its Packets point into
    // the current Batch's arena — so ExecuteQueryPost clears it (capacity
    // kept) and it must never be read between bins.
    trace::PacketVec sample_buf;
  };

  void RunPredictive(const trace::Batch& batch, BinLog& log);
  void RunReactive(const trace::Batch& batch, BinLog& log);
  void RunNoShed(const trace::Batch& batch, BinLog& log);
  void RecordDroppedBin(const trace::Batch& batch, BinLog& log);
  // Applies the active directive's boost/truncate rungs to a finished rate
  // allocation, in place; shared by the predictive and reactive paths.
  void ApplyDegradation(std::vector<double>& rate, std::vector<bool>& disabled);

  // What one query's execution inside a bin produced. Tasks run on workers
  // and only touch state owned by their query; everything order-sensitive is
  // carried here and merged into the BinLog on the coordinating thread in
  // registration order, replaying the serial schedule charge by charge so
  // accumulated cycle counters are bit-identical to serial execution.
  struct QueryTaskResult {
    struct Charge {
      bool ls = false;  // ls_cycles (true) or ps_cycles (false)
      double cycles = 0.0;
    };
    double used = 0.0;       // measured query cycles
    double unsampled = 0.0;  // contribution to BinLog::packets_unsampled
    // Subsystem charges in serial call order. Capacity 3 is exact: the
    // sampled update_history path charges sampling + re-extraction + fit
    // (the query charge itself travels in `used`).
    std::array<Charge, 3> charges{};
    size_t num_charges = 0;

    void AddCharge(bool ls, double cycles) {
      assert(num_charges < charges.size());
      charges[num_charges++] = {ls, cycles};
    }
  };

  // Number of oracle calls the pre+post execution of one query will make for
  // the given parameters; the coordinator reserves exactly this many charge
  // slots per query (in registration order) before fanning tasks out, so
  // sequenced charges match the serial call schedule no matter which worker
  // runs when. Intra-query sharding never changes this count: a sharded
  // batch is still charged through the single reserved kQuery slot.
  static uint64_t PlanOracleCalls(double rate, bool update_history, bool has_shared_features);
  static uint64_t PlanCustomOracleCalls(double rate);

  // Per-query execution context threaded through the fan-out waves of one
  // bin: the packet view after sampling, the re-extracted features, the next
  // reserved charge slot, and the intra-query shard plan (partials forked in
  // the pre phase, filled by (query, shard) tasks, folded by the post phase
  // in shard-index order).
  struct QueryExec {
    double rate = 1.0;
    bool update_history = false;
    const trace::PacketVec* packets = nullptr;
    features::FeatureVector features{};
    uint64_t next_seq = 0;
    std::vector<exec::ShardRange> ranges;
    std::vector<std::unique_ptr<query::ShardState>> states;
    // TSC cycles each shard task spent in OnShardBatch, summed into the
    // kQuery WorkHint so wall-measuring oracles charge the scans that ran
    // on workers, not just the merge (the model oracle ignores it).
    std::vector<double> shard_cycles;
    bool sharded() const { return states.size() > 1; }
  };

  // First half of the per-query pipeline: samples the batch and re-extracts
  // features for the history update (reusing `shared_features` at full rate —
  // the §3.4.4 computation sharing), consuming reserved slots from
  // `base_seq`; then plans the intra-query shard fan-out over the sampled
  // view. Safe to call concurrently for distinct queries.
  void ExecuteQueryPre(QueryRuntime& qr, const trace::Batch& batch, double rate,
                       bool update_history, const features::FeatureVector* shared_features,
                       uint64_t base_seq, QueryExec& ex, QueryTaskResult& result);
  // Second half: the query charge itself — ProcessBatch, or the ordered
  // shard merge when the pre phase split the batch — then the model fit
  // (Alg. 1 line 12). Must run after every shard task of this query.
  void ExecuteQueryPost(QueryRuntime& qr, const trace::Batch& batch, QueryExec& ex,
                        QueryTaskResult& result);
  // Runs the (query, shard) tasks of every sharded entry in `ex` over the
  // pool, then the post phase of those queries; no-op when nothing sharded.
  void RunShardWaves(const trace::Batch& batch, std::vector<QueryExec>& ex,
                     std::vector<QueryTaskResult>& results);
  // Custom-shedding execution path (Ch. 6); custom batches are never sharded
  // (the method owns its own traversal order).
  QueryTaskResult ExecuteCustom(QueryRuntime& qr, const trace::Batch& batch, double rate,
                                double granted, uint64_t base_seq);

  void TickIntervals();
  void UpdateBufferAndThreshold(double spent_total);

  // System-level instruments, borrowed from registry_ and cached at
  // construction so per-bin updates are pointer stores, not map lookups.
  struct Instruments {
    obs::Counter* bins_total = nullptr;
    obs::Counter* packets_total = nullptr;
    obs::Counter* packets_dropped_total = nullptr;
    obs::Counter* packets_shed_total = nullptr;
    obs::Counter* batches_dropped_total = nullptr;
    obs::Counter* overload_bins_total = nullptr;
    obs::Gauge* capacity_cycles = nullptr;
    obs::Gauge* backlog_cycles = nullptr;
    obs::Gauge* rtthresh_cycles = nullptr;
    obs::Gauge* avail_cycles = nullptr;
    obs::Gauge* utilization = nullptr;
    obs::Gauge* prediction_error_ewma = nullptr;
    obs::Histogram* bin_utilization = nullptr;
    obs::Histogram* prediction_error_ratio = nullptr;
    // Indexed by ladder rung (1=boost 2=truncate 3=drop; [0] unused) so each
    // degraded bin counts under its rung-name label.
    std::array<obs::Counter*, 4> rt_degraded_bins{};
    obs::Counter* rt_dropped_bins = nullptr;
    obs::Counter* rt_truncated_queries = nullptr;
  };

  void InitInstruments();
  // Publishes one finished bin into the registry. Runs on the coordinating
  // thread after the bin's BinLog is final; reads the log, never writes any
  // shedding state, so it cannot perturb results.
  void UpdateBinInstruments(const BinLog& log);

  SystemConfig config_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  Instruments ins_;
  std::unique_ptr<CostOracle> oracle_;
  std::unique_ptr<exec::ThreadPool> pool_;  // null when num_threads == 0
  exec::QueryExecutor executor_;
  std::unique_ptr<shed::ShedStrategy> strategy_;
  features::FeatureExtractor sys_extractor_;
  std::vector<std::unique_ptr<QueryRuntime>> queries_;
  util::Rng rng_;
  rt::Directive degrade_;
  rt::FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  double capacity_ = 0.0;
  double backlog_cycles_ = 0.0;
  double rtthresh_ = 0.0;
  double ssthresh_ = 0.0;
  util::Ewma error_ewma_;     // \hat{error} of Alg. 1
  util::Ewma ls_ewma_;        // \hat{ls_cycles}
  util::Ewma ps_ewma_;        // prediction-subsystem overhead estimate
  double reactive_rate_ = 1.0;
  double reactive_consumed_prev_ = 0.0;
  size_t sys_bins_in_interval_ = 0;

  std::vector<BinLog> log_;
  uint64_t total_packets_ = 0;
  uint64_t total_dropped_ = 0;
};

}  // namespace shedmon::core
