#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "src/obs/snapshot.h"
#include "src/query/query.h"
#include "src/trace/batch.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace shedmon::core {

// What a unit of charged work is (Alg. 1 / Table 3.4 accounting buckets).
enum class WorkKind {
  kQuery,              // plug-in module processing a batch
  kFeatureExtraction,  // 42-feature extraction over a packet vector
  kFcbfMlr,            // feature selection + regression fit
  kSampling,           // packet/flow sampling of a batch
};

struct WorkHint {
  const query::Query* query = nullptr;
  const trace::PacketVec* packets = nullptr;
  double aux = 0.0;  // kind-specific scale (e.g. regression history length)
};

// Source of truth for "how many CPU cycles did this work cost". The paper
// measures with the TSC (§3.2.4); that is MeasuredCostOracle. Unit tests and
// the simulation experiments use ModelCostOracle, which still executes the
// work but charges a deterministic, feature-driven synthetic cost, so runs
// are bit-reproducible across machines.
//
// Thread-safety contract (src/exec/ parallel pipelines): Run/RunAt may be
// invoked concurrently as long as concurrent calls reference *distinct*
// queries in their hints — exactly what the one-task-per-query fan-out guarantees.
// Sequenced charging keeps the model oracle deterministic under that
// concurrency: a coordinator reserves one sequence slot per upcoming call in
// the serial order (ReserveSequence), workers then charge at their assigned
// slots (RunAt), so every charge is bit-identical to the serial schedule no
// matter which worker executes it when.
class CostOracle {
 public:
  virtual ~CostOracle() = default;

  // Executes `fn` and returns the cycles to charge for it. Equivalent to
  // RunAt(ReserveSequence(1), ...).
  virtual double Run(WorkKind kind, const WorkHint& hint, const std::function<void()>& fn) = 0;

  // Reserves `n` consecutive charge slots and returns the first, advancing
  // the oracle's internal call counter as if the calls had already happened.
  // Oracles whose charges are order-independent (the measured one) may
  // return any value.
  virtual uint64_t ReserveSequence(uint64_t n) {
    (void)n;
    return 0;
  }

  // Executes `fn` and charges it as the seq-th oracle call. Defaults to the
  // unsequenced Run for oracles without ordering state.
  virtual double RunAt(uint64_t seq, WorkKind kind, const WorkHint& hint,
                       const std::function<void()>& fn) {
    (void)seq;
    return Run(kind, hint, fn);
  }

  // Query lifecycle hints from the owning system. OnQueryAdded (re)baselines
  // any per-query bookkeeping to the query's current state — a no-op for a
  // fresh instance, and exactly what makes a re-registered veteran instance
  // charge only its new work. OnQueryRemoved drops the bookkeeping so a
  // later allocation reusing the address can never inherit a stale baseline.
  // Default no-ops for oracles without per-query state.
  virtual void OnQueryAdded(const query::Query* query) { (void)query; }
  virtual void OnQueryRemoved(const query::Query* query) { (void)query; }

  // Cycle budget corresponding to one wall-clock time bin on this oracle's
  // scale; experiments usually override capacity explicitly instead.
  virtual double DefaultBinBudget(uint64_t bin_us) const = 0;

  virtual std::string_view name() const = 0;

  // Snapshot/restore of ordering-relevant state. The measured oracle is
  // stateless; the model oracle must preserve its call counter or the
  // deterministic pseudo-noise sequence restarts and restored runs diverge
  // from uninterrupted ones. Per-query baselines (last_work_) are rebuilt
  // via OnQueryAdded on the restored instances, not serialized.
  virtual void SaveState(obs::SnapshotWriter& w) const { (void)w; }
  virtual void LoadState(obs::SnapshotReader& r) { (void)r; }
};

// Charges real elapsed TSC cycles around the executed work.
class MeasuredCostOracle : public CostOracle {
 public:
  double Run(WorkKind kind, const WorkHint& hint, const std::function<void()>& fn) override;
  double DefaultBinBudget(uint64_t bin_us) const override;
  std::string_view name() const override { return "measured"; }
};

// Deterministic cost model. Query work is charged from the *delta* of the
// query's own work-unit counter (Query::work_units), so the charge reflects
// what the query actually did: uniform sampling reduces it proportionally, a
// custom shedding method reduces it by what it skips, and a selfish query
// that ignores its budget is charged in full (Ch. 6). System work (feature
// extraction, regression, sampling) is charged from linear functions of the
// hint. A small deterministic pseudo-noise keeps regression non-trivial.
class ModelCostOracle : public CostOracle {
 public:
  ModelCostOracle() = default;

  double Run(WorkKind kind, const WorkHint& hint, const std::function<void()>& fn) override;
  uint64_t ReserveSequence(uint64_t n) override;
  double RunAt(uint64_t seq, WorkKind kind, const WorkHint& hint,
               const std::function<void()>& fn) override;
  void OnQueryAdded(const query::Query* query) override;
  void OnQueryRemoved(const query::Query* query) override;
  double DefaultBinBudget(uint64_t bin_us) const override;
  std::string_view name() const override { return "model"; }
  void SaveState(obs::SnapshotWriter& w) const override;
  void LoadState(obs::SnapshotReader& r) override;

  // Fallback cost for queries that do not meter their work: linear model over
  // the batch's exact packet/byte/distinct counts (shape of Fig. 2.2).
  double QueryCost(std::string_view query_name, const trace::PacketVec& packets) const;

 private:
  std::atomic<uint64_t> call_count_{0};
  // Guards last_work_: entries are per-query, but first-touch insertion can
  // rehash the table under concurrent per-query calls.
  util::Mutex mutex_;
  std::unordered_map<const query::Query*, double> last_work_ SHEDMON_GUARDED_BY(mutex_);
};

enum class OracleKind { kMeasured, kModel };
std::unique_ptr<CostOracle> MakeOracle(OracleKind kind);

}  // namespace shedmon::core
