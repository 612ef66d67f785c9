#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/query/boyer_moore.h"
#include "src/query/query.h"
#include "src/sketch/bitmap.h"
#include "src/sketch/h3.h"
#include "src/util/rng.h"

namespace shedmon::query {

// ---------------------------------------------------------------------------
// counter — traffic load in packets and bytes (Table 2.2). Cost ~ packets.
// ---------------------------------------------------------------------------
class CounterQuery : public Query {
 public:
  explicit CounterQuery(size_t interval_bins = 10);

  struct Snapshot {
    double pkts = 0.0;
    double bytes = 0.0;
  };
  const std::vector<Snapshot>& snapshots() const { return snaps_; }

  double IntervalError(const Query& reference, size_t interval) const override;
  // Error split used by Table 4.1 ("counter (pkts)" / "counter (bytes)").
  double IntervalErrorPackets(const Query& reference, size_t interval) const;
  double IntervalErrorBytes(const Query& reference, size_t interval) const;

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  Snapshot cur_;
  std::vector<Snapshot> snaps_;
};

// ---------------------------------------------------------------------------
// application — port-based application classification. Cost ~ packets.
// ---------------------------------------------------------------------------
class ApplicationQuery : public Query {
 public:
  explicit ApplicationQuery(size_t interval_bins = 10);

  // Port-based classifier (never consults the generator's ground truth).
  static net::AppClass ClassifyPorts(const net::FiveTuple& tuple);

  struct Snapshot {
    std::array<double, net::kNumAppClasses> pkts{};
    std::array<double, net::kNumAppClasses> bytes{};
  };
  const std::vector<Snapshot>& snapshots() const { return snaps_; }

  double IntervalError(const Query& reference, size_t interval) const override;
  double IntervalErrorPackets(const Query& reference, size_t interval) const;
  double IntervalErrorBytes(const Query& reference, size_t interval) const;

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  Snapshot cur_;
  std::vector<Snapshot> snaps_;
};

// ---------------------------------------------------------------------------
// high-watermark — peak per-time-bin link utilization within the interval.
// Supports a custom shedding method: deterministic 1-in-k stride sampling
// with rescaling, a low-variance estimator for a max-of-sums statistic.
// ---------------------------------------------------------------------------
class HighWatermarkQuery : public Query {
 public:
  explicit HighWatermarkQuery(size_t interval_bins = 10);

  const std::vector<double>& watermarks() const { return snaps_; }

  double IntervalError(const Query& reference, size_t interval) const override;

  bool supports_custom_shedding() const override { return true; }

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnCustomBatch(const BatchInput& in, double fraction) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  double cur_watermark_ = 0.0;
  std::vector<double> snaps_;
};

// ---------------------------------------------------------------------------
// flows — per-flow classification; reports the number of active 5-tuple
// flows per interval. Flow sampling preferred. Cost ~ packets + new flows.
// ---------------------------------------------------------------------------
class FlowsQuery : public Query {
 public:
  explicit FlowsQuery(size_t interval_bins = 10);

  SamplingMethod preferred_sampling() const override { return SamplingMethod::kFlow; }

  const std::vector<double>& flow_counts() const { return snaps_; }

  double IntervalError(const Query& reference, size_t interval) const override;

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  std::unordered_set<net::FiveTuple, net::FiveTupleHash> flows_;
  double estimate_ = 0.0;
  std::vector<double> snaps_;
};

// ---------------------------------------------------------------------------
// top-k — ranking of the top-k destination IPs by bytes ([12] in the thesis).
// Error metric: misranked flow pairs. Custom shedding: Sample & Hold.
// ---------------------------------------------------------------------------
class TopKQuery : public Query {
 public:
  explicit TopKQuery(size_t k = 10, size_t interval_bins = 10);

  struct Snapshot {
    std::vector<std::pair<uint32_t, double>> topk;  // (dst ip, bytes), sorted desc
    std::unordered_map<uint32_t, double> all;       // full per-key estimates
  };
  const std::vector<Snapshot>& snapshots() const { return snaps_; }
  size_t k() const { return k_; }

  // Raw misranked-pair count (Table 4.1 reports this un-normalized).
  double IntervalMisrankedPairs(const Query& reference, size_t interval) const;
  // Normalized to [0, 1] by k^2 for the accuracy plots of Ch. 5/6.
  double IntervalError(const Query& reference, size_t interval) const override;

  bool supports_custom_shedding() const override { return true; }

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnCustomBatch(const BatchInput& in, double fraction) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  size_t k_;
  std::unordered_map<uint32_t, double> bytes_;
  util::Rng admit_rng_;
  std::vector<Snapshot> snaps_;
  // Reused per-batch scratch for OnBatch's exact-integer accumulation
  // (cleared each batch, capacity kept so the serial hot path stays
  // allocation-free after warm-up).
  std::unordered_map<uint32_t, double> batch_bytes_;
  std::vector<uint32_t> batch_order_;
};

// ---------------------------------------------------------------------------
// trace — full-payload packet collection. Cost ~ bytes (storage copy).
// Accuracy: fraction of packets processed (no unsampled output exists).
// ---------------------------------------------------------------------------
class TraceQuery : public Query {
 public:
  explicit TraceQuery(size_t interval_bins = 10);

  struct Snapshot {
    double pkts_stored = 0.0;
    double bytes_stored = 0.0;
  };
  const std::vector<Snapshot>& snapshots() const { return snaps_; }

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  static constexpr size_t kStorageWindow = 1 << 20;  // rolling 1 MiB "disk"
  Snapshot cur_;
  std::vector<Snapshot> snaps_;
  std::vector<uint8_t> storage_;
  size_t storage_pos_ = 0;
};

// ---------------------------------------------------------------------------
// pattern-search — Boyer-Moore byte-sequence search in payloads ([23]).
// Cost ~ bytes scanned. Accuracy: fraction of packets processed.
// ---------------------------------------------------------------------------
class PatternSearchQuery : public Query {
 public:
  explicit PatternSearchQuery(std::string pattern = "HTTP/1.1", size_t interval_bins = 10);

  const std::vector<double>& match_counts() const { return snaps_; }

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  BoyerMoore matcher_;
  double cur_matches_ = 0.0;
  std::vector<double> snaps_;
};

// ---------------------------------------------------------------------------
// p2p-detector — signature-based P2P flow detection ([121, 83] in the
// thesis): payload signatures on the first packets of each flow plus a port
// heuristic. Custom shedding: stop inspecting decided flows, admission-
// control new flows only when the budget requires it (§6.1).
// ---------------------------------------------------------------------------
class P2pDetectorQuery : public Query {
 public:
  explicit P2pDetectorQuery(size_t interval_bins = 10);

  SamplingMethod preferred_sampling() const override { return SamplingMethod::kFlow; }

  const std::vector<std::set<net::FiveTuple>>& p2p_flows() const { return snaps_; }

  double IntervalError(const Query& reference, size_t interval) const override;

  bool supports_custom_shedding() const override { return true; }

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnCustomBatch(const BatchInput& in, double fraction) override;
  void OnEndInterval(size_t interval_index) override;

  // Fraction of the full cost spent on first-packet inspection; the custom
  // method can cut to about this fraction before losing accuracy.
  static constexpr double kFirstPacketCostShare = 0.6;
  static constexpr int kInspectPackets = 2;

  struct FlowState {
    int pkts_seen = 0;
    int signature_hits = 0;
    bool is_p2p = false;
    bool decided = false;
  };

  void Inspect(const net::Packet& pkt, FlowState& state);

  std::unordered_map<net::FiveTuple, FlowState, net::FiveTupleHash> table_;
  sketch::H3Hash admit_hash_;
  std::vector<BoyerMoore> signatures_;
  std::vector<std::set<net::FiveTuple>> snaps_;
};

// Selfish variant (Fig. 6.10): claims custom shedding but ignores the budget
// and always processes everything, trying to grab extra cycles.
class SelfishP2pDetectorQuery : public P2pDetectorQuery {
 public:
  explicit SelfishP2pDetectorQuery(size_t interval_bins = 10);

 protected:
  void OnCustomBatch(const BatchInput& in, double fraction) override;
};

// Buggy variant (Fig. 6.11): an incorrect custom implementation whose cost
// bears no relation to the granted fraction (sometimes does double work).
class BuggyP2pDetectorQuery : public P2pDetectorQuery {
 public:
  explicit BuggyP2pDetectorQuery(size_t interval_bins = 10);

 protected:
  void OnCustomBatch(const BatchInput& in, double fraction) override;

 private:
  size_t batch_no_ = 0;
};

// ---------------------------------------------------------------------------
// autofocus — uni-dimensional high-volume traffic clusters per source subnet
// ([55] in the thesis): the most specific IP prefixes whose unreported
// traffic exceeds a threshold fraction of the total.
// ---------------------------------------------------------------------------
class AutofocusQuery : public Query {
 public:
  explicit AutofocusQuery(double threshold_fraction = 0.02, size_t interval_bins = 10);

  // Clusters encoded as (prefix << 8) | prefix_len.
  const std::vector<std::set<uint64_t>>& reports() const { return snaps_; }

  static std::set<uint64_t> ComputeClusters(const std::unordered_map<uint32_t, double>& bytes,
                                            double threshold_fraction);

  double IntervalError(const Query& reference, size_t interval) const override;

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  double threshold_fraction_;
  std::unordered_map<uint32_t, double> src_bytes_;
  std::vector<std::set<uint64_t>> snaps_;
  // Reused per-batch scratch, as in TopKQuery.
  std::unordered_map<uint32_t, double> batch_bytes_;
  std::vector<uint32_t> batch_order_;
};

// ---------------------------------------------------------------------------
// super-sources — sources with the largest fan-out (distinct destinations,
// [139] in the thesis), counted per source with small direct bitmaps.
// ---------------------------------------------------------------------------
class SuperSourcesQuery : public Query {
 public:
  explicit SuperSourcesQuery(size_t top_n = 10, size_t interval_bins = 10);

  SamplingMethod preferred_sampling() const override { return SamplingMethod::kFlow; }

  struct Snapshot {
    // (src ip, estimated fan-out), sorted by fan-out descending, top-N.
    std::vector<std::pair<uint32_t, double>> top;
    std::unordered_map<uint32_t, double> all;
  };
  const std::vector<Snapshot>& snapshots() const { return snaps_; }

  double IntervalError(const Query& reference, size_t interval) const override;

 protected:
  void OnBatch(const BatchInput& in) override;
  void OnEndInterval(size_t interval_index) override;

 private:
  size_t top_n_;
  sketch::H3Hash dst_hash_;
  std::unordered_map<uint32_t, sketch::DirectBitmap> fanout_;
  double rate_sum_ = 0.0;
  size_t rate_batches_ = 0;
  std::vector<Snapshot> snaps_;
};

// ---------------------------------------------------------------------------
// Factory for the standard query set (Table 2.2), by name.
// ---------------------------------------------------------------------------
std::unique_ptr<Query> MakeQuery(std::string_view name);
// The seven-query validation set of Ch. 3/4.
std::vector<std::string> StandardSevenQueryNames();
// The nine-query set of Table 5.2 (adds autofocus and super-sources).
std::vector<std::string> StandardNineQueryNames();
// All ten queries of Table 2.2.
std::vector<std::string> AllQueryNames();

}  // namespace shedmon::query
