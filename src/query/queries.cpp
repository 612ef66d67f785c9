#include "src/query/queries.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "src/trace/batch.h"
#include "src/util/stats.h"

namespace shedmon::query {

namespace {
// A query must not divide by a vanishing sampling rate.
double SafeRate(double rate) { return rate > 1e-6 ? rate : 1e-6; }

// Work-unit weights per query (arbitrary "model cycles"; relative magnitudes
// follow Fig. 2.2: byte-driven and per-flow-state queries at the top, plain
// counters at the bottom). The deterministic cost oracle charges these.
namespace work {
constexpr double kCounterPkt = 40.0;
constexpr double kApplicationPkt = 70.0;
constexpr double kWatermarkPkt = 45.0;
constexpr double kFlowsPkt = 90.0;
constexpr double kFlowsInsert = 700.0;
constexpr double kTopKPkt = 110.0;
constexpr double kTopKInsert = 350.0;
constexpr double kTracePkt = 25.0;
constexpr double kTraceByte = 1.6;
constexpr double kPatternPkt = 30.0;
constexpr double kPatternByte = 2.6;
constexpr double kP2pUpdate = 250.0;   // per-packet flow-state update
constexpr double kP2pScanByte = 1.0;   // payload inspection
constexpr double kP2pInsert = 900.0;   // new flow entry
constexpr double kP2pDecidedLookup = 25.0;  // custom method: counted only
constexpr double kP2pRejected = 5.0;        // custom method: hash test only
constexpr double kAutofocusPkt = 80.0;
constexpr double kAutofocusInsert = 260.0;
constexpr double kAutofocusClusterSrc = 30.0;  // interval-end aggregation
constexpr double kSuperSrcPkt = 85.0;
constexpr double kSuperSrcInsert = 420.0;
}  // namespace work
}  // namespace

// ---------------------------------------------------------------- counter --

CounterQuery::CounterQuery(size_t interval_bins) : Query("counter", interval_bins) {}

void CounterQuery::OnBatch(const BatchInput& in) {
  // Exact integer-valued partials first, then one 1/rate rescale per batch.
  double bytes = 0.0;
  for (const net::Packet& pkt : in.packets) {
    bytes += static_cast<double>(pkt.rec->wire_len);
  }
  const double pkts = static_cast<double>(in.packets.size());
  const double inv = 1.0 / SafeRate(in.sampling_rate);
  cur_.pkts += pkts * inv;
  cur_.bytes += bytes * inv;
  ChargeWork(work::kCounterPkt * pkts);
}

void CounterQuery::OnEndInterval(size_t /*interval_index*/) {
  snaps_.push_back(cur_);
  cur_ = Snapshot{};
}

double CounterQuery::IntervalErrorPackets(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const CounterQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  return std::min(1.0, util::RelativeError(snaps_[interval].pkts, ref->snaps_[interval].pkts));
}

double CounterQuery::IntervalErrorBytes(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const CounterQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  return std::min(1.0, util::RelativeError(snaps_[interval].bytes, ref->snaps_[interval].bytes));
}

double CounterQuery::IntervalError(const Query& reference, size_t interval) const {
  return 0.5 * (IntervalErrorPackets(reference, interval) +
                IntervalErrorBytes(reference, interval));
}

// ------------------------------------------------------------ application --

ApplicationQuery::ApplicationQuery(size_t interval_bins) : Query("application", interval_bins) {}

net::AppClass ApplicationQuery::ClassifyPorts(const net::FiveTuple& tuple) {
  auto classify_one = [](uint16_t port) -> net::AppClass {
    switch (port) {
      case 80:
      case 443:
      case 8080:
        return net::AppClass::kWeb;
      case 53:
        return net::AppClass::kDns;
      case 25:
      case 110:
      case 143:
      case 587:
        return net::AppClass::kMail;
      case 6881:
      case 4662:
      case 6346:
      case 1214:
        return net::AppClass::kP2p;
      case 554:
      case 1935:
      case 8554:
        return net::AppClass::kStreaming;
      case 22:
        return net::AppClass::kSsh;
      default:
        return net::AppClass::kOther;
    }
  };
  const net::AppClass by_dst = classify_one(tuple.dst_port);
  if (by_dst != net::AppClass::kOther) {
    return by_dst;
  }
  return classify_one(tuple.src_port);
}

void ApplicationQuery::OnBatch(const BatchInput& in) {
  // Exact per-class partials first, then one 1/rate rescale per class.
  std::array<double, net::kNumAppClasses> class_pkts{};
  std::array<double, net::kNumAppClasses> class_bytes{};
  for (const net::Packet& pkt : in.packets) {
    const auto app = static_cast<size_t>(ClassifyPorts(pkt.rec->tuple));
    class_pkts[app] += 1.0;
    class_bytes[app] += static_cast<double>(pkt.rec->wire_len);
  }
  const double inv = 1.0 / SafeRate(in.sampling_rate);
  for (size_t i = 0; i < class_pkts.size(); ++i) {
    if (class_pkts[i] == 0.0) {
      continue;  // untouched classes stay bit-for-bit untouched
    }
    cur_.pkts[i] += class_pkts[i] * inv;
    cur_.bytes[i] += class_bytes[i] * inv;
  }
  ChargeWork(work::kApplicationPkt * static_cast<double>(in.packets.size()));
}

void ApplicationQuery::OnEndInterval(size_t /*interval_index*/) {
  snaps_.push_back(cur_);
  cur_ = Snapshot{};
}

namespace {
double WeightedAppError(const std::array<double, net::kNumAppClasses>& est,
                        const std::array<double, net::kNumAppClasses>& ref) {
  double total = 0.0;
  for (double v : ref) {
    total += v;
  }
  if (total <= 0.0) {
    return 0.0;
  }
  double err = 0.0;
  for (int a = 0; a < net::kNumAppClasses; ++a) {
    const auto i = static_cast<size_t>(a);
    if (ref[i] <= 0.0) {
      continue;
    }
    err += (ref[i] / total) * std::min(1.0, util::RelativeError(est[i], ref[i]));
  }
  return err;
}
}  // namespace

double ApplicationQuery::IntervalErrorPackets(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const ApplicationQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  return WeightedAppError(snaps_[interval].pkts, ref->snaps_[interval].pkts);
}

double ApplicationQuery::IntervalErrorBytes(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const ApplicationQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  return WeightedAppError(snaps_[interval].bytes, ref->snaps_[interval].bytes);
}

double ApplicationQuery::IntervalError(const Query& reference, size_t interval) const {
  return 0.5 * (IntervalErrorPackets(reference, interval) +
                IntervalErrorBytes(reference, interval));
}

// --------------------------------------------------------- high-watermark --

HighWatermarkQuery::HighWatermarkQuery(size_t interval_bins)
    : Query("high-watermark", interval_bins) {}

void HighWatermarkQuery::OnBatch(const BatchInput& in) {
  double bytes = 0.0;
  for (const net::Packet& pkt : in.packets) {
    bytes += static_cast<double>(pkt.rec->wire_len);
  }
  const double inv = 1.0 / SafeRate(in.sampling_rate);
  cur_watermark_ = std::max(cur_watermark_, bytes * inv);
  ChargeWork(work::kWatermarkPkt * static_cast<double>(in.packets.size()));
}

void HighWatermarkQuery::OnCustomBatch(const BatchInput& in, double fraction) {
  // Deterministic 1-in-k stride with rescaling: examines ~fraction of the
  // packets; the stride keeps the estimator variance low for a peak metric.
  const size_t stride =
      std::max<size_t>(1, static_cast<size_t>(std::llround(1.0 / std::max(fraction, 1e-3))));
  const double inv = static_cast<double>(stride) / SafeRate(in.sampling_rate);
  double bin_bytes = 0.0;
  size_t examined = 0;
  for (size_t i = 0; i < in.packets.size(); i += stride) {
    bin_bytes += static_cast<double>(in.packets[i].rec->wire_len);
    ++examined;
  }
  cur_watermark_ = std::max(cur_watermark_, bin_bytes * inv);
  AdjustProcessedCount(-(static_cast<double>(in.packets.size()) -
                         static_cast<double>(examined)));
  ChargeWork(work::kWatermarkPkt * static_cast<double>(examined));
}

void HighWatermarkQuery::OnEndInterval(size_t /*interval_index*/) {
  snaps_.push_back(cur_watermark_);
  cur_watermark_ = 0.0;
}

double HighWatermarkQuery::IntervalError(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const HighWatermarkQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  // The scaled maximum is a biased-up estimator, so the relative error is
  // unbounded above; clamp to the [0, 1] accuracy scale of Fig. 5.3.
  return std::min(1.0, util::RelativeError(snaps_[interval], ref->snaps_[interval]));
}

// ------------------------------------------------------------------ flows --

FlowsQuery::FlowsQuery(size_t interval_bins) : Query("flows", interval_bins) {}

void FlowsQuery::OnBatch(const BatchInput& in) {
  // Count new flows exactly, then rescale once per batch.
  const double inv = 1.0 / SafeRate(in.sampling_rate);
  double inserts = 0.0;
  for (const net::Packet& pkt : in.packets) {
    if (flows_.insert(pkt.rec->tuple).second) {
      inserts += 1.0;
    }
  }
  estimate_ += inserts * inv;
  ChargeWork(work::kFlowsPkt * static_cast<double>(in.packets.size()) +
             work::kFlowsInsert * inserts);
}

void FlowsQuery::OnEndInterval(size_t /*interval_index*/) {
  snaps_.push_back(estimate_);
  flows_.clear();
  estimate_ = 0.0;
}

double FlowsQuery::IntervalError(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const FlowsQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  return std::min(1.0, util::RelativeError(snaps_[interval], ref->snaps_[interval]));
}

// ------------------------------------------------------------------ top-k --

TopKQuery::TopKQuery(size_t k, size_t interval_bins)
    : Query("top-k", interval_bins), k_(k), admit_rng_(0xabba) {}

void TopKQuery::OnBatch(const BatchInput& in) {
  // Exact integer byte sums per key in first-touch order, then a single
  // rounding per key, in reused scratch so the hot path allocates nothing
  // after warm-up.
  batch_bytes_.clear();
  batch_order_.clear();
  for (const net::Packet& pkt : in.packets) {
    auto [it, inserted] = batch_bytes_.try_emplace(pkt.rec->tuple.dst_ip, 0.0);
    it->second += static_cast<double>(pkt.rec->wire_len);
    if (inserted) {
      batch_order_.push_back(pkt.rec->tuple.dst_ip);
    }
  }
  const double inv = 1.0 / SafeRate(in.sampling_rate);
  double inserts = 0.0;
  for (const uint32_t key : batch_order_) {
    auto [it, inserted] = bytes_.try_emplace(key, 0.0);
    if (inserted) {
      inserts += 1.0;
    }
    it->second += batch_bytes_.at(key) * inv;
  }
  ChargeWork(work::kTopKPkt * static_cast<double>(in.packets.size()) +
             work::kTopKInsert * inserts);
}

void TopKQuery::OnCustomBatch(const BatchInput& in, double fraction) {
  // Sample & Hold (the thesis cites S&H as a shedding-friendly alternative):
  // packets of keys already tracked count in full; new keys are admitted with
  // probability `fraction` and seeded with the 1/fraction correction.
  const double admit = std::clamp(fraction, 1e-3, 1.0);
  double inserts = 0.0;
  for (const net::Packet& pkt : in.packets) {
    const uint32_t key = pkt.rec->tuple.dst_ip;
    const double len = static_cast<double>(pkt.rec->wire_len);
    auto it = bytes_.find(key);
    if (it != bytes_.end()) {
      it->second += len;
      continue;
    }
    if (admit_rng_.NextDouble() < admit) {
      bytes_[key] = len / admit;
      inserts += 1.0;
    }
  }
  ChargeWork(work::kTopKPkt * static_cast<double>(in.packets.size()) +
             work::kTopKInsert * inserts);
}

void TopKQuery::OnEndInterval(size_t /*interval_index*/) {
  Snapshot snap;
  snap.all = bytes_;
  std::vector<std::pair<uint32_t, double>> sorted(bytes_.begin(), bytes_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (sorted.size() > k_) {
    sorted.resize(k_);
  }
  snap.topk = std::move(sorted);
  snaps_.push_back(std::move(snap));
  bytes_.clear();
}

double TopKQuery::IntervalMisrankedPairs(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const TopKQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return static_cast<double>(k_ * k_);
  }
  const Snapshot& est = snaps_[interval];
  const Snapshot& truth = ref->snaps_[interval];

  std::unordered_set<uint32_t> in_list;
  for (const auto& [ip, by] : est.topk) {
    in_list.insert(ip);
  }
  // Count pairs (x in returned top-k, y outside it) where the true volume of
  // y exceeds the true volume of x — the metric of [12] (§2.2.1).
  size_t misranked = 0;
  for (const auto& [x_ip, x_est] : est.topk) {
    const auto x_true_it = truth.all.find(x_ip);
    const double x_true = x_true_it == truth.all.end() ? 0.0 : x_true_it->second;
    // lint: order-insensitive counting qualifying pairs commutes
    for (const auto& [y_ip, y_true] : truth.all) {
      if (in_list.count(y_ip) != 0) {
        continue;
      }
      if (y_true > x_true) {
        ++misranked;
      }
    }
  }
  return static_cast<double>(misranked);
}

double TopKQuery::IntervalError(const Query& reference, size_t interval) const {
  const double pairs = IntervalMisrankedPairs(reference, interval);
  return std::clamp(pairs / static_cast<double>(k_ * k_), 0.0, 1.0);
}

// ------------------------------------------------------------------ trace --

TraceQuery::TraceQuery(size_t interval_bins) : Query("trace", interval_bins) {
  storage_.resize(kStorageWindow);
}

void TraceQuery::OnBatch(const BatchInput& in) {
  double stored_bytes = 0.0;
  for (const net::Packet& pkt : in.packets) {
    // "Store" the packet: copy payload bytes (or the header record when the
    // trace carries no payload) into the rolling storage window. This is the
    // byte-proportional work the real query spends on the storage path.
    const uint8_t* src;
    size_t len;
    if (pkt.payload_len > 0) {
      src = pkt.payload;
      len = pkt.payload_len;
    } else {
      src = reinterpret_cast<const uint8_t*>(pkt.rec);
      len = sizeof(net::PacketRecord);
    }
    if (storage_pos_ + len > kStorageWindow) {
      storage_pos_ = 0;
    }
    std::memcpy(storage_.data() + storage_pos_, src, len);
    storage_pos_ += len;
    cur_.pkts_stored += 1.0;
    cur_.bytes_stored += static_cast<double>(len);
    stored_bytes += static_cast<double>(len);
  }
  ChargeWork(work::kTracePkt * static_cast<double>(in.packets.size()) +
             work::kTraceByte * stored_bytes);
}

void TraceQuery::OnEndInterval(size_t /*interval_index*/) {
  snaps_.push_back(cur_);
  cur_ = Snapshot{};
}

// --------------------------------------------------------- pattern-search --

namespace {
// The bytes a packet contributes to the scan. Header-only
// traces scan the record bytes so the per-packet work stays real (the thesis
// runs this query on header-only captures too).
size_t EffectiveLen(const net::Packet& pkt) {
  return pkt.payload_len > 0 ? pkt.payload_len : sizeof(net::PacketRecord);
}
const uint8_t* EffectiveBytes(const net::Packet& pkt) {
  return pkt.payload_len > 0 ? pkt.payload : reinterpret_cast<const uint8_t*>(pkt.rec);
}
}  // namespace

PatternSearchQuery::PatternSearchQuery(std::string pattern, size_t interval_bins)
    : Query("pattern-search", interval_bins), matcher_(std::move(pattern)) {}

void PatternSearchQuery::OnBatch(const BatchInput& in) {
  double scanned = 0.0;
  double found = 0.0;
  for (const net::Packet& pkt : in.packets) {
    if (matcher_.Contains(EffectiveBytes(pkt), EffectiveLen(pkt))) {
      found += 1.0;
    }
    scanned += static_cast<double>(EffectiveLen(pkt));
  }
  const double inv = 1.0 / SafeRate(in.sampling_rate);
  cur_matches_ += found * inv;
  ChargeWork(work::kPatternPkt * static_cast<double>(in.packets.size()) +
             work::kPatternByte * scanned);
}

void PatternSearchQuery::OnEndInterval(size_t /*interval_index*/) {
  snaps_.push_back(cur_matches_);
  cur_matches_ = 0.0;
}

// ----------------------------------------------------------- p2p-detector --

P2pDetectorQuery::P2pDetectorQuery(size_t interval_bins)
    : Query("p2p-detector", interval_bins), admit_hash_(0xdead) {
  signatures_.emplace_back(std::string(trace::BittorrentSignature()));
  signatures_.emplace_back(std::string(trace::GnutellaSignature()));
  signatures_.emplace_back(std::string(trace::EdonkeySignature()));
}

void P2pDetectorQuery::Inspect(const net::Packet& pkt, FlowState& state) {
  if (pkt.payload_len > 0) {
    const size_t scan = std::min<size_t>(pkt.payload_len, 256);
    // One multi-pattern scan pass over the inspected prefix.
    ChargeWork(work::kP2pScanByte * static_cast<double>(scan));
    for (const BoyerMoore& sig : signatures_) {
      if (sig.Contains(pkt.payload, scan)) {
        // [121, 83]-style detection needs the protocol exchange, not a lone
        // match: the signature must be confirmed on both early stream
        // packets before the flow is classified. This is what makes the
        // detector fragile under packet sampling (Fig. 6.4) — missing
        // either early packet loses the flow.
        if (++state.signature_hits >= 2) {
          state.is_p2p = true;
          state.decided = true;
        }
        return;
      }
    }
  }
  if (state.pkts_seen >= kInspectPackets) {
    state.decided = true;  // inspection window exhausted, flow is not P2P
  }
}

void P2pDetectorQuery::OnBatch(const BatchInput& in) {
  for (const net::Packet& pkt : in.packets) {
    auto [it, inserted] = table_.try_emplace(pkt.rec->tuple);
    FlowState& state = it->second;
    ++state.pkts_seen;
    ChargeWork(inserted ? work::kP2pInsert + work::kP2pUpdate : work::kP2pUpdate);
    if (!state.decided) {
      Inspect(pkt, state);
    }
  }
}

void P2pDetectorQuery::OnCustomBatch(const BatchInput& in, double fraction) {
  // Custom method (§6.1): flows that are already classified are only counted
  // (cheap lookup, no payload scan); when the budget drops below the cost of
  // first-packet inspection, new flows are admission-controlled with a hash
  // so entire flows are kept or dropped coherently.
  const double f = std::clamp(fraction, 0.0, 1.0);
  const double admit = f >= kFirstPacketCostShare ? 1.0 : f / kFirstPacketCostShare;
  const uint64_t salt = completed_intervals() * 0x51ed5eedULL;
  for (const net::Packet& pkt : in.packets) {
    auto it = table_.find(pkt.rec->tuple);
    if (it == table_.end()) {
      if (admit < 1.0) {
        const auto key = pkt.rec->tuple.Bytes();
        uint8_t buf[16];
        std::memcpy(buf, key.data(), key.size());
        std::memcpy(buf + 13, &salt, 3);
        if (admit_hash_.HashUnit(buf, sizeof(buf)) >= admit) {
          AdjustProcessedCount(-1.0);
          ChargeWork(work::kP2pRejected);
          continue;
        }
      }
      it = table_.emplace(pkt.rec->tuple, FlowState{}).first;
      ChargeWork(work::kP2pInsert);
    }
    FlowState& state = it->second;
    if (state.decided) {
      // Classified flows are only counted, not re-inspected — the cost
      // reduction at the heart of the custom method.
      ++state.pkts_seen;
      ChargeWork(work::kP2pDecidedLookup);
      continue;
    }
    ++state.pkts_seen;
    ChargeWork(work::kP2pUpdate);
    Inspect(pkt, state);
  }
}

void P2pDetectorQuery::OnEndInterval(size_t /*interval_index*/) {
  std::set<net::FiveTuple> p2p;
  // lint: order-insensitive result lands in an ordered std::set
  for (const auto& [tuple, state] : table_) {
    if (state.is_p2p) {
      p2p.insert(tuple);
    }
  }
  snaps_.push_back(std::move(p2p));
  table_.clear();
}

double P2pDetectorQuery::IntervalError(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const P2pDetectorQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  const auto& est = snaps_[interval];
  const auto& truth = ref->snaps_[interval];
  if (truth.empty()) {
    return 0.0;
  }
  size_t correct = 0;
  for (const auto& tuple : est) {
    if (truth.count(tuple) != 0) {
      ++correct;
    }
  }
  return 1.0 - static_cast<double>(correct) / static_cast<double>(truth.size());
}

SelfishP2pDetectorQuery::SelfishP2pDetectorQuery(size_t interval_bins)
    : P2pDetectorQuery(interval_bins) {}

void SelfishP2pDetectorQuery::OnCustomBatch(const BatchInput& in, double /*fraction*/) {
  // Ignores the granted budget entirely — the behaviour §6.3.4 polices.
  OnBatch(in);
}

BuggyP2pDetectorQuery::BuggyP2pDetectorQuery(size_t interval_bins)
    : P2pDetectorQuery(interval_bins) {}

void BuggyP2pDetectorQuery::OnCustomBatch(const BatchInput& in, double /*fraction*/) {
  // A broken implementation: cost is unrelated to the granted fraction and
  // periodically spikes to roughly double work (§6.3.5).
  OnBatch(in);
  if (++batch_no_ % 3 == 0) {
    OnBatch(in);
    AdjustProcessedCount(-static_cast<double>(in.packets.size()));
  }
}

// -------------------------------------------------------------- autofocus --

AutofocusQuery::AutofocusQuery(double threshold_fraction, size_t interval_bins)
    : Query("autofocus", interval_bins), threshold_fraction_(threshold_fraction) {}

void AutofocusQuery::OnBatch(const BatchInput& in) {
  // Same exact-partials discipline as TopKQuery::OnBatch.
  batch_bytes_.clear();
  batch_order_.clear();
  for (const net::Packet& pkt : in.packets) {
    auto [it, inserted] = batch_bytes_.try_emplace(pkt.rec->tuple.src_ip, 0.0);
    it->second += static_cast<double>(pkt.rec->wire_len);
    if (inserted) {
      batch_order_.push_back(pkt.rec->tuple.src_ip);
    }
  }
  const double inv = 1.0 / SafeRate(in.sampling_rate);
  double inserts = 0.0;
  for (const uint32_t key : batch_order_) {
    auto [it, inserted] = src_bytes_.try_emplace(key, 0.0);
    if (inserted) {
      inserts += 1.0;
    }
    it->second += batch_bytes_.at(key) * inv;
  }
  ChargeWork(work::kAutofocusPkt * static_cast<double>(in.packets.size()) +
             work::kAutofocusInsert * inserts);
}

std::set<uint64_t> AutofocusQuery::ComputeClusters(
    const std::unordered_map<uint32_t, double>& bytes, double threshold_fraction) {
  std::set<uint64_t> report;
  if (bytes.empty()) {
    return report;
  }
  std::vector<std::pair<uint32_t, double>> sorted(bytes.begin(), bytes.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> psum(sorted.size() + 1, 0.0);
  for (size_t i = 0; i < sorted.size(); ++i) {
    psum[i + 1] = psum[i] + sorted[i].second;
  }
  const double threshold = threshold_fraction * psum.back();
  if (threshold <= 0.0) {
    return report;
  }

  // Recursive compression over the binary prefix trie ([55]): report the most
  // specific prefixes whose traffic not covered by reported descendants still
  // exceeds the threshold.
  std::function<double(size_t, size_t, int, uint32_t)> walk =
      [&](size_t lo, size_t hi, int depth, uint32_t prefix) -> double {
    const double total = psum[hi] - psum[lo];
    if (total < threshold || lo >= hi) {
      return 0.0;
    }
    if (depth == 32) {
      report.insert((static_cast<uint64_t>(prefix) << 8) | 32u);
      return total;
    }
    const uint32_t bit = 1u << (31 - depth);
    // Partition point: first entry with the depth-th bit set.
    const uint32_t boundary = prefix | bit;
    const auto it = std::lower_bound(
        sorted.begin() + static_cast<ptrdiff_t>(lo), sorted.begin() + static_cast<ptrdiff_t>(hi),
        boundary, [](const auto& entry, uint32_t value) { return entry.first < value; });
    const size_t mid = static_cast<size_t>(it - sorted.begin());
    const double reported =
        walk(lo, mid, depth + 1, prefix) + walk(mid, hi, depth + 1, boundary);
    if (total - reported >= threshold) {
      report.insert((static_cast<uint64_t>(prefix) << 8) | static_cast<uint32_t>(depth));
      return total;
    }
    return reported;
  };
  walk(0, sorted.size(), 0, 0);
  return report;
}

void AutofocusQuery::OnEndInterval(size_t /*interval_index*/) {
  ChargeWork(work::kAutofocusClusterSrc * static_cast<double>(src_bytes_.size()));
  snaps_.push_back(ComputeClusters(src_bytes_, threshold_fraction_));
  src_bytes_.clear();
}

double AutofocusQuery::IntervalError(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const AutofocusQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  const auto& est = snaps_[interval];
  const auto& truth = ref->snaps_[interval];
  if (truth.empty()) {
    return est.empty() ? 0.0 : 1.0;
  }
  // Delta-report error (§2.2.1): the share of reference clusters missing or
  // changed in this report.
  size_t common = 0;
  for (const uint64_t cluster : est) {
    if (truth.count(cluster) != 0) {
      ++common;
    }
  }
  return 1.0 - static_cast<double>(common) / static_cast<double>(truth.size());
}

// ---------------------------------------------------------- super-sources --

SuperSourcesQuery::SuperSourcesQuery(size_t top_n, size_t interval_bins)
    : Query("super-sources", interval_bins), top_n_(top_n), dst_hash_(0xfa11) {}

void SuperSourcesQuery::OnBatch(const BatchInput& in) {
  rate_sum_ += SafeRate(in.sampling_rate);
  ++rate_batches_;
  double inserts = 0.0;
  for (const net::Packet& pkt : in.packets) {
    auto [it, inserted] = fanout_.try_emplace(pkt.rec->tuple.src_ip, 128u);
    if (inserted) {
      inserts += 1.0;
    }
    uint8_t key[4];
    std::memcpy(key, &pkt.rec->tuple.dst_ip, 4);
    it->second.Insert(dst_hash_.Hash(key, 4));
  }
  ChargeWork(work::kSuperSrcPkt * static_cast<double>(in.packets.size()) +
             work::kSuperSrcInsert * inserts);
}

void SuperSourcesQuery::OnEndInterval(size_t /*interval_index*/) {
  Snapshot snap;
  const double rate =
      rate_batches_ > 0 ? rate_sum_ / static_cast<double>(rate_batches_) : 1.0;
  // lint: order-insensitive keyed assignment into snap.all commutes
  for (const auto& [src, bitmap] : fanout_) {
    snap.all[src] = bitmap.Estimate() / SafeRate(rate);
  }
  std::vector<std::pair<uint32_t, double>> sorted(snap.all.begin(), snap.all.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (sorted.size() > top_n_) {
    sorted.resize(top_n_);
  }
  snap.top = std::move(sorted);
  snaps_.push_back(std::move(snap));
  fanout_.clear();
  rate_sum_ = 0.0;
  rate_batches_ = 0;
}

double SuperSourcesQuery::IntervalError(const Query& reference, size_t interval) const {
  const auto* ref = dynamic_cast<const SuperSourcesQuery*>(&reference);
  if (ref == nullptr || interval >= snaps_.size() || interval >= ref->snaps_.size()) {
    return 1.0;
  }
  const Snapshot& est = snaps_[interval];
  const Snapshot& truth = ref->snaps_[interval];
  if (truth.top.empty()) {
    return 0.0;
  }
  // Average relative fan-out error over the reference's top sources ([139]).
  util::RunningStats err;
  for (const auto& [src, true_fanout] : truth.top) {
    const auto it = est.all.find(src);
    const double estimate = it == est.all.end() ? 0.0 : it->second;
    err.Add(std::min(1.0, util::RelativeError(estimate, true_fanout)));
  }
  return err.mean();
}

// ---------------------------------------------------------------- factory --

std::unique_ptr<Query> MakeQuery(std::string_view name) {
  if (name == "counter") {
    return std::make_unique<CounterQuery>();
  }
  if (name == "application") {
    return std::make_unique<ApplicationQuery>();
  }
  if (name == "high-watermark") {
    return std::make_unique<HighWatermarkQuery>();
  }
  if (name == "flows") {
    return std::make_unique<FlowsQuery>();
  }
  if (name == "top-k") {
    return std::make_unique<TopKQuery>();
  }
  if (name == "trace") {
    return std::make_unique<TraceQuery>();
  }
  if (name == "pattern-search") {
    return std::make_unique<PatternSearchQuery>();
  }
  if (name == "p2p-detector") {
    return std::make_unique<P2pDetectorQuery>();
  }
  if (name == "autofocus") {
    return std::make_unique<AutofocusQuery>();
  }
  if (name == "super-sources") {
    return std::make_unique<SuperSourcesQuery>();
  }
  throw std::invalid_argument("MakeQuery: unknown query " + std::string(name));
}

std::vector<std::string> StandardSevenQueryNames() {
  return {"application", "counter", "flows", "high-watermark", "pattern-search", "top-k",
          "trace"};
}

std::vector<std::string> StandardNineQueryNames() {
  return {"application", "autofocus",    "counter",       "flows", "high-watermark",
          "pattern-search", "super-sources", "top-k",     "trace"};
}

std::vector<std::string> AllQueryNames() {
  return {"application",    "autofocus",     "counter", "flows", "high-watermark",
          "p2p-detector",   "pattern-search", "super-sources", "top-k", "trace"};
}

}  // namespace shedmon::query
