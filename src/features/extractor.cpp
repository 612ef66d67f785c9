#include "src/features/extractor.h"

#include <algorithm>
#include <stdexcept>

namespace shedmon::features {

namespace {
// One bitmap of the configured shape copied ten times, so the ten bitmaps
// share one set of estimator tables.
std::array<sketch::MultiResBitmap, kNumAggregates> MakeBitmaps(const FeatureExtractor::Config& c) {
  const sketch::MultiResBitmap bm(c.mrb_components, c.mrb_bits);
  return {bm, bm, bm, bm, bm, bm, bm, bm, bm, bm};
}
}  // namespace

FeatureExtractor::FeatureExtractor() : FeatureExtractor(Config()) {}

FeatureExtractor::FeatureExtractor(const Config& config)
    : config_(config),
      fused_(MakeAggregateHasher(config.seed)),
      batch_bm_(MakeBitmaps(config)),
      interval_bm_(batch_bm_) {
  index_.seed = config.seed;
}

void FeatureExtractor::StartInterval() {
  for (auto& bm : interval_bm_) {
    bm.Clear();
  }
}

void FeatureExtractor::BuildIndex(const trace::PacketVec& packets) {
  index_.tuple_of.resize(packets.size());
  index_.wire_len.resize(packets.size());
  index_.tuples.clear();
  index_.hashes.clear();

  // Size the batch-local tuple set to keep the load factor under one half.
  size_t cap = 64;
  while (cap < 2 * packets.size()) {
    cap <<= 1;
  }
  if (++seen_epoch_ == 0) {  // the epoch wrapped: stale stamps could match
    seen_.clear();
    seen_epoch_ = 1;
  }
  if (seen_.size() < cap) {
    seen_.assign(cap, DedupeSlot{});
  }
  const size_t mask = seen_.size() - 1;
  const uint32_t epoch = seen_epoch_;
  const net::FiveTupleHash fingerprint;

  for (size_t p = 0; p < packets.size(); ++p) {
    const net::PacketRecord& rec = *packets[p].rec;
    index_.wire_len[p] = rec.wire_len;
    const net::FiveTuple& t = rec.tuple;

    size_t idx = fingerprint(t) & mask;
    while (seen_[idx].epoch == epoch && !(index_.tuples[seen_[idx].id] == t)) {
      idx = (idx + 1) & mask;
    }
    DedupeSlot& slot = seen_[idx];
    if (slot.epoch != epoch) {
      slot.epoch = epoch;
      slot.id = static_cast<uint32_t>(index_.tuples.size());
      index_.tuples.push_back(t);
      const auto key = t.Bytes();
      fused_.HashAllFixed<13, kNumAggregates>(key.data(), index_.hashes.emplace_back());
    }
    index_.tuple_of[p] = slot.id;
  }
}

FeatureVector FeatureExtractor::Extract(const trace::PacketVec& packets) {
  BuildIndex(packets);
  return Fold(index_, std::nullopt);
}

FeatureVector FeatureExtractor::Extract(const TupleIndex& index,
                                        std::span<const uint32_t> positions) {
  return Fold(index, positions);
}

FeatureVector FeatureExtractor::Extract(const TupleIndex& index) {
  return Fold(index, std::nullopt);
}

FeatureVector FeatureExtractor::Fold(const TupleIndex& index,
                                     std::optional<std::span<const uint32_t>> positions) {
  if (index.seed != config_.seed) {
    throw std::invalid_argument("FeatureExtractor: tuple index built with another seed");
  }
  for (auto& bm : batch_bm_) {
    bm.Clear();
  }
  // Summed as an integer: every partial sum is exact in a double too, so the
  // total is bit-identical to accumulating in double, without the FP-add
  // dependency chain.
  uint64_t bytes = 0;
  if (!positions) {
    // Every packet is selected, so its distinct tuples are exactly the ids
    // 0..num_tuples()-1. Inserts are set operations, so inserting them in id
    // order leaves the bitmaps as a per-packet pass would.
    for (const std::array<uint64_t, kNumAggregates>& h : index.hashes) {
      for (size_t a = 0; a < kNumAggregates; ++a) {
        batch_bm_[a].Insert(h[a]);
      }
    }
    for (const uint16_t len : index.wire_len) {
      bytes += len;
    }
  } else {
    if (folded_.size() < index.num_tuples()) {
      folded_.resize(index.num_tuples(), 0);
    }
    const uint64_t epoch = ++fold_epoch_;
    for (const uint32_t p : *positions) {
      bytes += index.wire_len[p];
      const uint32_t id = index.tuple_of[p];
      if (folded_[id] == epoch) {
        continue;  // every aggregate key of this packet is already counted
      }
      folded_[id] = epoch;
      const std::array<uint64_t, kNumAggregates>& h = index.hashes[id];
      for (size_t a = 0; a < kNumAggregates; ++a) {
        batch_bm_[a].Insert(h[a]);
      }
    }
  }

  const double pkts =
      static_cast<double>(positions ? positions->size() : index.num_packets());
  FeatureVector f{};
  f[kFeatPackets] = pkts;
  f[kFeatBytes] = static_cast<double>(bytes);
  for (int a = 0; a < kNumAggregates; ++a) {
    const auto agg = static_cast<Aggregate>(a);
    const auto& batch = batch_bm_[static_cast<size_t>(a)];
    auto& interval = interval_bm_[static_cast<size_t>(a)];

    const double unique = std::min(batch.Estimate(), pkts);
    const double fresh = std::min(interval.CountNew(batch), unique);
    interval.Union(batch);

    f[FeatureIndex(agg, Counter::kUnique)] = unique;
    f[FeatureIndex(agg, Counter::kNew)] = fresh;
    f[FeatureIndex(agg, Counter::kRepeatedBatch)] = std::max(0.0, pkts - unique);
    f[FeatureIndex(agg, Counter::kRepeatedInterval)] = std::max(0.0, pkts - fresh);
  }
  return f;
}

}  // namespace shedmon::features
