#pragma once

// Test oracle for features::FeatureExtractor: the unfused extraction, with
// per-aggregate key materialization, one H3 function per aggregate and no
// tuple dedupe or index. Every packet inserts all ten of its aggregate
// hashes, so the only thing it shares with the production path is the
// bitmap estimator and the counter definitions of §3.2.1.

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "src/features/features.h"
#include "src/sketch/bitmap.h"
#include "src/sketch/h3.h"
#include "src/trace/batch.h"

namespace shedmon::oracle {

class ReferenceExtractor {
 public:
  explicit ReferenceExtractor(uint64_t seed = 0x5eed, uint32_t components = 12,
                              uint32_t component_bits = 512)
      : hashes_(MakeHashes(seed, std::make_index_sequence<features::kNumAggregates>())) {
    batch_.fill(sketch::MultiResBitmap(components, component_bits));
    interval_.fill(sketch::MultiResBitmap(components, component_bits));
  }

  void StartInterval() {
    for (auto& bm : interval_) {
      bm.Clear();
    }
  }

  features::FeatureVector Extract(const trace::PacketVec& packets) {
    using features::Aggregate;
    using features::Counter;
    for (auto& bm : batch_) {
      bm.Clear();
    }
    double bytes = 0.0;
    uint8_t key[13];
    for (const net::Packet& pkt : packets) {
      bytes += pkt.rec->wire_len;
      for (size_t a = 0; a < features::kNumAggregates; ++a) {
        const size_t len = features::AggregateKey(pkt.rec->tuple, static_cast<Aggregate>(a), key);
        batch_[a].Insert(hashes_[a].Hash(key, len));
      }
    }

    const double pkts = static_cast<double>(packets.size());
    features::FeatureVector f{};
    f[features::kFeatPackets] = pkts;
    f[features::kFeatBytes] = bytes;
    for (size_t a = 0; a < features::kNumAggregates; ++a) {
      const auto agg = static_cast<Aggregate>(a);
      const double unique = std::min(batch_[a].Estimate(), pkts);
      const double fresh = std::min(interval_[a].CountNew(batch_[a]), unique);
      interval_[a].Union(batch_[a]);
      f[features::FeatureIndex(agg, Counter::kUnique)] = unique;
      f[features::FeatureIndex(agg, Counter::kNew)] = fresh;
      f[features::FeatureIndex(agg, Counter::kRepeatedBatch)] = std::max(0.0, pkts - unique);
      f[features::FeatureIndex(agg, Counter::kRepeatedInterval)] = std::max(0.0, pkts - fresh);
    }
    return f;
  }

 private:
  template <size_t... I>
  static std::array<sketch::H3Hash, sizeof...(I)> MakeHashes(uint64_t seed,
                                                             std::index_sequence<I...>) {
    return {sketch::H3Hash(
        features::AggregateHashSeed(seed, static_cast<features::Aggregate>(I)))...};
  }

  std::array<sketch::H3Hash, features::kNumAggregates> hashes_;
  std::array<sketch::MultiResBitmap, features::kNumAggregates> batch_;
  std::array<sketch::MultiResBitmap, features::kNumAggregates> interval_;
};

}  // namespace shedmon::oracle
