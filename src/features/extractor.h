#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/features/features.h"
#include "src/sketch/bitmap.h"
#include "src/sketch/fused_hash.h"
#include "src/trace/batch.h"

namespace shedmon::features {

// What a batch's extraction learns about its packets, kept so that every
// later extraction over a subset of the same batch (a query's sampled view)
// folds cached hashes instead of re-deduping and re-hashing: a dense
// distinct-tuple id per packet, the ten aggregate hashes of each distinct
// tuple, and each packet's wire length. Ids are assigned in order of first
// appearance. The hashes are only valid for extractors with the same seed.
struct TupleIndex {
  uint64_t seed = 0;                 // extractor seed the hashes were made with
  std::vector<uint32_t> tuple_of;    // per packet: distinct-tuple id
  std::vector<uint16_t> wire_len;    // per packet: bytes on the wire
  std::vector<net::FiveTuple> tuples;  // per distinct tuple
  std::vector<std::array<uint64_t, kNumAggregates>> hashes;  // per distinct tuple

  size_t num_packets() const { return tuple_of.size(); }
  size_t num_tuples() const { return tuples.size(); }
};

// Extracts the 42-feature vector from a batch of packets using
// multi-resolution bitmaps (§3.2.1): one bitmap per aggregate for the batch
// ("unique") and one persisting across the measurement interval ("new", via
// the bitwise-OR merge). Worst-case per-packet cost is deterministic: one
// fused table pass yielding all ten per-aggregate H3 hashes, plus ten bitmap
// inserts.
class FeatureExtractor {
 public:
  struct Config {
    uint32_t mrb_components = 12;
    uint32_t mrb_bits = 512;
    uint64_t seed = 0x5eed;
  };

  FeatureExtractor();
  explicit FeatureExtractor(const Config& config);

  // Resets the per-interval state ("new"-item bitmaps). Call at every
  // measurement-interval boundary.
  void StartInterval();

  // Computes the feature vector for the given packets and folds their keys
  // into the interval state: builds index() for the packets (each distinct
  // 5-tuple hashed once with the fused hasher), then folds every packet of
  // it. All ten bitmaps are set-based, so a repeated tuple cannot change any
  // counter and only its packet/byte totals are added.
  FeatureVector Extract(const trace::PacketVec& packets);

  // The same fold over the packets of `index` at `positions` (ascending
  // indices into the indexed batch): bit-identical to Extract() on the
  // packet vector those positions select, without hashing anything.
  // `index` must come from an extractor with the same seed
  // (std::invalid_argument otherwise).
  FeatureVector Extract(const TupleIndex& index, std::span<const uint32_t> positions);
  // The fold over every packet of `index`.
  FeatureVector Extract(const TupleIndex& index);

  // The index built by the last Extract(packets) call, valid until the next
  // one. Its positions are indices into the packet vector of that call.
  const TupleIndex& index() const { return index_; }

  const Config& config() const { return config_; }

 private:
  // Rebuilds index_ for `packets`.
  void BuildIndex(const trace::PacketVec& packets);
  // The one extraction fold: inserts the hashes of every distinct tuple
  // among the selected packets into the batch bitmaps, sums the selected
  // wire lengths, then finalizes the counters. No `positions` selects every
  // packet of the index; their distinct tuples are then all its ids, so no
  // per-packet check is needed.
  FeatureVector Fold(const TupleIndex& index,
                     std::optional<std::span<const uint32_t>> positions);

  // Open-addressing batch-local tuple set of BuildIndex, mapping a tuple to
  // its id (the tuple itself is index_.tuples[id]). Epoch-stamped so it is
  // reset by bumping a counter instead of clearing the table. Worst case
  // (all tuples distinct) stays the deterministic hash+insert bound;
  // repeated tuples cost one probe.
  struct DedupeSlot {
    uint32_t epoch = 0;
    uint32_t id = 0;
  };

  Config config_;
  sketch::FusedTupleHasher fused_;
  std::array<sketch::MultiResBitmap, kNumAggregates> batch_bm_;
  std::array<sketch::MultiResBitmap, kNumAggregates> interval_bm_;
  TupleIndex index_;
  std::vector<DedupeSlot> seen_;
  uint32_t seen_epoch_ = 0;
  // Per distinct-tuple id: the Fold call over positions that last inserted
  // the tuple, so each tuple is inserted once per fold.
  std::vector<uint64_t> folded_;
  uint64_t fold_epoch_ = 0;
};

}  // namespace shedmon::features
