#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sketch/fused_hash.h"
#include "src/trace/batch.h"
#include "src/util/rng.h"

namespace shedmon::shed {

// Thread-safety contract (src/exec/ parallel pipelines): a sampler instance
// belongs to exactly one query runtime and is only ever driven by the worker
// executing that query's bin, so no internal locking is needed. PacketSampler
// advances its own RNG per call; FlowSampler selection is a pure function of
// seed, tuple and rate, and Reseed happens on the coordinating thread between
// bins.
//
// Both samplers offer two forms of the same selection: SampleInto copies the
// kept packets, SelectInto writes the kept packets' positions (ascending
// indices into the batch) so a caller holding per-packet data for the batch
// (features::TupleIndex) can reuse it for the kept subset; Gather turns
// positions into the packets SampleInto would have copied.

// Clears `out` (capacity kept) and appends in[p] for every p of `positions`.
void Gather(const trace::PacketVec& in, std::span<const uint32_t> positions,
            trace::PacketVec& out);

// Uniform random packet sampling (§4.2): each packet of the batch is kept
// independently with probability `rate`.
class PacketSampler {
 public:
  explicit PacketSampler(uint64_t seed) : rng_(seed) {}

  // The selection: positions of the packets kept from a batch of
  // `num_packets`. Draws one RNG value per packet when 0 < rate < 1 and none
  // otherwise (all kept at rate >= 1, none at rate <= 0).
  void SelectInto(size_t num_packets, double rate, std::vector<uint32_t>& positions);

  // In-place API: SelectInto, then Gather into `out` (capacity is kept, so a
  // caller-owned buffer reused across bins stops allocating after warm-up).
  // Every form consumes the same RNG sequence, so all of them select
  // identical packet sets for identical seeds and rates.
  void SampleInto(const trace::PacketVec& in, double rate, trace::PacketVec& out);

  // Copying convenience API; allocates a fresh vector per call.
  trace::PacketVec Sample(const trace::PacketVec& in, double rate);

  // Snapshot/restore of the RNG position, so a restored sampler continues
  // the exact selection sequence of the saved one.
  std::array<uint64_t, 4> RngState() const { return rng_.State(); }
  void SetRngState(const std::array<uint64_t, 4>& s) { rng_.SetState(s); }

 private:
  util::Rng rng_;
  std::vector<uint32_t> positions_;  // SampleInto working buffer
};

// Flowwise sampling ([43] + §4.2): a packet is kept iff the H3 hash of its
// 5-tuple falls below the sampling rate, so entire flows are kept or dropped
// coherently without caching flow keys. The hash function is redrawn every
// measurement interval to avoid bias and deliberate evasion. The hash is a
// single-sub-hash FusedTupleHasher over the canonical 13-byte serialization,
// bit-identical to the H3Hash it replaces.
class FlowSampler {
 public:
  explicit FlowSampler(uint64_t seed);

  void Reseed(uint64_t seed);
  // The seed behind the current hash function; selection is a pure function
  // of it, so Reseed(seed()) on another instance clones the sampler.
  uint64_t seed() const { return seed_; }

  // In-place API; see PacketSampler::SampleInto. Selection is a pure
  // function of (seed, tuple, rate), so both APIs always agree.
  void SampleInto(const trace::PacketVec& in, double rate, trace::PacketVec& out) const;

  trace::PacketVec Sample(const trace::PacketVec& in, double rate) const;

  // Positions of the packets SampleInto would keep from a batch whose packet
  // i carries the 5-tuple tuples[tuple_of[i]]. The hash is evaluated once per
  // distinct tuple rather than once per packet, and at every rate: a unit
  // hash lies in [0, 1), so rate >= 1 keeps every tuple and rate <= 0 none.
  void SelectInto(std::span<const net::FiveTuple> tuples, std::span<const uint32_t> tuple_of,
                  double rate, std::vector<uint32_t>& positions);

 private:
  // The selection rule both forms apply to a 5-tuple.
  bool Keeps(const net::FiveTuple& tuple, double rate) const {
    const auto key = tuple.Bytes();
    return hash_.HashUnit1Fixed<13>(key.data()) < rate;
  }

  sketch::FusedTupleHasher hash_;
  uint64_t seed_;
  std::vector<uint8_t> keep_;  // SelectInto working buffer: per distinct tuple, kept?
};

}  // namespace shedmon::shed
