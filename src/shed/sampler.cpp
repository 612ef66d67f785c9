#include "src/shed/sampler.h"

#include <algorithm>
#include <numeric>

namespace shedmon::shed {

namespace {
// Capacity hint for the kept set: generous enough that a realloc mid-loop is
// rare even when the batch is bursty, never more than the full batch.
size_t ReserveHint(size_t in_size, double rate) {
  const size_t want =
      static_cast<size_t>(static_cast<double>(in_size) * rate * 1.25) + 16;
  return std::min(in_size, want);
}
}  // namespace

void Gather(const trace::PacketVec& in, std::span<const uint32_t> positions,
            trace::PacketVec& out) {
  out.clear();
  out.reserve(positions.size());
  for (const uint32_t p : positions) {
    out.push_back(in[p]);
  }
}

void PacketSampler::SelectInto(size_t num_packets, double rate,
                               std::vector<uint32_t>& positions) {
  positions.clear();
  if (rate >= 1.0) {
    positions.resize(num_packets);
    std::iota(positions.begin(), positions.end(), 0u);
    return;
  }
  if (rate <= 0.0) {
    return;
  }
  // Branch-free: every position is written, and kept by advancing past it.
  positions.resize(num_packets);
  uint32_t* out = positions.data();
  size_t kept = 0;
  for (size_t i = 0; i < num_packets; ++i) {
    out[kept] = static_cast<uint32_t>(i);
    kept += rng_.NextDouble() < rate ? 1 : 0;
  }
  positions.resize(kept);
}

void PacketSampler::SampleInto(const trace::PacketVec& in, double rate,
                               trace::PacketVec& out) {
  SelectInto(in.size(), rate, positions_);
  Gather(in, positions_, out);
}

trace::PacketVec PacketSampler::Sample(const trace::PacketVec& in, double rate) {
  trace::PacketVec out;
  SampleInto(in, rate, out);
  return out;
}

FlowSampler::FlowSampler(uint64_t seed)
    : hash_(13, {{seed, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}}), seed_(seed) {}

void FlowSampler::Reseed(uint64_t seed) {
  hash_ = sketch::FusedTupleHasher(13, {{seed, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}});
  seed_ = seed;
}

void FlowSampler::SampleInto(const trace::PacketVec& in, double rate,
                             trace::PacketVec& out) const {
  if (rate >= 1.0) {
    out = in;
    return;
  }
  out.clear();
  if (rate <= 0.0) {
    return;
  }
  out.reserve(ReserveHint(in.size(), rate));
  for (const net::Packet& pkt : in) {
    if (Keeps(pkt.rec->tuple, rate)) {
      out.push_back(pkt);
    }
  }
}

trace::PacketVec FlowSampler::Sample(const trace::PacketVec& in, double rate) const {
  trace::PacketVec out;
  SampleInto(in, rate, out);
  return out;
}

void FlowSampler::SelectInto(std::span<const net::FiveTuple> tuples,
                             std::span<const uint32_t> tuple_of, double rate,
                             std::vector<uint32_t>& positions) {
  keep_.resize(tuples.size());
  for (size_t t = 0; t < tuples.size(); ++t) {
    keep_[t] = Keeps(tuples[t], rate) ? 1 : 0;
  }
  // Branch-free, as in PacketSampler::SelectInto.
  positions.resize(tuple_of.size());
  uint32_t* out = positions.data();
  size_t kept = 0;
  for (size_t i = 0; i < tuple_of.size(); ++i) {
    out[kept] = static_cast<uint32_t>(i);
    kept += keep_[tuple_of[i]];
  }
  positions.resize(kept);
}

}  // namespace shedmon::shed
