#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/net/packet.h"
#include "src/trace/generator.h"

namespace shedmon::trace {

using PacketVec = std::vector<net::Packet>;

// One 100 ms time bin of traffic (the paper's "batch", §2.4): copies of the
// bin's packet records, the payload bytes they carry, and the Packet views
// queries read. There is one way to assemble a bin — Reset, Add each packet,
// Seal — and both Batcher and api::Pipeline use it. The views point into the
// batch's own records and arena (or at pinned caller memory), so a Batch is
// movable but not copyable. Reusing one Batch across bins keeps its buffers'
// capacity: after the largest bin has been seen, assembly allocates nothing.
struct Batch {
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  PacketVec packets;
  std::vector<net::PacketRecord> records;  // parallel to packets
  std::vector<uint8_t> arena;              // copied and materialized payloads
  uint64_t wire_bytes = 0;

  Batch() = default;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;
  Batch(Batch&&) = default;
  Batch& operator=(Batch&&) = default;

  // Empties the batch for the bin [start_us, start_us + duration_us).
  void Reset(uint64_t start_us, uint64_t duration_us);

  // Makes room for `num_packets` more packets carrying `payload_bytes` more
  // arena bytes, for a caller that knows the bin's size before adding it.
  void Reserve(size_t num_packets, size_t payload_bytes);

  // Appends one packet. The record is copied, with payload_len cut to
  // packet.payload_len (the bytes actually held, e.g. after a snaplen). The
  // payload is materialized from the record when packet.payload is null,
  // borrowed when `pin` is set (the caller keeps the bytes alive until the
  // batch is next Reset), and copied into the arena otherwise. The new
  // packet's view is valid only after Seal.
  void Add(const net::Packet& packet, bool pin = false);

  // Points every packet view at its record and payload bytes. Call once,
  // after the last Add: the buffers may have moved while the bin grew.
  void Seal();

  size_t size() const { return packets.size(); }
};

// Materializes the payload bytes of a record into `out` (must hold
// payload_len bytes): pseudo-random bytes from the record's seed with the
// protocol signature of its payload class planted at the front.
void MaterializePayload(const net::PacketRecord& rec, uint8_t* out);

// Well-known payload signatures used by the generator, pattern-search and
// the p2p-detector.
std::string_view HttpSignature();
std::string_view BittorrentSignature();
std::string_view GnutellaSignature();
std::string_view EdonkeySignature();

// Splits a trace into consecutive fixed-length bins. Bins with no packets
// yield empty batches so the consumer sees every time bin. Callers are
// expected to reuse one Batch across Next() calls (see Batch).
class Batcher {
 public:
  Batcher(const Trace& trace, uint64_t bin_us = 100'000);

  // Fills `out` with the next bin; returns false past the end of the trace.
  bool Next(Batch& out);
  void Reset();

  size_t num_bins() const { return num_bins_; }
  uint64_t bin_us() const { return bin_us_; }

 private:
  const Trace& trace_;
  uint64_t bin_us_;
  size_t num_bins_;
  size_t cursor_ = 0;    // index into trace_.packets
  size_t next_bin_ = 0;
};

}  // namespace shedmon::trace
