#include "src/trace/batch.h"

#include <algorithm>
#include <cstring>

#include "src/util/rng.h"

namespace shedmon::trace {

std::string_view HttpSignature() { return "GET / HTTP/1.1\r\nHost: "; }
std::string_view BittorrentSignature() { return "\x13"  "BitTorrent protocol"; }
std::string_view GnutellaSignature() { return "GNUTELLA CONNECT/0.6"; }
std::string_view EdonkeySignature() { return "\xe3\x47\x00\x00"; }

void MaterializePayload(const net::PacketRecord& rec, uint8_t* out) {
  const size_t len = rec.payload_len;
  if (len == 0) {
    return;
  }
  // Cheap deterministic filler; one 64-bit word per 8 bytes.
  uint64_t state = (static_cast<uint64_t>(rec.payload_seed) << 17) ^ rec.ts_us;
  size_t i = 0;
  while (i + 8 <= len) {
    const uint64_t w = util::SplitMix64(state);
    std::memcpy(out + i, &w, 8);
    i += 8;
  }
  if (i < len) {
    const uint64_t w = util::SplitMix64(state);
    std::memcpy(out + i, &w, len - i);
  }

  std::string_view sig;
  switch (rec.payload_class) {
    case net::PayloadClass::kHttpRequest:
      sig = HttpSignature();
      break;
    case net::PayloadClass::kBittorrent:
      sig = BittorrentSignature();
      break;
    case net::PayloadClass::kGnutella:
      sig = GnutellaSignature();
      break;
    case net::PayloadClass::kEdonkey:
      sig = EdonkeySignature();
      break;
    case net::PayloadClass::kNone:
    case net::PayloadClass::kRandom:
      return;
  }
  const size_t n = std::min(sig.size(), len);
  std::memcpy(out, sig.data(), n);
}

void Batch::Reset(uint64_t start, uint64_t duration) {
  start_us = start;
  duration_us = duration;
  packets.clear();
  records.clear();
  arena.clear();
  wire_bytes = 0;
}

void Batch::Reserve(size_t num_packets, size_t payload_bytes) {
  packets.reserve(packets.size() + num_packets);
  records.reserve(records.size() + num_packets);
  arena.reserve(arena.size() + payload_bytes);
}

void Batch::Add(const net::Packet& packet, bool pin) {
  net::PacketRecord& rec = records.emplace_back(*packet.rec);
  rec.payload_len = packet.payload_len;
  wire_bytes += rec.wire_len;
  // Until Seal, a view carries only what Seal cannot recompute: a borrowed
  // payload pointer. Arena payloads are laid out in Add order, so Seal finds
  // each one by a running offset.
  const uint8_t* borrowed = nullptr;
  if (rec.payload_len > 0) {
    if (packet.payload == nullptr) {
      const size_t offset = arena.size();
      arena.resize(offset + rec.payload_len);
      MaterializePayload(rec, arena.data() + offset);
    } else if (pin) {
      borrowed = packet.payload;
    } else {
      arena.insert(arena.end(), packet.payload, packet.payload + rec.payload_len);
    }
  }
  packets.push_back(net::Packet{nullptr, borrowed, rec.payload_len});
}

void Batch::Seal() {
  size_t offset = 0;
  for (size_t i = 0; i < packets.size(); ++i) {
    net::Packet& pkt = packets[i];
    pkt.rec = &records[i];
    if (pkt.payload_len > 0 && pkt.payload == nullptr) {
      pkt.payload = arena.data() + offset;
      offset += pkt.payload_len;
    }
  }
}

Batcher::Batcher(const Trace& trace, uint64_t bin_us) : trace_(trace), bin_us_(bin_us) {
  const uint64_t dur = trace.duration_us();
  num_bins_ = dur == 0 ? 0 : static_cast<size_t>((dur + bin_us - 1) / bin_us);
}

void Batcher::Reset() {
  cursor_ = 0;
  next_bin_ = 0;
}

bool Batcher::Next(Batch& out) {
  if (next_bin_ >= num_bins_) {
    return false;
  }
  const uint64_t start = static_cast<uint64_t>(next_bin_) * bin_us_;
  const uint64_t end = start + bin_us_;
  ++next_bin_;

  out.Reset(start, bin_us_);
  const size_t first = cursor_;
  size_t payload_bytes = 0;
  while (cursor_ < trace_.packets.size() && trace_.packets[cursor_].ts_us < end) {
    payload_bytes += trace_.packets[cursor_].payload_len;
    ++cursor_;
  }
  // Sized once per bin: grown packet by packet from empty, the arena would
  // fault in fresh pages at every doubling.
  out.Reserve(cursor_ - first, payload_bytes);
  for (size_t i = first; i < cursor_; ++i) {
    out.Add(net::Packet::View(trace_.packets[i]));
  }
  out.Seal();
  return true;
}

}  // namespace shedmon::trace
