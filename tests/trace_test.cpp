#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/trace/anomaly.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/pcap.h"
#include "src/trace/spec.h"
#include "src/trace/trace_io.h"

namespace shedmon::trace {
namespace {

TraceSpec SmallSpec() {
  TraceSpec spec;
  spec.name = "test";
  spec.duration_s = 5.0;
  spec.flows_per_s = 200.0;
  spec.payloads = true;
  spec.seed = 3;
  return spec;
}

TEST(Generator, DeterministicForSeed) {
  const Trace a = TraceGenerator(SmallSpec()).Generate();
  const Trace b = TraceGenerator(SmallSpec()).Generate();
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (size_t i = 0; i < a.packets.size(); i += 97) {
    EXPECT_EQ(a.packets[i].ts_us, b.packets[i].ts_us);
    EXPECT_EQ(a.packets[i].tuple, b.packets[i].tuple);
  }
}

TEST(Generator, PacketsSortedAndWithinDuration) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  ASSERT_FALSE(t.packets.empty());
  for (size_t i = 1; i < t.packets.size(); ++i) {
    EXPECT_LE(t.packets[i - 1].ts_us, t.packets[i].ts_us);
  }
  EXPECT_LT(t.packets.back().ts_us, 5'000'000u);
}

TEST(Generator, ProducesPlausibleRate) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  // ~200 flows/s x ~4-10 pkts/flow x 5 s.
  EXPECT_GT(t.packets.size(), 2000u);
  EXPECT_LT(t.packets.size(), 60000u);
}

TEST(Generator, AppMixIncludesMajorClasses) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  std::set<net::AppClass> seen;
  for (const auto& p : t.packets) {
    seen.insert(p.app);
  }
  EXPECT_TRUE(seen.count(net::AppClass::kWeb));
  EXPECT_TRUE(seen.count(net::AppClass::kDns));
  EXPECT_TRUE(seen.count(net::AppClass::kP2p));
}

TEST(Generator, TcpFlowsStartWithSyn) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  std::set<net::FiveTuple> seen;
  size_t first_pkts = 0;
  size_t syn_first = 0;
  for (const auto& p : t.packets) {
    if (p.tuple.proto != net::kProtoTcp) {
      continue;
    }
    if (seen.insert(p.tuple).second) {
      ++first_pkts;
      if ((p.tcp_flags & net::kTcpSyn) != 0) {
        ++syn_first;
      }
    }
  }
  ASSERT_GT(first_pkts, 100u);
  // Within-flow reordering across bins can shuffle a few; most hold.
  EXPECT_GT(static_cast<double>(syn_first) / static_cast<double>(first_pkts), 0.9);
}

TEST(Generator, HeaderOnlySpecHasNoPayload) {
  TraceSpec spec = SmallSpec();
  spec.payloads = false;
  const Trace t = TraceGenerator(spec).Generate();
  for (const auto& p : t.packets) {
    EXPECT_EQ(p.payload_len, 0);
  }
}

TEST(Generator, PresetsHaveDistinctCharacters) {
  EXPECT_FALSE(CescaI().payloads);
  EXPECT_TRUE(CescaII().payloads);
  EXPECT_GT(Cenic().burstiness, CescaI().burstiness);
  EXPECT_GT(Abilene().duration_s, CescaI().duration_s);
  EXPECT_TRUE(UpcI().payloads);
}

TEST(Anomaly, DdosAddsPacketsInWindow) {
  Trace t = TraceGenerator(SmallSpec()).Generate();
  const size_t before = t.packets.size();
  DdosSpec ddos;
  ddos.start_s = 1.0;
  ddos.duration_s = 2.0;
  ddos.pps = 1000.0;
  InjectDdos(t, ddos, 5);
  EXPECT_NEAR(static_cast<double>(t.packets.size() - before), 2000.0, 300.0);
  for (size_t i = 1; i < t.packets.size(); ++i) {
    ASSERT_LE(t.packets[i - 1].ts_us, t.packets[i].ts_us);
  }
  for (const auto& p : t.packets) {
    if (p.app == net::AppClass::kAttack) {
      EXPECT_GE(p.ts_us, 1'000'000u);
      EXPECT_LT(p.ts_us, 3'100'000u);
      EXPECT_EQ(p.tuple.dst_ip, ddos.target_ip);
    }
  }
}

TEST(Anomaly, SpoofedDdosExplodesSourceCount) {
  Trace t;
  t.spec.duration_s = 3.0;
  DdosSpec ddos;
  ddos.start_s = 0.0;
  ddos.duration_s = 3.0;
  ddos.pps = 2000.0;
  ddos.spoofed_sources = true;
  InjectDdos(t, ddos, 7);
  std::set<uint32_t> srcs;
  for (const auto& p : t.packets) {
    srcs.insert(p.tuple.src_ip);
  }
  // Nearly every spoofed packet has a unique source.
  EXPECT_GT(srcs.size(), t.packets.size() * 9 / 10);
}

TEST(Anomaly, OnOffDdosLeavesGaps) {
  Trace t;
  t.spec.duration_s = 10.0;
  DdosSpec ddos;
  ddos.start_s = 0.0;
  ddos.duration_s = 8.0;
  ddos.pps = 1000.0;
  ddos.on_off_period_s = 1.0;
  InjectDdos(t, ddos, 9);
  // Packets only in the "on" seconds: [0,1), [2,3), [4,5), [6,7).
  for (const auto& p : t.packets) {
    const double sec = static_cast<double>(p.ts_us) * 1e-6;
    const int second = static_cast<int>(sec);
    EXPECT_EQ(second % 2, 0) << sec;
  }
}

TEST(Anomaly, WormScansManyDestinationsOnOnePort) {
  Trace t;
  t.spec.duration_s = 5.0;
  WormSpec worm;
  worm.start_s = 0.0;
  worm.duration_s = 5.0;
  worm.pps = 1000.0;
  InjectWorm(t, worm, 11);
  std::set<uint32_t> dsts;
  for (const auto& p : t.packets) {
    EXPECT_EQ(p.tuple.dst_port, worm.dst_port);
    dsts.insert(p.tuple.dst_ip);
  }
  EXPECT_GT(dsts.size(), 4000u);
}

TEST(Anomaly, ByteBurstUsesLargePackets) {
  Trace t;
  t.spec.duration_s = 3.0;
  ByteBurstSpec burst;
  burst.start_s = 0.5;
  burst.duration_s = 1.0;
  InjectByteBurst(t, burst, 13);
  ASSERT_FALSE(t.packets.empty());
  for (const auto& p : t.packets) {
    EXPECT_EQ(p.wire_len, 1500);
  }
}

// Batch::Add is the one bin assembler (Batcher and api::Pipeline both call
// it): every payload mode, a snaplen-truncated packet and a header-only one
// in one bin whose buffers reallocate while it grows.
TEST(BatchAdd, CopiesRecordsAndPlacesPayloadsInEveryMode) {
  const auto record = [](uint64_t ts_us, uint16_t payload_len, uint32_t seed) {
    net::PacketRecord rec;
    rec.ts_us = ts_us;
    rec.tuple = {0x0a000001u + seed, 0x0a000002u, static_cast<uint16_t>(1000 + seed), 80,
                 net::kProtoTcp};
    rec.wire_len = static_cast<uint16_t>(40 + payload_len);
    rec.payload_len = payload_len;
    rec.tcp_flags = net::kTcpAck;
    rec.app = net::AppClass::kWeb;
    rec.payload_class = net::PayloadClass::kHttpRequest;
    rec.payload_seed = seed;
    return rec;
  };
  const std::vector<net::PacketRecord> recs = {
      record(10, 40, 1),  // materialized
      record(20, 30, 2),  // copied
      record(30, 20, 3),  // pinned
      record(40, 50, 4),  // snap-truncated to 12 bytes, copied
      record(50, 50, 5),  // snap-truncated to 12 bytes, materialized
      record(60, 0, 6),   // header-only
  };
  std::vector<uint8_t> src(64);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(3 * i + 1);
  }
  const std::vector<uint8_t> pinned(20, 0xab);

  Batch batch;
  batch.Reset(100'000, 100'000);
  batch.Add(net::Packet::View(recs[0]));
  batch.Add(net::Packet{&recs[1], src.data(), 30});
  batch.Add(net::Packet{&recs[2], pinned.data(), 20}, /*pin=*/true);
  batch.Add(net::Packet{&recs[3], src.data(), 12});
  batch.Add(net::Packet{&recs[4], nullptr, 12});
  batch.Add(net::Packet::View(recs[5]));
  batch.Seal();

  EXPECT_EQ(batch.start_us, 100'000u);
  EXPECT_EQ(batch.duration_us, 100'000u);
  ASSERT_EQ(batch.size(), recs.size());
  uint64_t wire = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    const net::Packet& pkt = batch.packets[i];
    ASSERT_EQ(pkt.rec, &batch.records[i]);  // a copy owned by the batch
    EXPECT_EQ(pkt.rec->ts_us, recs[i].ts_us);
    EXPECT_EQ(pkt.rec->tuple, recs[i].tuple);
    EXPECT_EQ(pkt.rec->wire_len, recs[i].wire_len);
    EXPECT_EQ(pkt.rec->tcp_flags, recs[i].tcp_flags);
    EXPECT_EQ(pkt.rec->app, recs[i].app);
    EXPECT_EQ(pkt.rec->payload_class, recs[i].payload_class);
    EXPECT_EQ(pkt.rec->payload_seed, recs[i].payload_seed);
    EXPECT_EQ(pkt.rec->payload_len, pkt.payload_len);  // the bytes actually held
    wire += recs[i].wire_len;
  }
  EXPECT_EQ(batch.wire_bytes, wire);

  const auto bytes = [](const net::Packet& pkt) {
    return std::vector<uint8_t>(pkt.payload, pkt.payload + pkt.payload_len);
  };
  const auto materialized = [](net::PacketRecord rec, uint16_t len) {
    rec.payload_len = len;
    std::vector<uint8_t> out(len);
    MaterializePayload(rec, out.data());
    return out;
  };
  EXPECT_EQ(bytes(batch.packets[0]), materialized(recs[0], 40));
  EXPECT_EQ(std::memcmp(batch.packets[0].payload, HttpSignature().data(), 20), 0);
  EXPECT_EQ(bytes(batch.packets[1]), std::vector<uint8_t>(src.begin(), src.begin() + 30));
  EXPECT_NE(batch.packets[1].payload, src.data());  // copied, not borrowed
  EXPECT_EQ(batch.packets[2].payload, pinned.data());  // borrowed, not copied
  EXPECT_EQ(batch.packets[3].payload_len, 12);
  EXPECT_EQ(bytes(batch.packets[3]), std::vector<uint8_t>(src.begin(), src.begin() + 12));
  EXPECT_EQ(batch.packets[4].payload_len, 12);
  EXPECT_EQ(bytes(batch.packets[4]), materialized(recs[4], 12));
  EXPECT_EQ(batch.packets[5].payload, nullptr);
  EXPECT_EQ(batch.packets[5].payload_len, 0);
  // Only the arena modes occupy the arena: 40 + 30 + 12 + 12 bytes.
  EXPECT_EQ(batch.arena.size(), 94u);

  // Reset empties the bin for reuse.
  batch.Reset(200'000, 100'000);
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.records.empty());
  EXPECT_TRUE(batch.arena.empty());
  EXPECT_EQ(batch.wire_bytes, 0u);
  EXPECT_EQ(batch.start_us, 200'000u);
}

// With nothing reserved, the records and the arena reallocate many times
// while the bin grows; Seal must point every view at the final buffers.
// Copied bytes are taken at Add time, so the source may change afterwards.
TEST(BatchAdd, SealPointsViewsAtBuffersThatMovedWhileTheBinGrew) {
  constexpr size_t kPackets = 600;
  constexpr uint16_t kLen = 33;
  std::vector<net::PacketRecord> recs(kPackets);
  for (size_t i = 0; i < kPackets; ++i) {
    recs[i].ts_us = 1000 + i;
    recs[i].wire_len = 40 + kLen;
    recs[i].payload_len = kLen;
    recs[i].payload_class = net::PayloadClass::kRandom;
    recs[i].payload_seed = static_cast<uint32_t>(i);
  }
  const std::vector<uint8_t> pinned(kLen, 0x5a);
  std::vector<uint8_t> src(kLen);
  std::vector<std::vector<uint8_t>> expected(kPackets);

  Batch batch;
  batch.Reset(0, 100'000);
  batch.Add(net::Packet::View(recs[0]));
  expected[0].resize(kLen);
  MaterializePayload(recs[0], expected[0].data());
  const size_t first_arena_capacity = batch.arena.capacity();
  const size_t first_records_capacity = batch.records.capacity();
  for (size_t i = 1; i < kPackets; ++i) {
    switch (i % 3) {
      case 0:  // materialized
        batch.Add(net::Packet::View(recs[i]));
        expected[i].resize(kLen);
        MaterializePayload(recs[i], expected[i].data());
        break;
      case 1:  // copied, then the source is overwritten
        std::fill(src.begin(), src.end(), static_cast<uint8_t>(i));
        batch.Add(net::Packet{&recs[i], src.data(), kLen});
        expected[i] = src;
        std::fill(src.begin(), src.end(), 0xff);
        break;
      default:  // pinned
        batch.Add(net::Packet{&recs[i], pinned.data(), kLen}, /*pin=*/true);
        expected[i] = pinned;
        break;
    }
  }
  EXPECT_GT(batch.arena.capacity(), first_arena_capacity);
  EXPECT_GT(batch.records.capacity(), first_records_capacity);
  batch.Seal();

  ASSERT_EQ(batch.size(), kPackets);
  const uint8_t* arena_begin = batch.arena.data();
  const uint8_t* arena_end = arena_begin + batch.arena.size();
  size_t offset = 0;
  for (size_t i = 0; i < kPackets; ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    const net::Packet& pkt = batch.packets[i];
    ASSERT_EQ(pkt.rec, &batch.records[i]);
    EXPECT_EQ(pkt.rec->ts_us, recs[i].ts_us);
    ASSERT_EQ(pkt.payload_len, kLen);
    if (i % 3 == 2) {
      EXPECT_EQ(pkt.payload, pinned.data());
    } else {
      // Arena payloads sit back to back in Add order.
      EXPECT_EQ(pkt.payload, arena_begin + offset);
      EXPECT_LE(pkt.payload + kLen, arena_end);
      offset += kLen;
    }
    EXPECT_EQ(std::vector<uint8_t>(pkt.payload, pkt.payload + kLen), expected[i]);
  }
  EXPECT_EQ(offset, batch.arena.size());
  EXPECT_EQ(batch.wire_bytes, uint64_t{kPackets} * (40 + kLen));
}

// Batcher::Next is Reset + Add + Seal over the bin's records: a Batch
// reused across bins matches a fresh one assembled by hand for every bin.
TEST(Batcher, EveryBinEqualsAHandAssembledBatch) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  size_t cursor = 0;
  size_t bins = 0;
  while (batcher.Next(batch)) {
    SCOPED_TRACE("bin " + std::to_string(bins));
    Batch ref;
    ref.Reset(batch.start_us, batch.duration_us);
    while (cursor < t.packets.size() &&
           t.packets[cursor].ts_us < batch.start_us + batch.duration_us) {
      ref.Add(net::Packet::View(t.packets[cursor]));
      ++cursor;
    }
    ref.Seal();

    ASSERT_EQ(batch.size(), ref.size());
    EXPECT_EQ(batch.wire_bytes, ref.wire_bytes);
    EXPECT_EQ(batch.arena, ref.arena);
    for (size_t i = 0; i < batch.size(); ++i) {
      const net::Packet& got = batch.packets[i];
      const net::Packet& want = ref.packets[i];
      ASSERT_EQ(got.rec, &batch.records[i]);
      EXPECT_EQ(got.rec->ts_us, want.rec->ts_us);
      EXPECT_EQ(got.rec->tuple, want.rec->tuple);
      EXPECT_EQ(got.rec->payload_seed, want.rec->payload_seed);
      ASSERT_EQ(got.payload_len, want.payload_len);
      if (got.payload_len > 0) {
        EXPECT_EQ(std::memcmp(got.payload, want.payload, got.payload_len), 0);
        EXPECT_EQ(got.payload - batch.arena.data(), want.payload - ref.arena.data());
      }
    }
    ++bins;
  }
  EXPECT_EQ(cursor, t.packets.size());
  EXPECT_EQ(bins, batcher.num_bins());
}

TEST(Batcher, CoversWholeTraceWithoutLoss) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  size_t total = 0;
  size_t bins = 0;
  uint64_t expected_start = 0;
  while (batcher.Next(batch)) {
    EXPECT_EQ(batch.start_us, expected_start);
    expected_start += 100'000;
    total += batch.size();
    ++bins;
  }
  EXPECT_EQ(total, t.packets.size());
  EXPECT_EQ(bins, batcher.num_bins());
  EXPECT_NEAR(static_cast<double>(bins), 50.0, 1.0);
}

TEST(Batcher, PacketsFallInsideTheirBin) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  while (batcher.Next(batch)) {
    for (const auto& pkt : batch.packets) {
      EXPECT_GE(pkt.ts_us(), batch.start_us);
      EXPECT_LT(pkt.ts_us(), batch.start_us + batch.duration_us);
    }
  }
}

TEST(Batcher, MaterializesDeterministicPayloads) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher b1(t, 100'000);
  Batcher b2(t, 100'000);
  Batch batch1;
  Batch batch2;
  ASSERT_TRUE(b1.Next(batch1));
  ASSERT_TRUE(b2.Next(batch2));
  ASSERT_EQ(batch1.size(), batch2.size());
  for (size_t i = 0; i < batch1.size(); ++i) {
    ASSERT_EQ(batch1.packets[i].payload_len, batch2.packets[i].payload_len);
    if (batch1.packets[i].payload_len > 0) {
      EXPECT_EQ(std::memcmp(batch1.packets[i].payload, batch2.packets[i].payload,
                            batch1.packets[i].payload_len),
                0);
    }
  }
}

TEST(Batcher, PlantsSignaturesForP2pFlows) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  bool found_p2p_sig = false;
  const auto bt = BittorrentSignature();
  const auto gn = GnutellaSignature();
  const auto ed = EdonkeySignature();
  while (batcher.Next(batch) && !found_p2p_sig) {
    for (const auto& pkt : batch.packets) {
      if (pkt.payload_len < 24) {
        continue;
      }
      const char* data = reinterpret_cast<const char*>(pkt.payload);
      if (std::memcmp(data, bt.data(), std::min(bt.size(), size_t{20})) == 0 ||
          std::memcmp(data, gn.data(), std::min(gn.size(), size_t{20})) == 0 ||
          std::memcmp(data, ed.data(), ed.size()) == 0) {
        found_p2p_sig = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_p2p_sig);
}

TEST(Batcher, WireBytesMatchesSum) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  while (batcher.Next(batch)) {
    uint64_t sum = 0;
    for (const auto& pkt : batch.packets) {
      sum += pkt.rec->wire_len;
    }
    EXPECT_EQ(sum, batch.wire_bytes);
  }
}

TEST(Batcher, ResetReplaysFromStart) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  ASSERT_TRUE(batcher.Next(batch));
  const size_t first_size = batch.size();
  while (batcher.Next(batch)) {
  }
  batcher.Reset();
  ASSERT_TRUE(batcher.Next(batch));
  EXPECT_EQ(batch.size(), first_size);
}


TEST(Pcap, ExportedFileHasValidStructure) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  const std::string path = ::testing::TempDir() + "/shedmon_test.pcap";
  const size_t written = ExportPcap(t, path);
  EXPECT_EQ(written, t.packets.size());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), 4);
  EXPECT_EQ(magic, 0xa1b2c3d4u);
  std::remove(path.c_str());
}

TEST(Pcap, FrameHasWellFormedHeaders) {
  net::PacketRecord rec;
  rec.tuple = {0x0a000001, 0xc0a80001, 12345, 80, net::kProtoTcp};
  rec.wire_len = 140;
  rec.payload_len = 100;
  rec.payload_class = net::PayloadClass::kHttpRequest;
  rec.payload_seed = 42;
  rec.tcp_flags = net::kTcpAck;
  const auto frame = SynthesizeFrame(rec);
  ASSERT_GE(frame.size(), 14u + 20u + 20u);
  // EtherType IPv4.
  EXPECT_EQ(frame[12], 0x08);
  EXPECT_EQ(frame[13], 0x00);
  // IPv4 version/IHL.
  EXPECT_EQ(frame[14], 0x45);
  // Protocol and addresses at their offsets.
  EXPECT_EQ(frame[14 + 9], net::kProtoTcp);
  EXPECT_EQ(frame[14 + 12], 0x0a);
  EXPECT_EQ(frame[14 + 16], 0xc0);
  // Ports in network byte order.
  EXPECT_EQ((frame[34] << 8) | frame[35], 12345);
  EXPECT_EQ((frame[36] << 8) | frame[37], 80);
  // The payload (with the HTTP signature) starts after 54 header bytes.
  const std::string sig(HttpSignature());
  EXPECT_EQ(std::memcmp(frame.data() + 54, sig.data(), 8), 0);
}

TEST(Pcap, IpChecksumVerifies) {
  net::PacketRecord rec;
  rec.tuple = {0x01020304, 0x05060708, 1111, 2222, net::kProtoUdp};
  rec.wire_len = 60;
  const auto frame = SynthesizeFrame(rec);
  // RFC 1071: the checksum of a header including its checksum field is 0.
  uint32_t sum = 0;
  for (size_t i = 14; i + 1 < 14 + 20; i += 2) {
    sum += static_cast<uint32_t>((frame[i] << 8) | frame[i + 1]);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  EXPECT_EQ(static_cast<uint16_t>(~sum), 0);
}

TEST(Pcap, RoundTripPreservesTuplesAndTiming) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  const std::string path = ::testing::TempDir() + "/shedmon_roundtrip.pcap";
  ExportPcap(t, path);
  const Trace back = ImportPcap(path);
  ASSERT_EQ(back.packets.size(), t.packets.size());
  // Import normalizes timestamps to the first packet.
  const uint64_t base = t.packets.front().ts_us;
  for (size_t i = 0; i < t.packets.size(); i += 101) {
    EXPECT_EQ(back.packets[i].tuple, t.packets[i].tuple) << i;
    EXPECT_EQ(back.packets[i].ts_us, t.packets[i].ts_us - base) << i;
    if (t.packets[i].tuple.proto == net::kProtoTcp) {
      EXPECT_EQ(back.packets[i].tcp_flags, t.packets[i].tcp_flags) << i;
    }
  }
  std::remove(path.c_str());
}

TEST(Pcap, SnaplenTruncatesStoredBytes) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  const std::string full_path = ::testing::TempDir() + "/shedmon_full.pcap";
  const std::string snap_path = ::testing::TempDir() + "/shedmon_snap.pcap";
  ExportPcap(t, full_path);
  ExportPcap(t, snap_path, 64);
  std::ifstream full(full_path, std::ios::binary | std::ios::ate);
  std::ifstream snap(snap_path, std::ios::binary | std::ios::ate);
  EXPECT_GT(full.tellg(), snap.tellg());
  // Truncated captures still import (headers fit in 64 bytes).
  const Trace back = ImportPcap(snap_path);
  EXPECT_EQ(back.packets.size(), t.packets.size());
  std::remove(full_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(Pcap, ImportRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/shedmon_garbage.pcap";
  std::ofstream out(path, std::ios::binary);
  out << "this is not a pcap file at all";
  out.close();
  EXPECT_THROW(ImportPcap(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- Adversarial pcap fixtures --------------------------------------------
// Hand-built capture files that exercise the hardened import path: impossible
// IP header lengths, hostile record lengths, mid-record truncation, and
// non-IPv4 interleave. Headers are written native-endian, matching what
// ExportPcap emits and PcapReader reads.

void AppendRaw(std::vector<uint8_t>& out, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out.insert(out.end(), p, p + len);
}

void AppendU16(std::vector<uint8_t>& out, uint16_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendU32(std::vector<uint8_t>& out, uint32_t v) { AppendRaw(out, &v, sizeof(v)); }

std::vector<uint8_t> PcapHeaderBytes(uint32_t snaplen = 262144) {
  std::vector<uint8_t> out;
  AppendU32(out, 0xa1b2c3d4u);  // microsecond magic
  AppendU16(out, 2);
  AppendU16(out, 4);
  AppendU32(out, 0);  // thiszone
  AppendU32(out, 0);  // sigfigs
  AppendU32(out, snaplen);
  AppendU32(out, 1);  // LINKTYPE_ETHERNET
  return out;
}

// Appends a record header claiming `incl_len` stored bytes, then however many
// bytes `stored` actually holds — letting tests lie about the length.
void AppendRecord(std::vector<uint8_t>& out, uint64_t ts_us, uint32_t incl_len,
                  const std::vector<uint8_t>& stored) {
  AppendU32(out, static_cast<uint32_t>(ts_us / 1'000'000));
  AppendU32(out, static_cast<uint32_t>(ts_us % 1'000'000));
  AppendU32(out, incl_len);
  AppendU32(out, incl_len);  // orig_len
  AppendRaw(out, stored.data(), stored.size());
}

std::string WriteFixture(const std::string& name, const std::vector<uint8_t>& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

net::PacketRecord GoodTcpRecord(uint16_t src_port) {
  net::PacketRecord rec;
  rec.tuple = {0x0a000001, 0xc0a80001, src_port, 443, net::kProtoTcp};
  rec.payload_len = 64;
  rec.wire_len = 20 + 20 + rec.payload_len;  // wire-faithful IP total length
  rec.tcp_flags = net::kTcpAck;
  return rec;
}

TEST(FrameDecode, RejectsImpossibleIhl) {
  // IHL nibbles 0 and 15 on a frame with exactly eth + 20 captured bytes:
  // below the 20-byte minimum and past the capture respectively. IHL 6 (24
  // bytes) is also past this capture. None may be dereferenced.
  std::vector<uint8_t> frame = SynthesizeFrame(GoodTcpRecord(1000));
  frame.resize(net::kEthHeaderLen + net::kIpv4MinHeaderLen);
  net::DecodedFrame decoded;
  for (const uint8_t ihl : {0, 1, 4, 6, 15}) {
    frame[14] = static_cast<uint8_t>(0x40 | ihl);
    EXPECT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
              net::FrameDecodeStatus::kMalformed)
        << "ihl nibble " << int{ihl};
  }
  // IHL 5 on the same capture is the legal minimum.
  frame[14] = 0x45;
  EXPECT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
            net::FrameDecodeStatus::kOk);
}

TEST(FrameDecode, RejectsTcpDataOffsetBelowMinimum) {
  std::vector<uint8_t> frame = SynthesizeFrame(GoodTcpRecord(1000));
  net::DecodedFrame decoded;
  for (const uint8_t off : {0, 1, 4}) {
    frame[14 + 20 + 12] = static_cast<uint8_t>(off << 4);
    EXPECT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
              net::FrameDecodeStatus::kMalformed)
        << "data offset nibble " << int{off};
  }
  frame[14 + 20 + 12] = 0x50;
  EXPECT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
            net::FrameDecodeStatus::kOk);
}

TEST(FrameDecode, ClampsPayloadToCapturedBytes) {
  // A snapped capture: IP total length claims 64 payload bytes but only 10
  // made it into the file. payload_len keeps the wire truth; the view must
  // not extend past the capture.
  const net::PacketRecord rec = GoodTcpRecord(1000);
  std::vector<uint8_t> frame = SynthesizeFrame(rec);
  frame.resize(14 + 20 + 20 + 10);
  net::DecodedFrame decoded;
  ASSERT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
            net::FrameDecodeStatus::kOk);
  EXPECT_EQ(decoded.rec.payload_len, 64);
  EXPECT_EQ(decoded.payload_captured, 10);
  EXPECT_EQ(decoded.payload, frame.data() + 14 + 20 + 20);
}

TEST(Pcap, ImportSkipsMalformedAndNonIpv4Interleave) {
  std::vector<uint8_t> file = PcapHeaderBytes();
  const net::PacketRecord good1 = GoodTcpRecord(1000);
  const net::PacketRecord good2 = GoodTcpRecord(2000);

  std::vector<uint8_t> frame = SynthesizeFrame(good1);
  AppendRecord(file, 100, static_cast<uint32_t>(frame.size()), frame);

  // An ARP frame (EtherType 0x0806): normal link noise, silently skipped.
  std::vector<uint8_t> arp(42, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  AppendRecord(file, 200, static_cast<uint32_t>(arp.size()), arp);

  // IPv4 with a hostile IHL nibble of 15: counted out, never read.
  std::vector<uint8_t> bad_ihl = SynthesizeFrame(good1);
  bad_ihl.resize(14 + 20);
  bad_ihl[14] = 0x4f;
  AppendRecord(file, 300, static_cast<uint32_t>(bad_ihl.size()), bad_ihl);

  // TCP data offset of 1 word: impossible, skipped.
  std::vector<uint8_t> bad_off = SynthesizeFrame(good1);
  bad_off[14 + 20 + 12] = 0x10;
  AppendRecord(file, 400, static_cast<uint32_t>(bad_off.size()), bad_off);

  frame = SynthesizeFrame(good2);
  AppendRecord(file, 500, static_cast<uint32_t>(frame.size()), frame);

  const std::string path = WriteFixture("shedmon_interleave.pcap", file);
  const Trace t = ImportPcap(path);
  ASSERT_EQ(t.packets.size(), 2u);
  EXPECT_EQ(t.packets[0].tuple, good1.tuple);
  EXPECT_EQ(t.packets[1].tuple, good2.tuple);
  EXPECT_EQ(t.packets[0].ts_us, 0u);    // normalized to the first good packet
  EXPECT_EQ(t.packets[1].ts_us, 400u);  // 500 - 100
  std::remove(path.c_str());
}

TEST(Pcap, ImportRejectsOversizedInclLen) {
  // incl_len of 1 GiB: the old path did buf.resize(incl_len) — an
  // attacker-controlled allocation. Now it must throw before buffering.
  std::vector<uint8_t> file = PcapHeaderBytes();
  AppendRecord(file, 100, 1u << 30, {});
  const std::string path = WriteFixture("shedmon_oversize.pcap", file);
  EXPECT_THROW(ImportPcap(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pcap, ImportRejectsInclLenBeyondSnaplen) {
  // Even a modest incl_len is a lie when it exceeds the header's snaplen.
  std::vector<uint8_t> file = PcapHeaderBytes(/*snaplen=*/64);
  std::vector<uint8_t> stored(100, 0);
  AppendRecord(file, 100, 100, stored);
  const std::string path = WriteFixture("shedmon_snaplie.pcap", file);
  EXPECT_THROW(ImportPcap(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pcap, ImportThrowsOnTruncatedMidRecord) {
  std::vector<uint8_t> file = PcapHeaderBytes();
  const std::vector<uint8_t> frame = SynthesizeFrame(GoodTcpRecord(1000));
  AppendRecord(file, 100, static_cast<uint32_t>(frame.size()), frame);
  // Second record claims 120 bytes but the file ends after 50.
  std::vector<uint8_t> partial(frame.begin(), frame.begin() + 50);
  AppendRecord(file, 200, 120, partial);
  const std::string path = WriteFixture("shedmon_truncated.pcap", file);
  EXPECT_THROW(ImportPcap(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pcap, ReaderAwaitsThenResumesOnGrowingFile) {
  // The live-follow contract: a mid-record tail reports kAwait and rewinds,
  // so the same Next() call succeeds once the writer appends the rest.
  const std::vector<uint8_t> frame = SynthesizeFrame(GoodTcpRecord(1000));
  std::vector<uint8_t> file = PcapHeaderBytes();
  std::vector<uint8_t> partial(frame.begin(), frame.begin() + 30);
  AppendRecord(file, 1'234'567, static_cast<uint32_t>(frame.size()), partial);
  const std::string path = WriteFixture("shedmon_growing.pcap", file);

  PcapReader reader(path);
  std::vector<uint8_t> buf(reader.max_record_bytes());
  PcapReader::RecordInfo info;
  EXPECT_EQ(reader.Next(buf.data(), buf.size(), &info), PcapReader::Status::kAwait);
  EXPECT_EQ(reader.Next(buf.data(), buf.size(), &info), PcapReader::Status::kAwait);

  {
    std::ofstream append(path, std::ios::binary | std::ios::app);
    append.write(reinterpret_cast<const char*>(frame.data() + 30),
                 static_cast<std::streamsize>(frame.size() - 30));
  }
  ASSERT_EQ(reader.Next(buf.data(), buf.size(), &info), PcapReader::Status::kRecord);
  EXPECT_EQ(info.ts_us, 1'234'567u);
  EXPECT_EQ(info.captured, frame.size());
  EXPECT_EQ(std::memcmp(buf.data(), frame.data(), frame.size()), 0);
  EXPECT_EQ(reader.Next(buf.data(), buf.size(), &info), PcapReader::Status::kEof);
  std::remove(path.c_str());
}

TEST(Pcap, RoundTripIsFieldExact) {
  // Every decoded field — not a sample — must survive export + import for
  // wire-faithful records (wire_len == headers + payload).
  Trace t;
  for (uint16_t i = 0; i < 50; ++i) {
    net::PacketRecord rec;
    const bool tcp = i % 3 != 0;
    rec.tuple = {0x0a000000u + i, 0xc0a80000u + i, static_cast<uint16_t>(1024 + i),
                 static_cast<uint16_t>(tcp ? 443 : 53),
                 tcp ? net::kProtoTcp : net::kProtoUdp};
    rec.payload_len = static_cast<uint16_t>(i * 7 % 200);
    rec.wire_len = static_cast<uint16_t>(20 + (tcp ? 20 : 8) + rec.payload_len);
    rec.ts_us = 1'000'000 + static_cast<uint64_t>(i) * 137;
    rec.tcp_flags = tcp ? net::kTcpAck : 0;
    t.packets.push_back(rec);
  }
  const std::string path = ::testing::TempDir() + "/shedmon_exact.pcap";
  ExportPcap(t, path);
  const Trace back = ImportPcap(path);
  ASSERT_EQ(back.packets.size(), t.packets.size());
  for (size_t i = 0; i < t.packets.size(); ++i) {
    EXPECT_EQ(back.packets[i].tuple, t.packets[i].tuple) << i;
    EXPECT_EQ(back.packets[i].ts_us, t.packets[i].ts_us - t.packets[0].ts_us) << i;
    EXPECT_EQ(back.packets[i].wire_len, t.packets[i].wire_len) << i;
    EXPECT_EQ(back.packets[i].payload_len, t.packets[i].payload_len) << i;
    EXPECT_EQ(back.packets[i].tcp_flags, t.packets[i].tcp_flags) << i;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RoundTripsPacketsExactly) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  const std::string path = ::testing::TempDir() + "/shedmon_roundtrip.trace";
  SaveTrace(t, path);
  const Trace loaded = LoadTrace(path);
  ASSERT_EQ(loaded.packets.size(), t.packets.size());
  EXPECT_EQ(loaded.spec.name, t.spec.name);
  for (size_t i = 0; i < t.packets.size(); i += 53) {
    EXPECT_EQ(loaded.packets[i].ts_us, t.packets[i].ts_us);
    EXPECT_EQ(loaded.packets[i].tuple, t.packets[i].tuple);
    EXPECT_EQ(loaded.packets[i].wire_len, t.packets[i].wire_len);
    EXPECT_EQ(loaded.packets[i].payload_seed, t.packets[i].payload_seed);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(LoadTrace("/nonexistent/file.trace"), std::runtime_error);
}

}  // namespace
}  // namespace shedmon::trace
