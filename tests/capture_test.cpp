// Live capture suite (src/capture): socket and pcap-follow sources must feed
// the pipeline through pre-allocated slots with zero per-packet payload
// copies, and — with an injected ManualClock freezing the wall-time
// contribution — produce BinLogs bit-identical to an offline replay of the
// same records, at every thread count. Protocol errors,
// truncation and overload are counted, never crashed on.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/config.h"
#include "src/api/pipeline.h"
#include "src/capture/capture.h"
#include "src/capture/replay.h"
#include "src/core/runner.h"
#include "src/net/frame.h"
#include "src/rt/clock.h"
#include "src/trace/generator.h"
#include "src/trace/pcap.h"
#include "src/trace/spec.h"

namespace shedmon {
namespace {

// A deterministic trace whose records are wire-faithful: payload_len is
// exactly what an Ethernet/IPv4 decode of the synthesized frame reports, so
// the offline push and the live capture of the same records see identical
// packets. (Generator traces model payload_len and wire_len independently;
// a frame can only carry one truth.)
const trace::Trace& CaptureTrace() {
  static const trace::Trace t = [] {
    trace::TraceSpec spec = trace::CescaII();  // payload-bearing preset
    spec.duration_s = 2.0;
    spec.flows_per_s = 120.0;
    spec.seed = 17;
    trace::Trace generated = trace::TraceGenerator(spec).Generate();
    for (net::PacketRecord& rec : generated.packets) {
      const uint16_t headers =
          20 + (rec.tuple.proto == net::kProtoTcp ? 20 : 8);
      rec.wire_len = std::max<uint16_t>(rec.wire_len, headers);
      rec.payload_len = static_cast<uint16_t>(rec.wire_len - headers);
    }
    return generated;
  }();
  return t;
}

const std::vector<std::string>& CaptureQueries() {
  static const std::vector<std::string> queries = {"counter", "flows", "application"};
  return queries;
}

core::SystemConfig BaseConfig(size_t threads) {
  core::SystemConfig config;
  config.shedder = core::ShedderKind::kPredictive;
  config.num_threads = threads;
  config.cycles_per_bin =
      0.5 * core::MeasureMeanDemand(CaptureQueries(), CaptureTrace(), core::OracleKind::kModel);
  return config;
}

api::PipelineBuilder Builder(size_t threads) {
  api::PipelineBuilder builder;
  builder.Config(BaseConfig(threads));
  for (const std::string& query : CaptureQueries()) {
    builder.AddQuery(query);
  }
  return builder;
}

// Offline golden: the whole trace pushed through the classic synchronous
// facade on a single-coordinator pipeline.
const std::vector<core::BinLog>& GoldenLog() {
  static const std::vector<core::BinLog> golden = [] {
    auto pipeline = Builder(0).BuildUnique();
    pipeline->Push(CaptureTrace());
    pipeline->Finish();
    return pipeline->log();
  }();
  return golden;
}

void ExpectBinLogsIdentical(const std::vector<core::BinLog>& golden,
                            const std::vector<core::BinLog>& actual) {
  ASSERT_EQ(golden.size(), actual.size());
  for (size_t b = 0; b < golden.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    const core::BinLog& g = golden[b];
    const core::BinLog& a = actual[b];
    EXPECT_EQ(g.start_us, a.start_us);
    EXPECT_EQ(g.packets_in, a.packets_in);
    EXPECT_EQ(g.packets_dropped, a.packets_dropped);
    EXPECT_EQ(g.packets_unsampled, a.packets_unsampled);
    EXPECT_EQ(g.overload, a.overload);
    EXPECT_EQ(g.predicted_cycles, a.predicted_cycles);
    EXPECT_EQ(g.query_cycles, a.query_cycles);
    EXPECT_EQ(g.rate, a.rate);
    EXPECT_EQ(g.per_query_cycles, a.per_query_cycles);
    EXPECT_EQ(g.disabled, a.disabled);
  }
}

// Polls `done` every few milliseconds until it holds or ~10 s elapse. Real
// sleeps are fine here: the clock under test is the injected ManualClock,
// not the test harness's pacing.
bool WaitUntil(const std::function<bool()>& done) {
  for (int i = 0; i < 2000; ++i) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

// Builds a live pipeline listening on an ephemeral loopback port with a
// frozen wall clock, so binning is driven purely by embedded timestamps.
std::unique_ptr<api::Pipeline> BuildLive(size_t threads, capture::SourceSpec source) {
  capture::CaptureConfig cc;
  cc.sources.push_back(std::move(source));
  cc.clock = std::make_shared<rt::ManualClock>();
  api::PipelineBuilder builder = Builder(threads);
  builder.CaptureFrom(cc);
  return builder.BuildUnique();
}

// ---------------------------------------------------------------------------
// Equivalence with offline replay
// ---------------------------------------------------------------------------

TEST(Capture, TcpReplayIsBitIdenticalToOfflineAtEveryThreadCount) {
  const size_t expected = CaptureTrace().packets.size();
  for (const size_t threads : {0, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto pipeline = BuildLive(threads, capture::SourceSpec::Tcp(0));
    const uint16_t port = pipeline->capture()->port(0);
    ASSERT_GT(port, 0);
    EXPECT_EQ(capture::ReplayTraceTcp(CaptureTrace(), port), expected);
    // The framed TCP stream is lossless: every record must arrive.
    ASSERT_TRUE(WaitUntil([&] { return pipeline->capture_stats().packets >= expected; }))
        << "got " << pipeline->capture_stats().packets << "/" << expected;
    pipeline->Finish();
    const capture::CaptureStats stats = pipeline->capture_stats();
    EXPECT_EQ(stats.packets, expected);
    EXPECT_EQ(stats.dropped(), 0u);
    EXPECT_EQ(stats.truncated, 0u);
    ExpectBinLogsIdentical(GoldenLog(), pipeline->log());
    // Zero per-packet ingest copies: every payload was pinned slot memory.
    EXPECT_EQ(pipeline->Stats().ingest_copied_bytes, 0u);
    EXPECT_EQ(pipeline->Stats().capture_packets, expected);
  }
}

TEST(Capture, UdpReplayMatchesOfflineReplay) {
  const size_t expected = CaptureTrace().packets.size();
  auto pipeline = BuildLive(0, capture::SourceSpec::Udp(0));
  const uint16_t port = pipeline->capture()->port(0);
  ASSERT_GT(port, 0);
  EXPECT_EQ(capture::ReplayTraceUdp(CaptureTrace(), port), expected);
  WaitUntil([&] { return pipeline->capture_stats().packets >= expected; });
  pipeline->Finish();
  const capture::CaptureStats stats = pipeline->capture_stats();
  if (stats.packets < expected) {
    // UDP is allowed to lose datagrams under scheduler pressure; equivalence
    // is only claimed for a loss-free run (the common case on loopback with
    // an 8 MB receive buffer).
    GTEST_SKIP() << "lossy UDP run: " << stats.packets << "/" << expected;
  }
  EXPECT_EQ(stats.dropped(), 0u);
  ExpectBinLogsIdentical(GoldenLog(), pipeline->log());
  EXPECT_EQ(pipeline->Stats().ingest_copied_bytes, 0u);
}

TEST(Capture, PcapFollowTailsAGrowingFile) {
  // Golden: import the finished file and push it offline. The pcap path
  // rebases timestamps to the first record, exactly like ImportPcap.
  const trace::Trace& t = CaptureTrace();
  const std::string path = ::testing::TempDir() + "/shedmon_follow.pcap";
  trace::ExportPcap(t, path);
  const trace::Trace imported = trace::ImportPcap(path);
  ASSERT_EQ(imported.packets.size(), t.packets.size());
  auto golden_pipeline = Builder(0).BuildUnique();
  golden_pipeline->Push(imported);
  golden_pipeline->Finish();

  // Live: rewrite the file as header + first half, follow it, then append
  // the second half while the follower is already at the tail.
  const size_t half = t.packets.size() / 2;
  trace::Trace first_half;
  first_half.spec = t.spec;
  first_half.packets.assign(t.packets.begin(), t.packets.begin() + half);
  trace::ExportPcap(first_half, path);

  auto pipeline = BuildLive(0, capture::SourceSpec::PcapFile(path));
  ASSERT_TRUE(WaitUntil(
      [&] { return pipeline->capture_stats().packets >= half; }));

  {
    // Append the remaining records the way a capture daemon would: record
    // header + frame bytes, no new file header.
    std::ofstream append(path, std::ios::binary | std::ios::app);
    for (size_t i = half; i < t.packets.size(); ++i) {
      const net::PacketRecord& rec = t.packets[i];
      const std::vector<uint8_t> frame = trace::SynthesizeFrame(rec);
      const uint32_t words[4] = {static_cast<uint32_t>(rec.ts_us / 1'000'000),
                                 static_cast<uint32_t>(rec.ts_us % 1'000'000),
                                 static_cast<uint32_t>(frame.size()),
                                 static_cast<uint32_t>(frame.size())};
      append.write(reinterpret_cast<const char*>(words), sizeof(words));
      append.write(reinterpret_cast<const char*>(frame.data()),
                   static_cast<std::streamsize>(frame.size()));
    }
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return pipeline->capture_stats().packets >= t.packets.size(); }));
  pipeline->Finish();
  EXPECT_EQ(pipeline->capture_stats().packets, t.packets.size());
  EXPECT_EQ(pipeline->capture_stats().dropped(), 0u);
  ExpectBinLogsIdentical(golden_pipeline->log(), pipeline->log());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Wire-protocol hardening
// ---------------------------------------------------------------------------

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(Capture, TcpStreamProtocolErrorDropsConnectionNotProcess) {
  auto pipeline = BuildLive(0, capture::SourceSpec::Tcp(0));
  const uint16_t port = pipeline->capture()->port(0);

  // A stream that never says the magic word: counted as a decode drop, the
  // connection is cut (recv sees EOF), and the listener stays alive.
  const int bad = ConnectLoopback(port);
  const std::vector<uint8_t> garbage(64, 0xab);
  ASSERT_EQ(::send(bad, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  char scratch[16];
  EXPECT_LE(::recv(bad, scratch, sizeof(scratch), 0), 0);  // server hung up
  ::close(bad);
  ASSERT_TRUE(
      WaitUntil([&] { return pipeline->capture_stats().dropped_decode >= 1; }));

  // The next well-framed client is served normally.
  trace::Trace small;
  small.packets.assign(CaptureTrace().packets.begin(), CaptureTrace().packets.begin() + 50);
  EXPECT_EQ(capture::ReplayTraceTcp(small, port), 50u);
  EXPECT_TRUE(WaitUntil([&] { return pipeline->capture_stats().packets >= 50; }));
  pipeline->Finish();
}

TEST(Capture, TcpOversizedFrameLengthIsAProtocolError) {
  auto pipeline = BuildLive(0, capture::SourceSpec::Tcp(0));
  const int fd = ConnectLoopback(pipeline->capture()->port(0));
  // Valid magic, hostile frame_len: must be rejected before any allocation.
  uint8_t header[capture::kStreamHeaderLen] = {};
  header[0] = 0x53;
  header[1] = 0x48;
  header[2] = 0x4d;
  header[3] = 0x53;  // kStreamMagic
  const uint32_t huge = capture::kMaxFrameBytes + 1;
  header[4] = static_cast<uint8_t>(huge >> 24);
  header[5] = static_cast<uint8_t>(huge >> 16);
  header[6] = static_cast<uint8_t>(huge >> 8);
  header[7] = static_cast<uint8_t>(huge);
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  char scratch[16];
  EXPECT_LE(::recv(fd, scratch, sizeof(scratch), 0), 0);  // connection dropped
  ::close(fd);
  EXPECT_TRUE(
      WaitUntil([&] { return pipeline->capture_stats().dropped_decode >= 1; }));
  pipeline->Finish();
}

TEST(Capture, SnapLengthTruncatesOversizedFramesAndCounts) {
  capture::CaptureConfig cc;
  cc.sources.push_back(capture::SourceSpec::Tcp(0));
  cc.clock = std::make_shared<rt::ManualClock>();
  cc.snap_bytes = 64;  // eth + ip + tcp headers fit; payloads do not
  api::PipelineBuilder builder = Builder(0);
  builder.CaptureFrom(cc);
  auto pipeline = builder.BuildUnique();

  trace::Trace small;
  small.packets.assign(CaptureTrace().packets.begin(), CaptureTrace().packets.begin() + 200);
  EXPECT_EQ(capture::ReplayTraceTcp(small, pipeline->capture()->port(0)), 200u);
  ASSERT_TRUE(WaitUntil([&] { return pipeline->capture_stats().packets >= 200; }));
  pipeline->Finish();
  const capture::CaptureStats stats = pipeline->capture_stats();
  EXPECT_EQ(stats.packets, 200u);  // truncated, not lost
  EXPECT_GT(stats.truncated, 0u);
}

// A packet holds its capture slot until its bin closes, so the slot count
// bounds the open bin: with the clock frozen (no bin ever closes on its own)
// and a drop policy, frames beyond the slots are counted as no-slot drops
// and never reach the pipeline.
TEST(Capture, OpenBinIsBoundedBySlotCount) {
  constexpr size_t kSlots = 8;
  capture::CaptureConfig cc;
  cc.sources.push_back(capture::SourceSpec::Tcp(0));
  cc.clock = std::make_shared<rt::ManualClock>();
  cc.slots = kSlots;
  cc.overflow = rt::OverflowPolicy::kDropNewest;
  api::PipelineBuilder builder = Builder(0);
  builder.CaptureFrom(cc);
  auto pipeline = builder.BuildUnique();

  // Five times the slot count, every record inside bin 0.
  trace::Trace burst;
  burst.packets.assign(CaptureTrace().packets.begin(),
                       CaptureTrace().packets.begin() + 5 * kSlots);
  for (size_t i = 0; i < burst.packets.size(); ++i) {
    burst.packets[i].ts_us = 10 * i;
  }
  const size_t sent = burst.packets.size();
  EXPECT_EQ(capture::ReplayTraceTcp(burst, pipeline->capture()->port(0)), sent);
  ASSERT_TRUE(WaitUntil([&] {
    const capture::CaptureStats stats = pipeline->capture_stats();
    return stats.packets + stats.dropped_no_slot >= sent;
  }));
  pipeline->Finish();

  const capture::CaptureStats stats = pipeline->capture_stats();
  ASSERT_EQ(pipeline->log().size(), 1u);
  const core::BinLog& bin = pipeline->log().front();
  EXPECT_EQ(bin.packets_in, stats.packets);
  EXPECT_LE(bin.packets_in, kSlots);
  EXPECT_EQ(stats.dropped_no_slot, sent - stats.packets);
  EXPECT_EQ(stats.dropped(), stats.dropped_no_slot);
}

TEST(Capture, UdpRawDatagramWithoutMagicIsTreatedAsAFrame) {
  auto pipeline = BuildLive(0, capture::SourceSpec::Udp(0));
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(pipeline->capture()->port(0));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::vector<uint8_t> frame = trace::SynthesizeFrame(CaptureTrace().packets.front());
  ASSERT_EQ(::sendto(fd, frame.data(), frame.size(), 0,
                     reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            static_cast<ssize_t>(frame.size()));
  ::close(fd);
  EXPECT_TRUE(WaitUntil([&] { return pipeline->capture_stats().packets >= 1; }));
  pipeline->Finish();
}

// ---------------------------------------------------------------------------
// Configuration and lifecycle
// ---------------------------------------------------------------------------

TEST(Capture, BuildRejectsEmptySourceList) {
  api::PipelineBuilder builder = Builder(0);
  builder.CaptureFrom(capture::CaptureConfig{});
  EXPECT_THROW(builder.BuildUnique(), api::ConfigError);
}

TEST(Capture, BuildRejectsPcapSourceWithoutPath) {
  capture::CaptureConfig cc;
  cc.sources.push_back(capture::SourceSpec::PcapFile(""));
  api::PipelineBuilder builder = Builder(0);
  builder.CaptureFrom(cc);
  EXPECT_THROW(builder.BuildUnique(), api::ConfigError);
}

TEST(Capture, BuildRejectsMissingPcapFileLoudly) {
  capture::CaptureConfig cc;
  cc.sources.push_back(capture::SourceSpec::PcapFile("/nonexistent/capture.pcap"));
  api::PipelineBuilder builder = Builder(0);
  builder.CaptureFrom(cc);
  EXPECT_THROW(builder.BuildUnique(), api::ConfigError);
}

TEST(Capture, BuildRejectsTakenListenerPort) {
  // Squat a loopback port; the capture listener must fail Build loudly, not
  // share or shadow it.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  capture::CaptureConfig cc;
  cc.sources.push_back(capture::SourceSpec::Udp(ntohs(addr.sin_port)));
  api::PipelineBuilder builder = Builder(0);
  builder.CaptureFrom(cc);
  EXPECT_THROW(builder.BuildUnique(), api::ConfigError);
  ::close(fd);
}

TEST(Capture, StopCaptureIsIdempotent) {
  auto pipeline = BuildLive(0, capture::SourceSpec::Udp(0));
  pipeline->StopCapture();
  pipeline->StopCapture();  // idempotent
  pipeline->Finish();
}

TEST(Capture, MetricsAndSpansCoverTheCaptureStage) {
  capture::CaptureConfig cc;
  cc.sources.push_back(capture::SourceSpec::Tcp(0));
  cc.clock = std::make_shared<rt::ManualClock>();
  api::PipelineBuilder builder = Builder(0);
  builder.Tracing().CaptureFrom(cc);
  auto pipeline = builder.BuildUnique();

  trace::Trace small;
  small.packets.assign(CaptureTrace().packets.begin(), CaptureTrace().packets.begin() + 500);
  EXPECT_EQ(capture::ReplayTraceTcp(small, pipeline->capture()->port(0)), 500u);
  ASSERT_TRUE(WaitUntil([&] { return pipeline->capture_stats().packets >= 500; }));
  pipeline->Finish();

  double packets_total = -1.0;
  bool saw_source_frames = false;
  for (const auto& sample : pipeline->Metrics().Snapshot().samples) {
    if (sample.name == "shedmon_capture_packets_total") {
      packets_total = sample.value;
    }
    if (sample.name == "shedmon_capture_frames_total" && sample.labels.count("source")) {
      saw_source_frames = true;
    }
  }
  EXPECT_EQ(packets_total, 500.0);
  EXPECT_TRUE(saw_source_frames);

  ASSERT_NE(pipeline->tracer(), nullptr);
  bool saw_capture_span = false;
  for (const obs::SpanRecord& span : pipeline->tracer()->Snapshot()) {
    saw_capture_span = saw_capture_span || span.stage == obs::Stage::kCapture;
  }
  EXPECT_TRUE(saw_capture_span);
}

// ---------------------------------------------------------------------------
// PushPinned (the zero-copy ingest contract, without sockets)
// ---------------------------------------------------------------------------

TEST(Capture, PushPinnedBorrowsPayloadAndCopiesNothing) {
  auto pinned_pipeline = Builder(0).BuildUnique();
  auto copied_pipeline = Builder(0).BuildUnique();

  // Stable payload storage: PushPinned's contract is that these bytes
  // outlive the bin, which a vector declared before the loop satisfies.
  std::vector<std::vector<uint8_t>> storage;
  storage.reserve(CaptureTrace().packets.size());
  for (const net::PacketRecord& rec : CaptureTrace().packets) {
    storage.emplace_back(rec.payload_len);
    if (rec.payload_len > 0) {
      trace::MaterializePayload(rec, storage.back().data());
    }
    net::Packet packet;
    packet.rec = &rec;
    packet.payload = rec.payload_len > 0 ? storage.back().data() : nullptr;
    packet.payload_len = rec.payload_len;
    pinned_pipeline->PushPinned(packet);
    copied_pipeline->Push(packet);
  }
  pinned_pipeline->Finish();
  copied_pipeline->Finish();

  // Same packets, same results; only the copy accounting differs.
  ExpectBinLogsIdentical(copied_pipeline->log(), pinned_pipeline->log());
  EXPECT_EQ(pinned_pipeline->Stats().ingest_copied_bytes, 0u);
  EXPECT_GT(copied_pipeline->Stats().ingest_copied_bytes, 0u);
}

TEST(Capture, PushPinnedWithNullPayloadFallsBackToMaterialization) {
  auto pinned_pipeline = Builder(0).BuildUnique();
  auto classic_pipeline = Builder(0).BuildUnique();
  for (const net::PacketRecord& rec : CaptureTrace().packets) {
    pinned_pipeline->PushPinned(net::Packet::View(rec));
    classic_pipeline->Push(net::Packet::View(rec));
  }
  pinned_pipeline->Finish();
  classic_pipeline->Finish();
  ExpectBinLogsIdentical(classic_pipeline->log(), pinned_pipeline->log());
}

}  // namespace
}  // namespace shedmon
