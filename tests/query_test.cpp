#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/query/accuracy.h"
#include "src/query/boyer_moore.h"
#include "src/query/queries.h"
#include "src/sketch/bitmap.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"

namespace shedmon::query {
namespace {

// ------------------------------------------------------------ Boyer-Moore --

TEST(BoyerMooreTest, FindsPatternAtEveryPosition) {
  const BoyerMoore bm("needle");
  const std::string hay = "xxneedlexx";
  EXPECT_EQ(bm.Find(reinterpret_cast<const uint8_t*>(hay.data()), hay.size()), 2u);
  const std::string front = "needle.....";
  EXPECT_EQ(bm.Find(reinterpret_cast<const uint8_t*>(front.data()), front.size()), 0u);
  const std::string back = ".....needle";
  EXPECT_EQ(bm.Find(reinterpret_cast<const uint8_t*>(back.data()), back.size()), 5u);
}

TEST(BoyerMooreTest, MissesAbsentPattern) {
  const BoyerMoore bm("needle");
  const std::string hay = "haystack without the n-word";
  EXPECT_EQ(bm.Find(reinterpret_cast<const uint8_t*>(hay.data()), hay.size()),
            BoyerMoore::kNpos);
}

TEST(BoyerMooreTest, TextShorterThanPattern) {
  const BoyerMoore bm("longpattern");
  const std::string hay = "short";
  EXPECT_EQ(bm.Find(reinterpret_cast<const uint8_t*>(hay.data()), hay.size()),
            BoyerMoore::kNpos);
}

TEST(BoyerMooreTest, RepeatedSuffixPatterns) {
  // Good-suffix-rule stress: repetitive pattern and text.
  // "aabaabababab": first "abab" starts at index 4, overlapping at 6 and 8.
  const BoyerMoore bm("abab");
  const std::string hay = "aabaabababab";
  EXPECT_EQ(bm.Find(reinterpret_cast<const uint8_t*>(hay.data()), hay.size()), 4u);
  EXPECT_EQ(bm.CountOccurrences(reinterpret_cast<const uint8_t*>(hay.data()), hay.size()), 3u);
}

TEST(BoyerMooreTest, BinaryPatternWithNulBytes) {
  const BoyerMoore bm(std::string("\xe3\x00\x01", 3));
  const uint8_t text[] = {0x10, 0xe3, 0x00, 0x01, 0x20};
  EXPECT_EQ(bm.Find(text, sizeof(text)), 1u);
}

TEST(BoyerMooreTest, EmptyPatternRejected) {
  EXPECT_THROW(BoyerMoore(""), std::invalid_argument);
}

TEST(BoyerMooreTest, MatchesBruteForceOnRandomInput) {
  util::Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text(200, ' ');
    for (auto& c : text) {
      c = static_cast<char>('a' + rng.NextBelow(4));
    }
    std::string pat(1 + rng.NextBelow(6), ' ');
    for (auto& c : pat) {
      c = static_cast<char>('a' + rng.NextBelow(4));
    }
    const BoyerMoore bm(pat);
    const size_t expected = text.find(pat);
    const size_t got = bm.Find(reinterpret_cast<const uint8_t*>(text.data()), text.size());
    if (expected == std::string::npos) {
      EXPECT_EQ(got, BoyerMoore::kNpos) << pat << " in " << text;
    } else {
      EXPECT_EQ(got, expected) << pat << " in " << text;
    }
  }
}

// ----------------------------------------------------------- query fixture --

struct Fixture {
  std::vector<net::PacketRecord> records;
  std::vector<std::vector<uint8_t>> payloads;

  void Add(uint32_t src, uint32_t dst, uint16_t sport, uint16_t dport, uint8_t proto,
           uint16_t len, std::string payload = "") {
    net::PacketRecord rec;
    rec.tuple = {src, dst, sport, dport, proto};
    rec.wire_len = len;
    rec.payload_len = static_cast<uint16_t>(payload.size());
    records.push_back(rec);
    payloads.emplace_back(payload.begin(), payload.end());
  }

  trace::PacketVec Packets() const {
    trace::PacketVec out;
    for (size_t i = 0; i < records.size(); ++i) {
      net::Packet p;
      p.rec = &records[i];
      if (!payloads[i].empty()) {
        p.payload = payloads[i].data();
        p.payload_len = static_cast<uint16_t>(payloads[i].size());
      }
      out.push_back(p);
    }
    return out;
  }
};

BatchInput Input(const trace::PacketVec& packets, double rate = 1.0) {
  return BatchInput{packets, 0, 100'000, rate};
}

// --------------------------------------------------------- interval clock --

TEST(QueryInterval, EndBinClosesEveryIntervalBinsBins) {
  Fixture fx;
  fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  const auto packets = fx.Packets();
  CounterQuery q(3);
  for (size_t bin = 1; bin <= 10; ++bin) {
    q.ProcessBatch(Input(packets));
    EXPECT_EQ(q.EndBin(), bin % 3 == 0) << "bin " << bin;
    EXPECT_EQ(q.completed_intervals(), bin / 3) << "bin " << bin;
    EXPECT_EQ(q.bins_in_interval(), bin % 3) << "bin " << bin;
  }
  ASSERT_EQ(q.snapshots().size(), 3u);
  for (const auto& snap : q.snapshots()) {
    EXPECT_DOUBLE_EQ(snap.pkts, 3.0);
  }
  // An interval of 0 bins is taken as 1: every bin closes one.
  CounterQuery every(0);
  EXPECT_EQ(every.interval_bins(), 1u);
  EXPECT_TRUE(every.EndBin());
  EXPECT_TRUE(every.EndBin());
  EXPECT_EQ(every.completed_intervals(), 2u);
}

TEST(QueryInterval, FlushIntervalClosesOnlyAPartialInterval) {
  Fixture fx;
  fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  const auto packets = fx.Packets();
  CounterQuery q(4);
  q.FlushInterval();  // nothing counted yet
  EXPECT_EQ(q.completed_intervals(), 0u);
  for (int bin = 0; bin < 4; ++bin) {
    q.ProcessBatch(Input(packets));
    q.EndBin();
  }
  ASSERT_EQ(q.completed_intervals(), 1u);
  q.FlushInterval();  // right after a boundary
  EXPECT_EQ(q.completed_intervals(), 1u);
  for (int bin = 0; bin < 2; ++bin) {
    q.ProcessBatch(Input(packets));
    q.EndBin();
  }
  q.FlushInterval();
  ASSERT_EQ(q.completed_intervals(), 2u);
  EXPECT_EQ(q.bins_in_interval(), 0u);
  EXPECT_DOUBLE_EQ(q.snapshots()[1].pkts, 2.0);
  q.FlushInterval();
  EXPECT_EQ(q.completed_intervals(), 2u);
}

TEST(QueryInterval, EndIntervalResetsTheCount) {
  CounterQuery q(3);
  EXPECT_FALSE(q.EndBin());
  EXPECT_FALSE(q.EndBin());
  q.EndInterval();
  EXPECT_EQ(q.completed_intervals(), 1u);
  EXPECT_EQ(q.bins_in_interval(), 0u);
  q.FlushInterval();  // the count restarted: nothing is open
  EXPECT_EQ(q.completed_intervals(), 1u);
  // A full interval_bins() more bins are needed to close the next one.
  EXPECT_FALSE(q.EndBin());
  EXPECT_FALSE(q.EndBin());
  EXPECT_TRUE(q.EndBin());
  EXPECT_EQ(q.completed_intervals(), 2u);
}

// ---------------------------------------------------------------- counter --

TEST(CounterQueryTest, ExactWithoutSampling) {
  Fixture fx;
  for (int i = 0; i < 25; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  CounterQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  ASSERT_EQ(q.snapshots().size(), 1u);
  EXPECT_DOUBLE_EQ(q.snapshots()[0].pkts, 25.0);
  EXPECT_DOUBLE_EQ(q.snapshots()[0].bytes, 2500.0);
}

TEST(CounterQueryTest, ScalesBySamplingRateInverse) {
  Fixture fx;
  for (int i = 0; i < 30; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  CounterQuery q;
  q.ProcessBatch(Input(packets, 0.5));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.snapshots()[0].pkts, 60.0);
  EXPECT_DOUBLE_EQ(q.snapshots()[0].bytes, 6000.0);
}

TEST(CounterQueryTest, ZeroErrorAgainstIdenticalReference) {
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  CounterQuery a;
  CounterQuery b;
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_DOUBLE_EQ(a.IntervalError(b, 0), 0.0);
}

// ------------------------------------------------------------ application --

TEST(ApplicationQueryTest, ClassifiesWellKnownPorts) {
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 80, 6}), net::AppClass::kWeb);
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 53, 17}), net::AppClass::kDns);
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 6881, 6}), net::AppClass::kP2p);
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 22, 6}), net::AppClass::kSsh);
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 40000, 6}), net::AppClass::kOther);
  // Source-port fallback for reverse-direction packets.
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 443, 40000, 6}), net::AppClass::kWeb);
}

TEST(ApplicationQueryTest, SplitsTrafficByApp) {
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    fx.Add(1, 2, 30000, 80, net::kProtoTcp, 100);
  }
  for (int i = 0; i < 5; ++i) {
    fx.Add(1, 2, 30000, 53, net::kProtoUdp, 60);
  }
  const auto packets = fx.Packets();
  ApplicationQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  const auto& snap = q.snapshots()[0];
  EXPECT_DOUBLE_EQ(snap.pkts[static_cast<size_t>(net::AppClass::kWeb)], 10.0);
  EXPECT_DOUBLE_EQ(snap.pkts[static_cast<size_t>(net::AppClass::kDns)], 5.0);
}

// --------------------------------------------------------- high-watermark --

TEST(HighWatermarkQueryTest, TracksPeakBin) {
  Fixture small;
  small.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  Fixture large;
  for (int i = 0; i < 50; ++i) {
    large.Add(1, 2, 10, 80, net::kProtoTcp, 1000);
  }
  const auto small_pkts = small.Packets();
  const auto large_pkts = large.Packets();
  HighWatermarkQuery q;
  q.ProcessBatch(Input(small_pkts));
  q.ProcessBatch(Input(large_pkts));
  q.ProcessBatch(Input(small_pkts));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.watermarks()[0], 50000.0);
}

TEST(HighWatermarkQueryTest, CustomShedStrideEstimatesPeak) {
  Fixture fx;
  for (int i = 0; i < 400; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 500);
  }
  const auto packets = fx.Packets();
  HighWatermarkQuery q;
  ASSERT_TRUE(q.supports_custom_shedding());
  q.ProcessCustom(Input(packets), 0.25);
  q.EndInterval();
  // 1-in-4 stride x 4 rescale over uniform sizes is exact.
  EXPECT_NEAR(q.watermarks()[0], 200000.0, 2000.0);
}

// ------------------------------------------------------------------ flows --

TEST(FlowsQueryTest, CountsDistinctFlows) {
  Fixture fx;
  for (uint32_t f = 0; f < 40; ++f) {
    for (int rep = 0; rep < 3; ++rep) {
      fx.Add(100 + f, 2, static_cast<uint16_t>(1000 + f), 80, net::kProtoTcp, 100);
    }
  }
  const auto packets = fx.Packets();
  FlowsQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.flow_counts()[0], 40.0);
}

TEST(FlowsQueryTest, FlowSamplingEstimateScales) {
  Fixture fx;
  for (uint32_t f = 0; f < 100; ++f) {
    fx.Add(100 + f, 2, static_cast<uint16_t>(1000 + f), 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  // Emulate 50% flow sampling: feed half the flows, tell the query rate=0.5.
  trace::PacketVec half(packets.begin(), packets.begin() + 50);
  FlowsQuery q;
  q.ProcessBatch(Input(half, 0.5));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.flow_counts()[0], 100.0);
}

TEST(FlowsQueryTest, IntervalResetsFlowTable) {
  Fixture fx;
  fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  const auto packets = fx.Packets();
  FlowsQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  // Same flow counts once per interval.
  EXPECT_DOUBLE_EQ(q.flow_counts()[0], 1.0);
  EXPECT_DOUBLE_EQ(q.flow_counts()[1], 1.0);
}

TEST(FlowsQueryTest, PrefersFlowSampling) {
  FlowsQuery q;
  EXPECT_EQ(q.preferred_sampling(), SamplingMethod::kFlow);
}

// ------------------------------------------------------------------ top-k --

TEST(TopKQueryTest, RanksDestinationsByBytes) {
  Fixture fx;
  for (int i = 0; i < 30; ++i) {
    fx.Add(1, 100, 10, 80, net::kProtoTcp, 1000);  // heavy hitter
  }
  for (int i = 0; i < 5; ++i) {
    fx.Add(1, 200, 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  TopKQuery q(5);
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  const auto& snap = q.snapshots()[0];
  ASSERT_GE(snap.topk.size(), 2u);
  EXPECT_EQ(snap.topk[0].first, 100u);
  EXPECT_DOUBLE_EQ(snap.topk[0].second, 30000.0);
}

TEST(TopKQueryTest, PerfectRunHasZeroMisrankedPairs) {
  Fixture fx;
  for (uint32_t d = 0; d < 20; ++d) {
    for (uint32_t rep = 0; rep <= d; ++rep) {
      fx.Add(1, 100 + d, 10, 80, net::kProtoTcp, 100);
    }
  }
  const auto packets = fx.Packets();
  TopKQuery a(5);
  TopKQuery b(5);
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_DOUBLE_EQ(a.IntervalMisrankedPairs(b, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.IntervalError(b, 0), 0.0);
}

TEST(TopKQueryTest, MisrankingDetected) {
  // Estimate sees only the light destinations; reference sees all.
  Fixture light;
  for (uint32_t d = 0; d < 5; ++d) {
    light.Add(1, 200 + d, 10, 80, net::kProtoTcp, 100);
  }
  Fixture full;
  for (uint32_t d = 0; d < 5; ++d) {
    full.Add(1, 200 + d, 10, 80, net::kProtoTcp, 100);
  }
  for (uint32_t d = 0; d < 5; ++d) {
    for (int rep = 0; rep < 50; ++rep) {
      full.Add(1, 100 + d, 10, 80, net::kProtoTcp, 1000);  // true heavies
    }
  }
  const auto light_pkts = light.Packets();
  const auto full_pkts = full.Packets();
  TopKQuery est(5);
  TopKQuery ref(5);
  est.ProcessBatch(Input(light_pkts));
  ref.ProcessBatch(Input(full_pkts));
  est.EndInterval();
  ref.EndInterval();
  // Every (reported, true-heavy) pair is misranked: 5 x 5.
  EXPECT_DOUBLE_EQ(est.IntervalMisrankedPairs(ref, 0), 25.0);
  EXPECT_DOUBLE_EQ(est.IntervalError(ref, 0), 1.0);
}

TEST(TopKQueryTest, SampleAndHoldKeepsHeavyHitters) {
  util::Rng rng(43);
  Fixture fx;
  for (int i = 0; i < 2000; ++i) {
    fx.Add(1, 100, 10, 80, net::kProtoTcp, 1000);  // dominant key
  }
  for (int i = 0; i < 200; ++i) {
    fx.Add(1, 200 + static_cast<uint32_t>(rng.NextBelow(50)), 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  TopKQuery q(3);
  q.ProcessCustom(Input(packets), 0.3);
  q.EndInterval();
  ASSERT_FALSE(q.snapshots()[0].topk.empty());
  EXPECT_EQ(q.snapshots()[0].topk[0].first, 100u);
}

// ---------------------------------------------- trace and pattern-search --

TEST(TraceQueryTest, StoresBytesProportionalToInput) {
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 500, std::string(460, 'x'));
  }
  const auto packets = fx.Packets();
  TraceQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.snapshots()[0].pkts_stored, 10.0);
  EXPECT_DOUBLE_EQ(q.snapshots()[0].bytes_stored, 4600.0);
}

TEST(TraceQueryTest, GenericErrorIsUnprocessedFraction) {
  Fixture fx;
  for (int i = 0; i < 100; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  }
  const auto all = fx.Packets();
  const trace::PacketVec quarter(all.begin(), all.begin() + 25);
  TraceQuery est;
  TraceQuery ref;
  est.ProcessBatch(Input(quarter, 0.25));
  ref.ProcessBatch(Input(all));
  est.EndInterval();
  ref.EndInterval();
  EXPECT_DOUBLE_EQ(est.IntervalError(ref, 0), 0.75);
}

TEST(PatternSearchQueryTest, FindsPlantedPattern) {
  Fixture fx;
  fx.Add(1, 2, 10, 80, net::kProtoTcp, 200, "GET /index.html HTTP/1.1\r\n");
  fx.Add(1, 2, 10, 80, net::kProtoTcp, 200, std::string(100, 'z'));
  const auto packets = fx.Packets();
  PatternSearchQuery q("HTTP/1.1");
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.match_counts()[0], 1.0);
}

// ----------------------------------------------------------- p2p-detector --

Fixture P2pFixture() {
  Fixture fx;
  // One BitTorrent flow: the handshake signature appears on the first two
  // stream packets (as the generator emits), both of which the detector
  // must observe to classify the flow.
  fx.Add(10, 20, 50000, 6881, net::kProtoTcp, 200,
         std::string(trace::BittorrentSignature()) + std::string(50, 'a'));
  fx.Add(10, 20, 50000, 6881, net::kProtoTcp, 200,
         std::string(trace::BittorrentSignature()) + std::string(50, 'a'));
  for (int i = 0; i < 5; ++i) {
    fx.Add(10, 20, 50000, 6881, net::kProtoTcp, 1400, std::string(200, 'b'));
  }
  // One plain web flow.
  fx.Add(11, 21, 50001, 80, net::kProtoTcp, 200, "GET / HTTP/1.1\r\n");
  for (int i = 0; i < 5; ++i) {
    fx.Add(11, 21, 50001, 80, net::kProtoTcp, 1400, std::string(200, 'c'));
  }
  return fx;
}

TEST(P2pDetectorQueryTest, DetectsSignatureFlows) {
  const Fixture fx = P2pFixture();
  const auto packets = fx.Packets();
  P2pDetectorQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  ASSERT_EQ(q.p2p_flows().size(), 1u);
  ASSERT_EQ(q.p2p_flows()[0].size(), 1u);
  EXPECT_EQ(q.p2p_flows()[0].begin()->dst_port, 6881);
}

TEST(P2pDetectorQueryTest, ZeroErrorAgainstItself) {
  const Fixture fx = P2pFixture();
  const auto packets = fx.Packets();
  P2pDetectorQuery a;
  P2pDetectorQuery b;
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_DOUBLE_EQ(a.IntervalError(b, 0), 0.0);
}

TEST(P2pDetectorQueryTest, CustomSheddingKeepsDetectionAtModerateBudget) {
  const Fixture fx = P2pFixture();
  const auto packets = fx.Packets();
  P2pDetectorQuery shed;
  P2pDetectorQuery ref;
  shed.ProcessCustom(Input(packets), 0.5);  // above first-packet cost share
  ref.ProcessBatch(Input(packets));
  shed.EndInterval();
  ref.EndInterval();
  EXPECT_DOUBLE_EQ(shed.IntervalError(ref, 0), 0.0);
}

TEST(P2pDetectorQueryTest, SelfishVariantIgnoresBudget) {
  const Fixture fx = P2pFixture();
  const auto packets = fx.Packets();
  SelfishP2pDetectorQuery selfish;
  selfish.ProcessCustom(Input(packets), 0.01);
  selfish.EndInterval();
  // Processed everything despite a 1% budget.
  EXPECT_DOUBLE_EQ(selfish.IntervalPacketsProcessed(0),
                   static_cast<double>(packets.size()));
}

// -------------------------------------------------------------- autofocus --

TEST(AutofocusQueryTest, FindsDominantPrefixCluster) {
  std::unordered_map<uint32_t, double> bytes;
  // 10.1.0.0/16 cluster: many hosts with moderate traffic.
  for (uint32_t h = 0; h < 100; ++h) {
    bytes[0x0a010000 + h] = 100.0;
  }
  // Background noise far away, below threshold.
  bytes[0xc0000001] = 10.0;
  const auto report = AutofocusQuery::ComputeClusters(bytes, 0.10);
  ASSERT_FALSE(report.empty());
  // Autofocus reports the most specific prefixes above threshold: every
  // reported cluster must sit inside 10.1.0.0/16 and be shorter than a host
  // route; the below-threshold noise host must not appear.
  for (const uint64_t enc : report) {
    const uint32_t prefix = static_cast<uint32_t>(enc >> 8);
    const uint32_t len = static_cast<uint32_t>(enc & 0xff);
    EXPECT_EQ(prefix >> 16, 0x0a01u) << std::hex << prefix;
    EXPECT_LT(len, 32u);
    EXPECT_NE(prefix, 0xc0000001u);
  }
}

TEST(AutofocusQueryTest, SingleHeavyHostReportedAsLeaf) {
  std::unordered_map<uint32_t, double> bytes;
  bytes[0x0a0a0a0a] = 1000.0;
  for (uint32_t h = 0; h < 50; ++h) {
    bytes[0x0b000000 + h * 7919] = 1.0;
  }
  const auto report = AutofocusQuery::ComputeClusters(bytes, 0.5);
  bool leaf = false;
  for (const uint64_t enc : report) {
    if ((enc >> 8) == 0x0a0a0a0a && (enc & 0xff) == 32) {
      leaf = true;
    }
  }
  EXPECT_TRUE(leaf);
}

TEST(AutofocusQueryTest, EmptyInputGivesEmptyReport) {
  EXPECT_TRUE(AutofocusQuery::ComputeClusters({}, 0.05).empty());
}

TEST(AutofocusQueryTest, EndToEndZeroErrorUnsampled) {
  Fixture fx;
  for (uint32_t h = 0; h < 60; ++h) {
    fx.Add(0x0a010000 + h, 2, 10, 80, net::kProtoTcp, 500);
  }
  const auto packets = fx.Packets();
  AutofocusQuery a(0.05);
  AutofocusQuery b(0.05);
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_DOUBLE_EQ(a.IntervalError(b, 0), 0.0);
}

// ---------------------------------------------------------- super-sources --

TEST(SuperSourcesQueryTest, IdentifiesLargestFanOut) {
  Fixture fx;
  // Scanner: one source touching 80 destinations.
  for (uint32_t d = 0; d < 80; ++d) {
    fx.Add(999, 1000 + d, 10, 80, net::kProtoTcp, 60);
  }
  // Normal sources: 2 destinations each.
  for (uint32_t s = 0; s < 10; ++s) {
    fx.Add(100 + s, 1, 10, 80, net::kProtoTcp, 60);
    fx.Add(100 + s, 2, 10, 80, net::kProtoTcp, 60);
  }
  const auto packets = fx.Packets();
  SuperSourcesQuery q(3);
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  const auto& snap = q.snapshots()[0];
  ASSERT_FALSE(snap.top.empty());
  EXPECT_EQ(snap.top[0].first, 999u);
  EXPECT_NEAR(snap.top[0].second, 80.0, 16.0);
}

TEST(SuperSourcesQueryTest, FanOutErrorSmallWhenUnsampled) {
  Fixture fx;
  for (uint32_t s = 0; s < 5; ++s) {
    for (uint32_t d = 0; d < 20 + 10 * s; ++d) {
      fx.Add(10 + s, 1000 + d, 10, 80, net::kProtoTcp, 60);
    }
  }
  const auto packets = fx.Packets();
  SuperSourcesQuery a(5);
  SuperSourcesQuery b(5);
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_LT(a.IntervalError(b, 0), 0.01);
}

// -------------------------------------------------- factory and reference --

TEST(QueryFactory, BuildsEveryStandardQuery) {
  for (const auto& name : AllQueryNames()) {
    const auto q = MakeQuery(name);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->name(), name);
  }
  EXPECT_THROW(MakeQuery("no-such-query"), std::invalid_argument);
}

TEST(QueryFactory, StandardSetsHaveExpectedSizes) {
  EXPECT_EQ(StandardSevenQueryNames().size(), 7u);
  EXPECT_EQ(StandardNineQueryNames().size(), 9u);
  EXPECT_EQ(AllQueryNames().size(), 10u);
}

TEST(RunReferenceTest, ProducesIntervalsForAllQueries) {
  trace::TraceSpec spec;
  spec.duration_s = 3.0;
  spec.flows_per_s = 150.0;
  spec.payloads = true;
  spec.seed = 77;
  const auto t = trace::TraceGenerator(spec).Generate();
  const auto refs = RunReference({"counter", "flows", "p2p-detector"}, t);
  ASSERT_EQ(refs.size(), 3u);
  for (const auto& q : refs) {
    EXPECT_GE(q->completed_intervals(), 3u) << q->name();
  }
}

TEST(RunReferenceTest, ReferenceIsSelfConsistent) {
  trace::TraceSpec spec;
  spec.duration_s = 2.0;
  spec.flows_per_s = 100.0;
  spec.seed = 78;
  const auto t = trace::TraceGenerator(spec).Generate();
  const auto a = RunReference({"counter"}, t);
  const auto b = RunReference({"counter"}, t);
  EXPECT_NEAR(SummarizeAccuracy(*a[0], *b[0]).mean_error, 0.0, 1e-12);
}

// ------------------------------------------------- exact batch-path pins --
//
// One small hand-built batch per query, processed at rate 1.0 and at rate
// 0.3. Each query accumulates exact integer-valued partials (packets, bytes,
// new keys) over the batch, rescales them once by 1/rate, and charges its
// work units once per batch, so every expected value below is written from
// the query's work constants and that single-rounding formula, and compared
// with EXPECT_EQ: any change to the arithmetic (a per-packet rescale, a
// different summation order, a second ChargeWork) fails here.

// Six packets over three sources, three destinations, five flows and four
// application classes; two are header-only (pattern-search scans their
// records instead).
Fixture PinFixture() {
  Fixture fx;
  fx.Add(1, 100, 30000, 80, net::kProtoTcp, 1500, "GET / HTTP/1.1\r\n");  // web
  fx.Add(1, 100, 30000, 80, net::kProtoTcp, 40);                          // web, same flow
  fx.Add(2, 200, 53, 40000, net::kProtoUdp, 90, "xxxxHTTP/1.1");          // dns (source port)
  fx.Add(3, 100, 30001, 6881, net::kProtoTcp, 700, std::string(64, 'z'));  // p2p
  fx.Add(2, 300, 30002, 40001, net::kProtoTcp, 333);                       // other
  fx.Add(1, 200, 30003, 443, net::kProtoTcp, 1200, "HTTP/1.0 200");        // web
  return fx;
}

constexpr double kPinPackets = 6.0;
constexpr double kPinBytes = 1500.0 + 40.0 + 90.0 + 700.0 + 333.0 + 1200.0;

size_t AppIndex(net::AppClass app) { return static_cast<size_t>(app); }

// The parameter is the batch's sampling rate.
class BatchPathPin : public ::testing::TestWithParam<double> {};

TEST_P(BatchPathPin, Counter) {
  const Fixture fx = PinFixture();
  const auto packets = fx.Packets();
  const double rate = GetParam();
  const double inv = 1.0 / rate;
  CounterQuery q;
  q.ProcessBatch(Input(packets, rate));
  EXPECT_EQ(q.work_units(), 40.0 * kPinPackets);
  q.EndInterval();
  EXPECT_EQ(q.snapshots()[0].pkts, kPinPackets * inv);
  EXPECT_EQ(q.snapshots()[0].bytes, kPinBytes * inv);
}

TEST_P(BatchPathPin, Application) {
  const Fixture fx = PinFixture();
  const auto packets = fx.Packets();
  const double rate = GetParam();
  const double inv = 1.0 / rate;
  ApplicationQuery q;
  q.ProcessBatch(Input(packets, rate));
  EXPECT_EQ(q.work_units(), 70.0 * kPinPackets);
  q.EndInterval();
  ApplicationQuery::Snapshot expected;
  expected.pkts[AppIndex(net::AppClass::kWeb)] = 3.0 * inv;
  expected.bytes[AppIndex(net::AppClass::kWeb)] = (1500.0 + 40.0 + 1200.0) * inv;
  expected.pkts[AppIndex(net::AppClass::kDns)] = 1.0 * inv;
  expected.bytes[AppIndex(net::AppClass::kDns)] = 90.0 * inv;
  expected.pkts[AppIndex(net::AppClass::kP2p)] = 1.0 * inv;
  expected.bytes[AppIndex(net::AppClass::kP2p)] = 700.0 * inv;
  expected.pkts[AppIndex(net::AppClass::kOther)] = 1.0 * inv;
  expected.bytes[AppIndex(net::AppClass::kOther)] = 333.0 * inv;
  EXPECT_EQ(q.snapshots()[0].pkts, expected.pkts);
  EXPECT_EQ(q.snapshots()[0].bytes, expected.bytes);
}

TEST_P(BatchPathPin, HighWatermark) {
  const Fixture fx = PinFixture();
  const auto packets = fx.Packets();
  const double rate = GetParam();
  HighWatermarkQuery q;
  q.ProcessBatch(Input(packets, rate));
  EXPECT_EQ(q.work_units(), 45.0 * kPinPackets);
  q.EndInterval();
  EXPECT_EQ(q.watermarks()[0], kPinBytes * (1.0 / rate));
}

TEST_P(BatchPathPin, Flows) {
  const Fixture fx = PinFixture();
  const auto packets = fx.Packets();
  const double rate = GetParam();
  FlowsQuery q;
  q.ProcessBatch(Input(packets, rate));
  EXPECT_EQ(q.work_units(), 90.0 * kPinPackets + 700.0 * 5.0);  // five new flows
  q.EndInterval();
  EXPECT_EQ(q.flow_counts()[0], 5.0 * (1.0 / rate));
}

TEST_P(BatchPathPin, TopK) {
  const Fixture fx = PinFixture();
  const auto packets = fx.Packets();
  const double rate = GetParam();
  const double inv = 1.0 / rate;
  TopKQuery q;
  q.ProcessBatch(Input(packets, rate));
  EXPECT_EQ(q.work_units(), 110.0 * kPinPackets + 350.0 * 3.0);  // three new destinations
  q.EndInterval();
  const std::vector<std::pair<uint32_t, double>> expected = {
      {100, (1500.0 + 40.0 + 700.0) * inv}, {200, (90.0 + 1200.0) * inv}, {300, 333.0 * inv}};
  EXPECT_EQ(q.snapshots()[0].topk, expected);
  EXPECT_EQ(q.snapshots()[0].all.size(), 3u);
}

TEST_P(BatchPathPin, PatternSearch) {
  const Fixture fx = PinFixture();
  const auto packets = fx.Packets();
  // Payload bytes scanned, plus one whole record per header-only packet.
  const double scanned = 16.0 + 12.0 + 64.0 + 12.0 + 2.0 * sizeof(net::PacketRecord);
  const double rate = GetParam();
  PatternSearchQuery q("HTTP/1.1");
  q.ProcessBatch(Input(packets, rate));
  EXPECT_EQ(q.work_units(), 30.0 * kPinPackets + 2.6 * scanned);
  q.EndInterval();
  EXPECT_EQ(q.match_counts()[0], 2.0 * (1.0 / rate));  // packets 1 and 3
}

TEST_P(BatchPathPin, Autofocus) {
  const Fixture fx = PinFixture();
  const auto packets = fx.Packets();
  const double rate = GetParam();
  AutofocusQuery q;
  q.ProcessBatch(Input(packets, rate));
  EXPECT_EQ(q.work_units(), 80.0 * kPinPackets + 260.0 * 3.0);  // three new sources
  q.EndInterval();
  // Every source carries over 2% of the bytes, so each is its own /32
  // cluster and no covering prefix has unreported traffic left.
  const std::set<uint64_t> expected = {(1ULL << 8) | 32u, (2ULL << 8) | 32u,
                                       (3ULL << 8) | 32u};
  EXPECT_EQ(q.reports()[0], expected);
  EXPECT_EQ(q.work_units(), 80.0 * kPinPackets + 260.0 * 3.0 + 30.0 * 3.0);
}

TEST_P(BatchPathPin, SuperSources) {
  const Fixture fx = PinFixture();
  const auto packets = fx.Packets();
  // Linear-counting estimates for one and two distinct destinations.
  sketch::DirectBitmap one(128);
  one.Insert(0);
  sketch::DirectBitmap two(128);
  two.Insert(0);
  two.Insert(1);
  const double rate = GetParam();
  SuperSourcesQuery q;
  q.ProcessBatch(Input(packets, rate));
  EXPECT_EQ(q.work_units(), 85.0 * kPinPackets + 420.0 * 3.0);  // three new sources
  q.EndInterval();
  const auto& all = q.snapshots()[0].all;
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.at(1), two.Estimate() / rate);  // 100, 200
  EXPECT_EQ(all.at(2), two.Estimate() / rate);  // 200, 300
  EXPECT_EQ(all.at(3), one.Estimate() / rate);  // 100
}

INSTANTIATE_TEST_SUITE_P(Rates, BatchPathPin, ::testing::Values(1.0, 0.3),
                         [](const auto& info) {
                           return info.param == 1.0 ? std::string("full_rate")
                                                    : std::string("rate_0_3");
                         });

// ---------------------------------------------- randomised batch-path sums --
//
// Counter, application and high-watermark fold each batch in one direct
// loop. These runs drive them with random bins (empty ones included) at
// mixed sampling rates over several intervals and compare every snapshot,
// the processed-packet count and work_units() exactly with sums written out
// here: per batch, exact partials times 1/rate; per interval, a reset.

struct RandomBatch {
  Fixture fx;
  trace::PacketVec packets;
  double rate = 1.0;
};

// intervals x (1..12 bins) of 0..149 packets each, ports drawn so every
// application class and unclassified traffic appear.
std::vector<std::vector<RandomBatch>> RandomIntervals(uint64_t seed, size_t intervals) {
  static constexpr uint16_t kPorts[] = {80, 443, 53, 25, 6881, 554, 22, 31000, 40001};
  static constexpr double kRates[] = {1.0, 0.5, 0.3, 0.1, 0.07};
  util::Rng rng(seed);
  std::vector<std::vector<RandomBatch>> out(intervals);
  for (auto& bins : out) {
    bins.resize(1 + rng.NextBelow(12));
    for (RandomBatch& b : bins) {
      const size_t n = rng.NextBelow(150);
      for (size_t i = 0; i < n; ++i) {
        b.fx.Add(static_cast<uint32_t>(1 + rng.NextBelow(20)),
                 static_cast<uint32_t>(100 + rng.NextBelow(20)),
                 kPorts[rng.NextBelow(std::size(kPorts))], kPorts[rng.NextBelow(std::size(kPorts))],
                 net::kProtoTcp, static_cast<uint16_t>(40 + rng.NextBelow(1461)));
      }
      b.rate = kRates[rng.NextBelow(std::size(kRates))];
    }
    for (RandomBatch& b : bins) {
      b.packets = b.fx.Packets();  // after every resize: views point into fx
    }
  }
  return out;
}

double WireBytes(const trace::PacketVec& packets) {
  double bytes = 0.0;
  for (const net::Packet& p : packets) {
    bytes += static_cast<double>(p.rec->wire_len);
  }
  return bytes;
}

TEST(BatchPathReference, CounterSumsEveryBatchExactly) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    const auto intervals = RandomIntervals(seed, 4);
    CounterQuery q;
    double work = 0.0;
    for (size_t i = 0; i < intervals.size(); ++i) {
      CounterQuery::Snapshot want;
      double raw = 0.0;
      for (const RandomBatch& b : intervals[i]) {
        q.ProcessBatch(Input(b.packets, b.rate));
        const double n = static_cast<double>(b.packets.size());
        want.pkts += n * (1.0 / b.rate);
        want.bytes += WireBytes(b.packets) * (1.0 / b.rate);
        raw += n;
        work += 40.0 * n;
        EXPECT_EQ(q.work_units(), work);
      }
      q.EndInterval();
      EXPECT_EQ(q.snapshots()[i].pkts, want.pkts);
      EXPECT_EQ(q.snapshots()[i].bytes, want.bytes);
      EXPECT_EQ(q.IntervalPacketsProcessed(i), raw);
    }
  }
}

TEST(BatchPathReference, ApplicationSumsEveryClassExactly) {
  for (const uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE(seed);
    const auto intervals = RandomIntervals(seed, 4);
    ApplicationQuery q;
    double work = 0.0;
    for (size_t i = 0; i < intervals.size(); ++i) {
      ApplicationQuery::Snapshot want;
      for (const RandomBatch& b : intervals[i]) {
        q.ProcessBatch(Input(b.packets, b.rate));
        ApplicationQuery::Snapshot partial;
        for (const net::Packet& p : b.packets) {
          const size_t app = AppIndex(ApplicationQuery::ClassifyPorts(p.rec->tuple));
          partial.pkts[app] += 1.0;
          partial.bytes[app] += static_cast<double>(p.rec->wire_len);
        }
        for (size_t a = 0; a < want.pkts.size(); ++a) {
          want.pkts[a] += partial.pkts[a] * (1.0 / b.rate);
          want.bytes[a] += partial.bytes[a] * (1.0 / b.rate);
        }
        work += 70.0 * static_cast<double>(b.packets.size());
        EXPECT_EQ(q.work_units(), work);
      }
      q.EndInterval();
      EXPECT_EQ(q.snapshots()[i].pkts, want.pkts);
      EXPECT_EQ(q.snapshots()[i].bytes, want.bytes);
    }
  }
}

TEST(BatchPathReference, HighWatermarkKeepsThePeakBatch) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE(seed);
    const auto intervals = RandomIntervals(seed, 4);
    HighWatermarkQuery q;
    double work = 0.0;
    for (size_t i = 0; i < intervals.size(); ++i) {
      double want = 0.0;
      for (const RandomBatch& b : intervals[i]) {
        q.ProcessBatch(Input(b.packets, b.rate));
        want = std::max(want, WireBytes(b.packets) * (1.0 / b.rate));
        work += 45.0 * static_cast<double>(b.packets.size());
        EXPECT_EQ(q.work_units(), work);
      }
      q.EndInterval();
      EXPECT_EQ(q.watermarks()[i], want);
    }
  }
}

// Parameterized sweep reproducing Fig. 6.4's shape: error grows as the
// sampling rate falls, and at full rate the error vanishes.
class SamplingSweep : public ::testing::TestWithParam<double> {};

TEST_P(SamplingSweep, CounterErrorBoundedByRate) {
  const double rate = GetParam();
  trace::TraceSpec spec;
  spec.duration_s = 4.0;
  spec.flows_per_s = 200.0;
  spec.seed = 79;
  const auto t = trace::TraceGenerator(spec).Generate();
  trace::Batcher batcher(t, 100'000);
  trace::Batch batch;
  util::Rng rng(80);
  CounterQuery est;
  CounterQuery ref;
  size_t bins = 0;
  while (batcher.Next(batch)) {
    trace::PacketVec sampled;
    for (const auto& pkt : batch.packets) {
      if (rng.NextDouble() < rate) {
        sampled.push_back(pkt);
      }
    }
    est.ProcessBatch(BatchInput{sampled, batch.start_us, batch.duration_us, rate});
    ref.ProcessBatch(BatchInput{batch.packets, batch.start_us, batch.duration_us, 1.0});
    if (++bins % 10 == 0) {
      est.EndInterval();
      ref.EndInterval();
    }
  }
  const double err = SummarizeAccuracy(est, ref).mean_error;
  if (rate >= 0.999) {
    EXPECT_NEAR(err, 0.0, 1e-9);
  } else {
    // Binomial sampling error at ~hundreds of packets per interval.
    EXPECT_LT(err, 0.30 * std::sqrt((1.0 - rate) / rate));
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplingSweep, ::testing::Values(0.05, 0.1, 0.3, 0.6, 1.0));

}  // namespace
}  // namespace shedmon::query
