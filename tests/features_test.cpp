#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/features/extractor.h"
#include "src/features/features.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"
#include "tests/reference_extractor.h"

namespace shedmon::features {
namespace {

TEST(Features, IndexLayoutIsDense) {
  EXPECT_EQ(kNumFeatures, 42);
  std::set<int> seen = {kFeatPackets, kFeatBytes};
  for (int a = 0; a < kNumAggregates; ++a) {
    for (int c = 0; c < kCountersPerAggregate; ++c) {
      const int idx = FeatureIndex(static_cast<Aggregate>(a), static_cast<Counter>(c));
      EXPECT_TRUE(seen.insert(idx).second) << idx;
      EXPECT_GE(idx, 2);
      EXPECT_LT(idx, kNumFeatures);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kNumFeatures));
}

TEST(Features, NamesAreUniqueAndMeaningful) {
  std::set<std::string> names;
  for (int i = 0; i < kNumFeatures; ++i) {
    names.insert(std::string(FeatureName(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumFeatures));
  EXPECT_EQ(FeatureName(kFeatPackets), "packets");
  EXPECT_EQ(FeatureName(kFeatBytes), "bytes");
  EXPECT_EQ(FeatureName(kFeatNewFiveTuple), "new_5-tuple");
  EXPECT_EQ(FeatureName(-1), "invalid");
  EXPECT_EQ(FeatureName(kNumFeatures), "invalid");
}

TEST(Features, AggregateKeyLengths) {
  net::FiveTuple t{0x01020304, 0x05060708, 1000, 80, net::kProtoTcp};
  uint8_t key[13];
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcIp, key), 4u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kDstIp, key), 4u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kProto, key), 1u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcDstIp, key), 8u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcPortProto, key), 3u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kDstPortProto, key), 3u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcIpSrcPortProto, key), 7u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kDstIpDstPortProto, key), 7u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcDstPortProto, key), 5u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kFiveTuple, key), 13u);
}

TEST(Features, AggregateKeysDiscriminateOnlyTheirFields) {
  net::FiveTuple a{0x01020304, 0x05060708, 1000, 80, net::kProtoTcp};
  net::FiveTuple b = a;
  b.src_port = 2000;  // src-ip key must not change, 5-tuple key must
  uint8_t ka[13];
  uint8_t kb[13];
  const size_t la = AggregateKey(a, Aggregate::kSrcIp, ka);
  const size_t lb = AggregateKey(b, Aggregate::kSrcIp, kb);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(ka), la),
            std::string(reinterpret_cast<char*>(kb), lb));
  const size_t fa = AggregateKey(a, Aggregate::kFiveTuple, ka);
  const size_t fb = AggregateKey(b, Aggregate::kFiveTuple, kb);
  EXPECT_NE(std::string(reinterpret_cast<char*>(ka), fa),
            std::string(reinterpret_cast<char*>(kb), fb));
}

// Builds a PacketVec with n packets per tuple spec.
struct PacketFixture {
  std::vector<net::PacketRecord> records;
  trace::PacketVec packets;

  void Add(uint32_t src, uint32_t dst, uint16_t sport, uint16_t dport, uint8_t proto,
           uint16_t len = 100) {
    net::PacketRecord rec;
    rec.tuple = {src, dst, sport, dport, proto};
    rec.wire_len = len;
    records.push_back(rec);
  }
  void Finish() {
    packets.clear();
    for (const auto& rec : records) {
      net::Packet p;
      p.rec = &rec;
      packets.push_back(p);
    }
  }
};

TEST(Extractor, CountsPacketsAndBytesExactly) {
  PacketFixture fx;
  for (int i = 0; i < 50; ++i) {
    fx.Add(1, 2, 3, 4, net::kProtoTcp, 200);
  }
  fx.Finish();
  FeatureExtractor ex;
  const FeatureVector f = ex.Extract(fx.packets);
  EXPECT_DOUBLE_EQ(f[kFeatPackets], 50.0);
  EXPECT_DOUBLE_EQ(f[kFeatBytes], 50.0 * 200.0);
}

TEST(Extractor, UniqueCountTracksDistinctTuples) {
  PacketFixture fx;
  for (uint32_t i = 0; i < 200; ++i) {
    fx.Add(100 + i, 2, static_cast<uint16_t>(1000 + i), 80, net::kProtoTcp);
  }
  // Plus 300 repeats of a single tuple.
  for (int i = 0; i < 300; ++i) {
    fx.Add(1, 2, 3, 4, net::kProtoTcp);
  }
  fx.Finish();
  FeatureExtractor ex;
  const FeatureVector f = ex.Extract(fx.packets);
  EXPECT_NEAR(f[kFeatUniqueFiveTuple], 201.0, 30.0);
  // repeated-in-batch = packets - unique.
  EXPECT_NEAR(f[FeatureIndex(Aggregate::kFiveTuple, Counter::kRepeatedBatch)],
              500.0 - 201.0, 30.0);
}

TEST(Extractor, NewCounterSeparatesFreshFromSeen) {
  PacketFixture first;
  for (uint32_t i = 0; i < 100; ++i) {
    first.Add(10 + i, 2, 1000, 80, net::kProtoTcp);
  }
  first.Finish();
  PacketFixture second;
  for (uint32_t i = 0; i < 100; ++i) {
    second.Add(10 + i, 2, 1000, 80, net::kProtoTcp);  // all seen before
  }
  for (uint32_t i = 0; i < 50; ++i) {
    second.Add(5000 + i, 2, 1000, 80, net::kProtoTcp);  // fresh
  }
  second.Finish();

  FeatureExtractor ex;
  ex.StartInterval();
  (void)ex.Extract(first.packets);
  const FeatureVector f = ex.Extract(second.packets);
  const double new_src = f[FeatureIndex(Aggregate::kSrcIp, Counter::kNew)];
  EXPECT_NEAR(new_src, 50.0, 20.0);
  // repeated-in-interval = packets - new.
  EXPECT_NEAR(f[FeatureIndex(Aggregate::kSrcIp, Counter::kRepeatedInterval)], 100.0, 20.0);
}

TEST(Extractor, StartIntervalResetsNewState) {
  PacketFixture fx;
  for (uint32_t i = 0; i < 100; ++i) {
    fx.Add(10 + i, 2, 1000, 80, net::kProtoTcp);
  }
  fx.Finish();
  FeatureExtractor ex;
  (void)ex.Extract(fx.packets);
  ex.StartInterval();
  const FeatureVector f = ex.Extract(fx.packets);
  // After the reset every key counts as new again.
  EXPECT_NEAR(f[FeatureIndex(Aggregate::kSrcIp, Counter::kNew)], 100.0, 20.0);
}

TEST(Extractor, EmptyBatchGivesZeroVector) {
  trace::PacketVec empty;
  FeatureExtractor ex;
  const FeatureVector f = ex.Extract(empty);
  for (int i = 0; i < kNumFeatures; ++i) {
    EXPECT_NEAR(f[static_cast<size_t>(i)], 0.0, 1e-9) << FeatureName(i);
  }
}

TEST(Extractor, DeterministicForSameSeedAndInput) {
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher b1(t, 100'000);
  trace::Batcher b2(t, 100'000);
  trace::Batch batch1;
  trace::Batch batch2;
  FeatureExtractor e1;
  FeatureExtractor e2;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b1.Next(batch1));
    ASSERT_TRUE(b2.Next(batch2));
    const FeatureVector f1 = e1.Extract(batch1.packets);
    const FeatureVector f2 = e2.Extract(batch2.packets);
    for (int k = 0; k < kNumFeatures; ++k) {
      EXPECT_DOUBLE_EQ(f1[static_cast<size_t>(k)], f2[static_cast<size_t>(k)]);
    }
  }
}

TEST(FusedAggregates, ByteIndicesMatchAggregateKeySerialization) {
  // AggregateByteIndices must describe AggregateKey exactly: extracting the
  // indexed bytes from the canonical serialization yields the materialized
  // key, for every aggregate, over random tuples.
  util::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    net::FiveTuple t;
    t.src_ip = static_cast<uint32_t>(rng.NextU64());
    t.dst_ip = static_cast<uint32_t>(rng.NextU64());
    t.src_port = static_cast<uint16_t>(rng.NextU64());
    t.dst_port = static_cast<uint16_t>(rng.NextU64());
    t.proto = static_cast<uint8_t>(rng.NextU64());
    const auto canonical = t.Bytes();
    for (int a = 0; a < kNumAggregates; ++a) {
      const auto agg = static_cast<Aggregate>(a);
      uint8_t key[13];
      const size_t len = AggregateKey(t, agg, key);
      const auto indices = AggregateByteIndices(agg);
      ASSERT_EQ(indices.size(), len) << AggregateName(agg);
      for (size_t j = 0; j < len; ++j) {
        EXPECT_EQ(canonical[indices[j]], key[j]) << AggregateName(agg) << " byte " << j;
      }
    }
  }
}

TEST(FusedAggregates, FusedHashesMatchPerAggregateReference) {
  // The tentpole equivalence property: one fused pass over the 13 canonical
  // bytes produces, for all ten aggregates, exactly the hash the seed
  // implementation computed via AggregateKey + per-aggregate H3Hash.
  const uint64_t base_seed = 0x5eed;
  const sketch::FusedTupleHasher fused = MakeAggregateHasher(base_seed);
  std::vector<sketch::H3Hash> reference;
  for (int a = 0; a < kNumAggregates; ++a) {
    reference.emplace_back(AggregateHashSeed(base_seed, static_cast<Aggregate>(a)));
  }

  util::Rng rng(32);
  std::array<uint64_t, kNumAggregates> h;
  for (int i = 0; i < 5000; ++i) {
    net::FiveTuple t;
    t.src_ip = static_cast<uint32_t>(rng.NextU64());
    t.dst_ip = static_cast<uint32_t>(rng.NextU64());
    t.src_port = static_cast<uint16_t>(rng.NextU64());
    t.dst_port = static_cast<uint16_t>(rng.NextU64());
    t.proto = static_cast<uint8_t>(rng.NextU64());
    const auto canonical = t.Bytes();
    fused.HashAllFixed<13, kNumAggregates>(canonical.data(), h);
    for (int a = 0; a < kNumAggregates; ++a) {
      uint8_t key[13];
      const size_t len = AggregateKey(t, static_cast<Aggregate>(a), key);
      EXPECT_EQ(h[static_cast<size_t>(a)], reference[static_cast<size_t>(a)].Hash(key, len))
          << AggregateName(static_cast<Aggregate>(a));
    }
  }
}

TEST(Extractor, FusedExtractMatchesReferenceBitExactly) {
  // Extract (tuple index + fused hashes + one fold) and the unfused
  // per-aggregate oracle must produce bit-identical feature vectors,
  // including across interval state carried over multiple batches.
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher b1(t, 100'000);
  trace::Batcher b2(t, 100'000);
  trace::Batch batch1;
  trace::Batch batch2;
  FeatureExtractor fused_ex;
  oracle::ReferenceExtractor reference_ex;
  int bins = 0;
  while (b1.Next(batch1) && b2.Next(batch2)) {
    if (++bins % 10 == 0) {  // exercise interval resets too
      fused_ex.StartInterval();
      reference_ex.StartInterval();
    }
    const FeatureVector f = fused_ex.Extract(batch1.packets);
    const FeatureVector r = reference_ex.Extract(batch2.packets);
    for (int k = 0; k < kNumFeatures; ++k) {
      ASSERT_EQ(f[static_cast<size_t>(k)], r[static_cast<size_t>(k)])
          << "bin " << bins << " feature " << FeatureName(k);
    }
  }
  EXPECT_GT(bins, 20);
}

// Selects each position with probability `rate`: a stand-in for either
// sampler, so the fold is checked on arbitrary ascending subsets.
std::vector<uint32_t> RandomPositions(size_t n, double rate, util::Rng& rng) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < rate) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

trace::PacketVec Gather(const trace::PacketVec& packets, const std::vector<uint32_t>& positions) {
  trace::PacketVec out;
  for (const uint32_t p : positions) {
    out.push_back(packets[p]);
  }
  return out;
}

void ExpectBitIdentical(const FeatureVector& a, const FeatureVector& b, int bin) {
  for (int k = 0; k < kNumFeatures; ++k) {
    EXPECT_EQ(a[static_cast<size_t>(k)], b[static_cast<size_t>(k)])
        << "bin " << bin << " feature " << FeatureName(k);
  }
}

TEST(Extractor, IndexFoldMatchesExtractOnMaterialisedSample) {
  // The per-query re-extraction of the predictive path: a query's extractor
  // folds the shared extraction's tuple index over its kept positions. It
  // must equal Extract() (and the unfused oracle) on the gathered sample,
  // field for field, with the interval state carried across three
  // StartInterval boundaries.
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher batcher(t, 100'000);
  trace::Batch batch;
  FeatureExtractor shared;
  FeatureExtractor folding;
  FeatureExtractor materialised;
  oracle::ReferenceExtractor reference;
  util::Rng rng(41);
  int bins = 0;
  int intervals = 0;
  while (batcher.Next(batch) && bins < 40) {
    if (++bins % 10 == 0) {
      shared.StartInterval();
      folding.StartInterval();
      materialised.StartInterval();
      reference.StartInterval();
      ++intervals;
    }
    (void)shared.Extract(batch.packets);
    const double rate = (bins % 3 == 0) ? 0.0 : 0.1 + 0.2 * static_cast<double>(bins % 4);
    const std::vector<uint32_t> positions = RandomPositions(batch.size(), rate, rng);
    const trace::PacketVec sample = Gather(batch.packets, positions);
    const FeatureVector folded = folding.Extract(shared.index(), positions);
    ExpectBitIdentical(folded, materialised.Extract(sample), bins);
    ExpectBitIdentical(folded, reference.Extract(sample), bins);
  }
  EXPECT_GE(intervals, 3);
}

TEST(Extractor, IndexFoldMatchesOnAllDistinctTuples) {
  // The index's worst case: no packet repeats a 5-tuple (a spoofed SYN
  // flood), so every kept packet inserts its own ten hashes.
  std::vector<net::PacketRecord> records;
  util::Rng rng(43);
  for (uint32_t i = 0; i < 3000; ++i) {
    net::PacketRecord rec;
    rec.tuple = {0x0a000000u + i, 0xc0a80001u, static_cast<uint16_t>(1024 + i % 60000), 80,
                 net::kProtoTcp};
    rec.wire_len = static_cast<uint16_t>(40 + rng.NextBelow(1400));
    records.push_back(rec);
  }
  trace::PacketVec packets;
  for (const auto& rec : records) {
    net::Packet p;
    p.rec = &rec;
    packets.push_back(p);
  }
  FeatureExtractor shared;
  FeatureExtractor folding;
  FeatureExtractor materialised;
  for (int round = 0; round < 6; ++round) {
    if (round == 2 || round == 4) {
      folding.StartInterval();
      materialised.StartInterval();
    }
    (void)shared.Extract(packets);
    ASSERT_EQ(shared.index().num_tuples(), packets.size());
    const std::vector<uint32_t> positions = RandomPositions(packets.size(), 0.26, rng);
    ExpectBitIdentical(folding.Extract(shared.index(), positions),
                       materialised.Extract(Gather(packets, positions)), round);
  }
}

TEST(Extractor, FullIndexFoldMatchesExtract) {
  // The custom-shedding path folds every packet of the shared index through
  // the query's own interval state.
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher batcher(t, 100'000);
  trace::Batch batch;
  FeatureExtractor shared;
  FeatureExtractor folding;
  FeatureExtractor direct;
  for (int bin = 0; bin < 15 && batcher.Next(batch); ++bin) {
    if (bin == 7) {
      folding.StartInterval();
      direct.StartInterval();
    }
    (void)shared.Extract(batch.packets);
    ExpectBitIdentical(folding.Extract(shared.index()), direct.Extract(batch.packets), bin);
  }
}

TEST(Extractor, IndexFoldRejectsForeignSeed) {
  PacketFixture fx;
  fx.Add(1, 2, 3, 4, net::kProtoTcp);
  fx.Finish();
  FeatureExtractor::Config other;
  other.seed = 7;
  FeatureExtractor shared(other);
  (void)shared.Extract(fx.packets);
  FeatureExtractor folding;
  EXPECT_THROW(folding.Extract(shared.index()), std::invalid_argument);
}

TEST(Extractor, RealTrafficUniqueCountsAreConsistent) {
  // On generated traffic the MRB estimates must track exact counts.
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher batcher(t, 100'000);
  trace::Batch batch;
  FeatureExtractor ex;
  int checked = 0;
  while (batcher.Next(batch) && checked < 20) {
    if (batch.size() < 100) {
      continue;
    }
    std::unordered_set<uint32_t> srcs;
    std::unordered_set<net::FiveTuple, net::FiveTupleHash> tuples;
    for (const auto& pkt : batch.packets) {
      srcs.insert(pkt.rec->tuple.src_ip);
      tuples.insert(pkt.rec->tuple);
    }
    const FeatureVector f = ex.Extract(batch.packets);
    EXPECT_NEAR(f[FeatureIndex(Aggregate::kSrcIp, Counter::kUnique)],
                static_cast<double>(srcs.size()),
                std::max(12.0, 0.2 * static_cast<double>(srcs.size())));
    EXPECT_NEAR(f[kFeatUniqueFiveTuple], static_cast<double>(tuples.size()),
                std::max(15.0, 0.2 * static_cast<double>(tuples.size())));
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

}  // namespace
}  // namespace shedmon::features
