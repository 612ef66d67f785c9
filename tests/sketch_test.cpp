#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "src/sketch/bitmap.h"
#include "src/sketch/fused_hash.h"
#include "src/sketch/h3.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace shedmon::sketch {
namespace {

TEST(H3Hash, DeterministicPerSeed) {
  H3Hash a(42);
  H3Hash b(42);
  const uint8_t key[5] = {1, 2, 3, 4, 5};
  EXPECT_EQ(a.Hash(key, 5), b.Hash(key, 5));
}

TEST(H3Hash, DifferentSeedsGiveDifferentFunctions) {
  H3Hash a(1);
  H3Hash b(2);
  const uint8_t key[4] = {9, 9, 9, 9};
  EXPECT_NE(a.Hash(key, 4), b.Hash(key, 4));
}

TEST(H3Hash, SingleByteChangesFlipOutput) {
  H3Hash h(7);
  uint8_t key[8] = {0};
  const uint64_t base = h.Hash(key, 8);
  for (int i = 0; i < 8; ++i) {
    key[i] = 1;
    EXPECT_NE(h.Hash(key, 8), base) << "byte " << i;
    key[i] = 0;
  }
}

TEST(H3Hash, UnitHashInRange) {
  H3Hash h(11);
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    uint64_t k = rng.NextU64();
    uint8_t key[8];
    std::memcpy(key, &k, 8);
    const double u = h.HashUnit(key, 8);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(H3Hash, UnitHashApproximatelyUniform) {
  H3Hash h(13);
  util::Rng rng(5);
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    uint64_t k = rng.NextU64();
    uint8_t key[8];
    std::memcpy(key, &k, 8);
    ++buckets[static_cast<size_t>(h.HashUnit(key, 8) * 10.0)];
  }
  for (int c : buckets) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(H3Hash, PositionSensitivity) {
  // The same byte value at different positions must hash differently, and
  // appending bytes must change the hash (per-position tables).
  H3Hash h(17);
  const uint8_t at0[2] = {0x42, 0x00};
  const uint8_t at1[2] = {0x00, 0x42};
  EXPECT_NE(h.Hash(at0, 2), h.Hash(at1, 2));
  EXPECT_NE(h.Hash(at0, 1), h.Hash(at0, 2));
}

TEST(FusedTupleHasher, SingleFullWidthSubHashMatchesH3) {
  // A sub-hash over every key byte in order must reproduce H3Hash exactly.
  const uint64_t seed = 0xfeedbeef;
  const FusedTupleHasher fused(13, {{seed, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}});
  const H3Hash reference(seed);
  util::Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    uint8_t key[13];
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    EXPECT_EQ(fused.Hash1(key), reference.Hash(key, 13));
    EXPECT_EQ(fused.Hash1Fixed<13>(key), reference.Hash(key, 13));
    EXPECT_DOUBLE_EQ(fused.HashUnit1(key), reference.HashUnit(key, 13));
    EXPECT_DOUBLE_EQ(fused.HashUnit1Fixed<13>(key), reference.HashUnit(key, 13));
  }
}

TEST(FusedTupleHasher, RandomSubKeysMatchMaterializedH3) {
  // Property test over random sub-key patterns: each fused sub-hash must be
  // bit-identical to extracting the sub-key bytes and hashing them with a
  // plain H3Hash of the same seed.
  util::Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t key_len = 2 + rng.NextU64() % 15;  // 2..16
    std::vector<FusedTupleHasher::SubHash> subs;
    const size_t num_subs = 1 + rng.NextU64() % FusedTupleHasher::kMaxFusedHashes;
    for (size_t s = 0; s < num_subs; ++s) {
      FusedTupleHasher::SubHash sub;
      sub.seed = rng.NextU64();
      const size_t sub_len = 1 + rng.NextU64() % key_len;
      for (size_t j = 0; j < sub_len; ++j) {
        sub.key_bytes.push_back(static_cast<uint8_t>(rng.NextU64() % key_len));
      }
      subs.push_back(std::move(sub));
    }
    const FusedTupleHasher fused(key_len, subs);
    ASSERT_EQ(fused.num_hashes(), num_subs);

    std::vector<uint64_t> out(num_subs);
    for (int i = 0; i < 50; ++i) {
      uint8_t key[16];
      for (size_t b = 0; b < key_len; ++b) {
        key[b] = static_cast<uint8_t>(rng.NextU64());
      }
      fused.HashAll(key, out.data());
      for (size_t s = 0; s < num_subs; ++s) {
        const H3Hash reference(subs[s].seed);
        std::vector<uint8_t> sub_key;
        for (const uint8_t pos : subs[s].key_bytes) {
          sub_key.push_back(key[pos]);
        }
        EXPECT_EQ(out[s], reference.Hash(sub_key.data(), sub_key.size()))
            << "trial " << trial << " sub " << s;
      }
    }
  }
}

TEST(FusedTupleHasher, RejectsBadShapes) {
  EXPECT_THROW(FusedTupleHasher(0, {{1, {0}}}), std::invalid_argument);
  EXPECT_THROW(FusedTupleHasher(17, {{1, {0}}}), std::invalid_argument);
  EXPECT_THROW(FusedTupleHasher(4, {}), std::invalid_argument);
  EXPECT_THROW(FusedTupleHasher(4, {{1, {4}}}), std::invalid_argument);
  EXPECT_THROW(FusedTupleHasher(4, {{1, {}}}), std::invalid_argument);
  // A sub-key longer than H3's table (duplicated positions) must be rejected,
  // not read past the end of the seeded tables.
  EXPECT_THROW(
      FusedTupleHasher(4, {{1, {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0}}}),
      std::invalid_argument);
  EXPECT_NO_THROW(FusedTupleHasher(4, {{1, {0, 1, 2, 3}}}));
}

TEST(DirectBitmap, RequiresPowerOfTwo) {
  EXPECT_THROW(DirectBitmap(100), std::invalid_argument);
  EXPECT_NO_THROW(DirectBitmap(128));
}

TEST(DirectBitmap, CountsSmallSetsExactly) {
  DirectBitmap bm(1024);
  // Distinct low bits -> distinct bitmap positions -> near-exact estimate.
  for (uint64_t i = 0; i < 50; ++i) {
    bm.Insert(i);
  }
  EXPECT_EQ(bm.bits_set(), 50u);
  EXPECT_NEAR(bm.Estimate(), 50.0, 2.5);
}

TEST(DirectBitmap, LinearCountingTracksCardinality) {
  for (const int n : {100, 300, 600}) {
    DirectBitmap bm(1024);
    util::Rng rng(n);
    std::unordered_set<uint64_t> keys;
    while (keys.size() < static_cast<size_t>(n)) {
      keys.insert(rng.NextU64());
    }
    for (uint64_t k : keys) {
      bm.Insert(util::HashU64(k));
    }
    EXPECT_NEAR(bm.Estimate(), n, 0.15 * n) << n;
  }
}

TEST(DirectBitmap, DuplicatesDoNotInflate) {
  DirectBitmap bm(256);
  for (int rep = 0; rep < 100; ++rep) {
    bm.Insert(util::HashU64(7));
  }
  EXPECT_EQ(bm.bits_set(), 1u);
}

TEST(DirectBitmap, ClearResets) {
  DirectBitmap bm(256);
  bm.Insert(1);
  bm.Clear();
  EXPECT_EQ(bm.bits_set(), 0u);
  EXPECT_DOUBLE_EQ(bm.Estimate(), 0.0);
}

TEST(DirectBitmap, UnionMatchesSetUnion) {
  DirectBitmap a(512);
  DirectBitmap b(512);
  for (uint64_t i = 0; i < 60; ++i) {
    a.Insert(util::HashU64(i));
  }
  for (uint64_t i = 30; i < 90; ++i) {
    b.Insert(util::HashU64(i));
  }
  a.Union(b);
  EXPECT_NEAR(a.Estimate(), 90.0, 10.0);
}

TEST(DirectBitmap, UnionSizeMismatchThrows) {
  DirectBitmap a(256);
  DirectBitmap b(512);
  EXPECT_THROW(a.Union(b), std::invalid_argument);
}

TEST(MultiResBitmap, RejectsBadComponentCount) {
  EXPECT_THROW(MultiResBitmap(1, 64), std::invalid_argument);
  EXPECT_THROW(MultiResBitmap(31, 64), std::invalid_argument);
}

TEST(MultiResBitmap, EmptyEstimatesZero) {
  MultiResBitmap bm;
  EXPECT_NEAR(bm.Estimate(), 0.0, 1e-9);
}

// Parameterized accuracy sweep: the paper dimensions its bitmaps for ~1%
// counting error; with default sizing we verify better than 12% over four
// orders of magnitude.
class MrbAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(MrbAccuracy, EstimateWithinTolerance) {
  const int n = GetParam();
  MultiResBitmap bm;
  util::Rng rng(static_cast<uint64_t>(n) * 77 + 1);
  std::unordered_set<uint64_t> keys;
  while (keys.size() < static_cast<size_t>(n)) {
    keys.insert(rng.NextU64());
  }
  for (uint64_t k : keys) {
    bm.Insert(k);  // keys are already uniform 64-bit values
  }
  const double est = bm.Estimate();
  EXPECT_NEAR(est, n, std::max(10.0, 0.12 * n)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, MrbAccuracy,
                         ::testing::Values(10, 100, 1000, 5000, 20000, 100000));

TEST(MultiResBitmap, UnionAccumulates) {
  MultiResBitmap a;
  MultiResBitmap b;
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    a.Insert(rng.NextU64());
  }
  for (int i = 0; i < 500; ++i) {
    b.Insert(rng.NextU64());
  }
  const double before = a.Estimate();
  a.Union(b);
  EXPECT_GT(a.Estimate(), before * 1.5);
}

TEST(MultiResBitmap, CountNewMeasuresDisjointKeys) {
  MultiResBitmap interval;
  MultiResBitmap batch;
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    interval.Insert(rng.NextU64());
  }
  // Batch of 300 fresh keys: CountNew should see ~300.
  for (int i = 0; i < 300; ++i) {
    batch.Insert(rng.NextU64());
  }
  EXPECT_NEAR(interval.CountNew(batch), 300.0, 70.0);
}

TEST(MultiResBitmap, CountNewIsZeroForSeenKeys) {
  MultiResBitmap interval;
  MultiResBitmap batch;
  util::Rng rng(8);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(rng.NextU64());
  }
  for (uint64_t k : keys) {
    interval.Insert(k);
  }
  for (int i = 0; i < 100; ++i) {
    batch.Insert(keys[static_cast<size_t>(i)]);
  }
  EXPECT_NEAR(interval.CountNew(batch), 0.0, 20.0);
}

TEST(MultiResBitmap, ClearResetsEstimate) {
  MultiResBitmap bm;
  util::Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    bm.Insert(rng.NextU64());
  }
  bm.Clear();
  EXPECT_NEAR(bm.Estimate(), 0.0, 1e-9);
}

TEST(MultiResBitmap, DeterministicForSameInserts) {
  MultiResBitmap a;
  MultiResBitmap b;
  util::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng.NextU64();
    a.Insert(k);
    b.Insert(k);
  }
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

// ---- Sparse merges and tabled estimator vs a dense recount --------------

// Per-component occupancy recounted from the words with one popcount per
// word: what Union and CountNew computed before they counted only new bits.
std::vector<uint32_t> DenseOccupancy(const MultiResBitmap& bm) {
  const uint32_t comp_words = (bm.component_bits() + 63) / 64;
  std::vector<uint32_t> out(bm.components(), 0);
  for (uint32_t c = 0; c < bm.components(); ++c) {
    for (uint32_t w = 0; w < comp_words; ++w) {
      out[c] += static_cast<uint32_t>(std::popcount(bm.words()[c * comp_words + w]));
    }
  }
  return out;
}

std::vector<uint32_t> DenseMergedOccupancy(const MultiResBitmap& a, const MultiResBitmap& b) {
  const uint32_t comp_words = (a.component_bits() + 63) / 64;
  std::vector<uint32_t> out(a.components(), 0);
  for (uint32_t c = 0; c < a.components(); ++c) {
    for (uint32_t w = 0; w < comp_words; ++w) {
      const size_t i = static_cast<size_t>(c) * comp_words + w;
      out[c] += static_cast<uint32_t>(std::popcount(a.words()[i] | b.words()[i]));
    }
  }
  return out;
}

// The multi-resolution estimator evaluated directly, with a log per
// component and the probabilities summed on the fly.
double DenseEstimate(const std::vector<uint32_t>& set, uint32_t bits) {
  const auto c = static_cast<uint32_t>(set.size());
  const auto setmax = static_cast<uint32_t>(0.93 * static_cast<double>(bits));
  uint32_t base = 0;
  while (base + 1 < c && set[base] > setmax) {
    ++base;
  }
  double estimate_sum = 0.0;
  double probability_sum = 0.0;
  for (uint32_t i = base; i < c; ++i) {
    const uint32_t zeros = bits - set[i];
    estimate_sum += zeros == 0 ? static_cast<double>(bits) * std::log(static_cast<double>(bits))
                               : -static_cast<double>(bits) * std::log(static_cast<double>(zeros) /
                                                                       static_cast<double>(bits));
    probability_sum += (i < c - 1) ? std::ldexp(1.0, -static_cast<int>(i + 1))
                                   : std::ldexp(1.0, -static_cast<int>(c - 1));
  }
  return estimate_sum / probability_sum;
}

// A hash that lands in component `comp` at bit `bit`.
uint64_t HashFor(uint32_t comp, uint32_t bit) {
  const uint64_t ones = comp == 0 ? 0 : ~0ULL << (64 - comp);
  return ones | bit;
}

void FillComponent(MultiResBitmap& bm, uint32_t comp) {
  for (uint32_t bit = 0; bit < bm.component_bits(); ++bit) {
    bm.Insert(HashFor(comp, bit));
  }
}

// Checks every fast path of `a` against `b` bit for bit, then merges.
void ExpectMergeMatchesDense(MultiResBitmap a, const MultiResBitmap& b) {
  const uint32_t bits = a.component_bits();
  EXPECT_EQ(a.Estimate(), DenseEstimate(DenseOccupancy(a), bits));
  EXPECT_EQ(b.Estimate(), DenseEstimate(DenseOccupancy(b), bits));
  const double before = DenseEstimate(DenseOccupancy(a), bits);
  const double after = DenseEstimate(DenseMergedOccupancy(a, b), bits);
  EXPECT_EQ(a.CountNew(b), after > before ? after - before : 0.0);

  std::vector<uint64_t> merged(a.words().begin(), a.words().end());
  for (size_t i = 0; i < merged.size(); ++i) {
    merged[i] |= b.words()[i];
  }
  a.Union(b);
  EXPECT_TRUE(std::equal(merged.begin(), merged.end(), a.words().begin(), a.words().end()));
  EXPECT_EQ(a.Estimate(), DenseEstimate(DenseOccupancy(a), bits));
  EXPECT_EQ(a.Estimate(), after);
  // The merge must leave a consistent occupancy behind for the next one.
  EXPECT_EQ(a.CountNew(b), 0.0);
}

TEST(MultiResBitmapEquivalence, RandomBitmapsMatchDenseRecount) {
  util::Rng rng(61);
  for (const int interval_keys : {0, 30, 700, 5000, 60000}) {
    for (const int batch_keys : {0, 1, 50, 400, 9000}) {
      MultiResBitmap interval;
      MultiResBitmap batch;
      for (int i = 0; i < interval_keys; ++i) {
        interval.Insert(rng.NextU64());
      }
      for (int i = 0; i < batch_keys; ++i) {
        batch.Insert(rng.NextU64());
      }
      SCOPED_TRACE(::testing::Message() << interval_keys << " x " << batch_keys);
      ExpectMergeMatchesDense(interval, batch);
    }
  }
}

TEST(MultiResBitmapEquivalence, EmptyAndSaturatedComponentsMatchDenseRecount) {
  for (const uint32_t components : {2u, 5u, 12u}) {
    for (const uint32_t bits : {64u, 512u}) {
      SCOPED_TRACE(::testing::Message() << components << " x " << bits);
      const MultiResBitmap empty(components, bits);
      ExpectMergeMatchesDense(empty, empty);

      // Saturated low components push the estimator's base upwards, through
      // every component including the last.
      MultiResBitmap low(components, bits);
      MultiResBitmap all(components, bits);
      for (uint32_t c = 0; c < components; ++c) {
        FillComponent(all, c);
        if (c + 1 < components) {
          FillComponent(low, c);
        }
      }
      ExpectMergeMatchesDense(empty, low);
      ExpectMergeMatchesDense(low, empty);
      ExpectMergeMatchesDense(low, all);
      ExpectMergeMatchesDense(all, low);
      ExpectMergeMatchesDense(all, all);

      // Every occupancy of one component, from one bit to full.
      MultiResBitmap partial(components, bits);
      util::Rng rng(components * 1000 + bits);
      for (uint32_t bit = 0; bit < bits; ++bit) {
        MultiResBitmap one(components, bits);
        one.Insert(HashFor(0, bit));
        one.Insert(HashFor(components - 1, static_cast<uint32_t>(rng.NextBelow(bits))));
        ExpectMergeMatchesDense(partial, one);
        partial.Union(one);
      }
      EXPECT_EQ(DenseOccupancy(partial)[0], bits);
    }
  }
}

}  // namespace
}  // namespace shedmon::sketch
