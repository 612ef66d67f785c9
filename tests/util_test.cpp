#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/cycle_clock.h"
#include "src/util/ewma.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace shedmon::util {
namespace {

TEST(CycleClock, MonotonicNonDecreasing) {
  const uint64_t a = ReadCycles();
  const uint64_t b = ReadCycles();
  EXPECT_GE(b, a);
}

TEST(CycleClock, TimerMeasuresWork) {
  CycleTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(timer.Elapsed(), 0u);
  (void)sink;
}

TEST(CycleClock, CalibrationPositive) { EXPECT_GT(CyclesPerSecond(), 1e6); }

TEST(Ewma, FirstObservationSeeds) {
  Ewma e(0.5);
  EXPECT_FALSE(e.seeded());
  e.Update(10.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, BlendsWithAlpha) {
  Ewma e(0.25, 0.0);
  e.Update(8.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.0);
  e.Update(2.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.0);
}

TEST(Ewma, HighAlphaTracksFast) {
  Ewma fast(0.9);
  Ewma slow(0.1);
  for (int i = 0; i < 5; ++i) {
    fast.Update(100.0);
    slow.Update(100.0);
  }
  fast.Update(0.0);
  slow.Update(0.0);
  EXPECT_LT(fast.value(), slow.value());
}

TEST(Ewma, ResetClearsState) {
  Ewma e(0.5);
  e.Update(5.0);
  e.Reset();
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 0.0);
}

TEST(RunningStats, MeanStdevMatchDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), xs.size());
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 0.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 0.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
}

TEST(Percentile, EmptyReturnsZero) { EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0); }

TEST(EmpiricalCdf, CoversRangeAndIsMonotone) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(static_cast<double>(i));
  }
  const auto cdf = EmpiricalCdf(v, 11);
  ASSERT_EQ(cdf.size(), 11u);
  EXPECT_DOUBLE_EQ(cdf.front().x, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().x, 100.0);
  EXPECT_DOUBLE_EQ(cdf.back().f, 1.0);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].f, cdf[i - 1].f);
  }
}

TEST(RelativeError, MatchesPaperDefinition) {
  EXPECT_NEAR(RelativeError(90.0, 100.0), 0.1, 1e-12);
  EXPECT_NEAR(RelativeError(110.0, 100.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RelativeError(5.0, 0.0), 1.0);
}

TEST(PearsonCorrelation, PerfectAndInverse) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  std::vector<double> neg;
  for (double v : y) {
    neg.push_back(-v);
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, neg), -1.0, 1e-12);
}

TEST(PearsonCorrelation, ConstantSeriesGivesZero) {
  const std::vector<double> x = {3, 3, 3, 3};
  const std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
  // Ten copies of a value whose mean does not round back to it: the centred
  // values are 1 ulp off zero, which must not read as a correlation with a
  // ramp whose own centred values do not sum to exactly 0.
  const std::vector<double> flat(10, 2.0039164524218003);
  std::vector<double> ramp(10);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = 0.1 * static_cast<double>(i);
  }
  EXPECT_EQ(PearsonCorrelation(flat, ramp), 0.0);
  EXPECT_EQ(PearsonCorrelation(ramp, flat), 0.0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyInverseRate) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.Add(rng.NextExponential(4.0));
  }
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.NextBoundedPareto(2.0, 500.0, 1.2);
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 500.0);
  }
}

TEST(Rng, BoundedParetoIsHeavyTailed) {
  Rng rng(17);
  size_t above_10x_min = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBoundedPareto(1.0, 10000.0, 1.1) > 10.0) {
      ++above_10x_min;
    }
  }
  // P(X > 10) ~ 10^-1.1 ~ 7.9% for a heavy tail; exponential would be ~0.
  EXPECT_GT(above_10x_min, static_cast<size_t>(0.04 * n));
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stdev(), 1.0, 0.02);
}

TEST(ZipfSampler, SkewsTowardLowRanks) {
  Rng rng(23);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 10 * counts[99] / 2 + 1);
}

TEST(ZipfSampler, RejectsEmpty) { EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument); }

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "long-header"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(FmtPercent(0.1234, 1), "12.3%");
  EXPECT_NE(FmtSci(12345.0).find("e+"), std::string::npos);
}

TEST(SplitMix, HashIsStable) {
  EXPECT_EQ(HashU64(42), HashU64(42));
  EXPECT_NE(HashU64(42), HashU64(43));
}

}  // namespace
}  // namespace shedmon::util
