#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/features/features.h"
#include "src/predict/engine.h"
#include "src/predict/fcbf.h"
#include "src/predict/linalg.h"
#include "src/predict/predictors.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace shedmon::predict {
namespace {

using features::FeatureVector;
using features::kFeatBytes;
using features::kFeatNewFiveTuple;
using features::kFeatPackets;

TEST(Svd, SolvesExactSquareSystem) {
  // [1 1; 1 2] x = [3; 5] -> x = [1, 2].
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 1;
  a.At(1, 0) = 1;
  a.At(1, 1) = 2;
  const auto r = SolveLeastSquaresSvd(a, {3.0, 5.0});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rank, 2);
  EXPECT_NEAR(r.coef[0], 1.0, 1e-9);
  EXPECT_NEAR(r.coef[1], 2.0, 1e-9);
}

TEST(Svd, LeastSquaresOverdetermined) {
  // y = 2x with one noisy point; OLS slope is known in closed form.
  Matrix a(4, 1);
  std::vector<double> y(4);
  const double xs[4] = {1, 2, 3, 4};
  const double ys[4] = {2, 4, 6, 9};
  double sxy = 0.0;
  double sxx = 0.0;
  for (int i = 0; i < 4; ++i) {
    a.At(static_cast<size_t>(i), 0) = xs[i];
    y[static_cast<size_t>(i)] = ys[i];
    sxy += xs[i] * ys[i];
    sxx += xs[i] * xs[i];
  }
  const auto r = SolveLeastSquaresSvd(a, y);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.coef[0], sxy / sxx, 1e-9);
}

TEST(Svd, HandlesDuplicatedColumns) {
  // Two identical columns: rank 1; pseudo-inverse splits the weight evenly.
  Matrix a(4, 2);
  for (size_t i = 0; i < 4; ++i) {
    a.At(i, 0) = static_cast<double>(i + 1);
    a.At(i, 1) = static_cast<double>(i + 1);
  }
  const std::vector<double> y = {2, 4, 6, 8};
  const auto r = SolveLeastSquaresSvd(a, y);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rank, 1);
  EXPECT_NEAR(r.coef[0], 1.0, 1e-9);
  EXPECT_NEAR(r.coef[1], 1.0, 1e-9);
  // Residual must be zero: the system is consistent.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(a.At(i, 0) * r.coef[0] + a.At(i, 1) * r.coef[1], y[i], 1e-9);
  }
}

TEST(Svd, UnderdeterminedReturnsMinimumNorm) {
  // One equation, two unknowns: x0 + x1 = 4 -> min-norm solution (2, 2).
  Matrix a(1, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 1;
  const auto r = SolveLeastSquaresSvd(a, {4.0});
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.coef[0], 2.0, 1e-9);
  EXPECT_NEAR(r.coef[1], 2.0, 1e-9);
}

TEST(Svd, LargeRandomSystemResidualIsOptimal) {
  // Residual of SVD solution must be orthogonal to the column space.
  util::Rng rng(5);
  const size_t n = 60;
  const size_t p = 8;
  Matrix a(n, p);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < p; ++j) {
      a.At(i, j) = rng.NextGaussian();
    }
    y[i] = rng.NextGaussian();
  }
  const auto r = SolveLeastSquaresSvd(a, y);
  ASSERT_TRUE(r.ok);
  std::vector<double> resid(n);
  for (size_t i = 0; i < n; ++i) {
    double pred = 0.0;
    for (size_t j = 0; j < p; ++j) {
      pred += a.At(i, j) * r.coef[j];
    }
    resid[i] = y[i] - pred;
  }
  for (size_t j = 0; j < p; ++j) {
    double dot = 0.0;
    for (size_t i = 0; i < n; ++i) {
      dot += a.At(i, j) * resid[i];
    }
    EXPECT_NEAR(dot, 0.0, 1e-6) << "column " << j;
  }
}

TEST(Svd, EmptyInputsRejected) {
  Matrix a;
  const auto r = SolveLeastSquaresSvd(a, {});
  EXPECT_FALSE(r.ok);
  Matrix b(2, 1);
  EXPECT_THROW(SolveLeastSquaresSvd(b, {1.0}), std::invalid_argument);
}

Matrix MakeFeatureMatrix(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      m.At(r, c) = rows[r][c];
    }
  }
  return m;
}

TEST(Fcbf, SelectsTheRelevantFeature) {
  // Column 0 = y exactly, column 1 = noise, column 2 = constant.
  util::Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    const double v = static_cast<double>(i);
    rows.push_back({v, rng.NextGaussian() * 100.0, 7.0});
    y.push_back(3.0 * v);
  }
  const auto r = SelectFeatures(MakeFeatureMatrix(rows), y, 0.6);
  ASSERT_FALSE(r.selected.empty());
  EXPECT_EQ(r.selected[0], 0);
  for (int s : r.selected) {
    EXPECT_NE(s, 2);  // constants are never relevant
  }
}

TEST(Fcbf, RemovesRedundantCopies) {
  // Columns 0 and 1 are identical and both perfectly relevant; only one may
  // survive the redundancy phase.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    const double v = static_cast<double>(i);
    rows.push_back({v, v, 30.0 - v});
    y.push_back(v);
  }
  const auto r = SelectFeatures(MakeFeatureMatrix(rows), y, 0.5);
  int copies = 0;
  for (int s : r.selected) {
    if (s == 0 || s == 1) {
      ++copies;
    }
  }
  EXPECT_EQ(copies, 1);
}

TEST(Fcbf, FallsBackToBestFeatureWhenThresholdTooHigh) {
  util::Rng rng(9);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double v = static_cast<double>(i);
    // Weak but nonzero correlation in column 1.
    rows.push_back({rng.NextGaussian(), v + rng.NextGaussian() * 30.0});
    y.push_back(v);
  }
  const auto r = SelectFeatures(MakeFeatureMatrix(rows), y, 0.99);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0], 1);
}

TEST(Fcbf, HigherThresholdSelectsFewer) {
  util::Rng rng(13);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    const double v = static_cast<double>(i);
    rows.push_back({v + rng.NextGaussian() * 2.0, v + rng.NextGaussian() * 20.0,
                    v + rng.NextGaussian() * 60.0, rng.NextGaussian() * 10.0});
    y.push_back(v);
  }
  const auto low = SelectFeatures(MakeFeatureMatrix(rows), y, 0.1);
  const auto high = SelectFeatures(MakeFeatureMatrix(rows), y, 0.95);
  EXPECT_GE(low.selected.size(), high.selected.size());
}

// FCBF as pairwise util::PearsonCorrelation calls over materialized
// columns: the definition SelectFeatures' centred-matrix sums must match bit
// for bit.
FcbfResult ReferenceSelectFeatures(const Matrix& x, const std::vector<double>& y,
                                   double threshold) {
  FcbfResult result;
  const size_t p = x.cols();
  result.relevance.assign(p, 0.0);
  if (p == 0 || x.rows() < 2) {
    return result;
  }
  std::vector<std::vector<double>> cols(p, std::vector<double>(x.rows()));
  for (size_t c = 0; c < p; ++c) {
    for (size_t r = 0; r < x.rows(); ++r) {
      cols[c][r] = x.At(r, c);
    }
    result.relevance[c] = std::abs(util::PearsonCorrelation(cols[c], y));
  }
  std::vector<int> ranked;
  for (size_t c = 0; c < p; ++c) {
    if (result.relevance[c] >= threshold && result.relevance[c] > 0.0) {
      ranked.push_back(static_cast<int>(c));
    }
  }
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    return result.relevance[static_cast<size_t>(a)] > result.relevance[static_cast<size_t>(b)];
  });
  if (ranked.empty()) {
    const auto best = std::max_element(result.relevance.begin(), result.relevance.end());
    if (*best > 0.0) {
      result.selected.push_back(static_cast<int>(best - result.relevance.begin()));
    }
    return result;
  }
  std::vector<bool> removed(ranked.size(), false);
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (removed[i]) {
      continue;
    }
    const auto fi = static_cast<size_t>(ranked[i]);
    for (size_t j = i + 1; j < ranked.size(); ++j) {
      const auto fj = static_cast<size_t>(ranked[j]);
      if (!removed[j] &&
          std::abs(util::PearsonCorrelation(cols[fi], cols[fj])) >= result.relevance[fj]) {
        removed[j] = true;
      }
    }
  }
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (!removed[i]) {
      result.selected.push_back(ranked[i]);
    }
  }
  return result;
}

void ExpectFcbfMatchesReference(const Matrix& x, const std::vector<double>& y) {
  for (const double threshold : {0.0, 0.3, 0.6, 0.9, 0.999}) {
    const FcbfResult fast = SelectFeatures(x, y, threshold);
    const FcbfResult ref = ReferenceSelectFeatures(x, y, threshold);
    ASSERT_EQ(fast.relevance.size(), ref.relevance.size());
    for (size_t c = 0; c < ref.relevance.size(); ++c) {
      EXPECT_EQ(fast.relevance[c], ref.relevance[c]) << "column " << c;
    }
    EXPECT_EQ(fast.selected, ref.selected) << "threshold " << threshold;
  }
}

TEST(Fcbf, MatchesPairwisePearsonReferenceOnRandomWindows) {
  util::Rng rng(71);
  for (const size_t rows : {2, 3, 17, 60, 120}) {
    Matrix x(rows, features::kNumFeatures);
    std::vector<double> y(rows);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < x.cols(); ++c) {
        // Feature-like scales: counts from tens to hundreds of thousands.
        x.At(r, c) = rng.NextDouble() * std::ldexp(1.0, static_cast<int>(c % 18));
      }
      y[r] = 40.0 * x.At(r, 0) + 3.0 * x.At(r, 5) + rng.NextGaussian() * 1e3;
    }
    SCOPED_TRACE(rows);
    ExpectFcbfMatchesReference(x, y);
  }
}

TEST(Fcbf, MatchesPairwisePearsonReferenceOnCollinearAndConstantColumns) {
  // A SYN-flood-like window: many features are exact multiples or affine
  // copies of each other, some are constant, and the redundancy phase has
  // ties to break.
  util::Rng rng(73);
  const size_t rows = 60;
  Matrix x(rows, features::kNumFeatures);
  std::vector<double> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    const double pkts = 100.0 + rng.NextDouble() * 900.0;
    for (size_t c = 0; c < x.cols(); ++c) {
      switch (c % 6) {
        case 0: x.At(r, c) = pkts; break;
        case 1: x.At(r, c) = pkts * static_cast<double>(c); break;
        case 2: x.At(r, c) = 7.0; break;  // constant
        case 3: x.At(r, c) = 3.0 * pkts + 11.0; break;
        case 4: x.At(r, c) = 0.0; break;  // all-zero
        default: x.At(r, c) = pkts + rng.NextGaussian(); break;
      }
    }
    y[r] = 40.0 * pkts;
  }
  ExpectFcbfMatchesReference(x, y);

  // A constant response: every relevance is zero and nothing is selected.
  std::vector<double> flat(rows, 5.0);
  ExpectFcbfMatchesReference(x, flat);
  EXPECT_TRUE(SelectFeatures(x, flat, 0.5).selected.empty());
}

FeatureVector MakeFeatures(double pkts, double bytes, double new5t) {
  FeatureVector f{};
  f[kFeatPackets] = pkts;
  f[kFeatBytes] = bytes;
  f[kFeatNewFiveTuple] = new5t;
  return f;
}

TEST(EwmaPredictorTest, TracksConstantSignal) {
  EwmaPredictor p(0.3);
  for (int i = 0; i < 20; ++i) {
    p.Observe(MakeFeatures(100, 1000, 10), 5000.0);
  }
  EXPECT_NEAR(p.Predict(MakeFeatures(500, 5000, 50)), 5000.0, 1e-6);
}

TEST(EwmaPredictorTest, CannotAnticipateInputChanges) {
  // The paper's core observation (Fig. 3.9): EWMA ignores the traffic, so a
  // sudden surge in packets is invisible until after it has cost cycles.
  EwmaPredictor p(0.3);
  for (int i = 0; i < 50; ++i) {
    p.Observe(MakeFeatures(100, 1000, 10), 1000.0);
  }
  const double pred_surge = p.Predict(MakeFeatures(1000, 10000, 100));
  EXPECT_NEAR(pred_surge, 1000.0, 1e-6);  // blind to the 10x input surge
}

TEST(SlrPredictorTest, RecoversLinearPacketCost) {
  SlrPredictor p(kFeatPackets, 60);
  util::Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 400.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 500.0 + 30.0 * pkts);
  }
  const double pred = p.Predict(MakeFeatures(300, 3000, 5));
  EXPECT_NEAR(pred, 500.0 + 30.0 * 300.0, 200.0);
}

TEST(SlrPredictorTest, MissesCostsDrivenByOtherFeatures) {
  // Cost depends on new flows while packets stay constant: SLR on packets
  // must fail (the Fig. 3.14 failure mode).
  SlrPredictor p(kFeatPackets, 60);
  util::Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    const double flows = (i % 2 == 0) ? 10.0 : 500.0;
    p.Observe(MakeFeatures(200, 2000, flows), 100.0 * flows);
  }
  const double pred_attack = p.Predict(MakeFeatures(200, 2000, 500));
  EXPECT_GT(util::RelativeError(pred_attack, 100.0 * 500.0), 0.30);
}

TEST(MlrPredictorTest, LearnsMultiFeatureCost) {
  MlrPredictor::Config cfg;
  cfg.history = 60;
  // Both drivers must clear the relevance filter: the packet term explains
  // only ~25% of the variance here, so the threshold sits below that.
  cfg.fcbf_threshold = 0.15;
  MlrPredictor p(cfg);
  util::Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 400.0;
    const double new5t = 10.0 + rng.NextDouble() * 200.0;
    p.Observe(MakeFeatures(pkts, pkts * 8, new5t), 20.0 * pkts + 150.0 * new5t);
  }
  const double pred = p.Predict(MakeFeatures(250, 2000, 100));
  EXPECT_NEAR(pred, 20.0 * 250 + 150.0 * 100, 0.05 * (20.0 * 250 + 150.0 * 100));
}

TEST(MlrPredictorTest, AnticipatesFlowAnomalyUnlikeSlr) {
  // Reproduces the §3.4.3 comparison in miniature: cost = f(new flows);
  // during a spoofed DDoS the flow count explodes while packets stay flat.
  MlrPredictor::Config cfg;
  cfg.fcbf_threshold = 0.6;
  MlrPredictor mlr(cfg);
  SlrPredictor slr(kFeatPackets, 60);
  util::Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    const double pkts = 180.0 + rng.NextDouble() * 40.0;  // nearly flat
    const double new5t = 20.0 + rng.NextDouble() * 180.0;
    const double cost = 10.0 * pkts + 120.0 * new5t;
    const auto f = MakeFeatures(pkts, pkts * 8, new5t);
    mlr.Observe(f, cost);
    slr.Observe(f, cost);
  }
  const auto attack = MakeFeatures(200, 1600, 2000);  // flow explosion
  const double truth = 10.0 * 200 + 120.0 * 2000;
  EXPECT_LT(util::RelativeError(mlr.Predict(attack), truth), 0.10);
  EXPECT_GT(util::RelativeError(slr.Predict(attack), truth), 0.50);
}

TEST(MlrPredictorTest, SelectionCountsAccumulate) {
  MlrPredictor p;
  util::Rng rng(19);
  for (int i = 0; i < 30; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 40.0 * pkts);
  }
  EXPECT_FALSE(p.selection_counts().empty());
  EXPECT_FALSE(p.last_selected().empty());
}

TEST(MlrPredictorTest, ColdStartReturnsHistoryMean) {
  MlrPredictor p;
  EXPECT_DOUBLE_EQ(p.Predict(MakeFeatures(100, 1000, 5)), 0.0);
  p.Observe(MakeFeatures(100, 1000, 5), 4000.0);
  p.Observe(MakeFeatures(100, 1000, 5), 6000.0);
  EXPECT_NEAR(p.Predict(MakeFeatures(100, 1000, 5)), 5000.0, 1e-6);
}

TEST(MlrPredictorTest, AmendLastObservationScrubsCorruption) {
  MlrPredictor p;
  util::Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 40.0 * pkts);
  }
  // A "context switch" corrupts the last measurement with a huge value.
  p.Observe(MakeFeatures(150, 1500, 5), 1e9);
  p.AmendLastObservation(40.0 * 150.0);
  const double pred = p.Predict(MakeFeatures(150, 1500, 5));
  EXPECT_NEAR(pred, 6000.0, 600.0);
}

TEST(MlrPredictorTest, SlidingWindowForgetsOldRegime) {
  MlrPredictor::Config cfg;
  cfg.history = 30;
  MlrPredictor p(cfg);
  util::Rng rng(29);
  // Regime 1: expensive per packet.
  for (int i = 0; i < 30; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 100.0 * pkts);
  }
  // Regime 2: cheap per packet; window is fully replaced.
  for (int i = 0; i < 30; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 10.0 * pkts);
  }
  EXPECT_NEAR(p.Predict(MakeFeatures(200, 2000, 5)), 2000.0, 300.0);
}

TEST(PredictorFactory, BuildsAllKinds) {
  PredictorConfig cfg;
  cfg.kind = PredictorKind::kMlr;
  EXPECT_EQ(MakePredictor(cfg)->name(), "mlr+fcbf");
  cfg.kind = PredictorKind::kSlr;
  EXPECT_EQ(MakePredictor(cfg)->name(), "slr");
  cfg.kind = PredictorKind::kEwma;
  EXPECT_EQ(MakePredictor(cfg)->name(), "ewma");
}

TEST(PredictionEngineTest, EndToEndPredictObserve) {
  PredictorConfig cfg;
  features::FeatureExtractor::Config ex;
  PredictionEngine engine(cfg, ex);
  util::Rng rng(31);
  for (int i = 0; i < 30; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    engine.ObserveActual(MakeFeatures(pkts, pkts * 10, 5), 25.0 * pkts);
  }
  const double pred = engine.PredictCycles(MakeFeatures(160, 1600, 5));
  EXPECT_NEAR(pred, 4000.0, 400.0);
  EXPECT_NE(engine.mlr(), nullptr);
}

// Parameterized: MLR accuracy as a function of history length (the Fig. 3.5
// experiment's left half as a property — more history up to ~30 observations
// must not make prediction dramatically worse on stationary inputs).
class MlrHistorySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MlrHistorySweep, StationaryErrorStaysSmall) {
  MlrPredictor::Config cfg;
  cfg.history = GetParam();
  cfg.fcbf_threshold = 0.2;  // keep the weaker (packet) driver selected
  MlrPredictor p(cfg);
  util::Rng rng(37 + GetParam());
  util::RunningStats err;
  for (int i = 0; i < 150; ++i) {
    const double pkts = 200.0 + rng.NextDouble() * 200.0;
    const double new5t = 20.0 + rng.NextDouble() * 50.0;
    const auto f = MakeFeatures(pkts, pkts * 9, new5t);
    const double truth = 15.0 * pkts + 90.0 * new5t;
    if (i > 30) {
      err.Add(util::RelativeError(p.Predict(f), truth));
    }
    p.Observe(f, truth * (1.0 + 0.01 * rng.NextGaussian()));
  }
  EXPECT_LT(err.mean(), 0.05) << "history=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Histories, MlrHistorySweep, ::testing::Values(10, 30, 60, 120));

}  // namespace
}  // namespace shedmon::predict
