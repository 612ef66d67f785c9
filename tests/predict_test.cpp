#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/features/extractor.h"
#include "src/features/features.h"
#include "src/obs/snapshot.h"
#include "src/predict/engine.h"
#include "src/predict/fcbf.h"
#include "src/predict/predictors.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "tests/reference_predictor.h"

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
  const auto r = oracle::SolveLeastSquaresSvd(a, {3.0, 5.0});
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
  const auto r = oracle::SolveLeastSquaresSvd(a, y);
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
  const auto r = oracle::SolveLeastSquaresSvd(a, y);
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
  const auto r = oracle::SolveLeastSquaresSvd(a, {4.0});
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
  const auto r = oracle::SolveLeastSquaresSvd(a, y);
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
  const auto r = oracle::SolveLeastSquaresSvd(a, {});
  EXPECT_FALSE(r.ok);
  Matrix b(2, 1);
  EXPECT_THROW(oracle::SolveLeastSquaresSvd(b, {1.0}), std::invalid_argument);
}

// Production FCBF over the window's exact centred co-moments.
FcbfResult Select(const Matrix& x, const std::vector<double>& y, double threshold) {
  return SelectFeatures(oracle::CentredComoments(x, y), threshold);
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
  const auto r = Select(MakeFeatureMatrix(rows), y, 0.6);
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
  const auto r = Select(MakeFeatureMatrix(rows), y, 0.5);
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
  const auto r = Select(MakeFeatureMatrix(rows), y, 0.99);
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
  const auto low = Select(MakeFeatureMatrix(rows), y, 0.1);
  const auto high = Select(MakeFeatureMatrix(rows), y, 0.95);
  EXPECT_GE(low.selected.size(), high.selected.size());
}

void ExpectFcbfMatchesReference(const Matrix& x, const std::vector<double>& y) {
  for (const double threshold : {0.0, 0.3, 0.6, 0.9, 0.999}) {
    const FcbfResult fast = Select(x, y, threshold);
    const FcbfResult ref = oracle::SelectFeatures(x, y, threshold);
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
  EXPECT_TRUE(Select(x, flat, 0.5).selected.empty());
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


// ---------------------------------------------------------------------------
// SymmetricEigen: the normal-equations solver under MlrPredictor
// ---------------------------------------------------------------------------

void ExpectEigenDecomposes(const SymmetricMatrix& a) {
  const size_t p = a.size();
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_EQ(eig.values.size(), p);
  double norm = 0.0;
  for (const double x : a.packed()) {
    norm = std::max(norm, std::abs(x));
  }
  for (size_t k = 0; k < p; ++k) {
    for (size_t i = 0; i < p; ++i) {
      double av = 0.0;  // (A v_k)_i
      for (size_t j = 0; j < p; ++j) {
        av += a.At(i, j) * eig.vectors.At(j, k);
      }
      EXPECT_NEAR(av, eig.values[k] * eig.vectors.At(i, k), 1e-12 * norm) << k << "," << i;
    }
    for (size_t l = 0; l < p; ++l) {
      double dot = 0.0;
      for (size_t i = 0; i < p; ++i) {
        dot += eig.vectors.At(i, k) * eig.vectors.At(i, l);
      }
      EXPECT_NEAR(dot, k == l ? 1.0 : 0.0, 1e-12) << k << "," << l;
    }
  }
}

TEST(SymmetricEigen, DiagonalizesRandomAndRankDeficientMatrices) {
  util::Rng rng(41);
  const size_t p = 8;
  Matrix g(12, p);  // 12 random rows -> a full-rank Gram matrix
  for (size_t r = 0; r < g.rows(); ++r) {
    for (size_t c = 0; c < p; ++c) {
      g.At(r, c) = rng.NextGaussian();
    }
  }
  SymmetricMatrix gram(p);
  SymmetricMatrix low(p);  // Gram matrix of the first 3 rows only: rank 3
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      for (size_t r = 0; r < g.rows(); ++r) {
        gram.At(i, j) += g.At(r, i) * g.At(r, j);
        if (r < 3) {
          low.At(i, j) += g.At(r, i) * g.At(r, j);
        }
      }
    }
  }
  ExpectEigenDecomposes(gram);
  ExpectEigenDecomposes(low);
  const EigenDecomposition eig = SymmetricEigen(low);
  const double lmax = *std::max_element(eig.values.begin(), eig.values.end());
  const auto tiny = std::count_if(eig.values.begin(), eig.values.end(),
                                  [&](double v) { return std::abs(v) <= 1e-12 * lmax; });
  EXPECT_EQ(tiny, 5);
}

// ---------------------------------------------------------------------------
// MlrParity: running-moment refit vs the from-scratch reference
// ---------------------------------------------------------------------------

using Observation = std::pair<FeatureVector, double>;

struct ParityReport {
  size_t steps = 0;
  double max_rel = 0.0;             // largest prediction gap relative to the prediction
  std::vector<size_t> differ_at;    // steps whose selected sets differ
  std::vector<std::pair<std::vector<int>, std::vector<int>>> differences;
  // Differing steps where some column kept by one side only is not a
  // near-exact copy (|r| >= 1 - 1e-9 over the window) of a column the other
  // side keeps.
  std::vector<size_t> unexplained;
};

// Whether `column`, kept by one side only, is a tie the two sides may break
// differently: a near-exact copy of a column in `other`, the other side's
// selection.
bool IsTie(int column, const std::vector<int>& other, const std::deque<Observation>& window) {
  const auto values = [&window](int c) {
    std::vector<double> v;
    for (const auto& [f, y] : window) {
      v.push_back(f[static_cast<size_t>(c)]);
    }
    return v;
  };
  const std::vector<double> v = values(column);
  return std::any_of(other.begin(), other.end(), [&](int c) {
    return std::abs(util::PearsonCorrelation(v, values(c))) >= 1.0 - 1e-9;
  });
}

// Feeds the same observations to MlrPredictor and the reference; before each
// observation both predict its features, and the gap is taken relative to
// the larger of the two predictions.
ParityReport RunParity(const MlrPredictor::Config& cfg, const std::vector<Observation>& seq) {
  MlrPredictor fast(cfg);
  oracle::ReferenceMlrPredictor ref(cfg);
  ParityReport report;
  std::deque<Observation> window;
  for (const auto& [f, cycles] : seq) {
    const double a = fast.Predict(f);
    const double b = ref.Predict(f);
    const double scale = std::max(std::abs(a), std::abs(b));
    if (scale > 0.0) {
      report.max_rel = std::max(report.max_rel, std::abs(a - b) / scale);
    }
    fast.Observe(f, cycles);
    ref.Observe(f, cycles);
    window.emplace_back(f, cycles);
    if (window.size() > cfg.history) {
      window.pop_front();
    }
    const std::vector<int>& kept = fast.last_selected();
    const std::vector<int>& ref_kept = ref.last_selected();
    if (kept != ref_kept) {
      report.differ_at.push_back(report.steps);
      report.differences.emplace_back(kept, ref_kept);
      const auto explained = [&window](const std::vector<int>& mine,
                                       const std::vector<int>& theirs) {
        return std::all_of(mine.begin(), mine.end(), [&](int c) {
          return std::find(theirs.begin(), theirs.end(), c) != theirs.end() ||
                 IsTie(c, theirs, window);
        });
      };
      if (!explained(kept, ref_kept) || !explained(ref_kept, kept)) {
        report.unexplained.push_back(report.steps);
      }
    }
    ++report.steps;
  }
  return report;
}

std::string Describe(const std::vector<int>& v) {
  std::ostringstream out;
  for (const int x : v) {
    out << x << ' ';
  }
  return out.str();
}

// Requires predictions within 1e-9 of the reference's at every step. Without
// `name_near_ties` the selected sets must also be equal at every step; with
// it, the steps where they differ are named instead, and each must be
// explained by ties (see IsTie): columns that are near-exact copies of each
// other over the window tie on every correlation, and which copy survives
// then rests on rounding, in the reference as much as here.
void ExpectParity(const MlrPredictor::Config& cfg, const std::vector<Observation>& seq,
                  bool name_near_ties = false) {
  SCOPED_TRACE("history " + std::to_string(cfg.history) + " threshold " +
               std::to_string(cfg.fcbf_threshold));
  const ParityReport report = RunParity(cfg, seq);
  std::cout << "[ parity   ] history " << cfg.history << " threshold " << cfg.fcbf_threshold
            << ": largest relative gap " << report.max_rel << " over " << report.steps
            << " observations, " << report.differ_at.size() << " select differently\n";
  EXPECT_EQ(report.steps, seq.size());
  EXPECT_LE(report.max_rel, 1e-9);
  if (!name_near_ties) {
    EXPECT_TRUE(report.differ_at.empty())
        << report.differ_at.size() << " steps select differently, first at step "
        << report.differ_at.front() << ": " << Describe(report.differences.front().first)
        << "vs reference " << Describe(report.differences.front().second);
    return;
  }
  for (size_t d = 0; d < report.differ_at.size(); ++d) {
    const auto& [fast, ref] = report.differences[d];
    std::cout << "[ near-tie ] step " << report.differ_at[d] << ": keeps " << Describe(fast)
              << "where the reference keeps " << Describe(ref) << "\n";
  }
  EXPECT_TRUE(report.unexplained.empty())
      << report.unexplained.size() << " steps select differently beyond ties, first at step "
      << report.unexplained.front();
}

TEST(MlrParity, RandomWindowsMatchTheReference) {
  // The Fcbf random-window fixture as an observation stream: feature-like
  // scales from units to 1e5, a response driven by two of them.
  util::Rng rng(71);
  std::vector<Observation> seq(240);
  for (auto& [f, y] : seq) {
    for (size_t c = 0; c < f.size(); ++c) {
      f[c] = rng.NextDouble() * std::ldexp(1.0, static_cast<int>(c % 18));
    }
    y = 40.0 * f[0] + 3.0 * f[5] + rng.NextGaussian() * 1e3;
  }
  for (const size_t history : {30, 60, 120}) {
    for (const double threshold : {0.0, 0.3, 0.6, 0.9}) {
      MlrPredictor::Config cfg;
      cfg.history = history;
      cfg.fcbf_threshold = threshold;
      ExpectParity(cfg, seq);
    }
  }
}

TEST(MlrParity, TraceFeatureVectorsMatchTheReference) {
  // Per-bin feature vectors of a generated CESCA-II trace; the cost is a
  // noisy mix of packets, bytes and new flows, as a query's would be.
  trace::TraceSpec spec = trace::CescaII();
  spec.duration_s = 20.0;
  const trace::Trace trace = trace::TraceGenerator(spec).Generate();
  features::FeatureExtractor extractor;
  trace::Batcher batcher(trace, 100'000);
  trace::Batch batch;
  util::Rng rng(43);
  std::vector<Observation> seq;
  while (batcher.Next(batch)) {
    if (seq.size() % 10 == 0) {
      extractor.StartInterval();
    }
    const FeatureVector f = extractor.Extract(batch.packets);
    const double cost = 30.0 * f[kFeatPackets] + 0.05 * f[kFeatBytes] +
                        400.0 * f[kFeatNewFiveTuple];
    seq.emplace_back(f, cost * (1.0 + 0.02 * rng.NextGaussian()));
  }
  ASSERT_GE(seq.size(), 200u);
  // Traffic features hold exact copies: rep-batch_proto is packets minus
  // unique_proto, which is constant over most windows.
  for (const double threshold : {0.0, 0.6}) {
    MlrPredictor::Config cfg;
    cfg.fcbf_threshold = threshold;
    ExpectParity(cfg, seq, /*name_near_ties=*/true);
  }
}

TEST(MlrParity, TenThousandObservationsAcrossARegimeShiftDoNotDrift) {
  // Columns at scales from 1 to 1e6 mix two traffic drivers with their own
  // noise; observations 4000-6999 run at 1000x the traffic, so the moments
  // cross three orders of magnitude up and back down between exact rebuilds.
  util::Rng rng(47);
  std::vector<Observation> seq(10'000);
  for (size_t i = 0; i < seq.size(); ++i) {
    auto& [f, y] = seq[i];
    const double level = i >= 4000 && i < 7000 ? 1000.0 : 1.0;
    const double pkts = level * (100.0 + rng.NextDouble() * 400.0);
    const double flows = level * (10.0 + rng.NextDouble() * 100.0);
    for (size_t c = 0; c < f.size(); ++c) {
      const double w = static_cast<double>(c % 5) / 4.0;
      const double scale = std::pow(10.0, static_cast<double>(c % 7));
      f[c] = scale * ((1.0 - w) * pkts + w * flows * 5.0) * (1.0 + 0.05 * rng.NextGaussian());
    }
    y = (40.0 * pkts + 300.0 * flows) * (1.0 + 0.01 * rng.NextGaussian());
  }
  for (const double threshold : {0.3, 0.6}) {
    MlrPredictor::Config cfg;
    cfg.fcbf_threshold = threshold;
    ExpectParity(cfg, seq);
  }
}

// The Fcbf SYN-flood fixture as an observation stream: per six columns,
// packets, an exact multiple, a constant, an affine copy, all zeros and a
// noisy copy. The response is the packet cost, times `noise` relative
// measurement noise.
std::vector<Observation> SynFloodStream(double noise) {
  util::Rng rng(73);
  std::vector<Observation> seq(200);
  for (auto& [f, y] : seq) {
    const double pkts = 100.0 + rng.NextDouble() * 900.0;
    for (size_t c = 0; c < f.size(); ++c) {
      switch (c % 6) {
        case 0: f[c] = pkts; break;
        case 1: f[c] = pkts * static_cast<double>(c); break;
        case 2: f[c] = 7.0; break;
        case 3: f[c] = 3.0 * pkts + 11.0; break;
        case 4: f[c] = 0.0; break;
        default: f[c] = pkts + rng.NextGaussian(); break;
      }
    }
    y = 40.0 * pkts * (1.0 + noise * rng.NextGaussian());
  }
  return seq;
}

bool IsConstant(int c) { return c % 6 == 2 || c % 6 == 4; }

TEST(MlrParity, ConstantZeroAndAffineCopyColumns) {
  // The exact copies of the packets column tie on relevance, so rounding may
  // keep a different copy than the reference does; any such step is named,
  // it may only swap copies, and the predictions must agree. Constant and
  // all-zero columns are never kept.
  const std::vector<Observation> seq = SynFloodStream(0.01);
  for (const double threshold : {0.0, 0.5, 0.9}) {
    MlrPredictor::Config cfg;
    cfg.fcbf_threshold = threshold;
    ExpectParity(cfg, seq, /*name_near_ties=*/true);
    MlrPredictor p(cfg);
    for (const auto& [f, y] : seq) {
      p.Observe(f, y);
      for (const int c : p.last_selected()) {
        EXPECT_FALSE(IsConstant(c)) << "keeps " << c;
      }
    }
  }
}

TEST(MlrParity, ResponseThatIsAnExactCopyTiesEveryDecision) {
  // With the response an exact multiple of packets, every FCBF decision is an
  // exact tie: each copy has relevance 1, and a noisy copy correlates with
  // the response exactly as much as with any copy. Rounding alone then
  // decides which columns survive, in the reference as much as here, so the
  // two keep different sets and their minimum-norm fits weigh the noisy
  // copies differently. What both must still do: keep at least one column,
  // and never a constant or all-zero one. The gap is reported, not bounded.
  const std::vector<Observation> seq = SynFloodStream(0.0);
  for (const double threshold : {0.0, 0.5, 0.9}) {
    MlrPredictor::Config cfg;
    cfg.fcbf_threshold = threshold;
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    MlrPredictor fast(cfg);
    oracle::ReferenceMlrPredictor ref(cfg);
    size_t differ = 0;
    double gap = 0.0;
    for (size_t i = 0; i < seq.size(); ++i) {
      const auto& [f, y] = seq[i];
      const double a = fast.Predict(f);
      const double b = ref.Predict(f);
      gap = std::max(gap, std::abs(a - b) / std::max(a, b));
      fast.Observe(f, y);
      ref.Observe(f, y);
      if (i + 1 < cfg.min_history) {
        continue;
      }
      for (const std::vector<int>* kept : {&fast.last_selected(), &ref.last_selected()}) {
        ASSERT_FALSE(kept->empty());
        for (const int c : *kept) {
          EXPECT_FALSE(IsConstant(c)) << "step " << i << " keeps " << c;
        }
      }
      differ += fast.last_selected() != ref.last_selected() ? 1 : 0;
    }
    std::cout << "[ all-tie  ] threshold " << threshold << ": " << differ << " of " << seq.size()
              << " steps select differently, largest relative prediction gap " << gap << "\n";
  }
}

TEST(MlrParity, ColumnConstantOverTheWindowIsNeverSelected) {
  // At a large value with no exact binary mean, a column that stops varying
  // leaves rounding residue in running sums; the predictor must still see it
  // as constant (relevance exactly 0), even at threshold 0 where any
  // positive relevance would be ranked.
  MlrPredictor::Config cfg;
  cfg.history = 30;
  cfg.fcbf_threshold = 0.0;
  MlrPredictor p(cfg);
  util::Rng rng(53);
  constexpr size_t kFrozen = 7;
  const double frozen = 1e6 * 3.141592653589793;
  for (int i = 0; i < 300; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 400.0;
    FeatureVector f = MakeFeatures(pkts, pkts * 700.0, 10.0 + rng.NextDouble() * 50.0);
    f[kFrozen] = i < 100 ? frozen * (1.0 + rng.NextDouble()) : frozen;
    p.Observe(f, 40.0 * pkts * (1.0 + 0.01 * rng.NextGaussian()));
    if (i >= 100 + static_cast<int>(cfg.history)) {
      const auto& sel = p.last_selected();
      EXPECT_EQ(std::find(sel.begin(), sel.end(), static_cast<int>(kFrozen)), sel.end())
          << "observation " << i;
    }
  }
}

TEST(MlrParity, SaveLoadMidPhaseContinuesBitIdentically) {
  // Snapshot 170 observations in (2.8 windows, mid recompute phase); the
  // restored predictor must continue exactly as the uninterrupted one.
  util::Rng rng(59);
  const auto next = [&rng] {
    const double pkts = 100.0 + rng.NextDouble() * 400.0;
    const double new5t = 10.0 + rng.NextDouble() * 200.0;
    return Observation(MakeFeatures(pkts, pkts * 700.0, new5t),
                       20.0 * pkts + 150.0 * new5t + rng.NextGaussian() * 50.0);
  };
  MlrPredictor original;
  for (int i = 0; i < 170; ++i) {
    const auto [f, y] = next();
    original.Observe(f, y);
  }
  std::stringstream saved;
  obs::SnapshotWriter writer(saved);
  original.SaveState(writer);
  MlrPredictor restored;
  obs::SnapshotReader reader(saved);
  restored.LoadState(reader);

  std::stringstream again;
  obs::SnapshotWriter rewriter(again);
  restored.SaveState(rewriter);
  EXPECT_EQ(saved.str(), again.str());
  EXPECT_EQ(restored.selection_counts(), original.selection_counts());
  for (int i = 0; i < 150; ++i) {
    const auto [f, y] = next();
    ASSERT_EQ(restored.Predict(f), original.Predict(f)) << "observation " << i;
    original.Observe(f, y);
    restored.Observe(f, y);
    ASSERT_EQ(restored.last_selected(), original.last_selected());
  }
}

}  // namespace
}  // namespace shedmon::predict
