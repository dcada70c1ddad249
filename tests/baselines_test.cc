#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "analysis/metrics.h"
#include "baselines/baseline.h"
#include "baselines/gbm.h"
#include "baselines/linear_regression.h"
#include "baselines/murat.h"
#include "baselines/stnn.h"
#include "baselines/temp.h"
#include "sim/dataset.h"

namespace deepod::baselines {
namespace {

// Shared small dataset fixture: built once per test binary run.
const sim::Dataset& SmallDataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 7;
    config.city.cols = 7;
    config.trips_per_day = 80;
    config.num_days = 25;
    config.seed = 99;
    auto* ds = new sim::Dataset;
    sim::BuildDataset(config, ds);
    return ds;
  }();
  return *dataset;
}

double MeanPredictorMae(const sim::Dataset& ds) {
  double mean = 0.0;
  for (const auto& t : ds.train) mean += t.travel_time;
  mean /= static_cast<double>(ds.train.size());
  std::vector<double> truth, pred;
  for (const auto& t : ds.test) {
    truth.push_back(t.travel_time);
    pred.push_back(mean);
  }
  return analysis::Mae(truth, pred);
}

std::vector<double> TestTruth(const sim::Dataset& ds) {
  std::vector<double> truth;
  for (const auto& t : ds.test) truth.push_back(t.travel_time);
  return truth;
}

TEST(OdFeaturesTest, LayoutAndRanges) {
  const auto& ds = SmallDataset();
  const auto f = OdFeatures(ds.test[0].od, ds.network);
  ASSERT_EQ(f.size(), OdFeatureCount());
  EXPECT_DOUBLE_EQ(f[0], 1.0);  // bias
  for (size_t i = 1; i <= 4; ++i) {
    EXPECT_GE(f[i], 0.0);  // normalised coordinates
    EXPECT_LE(f[i], 1.0);
  }
  // Day-of-week one-hot sums to 1.
  double onehot = 0.0;
  for (size_t i = 9; i < 16; ++i) onehot += f[i];
  EXPECT_DOUBLE_EQ(onehot, 1.0);
}

// Every baseline must beat the constant mean predictor on the test split —
// the weakest sensible bar for a trained estimator.
template <typename Estimator>
double TrainAndMae() {
  const auto& ds = SmallDataset();
  Estimator estimator;
  estimator.Train(ds);
  const auto pred = estimator.PredictAll(ds.test);
  for (double p : pred) EXPECT_TRUE(std::isfinite(p));
  return analysis::Mae(TestTruth(ds), pred);
}

TEST(TempTest, BeatsMeanPredictorAtScale) {
  // TEMP is a nearest-neighbour method and needs a dense trip corpus — the
  // paper itself attributes TEMP's weak spots to trip-record sparsity
  // (§6.4.2 observation 4). Build a denser corpus for this check; training
  // and prediction are cheap for TEMP.
  sim::DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 10;
  config.city.cols = 10;
  config.trips_per_day = 150;
  config.num_days = 40;
  config.seed = 5;
  const sim::Dataset ds = sim::BuildDataset(config);
  double mean = 0.0;
  for (const auto& t : ds.train) mean += t.travel_time;
  mean /= static_cast<double>(ds.train.size());
  std::vector<double> truth, mean_pred;
  for (const auto& t : ds.test) {
    truth.push_back(t.travel_time);
    mean_pred.push_back(mean);
  }
  TempEstimator temp;
  temp.Train(ds);
  const auto pred = temp.PredictAll(ds.test);
  EXPECT_LT(analysis::Mae(truth, pred), analysis::Mae(truth, mean_pred));
}

TEST(LrTest, BeatsMeanPredictor) {
  EXPECT_LT(TrainAndMae<LinearRegressionEstimator>(),
            MeanPredictorMae(SmallDataset()));
}

TEST(GbmTest, BeatsMeanPredictor) {
  EXPECT_LT(TrainAndMae<GbmEstimator>(), MeanPredictorMae(SmallDataset()));
}

TEST(StnnTest, BeatsMeanPredictor) {
  EXPECT_LT(TrainAndMae<StnnEstimator>(), MeanPredictorMae(SmallDataset()));
}

TEST(MuratTest, BeatsMeanPredictor) {
  EXPECT_LT(TrainAndMae<MuratEstimator>(), MeanPredictorMae(SmallDataset()));
}

TEST(TempTest, NearDuplicateTripUsesNeighbours) {
  const auto& ds = SmallDataset();
  TempEstimator temp;
  temp.Train(ds);
  // Querying an exact training trip should return something close to its
  // time (it and its neighbours dominate the average).
  const auto& trip = ds.train[5];
  const double pred = temp.Predict(trip.od);
  EXPECT_GT(pred, 0.0);
  EXPECT_LT(std::fabs(pred - trip.travel_time) / trip.travel_time, 0.8);
}

TEST(TempTest, ModelSizeScalesWithTrainingData) {
  const auto& ds = SmallDataset();
  TempEstimator temp;
  temp.Train(ds);
  EXPECT_GT(temp.ModelSizeBytes(), ds.train.size() * sizeof(double));
}

TEST(LrTest, RecoversPlantedLinearFunction) {
  // Fit on a synthetic dataset whose labels are a known linear function of
  // the features; LR must recover it nearly exactly.
  sim::Dataset ds;
  sim::DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 5;
  config.city.cols = 5;
  config.trips_per_day = 40;
  config.num_days = 10;
  sim::BuildDataset(config, &ds);
  for (auto& t : ds.train) {
    const auto f = OdFeatures(t.od, ds.network);
    t.travel_time = 100.0 + 50.0 * f[1] - 30.0 * f[4];
  }
  LinearRegressionEstimator lr;
  lr.Train(ds);
  double max_err = 0.0;
  for (const auto& t : ds.train) {
    const auto f = OdFeatures(t.od, ds.network);
    const double expected = 100.0 + 50.0 * f[1] - 30.0 * f[4];
    max_err = std::max(max_err, std::fabs(lr.Predict(t.od) - expected));
  }
  EXPECT_LT(max_err, 1.0);
}

TEST(SolveLinearSystemTest, KnownSolution) {
  // [2 1; 1 3] x = [5; 10] -> x = [1, 3].
  const auto x = SolveLinearSystem({{2, 1}, {1, 3}}, {5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(SolveLinearSystemTest, SingularThrows) {
  EXPECT_THROW(SolveLinearSystem({{1, 2}, {2, 4}}, {1, 2}), std::runtime_error);
}

TEST(RegressionTreeTest, FitsPiecewiseConstant) {
  // Feature 0 splits the targets perfectly at 0.5.
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  std::vector<size_t> indices;
  for (int i = 0; i < 40; ++i) {
    const double x = i < 20 ? 0.1 : 0.9;
    features.push_back({x, 0.0});
    targets.push_back(i < 20 ? -5.0 : 7.0);
    indices.push_back(static_cast<size_t>(i));
  }
  RegressionTree tree;
  RegressionTree::Options options;
  options.max_depth = 2;
  options.min_samples_leaf = 2;
  tree.Fit(features, targets, indices, options);
  EXPECT_NEAR(tree.Predict({0.1, 0.0}), -5.0, 1e-9);
  EXPECT_NEAR(tree.Predict({0.9, 0.0}), 7.0, 1e-9);
  EXPECT_GE(tree.num_nodes(), 3u);
}

TEST(RegressionTreeTest, RespectsMinSamplesLeaf) {
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  std::vector<size_t> indices;
  for (int i = 0; i < 10; ++i) {
    features.push_back({static_cast<double>(i)});
    targets.push_back(static_cast<double>(i));
    indices.push_back(static_cast<size_t>(i));
  }
  RegressionTree tree;
  RegressionTree::Options options;
  options.max_depth = 10;
  options.min_samples_leaf = 6;  // no split can satisfy 6+6
  tree.Fit(features, targets, indices, options);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_NEAR(tree.Predict({3.0}), 4.5, 1e-9);  // the mean
}

TEST(GbmTest, BoostingReducesTrainingError) {
  const auto& ds = SmallDataset();
  std::vector<double> truth;
  for (const auto& t : ds.train) truth.push_back(t.travel_time);

  GbmEstimator::Options small;
  small.num_trees = 1;
  GbmEstimator weak(small);
  weak.Train(ds);
  std::vector<double> weak_pred;
  for (const auto& t : ds.train) weak_pred.push_back(weak.Predict(t.od));

  GbmEstimator strong;  // default many trees
  strong.Train(ds);
  std::vector<double> strong_pred;
  for (const auto& t : ds.train) strong_pred.push_back(strong.Predict(t.od));

  EXPECT_LT(analysis::Mae(truth, strong_pred), analysis::Mae(truth, weak_pred));
}

TEST(GbmTest, EarlyStoppingBoundsTreeCount) {
  const auto& ds = SmallDataset();
  GbmEstimator::Options options;
  options.num_trees = 500;
  options.early_stop_rounds = 5;
  GbmEstimator gbm(options);
  gbm.Train(ds);
  EXPECT_LT(gbm.num_trees(), 500u);
  EXPECT_GT(gbm.ModelSizeBytes(), 0u);
}

TEST(StnnTest, PredictsPositiveFiniteTimes) {
  const auto& ds = SmallDataset();
  StnnEstimator stnn;
  stnn.Train(ds);
  for (size_t i = 0; i < std::min<size_t>(20, ds.test.size()); ++i) {
    const double p = stnn.Predict(ds.test[i].od);
    EXPECT_TRUE(std::isfinite(p));
  }
  EXPECT_GT(stnn.ModelSizeBytes(), 0u);
}

TEST(MuratTest, ModelSizeIncludesEmbeddings) {
  const auto& ds = SmallDataset();
  MuratEstimator murat;
  murat.Train(ds);
  // Cell + time embeddings alone exceed the trunk; size must reflect them.
  EXPECT_GT(murat.ModelSizeBytes(), 10000u);
}

TEST(StnnTest, CallbackWithZeroEvalEveryThrows) {
  StnnEstimator::Options options;
  options.step_callback = [](size_t, double) {};
  options.eval_every = 0;
  StnnEstimator stnn(options);
  EXPECT_THROW(stnn.Train(SmallDataset()), std::invalid_argument);
}

TEST(MuratTest, CallbackWithZeroEvalEveryThrows) {
  MuratEstimator::Options options;
  options.step_callback = [](size_t, double) {};
  options.eval_every = 0;
  MuratEstimator murat(options);
  EXPECT_THROW(murat.Train(SmallDataset()), std::invalid_argument);
}

TEST(UntrainedEstimatorsReturnZero, AllNeuralBaselines) {
  StnnEstimator stnn;
  MuratEstimator murat;
  traj::OdInput od;
  EXPECT_EQ(stnn.Predict(od), 0.0);
  EXPECT_EQ(murat.Predict(od), 0.0);
  EXPECT_EQ(stnn.ModelSizeBytes(), 0u);
  EXPECT_EQ(murat.ModelSizeBytes(), 0u);
}

}  // namespace
}  // namespace deepod::baselines
