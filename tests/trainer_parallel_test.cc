// Determinism and correctness contract of the data-parallel trainer
// (DESIGN.md "Threading model"):
//  - a one-worker run must not depend on what the thread's buffer pool held
//    before it (AcquireBuffer callers overwrite every element);
//  - a fixed num_threads > 1 must be deterministic run-to-run;
//  - one worker must match the per-sample reference trainer bit for bit;
//  - one model state must score the same validation MAE at every thread
//    count;
//  - the Affine, Conv2d and fused LSTM kernels must pass finite-difference
//    gradient checks (odd sizes so the unrolled tails are exercised), and
//    the fused LSTM cell must match the composed-op recurrence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "nn/gradcheck.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "reference_kernels.h"
#include "reference_trainer.h"
#include "sim/dataset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepod {
namespace {

const sim::Dataset& TinyDataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 6;
    config.city.cols = 6;
    config.trips_per_day = 12;
    config.num_days = 15;
    config.seed = 23;
    return new sim::Dataset(sim::BuildDataset(config));
  }();
  return *dataset;
}

core::DeepOdConfig TinyConfig(size_t num_threads) {
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
  config.epochs = 1;
  config.batch_size = 8;
  config.num_threads = num_threads;
  return config;
}

struct TrainOutcome {
  double final_val = 0.0;
  std::vector<uint8_t> params;
};

TrainOutcome TrainOnce(size_t num_threads) {
  core::DeepOdModel model(TinyConfig(num_threads), TinyDataset());
  core::DeepOdTrainer trainer(model, TinyDataset());
  TrainOutcome out;
  out.final_val = trainer.Train(nullptr, 1u << 30, 40);
  out.params = nn::SerializeStateDict(model.State());
  return out;
}

// --- a pooled buffer's old contents never leak into a result ---------------

// Runs a serial TrainOnce on a new thread (so on a new, empty buffer pool),
// after `prefill` has run on that thread.
template <typename Prefill>
TrainOutcome TrainOnFreshThread(Prefill prefill) {
  TrainOutcome out;
  std::thread worker([&] {
    prefill();
    out = TrainOnce(1);
  });
  worker.join();
  return out;
}

TEST(TrainerParallelTest, SerialRunIgnoresStalePooledBuffers) {
  const TrainOutcome fresh = TrainOnFreshThread([] {});
  const TrainOutcome stale = TrainOnFreshThread([] {
    // Unrelated tensors whose storage is recycled into this thread's pool
    // holding NaNs and large finite values. An op that reads an element of
    // an AcquireBuffer result before writing it turns these into a
    // different loss or different weights.
    constexpr size_t kJunkSize = 1024;
    for (int i = 0; i < 100; ++i) {
      std::vector<double> junk(kJunkSize);
      for (size_t j = 0; j < kJunkSize; ++j) {
        junk[j] = j % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                             : 1e6 + static_cast<double>(j);
      }
      nn::Tensor::FromData({kJunkSize}, std::move(junk));
    }
  });
  EXPECT_EQ(stale.final_val, fresh.final_val);
  EXPECT_EQ(stale.params, fresh.params);
}

// --- fixed thread count > 1 is deterministic --------------------------------

TEST(TrainerParallelTest, FourThreadsDeterministicAcrossRuns) {
  const TrainOutcome first = TrainOnce(4);
  const TrainOutcome second = TrainOnce(4);
  EXPECT_EQ(first.final_val, second.final_val);
  EXPECT_EQ(first.params, second.params);
  // Sanity: the parallel run trained to a comparable error, i.e. the merged
  // gradients are the real mini-batch gradients, not garbage.
  const TrainOutcome serial = TrainOnce(1);
  EXPECT_NEAR(first.final_val, serial.final_val,
              0.2 * serial.final_val + 1e-9);
}

// --- one worker is the per-sample reference trainer -------------------------

// Trains two epochs with DeepOdTrainer at one worker and with the reference
// loop of reference_trainer.h, and requires every state entry (parameters,
// BatchNorm running statistics, time scale), every Adam moment and the
// validation MAE to be bit-equal.
TEST(TrainerParallelTest, OneWorkerMatchesReference) {
  core::DeepOdConfig config = TinyConfig(1);
  config.epochs = 2;
  config.lr_decay_epochs = 1;  // the second epoch runs at a decayed rate

  core::DeepOdModel model(config, TinyDataset());
  core::DeepOdTrainer trainer(model, TinyDataset());
  const double val = trainer.TrainPrefix(2, nullptr, 25, 40);

  core::DeepOdModel ref_model(config, TinyDataset());
  core::reference::SerialTrainer reference(ref_model, TinyDataset());
  const double ref_val = reference.TrainPrefix(2, 40);

  EXPECT_EQ(std::memcmp(&val, &ref_val, sizeof(double)), 0)
      << val << " vs " << ref_val;
  const nn::StateDict state = model.State();
  const nn::StateDict ref_state = ref_model.State();
  ASSERT_EQ(state.size(), ref_state.size());
  for (size_t i = 0; i < state.size(); ++i) {
    const auto& a = state.entries()[i];
    const auto& b = ref_state.entries()[i];
    ASSERT_EQ(a.name, b.name);
    ASSERT_EQ(a.size, b.size);
    EXPECT_EQ(std::memcmp(a.data, b.data, a.size * sizeof(double)), 0)
        << a.name;
  }

  // The trainer's Adam moments, read back from its checkpoint.
  const std::string path =
      testing::TempDir() + "trainer_parallel_test_reference.ckpt";
  trainer.SaveCheckpoint(path);
  std::vector<nn::TensorRecord> records;
  const nn::LoadStatus status = nn::ReadStateDict(path, &records);
  std::remove(path.c_str());
  ASSERT_TRUE(status.ok()) << status.message;
  nn::StateDict ref_optim;
  reference.optimizer().AppendState("optim.", ref_optim);
  ASSERT_GT(ref_optim.size(), 0u);
  size_t optim_records = 0;
  for (const auto& r : records) {
    if (r.name.rfind("optim.", 0) == 0) ++optim_records;
  }
  EXPECT_EQ(optim_records, ref_optim.size());
  for (const auto& e : ref_optim.entries()) {
    const auto it = std::find_if(records.begin(), records.end(),
                                 [&](const auto& r) { return r.name == e.name; });
    ASSERT_NE(it, records.end()) << e.name;
    ASSERT_EQ(it->num_elements, e.size) << e.name;
    EXPECT_EQ(std::memcmp(it->payload.data(), e.data, e.size * sizeof(double)),
              0)
        << e.name;
  }
}

// --- validation depends on the weights alone --------------------------------

// One model state, scored by trainers at 1, 2, 3 and 4 threads: PredictBatch
// answers the same for any chunking and ValidationMae sums the errors in
// index order, so every thread count reads the same MAE bit for bit.
TEST(TrainerParallelTest, ValidationMaeIsThreadInvariant) {
  std::vector<uint8_t> state;
  std::vector<double> maes;
  for (size_t threads = 1; threads <= 4; ++threads) {
    core::DeepOdConfig config = TinyConfig(threads);
    config.road_init = core::RoadInit::kOneHot;  // no embedding pre-training
    config.time_init = core::TimeInit::kOneHot;
    core::DeepOdModel model(config, TinyDataset());
    nn::StateDict dict = model.State();
    if (state.empty()) {
      state = nn::SerializeStateDict(dict);
    } else {
      ASSERT_TRUE(nn::DeserializeStateDict(state, dict).ok());
    }
    core::DeepOdTrainer trainer(model, TinyDataset());
    ASSERT_EQ(trainer.num_threads(), threads);
    maes.push_back(trainer.ValidationMae(TinyDataset().validation.size()));
  }
  ASSERT_GT(maes[0], 0.0);
  for (size_t i = 1; i < maes.size(); ++i) {
    EXPECT_EQ(std::memcmp(&maes[0], &maes[i], sizeof(double)), 0)
        << (i + 1) << " threads: " << maes[i] << " vs " << maes[0];
  }
}

TEST(TrainerParallelTest, CallbackWithZeroEvalEveryThrows) {
  core::DeepOdConfig config = TinyConfig(1);
  config.road_init = core::RoadInit::kOneHot;  // no embedding pre-training
  config.time_init = core::TimeInit::kOneHot;
  core::DeepOdModel model(config, TinyDataset());
  core::DeepOdTrainer trainer(model, TinyDataset());
  EXPECT_THROW(trainer.Train([](size_t, double) {}, 0), std::invalid_argument);
  EXPECT_EQ(trainer.steps_taken(), 0u);
}

// --- gradient checks for the optimised kernels -------------------------------

nn::Tensor MakeParam(std::vector<size_t> shape, util::Rng& rng) {
  nn::Tensor t = nn::Tensor::Randn(std::move(shape), rng, 0.5);
  t.set_requires_grad(true);
  return t;
}

TEST(TrainerParallelTest, KernelsPassGradCheck) {
  util::Rng rng(911);
  {
    // Odd inner/outer sizes exercise the unrolled-dot tails.
    nn::Tensor w = MakeParam({5, 7}, rng);
    nn::Tensor x = MakeParam({7}, rng);
    nn::Tensor b = MakeParam({5}, rng);
    auto loss = [&] { return nn::Sum(nn::Affine(w, x, b)); };
    const auto r = nn::CheckGradients(loss, {w, x, b});
    EXPECT_TRUE(r.ok) << "Affine max_abs_err=" << r.max_abs_error;
  }
  {
    nn::Tensor in = MakeParam({2, 5, 6}, rng);
    nn::Tensor k = MakeParam({3, 2, 3, 3}, rng);
    auto loss = [&] { return nn::Sum(nn::Conv2d(in, k, 1, 1)); };
    const auto r = nn::CheckGradients(loss, {in, k});
    EXPECT_TRUE(r.ok) << "Conv2d max_abs_err=" << r.max_abs_error;
  }
}

TEST(TrainerParallelTest, FusedLstmCellPassesGradCheck) {
  util::Rng rng(912);
  nn::Lstm lstm(5, 4, rng);  // every step runs LstmCellFused
  std::vector<nn::Tensor> inputs = {nn::Tensor::Randn({5}, rng, 0.5),
                                    nn::Tensor::Randn({5}, rng, 0.5),
                                    nn::Tensor::Randn({5}, rng, 0.5)};
  auto loss = [&] { return nn::Sum(nn::Square(lstm.Forward(inputs))); };
  const auto r = nn::CheckGradients(loss, lstm.Parameters());
  EXPECT_TRUE(r.ok) << "LstmCellFused max_abs_err=" << r.max_abs_error;
}

TEST(TrainerParallelTest, FusedLstmMatchesComposedForward) {
  util::Rng rng(913);
  nn::Lstm lstm(6, 5, rng);
  std::vector<nn::Tensor> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(nn::Tensor::Randn({6}, rng, 0.8));
  }
  const nn::Tensor composed = nn::reference::ComposedLstmForward(lstm, inputs);
  const nn::Tensor fused = lstm.Forward(inputs);
  ASSERT_EQ(fused.size(), composed.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused.at(i), composed.at(i), 1e-12);
  }
}

// --- thread pool basics ------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](size_t i) {
                                  if (i == 5) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ChunkRangePartitionsExactly) {
  size_t covered = 0;
  for (size_t w = 0; w < 4; ++w) {
    const auto [begin, end] = util::ThreadPool::ChunkRange(10, 4, w);
    EXPECT_LE(begin, end);
    covered += end - begin;
  }
  EXPECT_EQ(covered, 10u);
}

}  // namespace
}  // namespace deepod
