// Million-trip data plane determinism tests: parallel trip synthesis must
// be thread-count invariant, and out-of-core training over sharded trip
// stores must match the in-memory path bit-for-bit, epoch for epoch.
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/deepod_model.h"
#include "core/trainer.h"
#include "core/trip_feed.h"
#include "io/sharded_trip_source.h"
#include "io/trip_store.h"
#include "road/edge_graph.h"
#include "sim/trip_gen.h"
#include "util/rng.h"
#include "util/weighted_digraph.h"

namespace deepod {
namespace {

sim::DatasetConfig TinyGenConfig() {
  sim::DatasetConfig config;
  config.city = road::XianSimConfig();
  config.city.rows = 6;
  config.city.cols = 6;
  config.trips_per_day = 12;
  config.num_days = 15;
  config.seed = 17;
  return config;
}

void ExpectTripsIdentical(const std::vector<traj::TripRecord>& a,
                          const std::vector<traj::TripRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].od.departure_time),
              std::bit_cast<uint64_t>(b[i].od.departure_time))
        << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].travel_time),
              std::bit_cast<uint64_t>(b[i].travel_time))
        << i;
    EXPECT_EQ(a[i].od.origin_segment, b[i].od.origin_segment) << i;
    EXPECT_EQ(a[i].od.dest_segment, b[i].od.dest_segment) << i;
    ASSERT_EQ(a[i].trajectory.path.size(), b[i].trajectory.path.size()) << i;
    for (size_t k = 0; k < a[i].trajectory.path.size(); ++k) {
      EXPECT_EQ(a[i].trajectory.path[k].segment_id,
                b[i].trajectory.path[k].segment_id)
          << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(a[i].trajectory.path[k].enter),
                std::bit_cast<uint64_t>(b[i].trajectory.path[k].enter))
          << i;
    }
  }
}

TEST(TripGenTest, ThreadCountDoesNotChangeTheTripSet) {
  const sim::DatasetConfig config = TinyGenConfig();
  sim::Dataset env;
  sim::InitDatasetEnvironment(config, &env);
  const sim::TripSimulator simulator(env.network, *env.traffic, *env.weather);

  std::vector<std::vector<traj::TripRecord>> runs;
  for (size_t threads : {1, 2, 8}) {
    sim::TripGenOptions options;
    options.num_threads = threads;
    runs.push_back(sim::GenerateTrips(simulator, config, options));
  }
  ExpectTripsIdentical(runs[0], runs[1]);
  ExpectTripsIdentical(runs[0], runs[2]);
}

TEST(TripGenTest, PerTripStreamsAreIndependentOfEachOther) {
  // ForStream must give trip i the same draws no matter how many other
  // streams were consumed first — the property the chunked workers rely on.
  util::Rng a = util::Rng::ForStream(99, 7);
  util::Rng waste = util::Rng::ForStream(99, 6);
  for (int i = 0; i < 100; ++i) waste.Uniform();
  util::Rng b = util::Rng::ForStream(99, 7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(TripFeedTest, ShardEpochOrderIsASeedDeterministicPermutation) {
  const std::vector<size_t> shard_sizes = {5, 0, 3, 7};
  util::Rng rng_a(123), rng_b(123), rng_c(124);
  const auto order_a = core::BuildShardEpochOrder(rng_a, shard_sizes);
  const auto order_b = core::BuildShardEpochOrder(rng_b, shard_sizes);
  const auto order_c = core::BuildShardEpochOrder(rng_c, shard_sizes);
  EXPECT_EQ(order_a, order_b);
  EXPECT_NE(order_a, order_c);

  std::vector<bool> seen(15, false);
  ASSERT_EQ(order_a.size(), 15u);
  for (const size_t idx : order_a) {
    ASSERT_LT(idx, 15u);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

// Fixture sharing one generated dataset + sharded store across the
// out-of-core tests (generation is the expensive part).
class ShardedTrainingTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;

  static void SetUpTestSuite() {
    dataset_ = new sim::Dataset(sim::BuildDatasetParallel(TinyGenConfig()));
    shard_paths_ = new std::vector<std::string>(io::WriteTripShards(
        testing::TempDir(), "datagen_test_shard", dataset_->train, kShards));
  }

  static sim::Dataset* dataset_;
  static std::vector<std::string>* shard_paths_;
};

sim::Dataset* ShardedTrainingTest::dataset_ = nullptr;
std::vector<std::string>* ShardedTrainingTest::shard_paths_ = nullptr;

TEST_F(ShardedTrainingTest, SourceMirrorsTheGroupedInMemoryOrder) {
  io::ShardedTripSource sharded(*shard_paths_);
  ASSERT_EQ(sharded.size(), dataset_->train.size());
  ASSERT_EQ(sharded.num_shards(), kShards);

  core::InMemoryTripFeed grouped(dataset_->train, sharded.shard_sizes());
  util::Rng rng_a(7), rng_b(7);
  sharded.BeginEpoch(rng_a);
  grouped.BeginEpoch(rng_b);
  EXPECT_EQ(sharded.order(), grouped.order());

  // The records behind the shared order must decode identically too.
  sharded.PrefetchWindow(0, sharded.size());
  for (size_t pos = 0; pos < sharded.size(); ++pos) {
    const auto& a = sharded.At(pos);
    const auto& b = grouped.At(pos);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.od.departure_time),
              std::bit_cast<uint64_t>(b.od.departure_time))
        << pos;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.travel_time),
              std::bit_cast<uint64_t>(b.travel_time))
        << pos;
  }
}

TEST_F(ShardedTrainingTest, AtOutsideThePrefetchedWindowThrows) {
  io::ShardedTripSource::Options options;
  options.window_size = 4;
  io::ShardedTripSource sharded(*shard_paths_, options);
  sharded.PrefetchWindow(0, 4);
  EXPECT_NO_THROW(sharded.At(3));
  EXPECT_THROW(sharded.At(60), std::logic_error);
}

TEST_F(ShardedTrainingTest, StreamedInitMatchesInMemoryBitForBit) {
  // deepod_train's out-of-core path never materialises the train split: the
  // co-occurrence edge graph and the time scale come from one decode pass
  // over the shards. Both must match the in-memory constructor bit for bit
  // — the co-occurrence weights are order-independent sums of 1.0, and the
  // shards concatenate in dataset.train order so the time-scale summation
  // order is identical too.
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
  config.num_threads = 1;
  core::DeepOdModel model_mem(config, *dataset_);

  road::EdgeGraphAccumulator edges;
  double time_sum = 0.0;
  size_t trips = 0;
  traj::TripRecord record;
  for (const std::string& path : *shard_paths_) {
    const auto reader = io::TripStoreReader::OpenOrThrow(path);
    for (size_t i = 0; i < reader.size(); ++i) {
      reader.Decode(i, &record);
      edges.AddSequence(dataset_->network, record.trajectory.SegmentIds());
      time_sum += record.travel_time;
      ++trips;
    }
  }
  ASSERT_EQ(trips, dataset_->train.size());
  const util::WeightedDigraph edge_graph = edges.Build(dataset_->network);
  const double time_scale =
      trips == 0 ? 1.0 : time_sum / static_cast<double>(trips);
  core::DeepOdModel model_streamed(config, *dataset_, &edge_graph, time_scale);

  EXPECT_EQ(std::bit_cast<uint64_t>(model_mem.time_scale()),
            std::bit_cast<uint64_t>(model_streamed.time_scale()));
  const nn::StateDict state_mem = model_mem.State();
  const nn::StateDict state_str = model_streamed.State();
  ASSERT_EQ(state_mem.entries().size(), state_str.entries().size());
  for (size_t e = 0; e < state_mem.entries().size(); ++e) {
    const auto& a = state_mem.entries()[e];
    const auto& b = state_str.entries()[e];
    ASSERT_EQ(a.size, b.size) << a.name;
    EXPECT_EQ(std::memcmp(a.data, b.data, a.size * sizeof(double)), 0)
        << a.name;
  }
}

// One training loop serves every thread count, so the out-of-core feed must
// match its in-memory twin bit for bit at any pinned count; at more than one
// worker, pool workers call the sharded feed's At() concurrently with its
// background lookahead.
TEST_F(ShardedTrainingTest, OutOfCoreTrainingMatchesInMemoryEpochForEpoch) {
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
    config.epochs = 2;
    config.num_threads = threads;

    core::DeepOdModel model_mem(config, *dataset_);
    core::DeepOdModel model_ooc(config, *dataset_);

    io::ShardedTripSource::Options options;
    options.window_size = 16;  // several windows per epoch, so prefetch cycles
    io::ShardedTripSource sharded(*shard_paths_, options);
    core::InMemoryTripFeed grouped(dataset_->train, sharded.shard_sizes());

    core::DeepOdTrainer trainer_mem(model_mem, *dataset_, &grouped);
    core::DeepOdTrainer trainer_ooc(model_ooc, *dataset_, &sharded);

    for (int epoch = 1; epoch <= config.epochs; ++epoch) {
      const double mae_mem = trainer_mem.TrainPrefix(epoch);
      const double mae_ooc = trainer_ooc.TrainPrefix(epoch);
      EXPECT_EQ(std::bit_cast<uint64_t>(mae_mem),
                std::bit_cast<uint64_t>(mae_ooc))
          << "epoch " << epoch;
    }

    const nn::StateDict state_mem = model_mem.State();
    const nn::StateDict state_ooc = model_ooc.State();
    std::vector<double> flat_mem, flat_ooc;
    for (const auto& e : state_mem.entries()) {
      flat_mem.insert(flat_mem.end(), e.data, e.data + e.size);
    }
    for (const auto& e : state_ooc.entries()) {
      flat_ooc.insert(flat_ooc.end(), e.data, e.data + e.size);
    }
    ASSERT_EQ(flat_mem.size(), flat_ooc.size());
    for (size_t i = 0; i < flat_mem.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(flat_mem[i]),
                std::bit_cast<uint64_t>(flat_ooc[i]))
          << "state element " << i;
    }
  }
}

}  // namespace
}  // namespace deepod
