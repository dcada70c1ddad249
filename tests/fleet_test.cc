// Multi-city fleet serving contracts (DESIGN.md "Fleet serving"):
//  - the fleet manifest parses, resolves relative paths against its own
//    directory and rejects malformed files with typed errors;
//  - a FleetRouter routes by wire network_id, leaves unknown ids null, and
//    each warm shard answers bit-identically to a standalone EtaService
//    stood up from the same artifact;
//  - partial fleet failure is contained: one city's corrupt artifact leaves
//    that shard cold (counted in fleet/<name>/activation_failures) and
//    answering from the OD-oracle tier while the healthy cities serve
//    unchanged;
//  - ActivateNow() brings a cold shard warm the moment a loadable artifact
//    appears, exactly once, firing on_adopt;
//  - a warm shard's hot swap goes through the activation's load check: an
//    artifact stamped with another city's network_id is refused, counted
//    in fleet/<name>/reload_failures, and the shard keeps answering
//    bit-identically from its old epoch — for a manifest city and for a
//    fleet of one, whose stamp is its startup artifact's;
//  - a DeepOdServer serves three cities from one process: model answers
//    for the warm shards, oracle answers (tagged in the estimator byte) for
//    the model-less city, typed kUnknownNetwork for unmapped ids and
//    per-shard segment validation; live-serving hooks over more than one
//    shard are refused.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/od_oracle.h"
#include "baselines/path_tte.h"
#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "io/trip_io.h"
#include "obs/metrics.h"
#include "serve/eta_service.h"
#include "serve/fleet_router.h"
#include "serve/server/frame.h"
#include "serve/server/loadgen.h"
#include "serve/drift_monitor.h"
#include "serve/server/server.h"
#include "serve/serving_state.h"
#include "sim/dataset.h"
#include "registry_value.h"

namespace deepod {
namespace {

using namespace serve::net;

// One synthetic city with every serving artifact the fleet can reference.
struct City {
  sim::Dataset dataset;
  baselines::OdOracle oracle;
  baselines::LinkMeanEstimator links;
  std::string network_path;
  std::string artifact_path;  // model artifact (may be absent on disk)
  std::string oracle_path;    // standalone oracle artifact
};

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    root_ = new std::string(testing::TempDir() + "fleet_test_tree");
    std::filesystem::create_directories(*root_);
    // Distinct grids so the cities have different segment spaces — routing
    // a request to the wrong shard cannot accidentally validate.
    city_a_ = BuildCity("a", 6, 6, 23, 1, /*with_model=*/true);
    city_b_ = BuildCity("b", 5, 5, 31, 2, /*with_model=*/true);
    city_c_ = BuildCity("c", 5, 6, 47, 3, /*with_model=*/false);
  }

  static City* BuildCity(const std::string& name, size_t rows, size_t cols,
                         uint64_t seed, uint32_t network_id, bool with_model) {
    auto* city = new City;
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = rows;
    config.city.cols = cols;
    config.trips_per_day = 12;
    config.num_days = 10;
    config.seed = seed;
    city->dataset = sim::BuildDataset(config);

    city->oracle = baselines::OdOracle(city->dataset.network,
                                       baselines::OdOracle::Options{});
    for (const auto& trip : city->dataset.train) {
      city->oracle.Add(city->dataset.network, trip.od, trip.travel_time);
      city->links.Add(trip.trajectory);
    }
    city->oracle.Finalize();
    city->links.Finalize(city->dataset.network.num_segments());

    city->network_path = *root_ + "/" + name + ".network.csv";
    io::WriteNetworkCsv(city->dataset.network, city->network_path);
    city->oracle_path = *root_ + "/" + name + ".oracle.artifact";
    io::WriteOracleArtifact(city->oracle_path, network_id, &city->oracle,
                            &city->links);
    city->artifact_path = *root_ + "/" + name + ".model.artifact";
    if (with_model) {
      core::DeepOdConfig model_config = core::DeepOdConfig().Scaled(16);
      model_config.epochs = 1;
      model_config.batch_size = 8;
      core::DeepOdModel model(model_config, city->dataset);
      model.SetTraining(false);
      io::ArtifactOptions options;
      options.network_id = network_id;
      options.oracle = &city->oracle;
      options.link_mean = &city->links;
      io::WriteModelArtifact(city->artifact_path, model, nullptr, options);
    }
    return city;
  }

  static std::string WriteManifest(const std::string& filename,
                                   const std::vector<std::string>& rows) {
    const std::string path = *root_ + "/" + filename;
    std::ofstream out(path);
    out << "network_id,name,network,artifact,oracle,policy\n";
    for (const auto& row : rows) out << row << "\n";
    return path;
  }

  // An OD the city's model and oracle have both seen (training trip 0, at a
  // fixed serving-time departure).
  static traj::OdInput SampleOd(const City& city, size_t i = 0) {
    traj::OdInput od = city.dataset.train[i % city.dataset.train.size()].od;
    od.departure_time = 10.0 * 86400.0 + 8.0 * 3600.0 + 60.0 * double(i);
    return od;
  }

  // Options that keep the artifact watcher out of the tests' way (poll
  // far slower than any test runs; ActivateNow() drives activation).
  static serve::FleetRouterOptions QuietOptions() {
    serve::FleetRouterOptions options;
    options.poll_interval = std::chrono::milliseconds(600000);
    return options;
  }

  static double CounterValue(const serve::FleetRouter& router,
                             const std::string& name) {
    return test::RegistryValue(router.registry(), name);
  }

  static std::string* root_;
  static City* city_a_;
  static City* city_b_;
  static City* city_c_;
};

std::string* FleetTest::root_ = nullptr;
City* FleetTest::city_a_ = nullptr;
City* FleetTest::city_b_ = nullptr;
City* FleetTest::city_c_ = nullptr;

// --- Manifest ---------------------------------------------------------------

TEST_F(FleetTest, ManifestParsesRowsAndResolvesRelativePaths) {
  const std::string path = WriteManifest(
      "manifest_ok.csv",
      {"1,a,a.network.csv,a.model.artifact,a.oracle.artifact,oracle",
       "2,b,b.network.csv,b.model.artifact,,model",
       "3,c," + city_c_->network_path + ",c.model.artifact," +
           city_c_->oracle_path + ",reject"});
  const std::vector<serve::FleetEntry> entries = serve::ReadFleetManifest(path);
  ASSERT_EQ(entries.size(), 3u);

  EXPECT_EQ(entries[0].network_id, 1u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[0].network_path, *root_ + "/a.network.csv");
  EXPECT_EQ(entries[0].oracle_path, *root_ + "/a.oracle.artifact");
  EXPECT_EQ(entries[0].policy, serve::FallbackPolicy::kOracle);

  EXPECT_EQ(entries[1].policy, serve::FallbackPolicy::kModel);
  EXPECT_TRUE(entries[1].oracle_path.empty());

  // Absolute paths pass through untouched.
  EXPECT_EQ(entries[2].network_path, city_c_->network_path);
  EXPECT_EQ(entries[2].policy, serve::FallbackPolicy::kReject);
}

TEST_F(FleetTest, ManifestRejectsMalformedFiles) {
  EXPECT_THROW(serve::ReadFleetManifest(*root_ + "/no_such_manifest.csv"),
               std::runtime_error);

  const std::string bad_header = *root_ + "/manifest_bad_header.csv";
  {
    std::ofstream out(bad_header);
    out << "id,name,network\n1,a,a.network.csv\n";
  }
  EXPECT_THROW(serve::ReadFleetManifest(bad_header), std::runtime_error);

  EXPECT_THROW(
      serve::ReadFleetManifest(WriteManifest(
          "manifest_dup_id.csv",
          {"1,a,a.network.csv,a.model.artifact,,",
           "1,b,b.network.csv,b.model.artifact,,"})),
      std::runtime_error);
  EXPECT_THROW(
      serve::ReadFleetManifest(WriteManifest(
          "manifest_dup_name.csv",
          {"1,a,a.network.csv,a.model.artifact,,",
           "2,a,b.network.csv,b.model.artifact,,"})),
      std::runtime_error);
  EXPECT_ANY_THROW(serve::ReadFleetManifest(WriteManifest(
      "manifest_bad_policy.csv",
      {"1,a,a.network.csv,a.model.artifact,,sometimes"})));
  EXPECT_THROW(serve::ReadFleetManifest(WriteManifest("manifest_empty.csv", {})),
               std::runtime_error);
}

TEST_F(FleetTest, FallbackPolicyNamesRoundTrip) {
  for (const auto policy :
       {serve::FallbackPolicy::kModel, serve::FallbackPolicy::kOracle,
        serve::FallbackPolicy::kReject}) {
    EXPECT_EQ(serve::ParseFallbackPolicy(serve::FallbackPolicyName(policy)),
              policy);
  }
  // Empty means "take the default".
  EXPECT_EQ(serve::ParseFallbackPolicy(""), serve::FallbackPolicy::kOracle);
  EXPECT_THROW(serve::ParseFallbackPolicy("never"), std::invalid_argument);
}

// --- Routing and warm serving -----------------------------------------------

TEST_F(FleetTest, RoutesByNetworkIdAndServesWarmShardsBitIdentically) {
  const std::string path = WriteManifest(
      "manifest_two_warm.csv",
      {"1,a,a.network.csv,a.model.artifact,a.oracle.artifact,oracle",
       "2,b,b.network.csv,b.model.artifact,b.oracle.artifact,oracle"});
  serve::FleetRouter router(serve::ReadFleetManifest(path), QuietOptions());
  EXPECT_EQ(router.WarmCount(), 2u);
  EXPECT_EQ(router.Resolve(99), nullptr);

  serve::FleetShard* a = router.Resolve(1);
  serve::FleetShard* b = router.Resolve(2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->name(), "a");
  EXPECT_EQ(b->name(), "b");
  EXPECT_TRUE(a->warm());
  EXPECT_TRUE(b->warm());
  EXPECT_EQ(a->num_segments(), city_a_->dataset.network.num_segments());
  EXPECT_EQ(b->num_segments(), city_b_->dataset.network.num_segments());

  // Each shard's numbers are exactly a standalone service's numbers over
  // the same artifact and network — sharding adds routing, not drift.
  const auto standalone = serve::EtaService::FromArtifact(
      city_a_->artifact_path, a->network(), serve::EtaServiceOptions{});
  for (size_t i = 0; i < 8; ++i) {
    const traj::OdInput od = SampleOd(*city_a_, i);
    EXPECT_EQ(a->service()->Estimate(od), standalone->Estimate(od)) << i;
  }
  router.Stop();
}

// --- Partial fleet failure ---------------------------------------------------

TEST_F(FleetTest, CorruptArtifactLeavesOneCityOnOracleWhileOthersServe) {
  // City b's artifact is garbage; city a's is intact. The fleet must come
  // up with a warm and b cold-but-answering — the partial-failure contract
  // the oracle tier exists for.
  const std::string broken = *root_ + "/broken.model.artifact";
  {
    std::ofstream out(broken, std::ios::binary);
    out << "this is not a state dict";
  }
  const std::string path = WriteManifest(
      "manifest_partial.csv",
      {"1,a,a.network.csv,a.model.artifact,a.oracle.artifact,oracle",
       "2,b,b.network.csv,broken.model.artifact,b.oracle.artifact,oracle"});
  serve::FleetRouter router(serve::ReadFleetManifest(path), QuietOptions());
  EXPECT_EQ(router.WarmCount(), 1u);

  serve::FleetShard* b = router.Resolve(2);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->warm());
  EXPECT_GE(CounterValue(router, "fleet/b/activation_failures"), 1.0);
  EXPECT_EQ(CounterValue(router, "fleet/b/cold"), 1.0);
  EXPECT_EQ(CounterValue(router, "fleet/a/cold"), 0.0);

  // The cold shard answers from its oracle artifact, tagged as such, with
  // exactly the oracle's numbers.
  const traj::OdInput od = SampleOd(*city_b_);
  const auto fallback = b->FallbackEstimate(od);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->estimator, Estimator::kOracle);
  EXPECT_EQ(fallback->eta, city_b_->oracle.Predict(b->network(), od));
  EXPECT_TRUE(b->InDistribution(od));

  // The healthy city is untouched: bit-identical to a standalone service.
  serve::FleetShard* a = router.Resolve(1);
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->warm());
  const auto standalone = serve::EtaService::FromArtifact(
      city_a_->artifact_path, a->network(), serve::EtaServiceOptions{});
  for (size_t i = 0; i < 8; ++i) {
    const traj::OdInput sample = SampleOd(*city_a_, i);
    EXPECT_EQ(a->service()->Estimate(sample), standalone->Estimate(sample))
        << i;
  }
  router.Stop();
}

// --- Cold-shard activation ---------------------------------------------------

TEST_F(FleetTest, ActivateNowBringsAColdShardWarmExactlyOnce) {
  const std::string pending = *root_ + "/pending.model.artifact";
  std::filesystem::remove(pending);
  const std::string path = WriteManifest(
      "manifest_pending.csv",
      {"1,a,a.network.csv,pending.model.artifact,a.oracle.artifact,oracle"});

  serve::FleetRouterOptions options = QuietOptions();
  std::vector<std::string> activated;
  options.on_adopt = [&activated](const serve::FleetShard& shard,
                                  bool hot_swap) {
    EXPECT_FALSE(hot_swap);
    EXPECT_TRUE(shard.warm());
    activated.push_back(shard.name());
  };
  serve::FleetRouter router(serve::ReadFleetManifest(path), options);
  serve::FleetShard* a = router.Resolve(1);
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->warm());
  EXPECT_EQ(router.ActivateNow(), 0u);  // nothing to load yet

  std::filesystem::copy_file(city_a_->artifact_path, pending);
  EXPECT_EQ(router.ActivateNow(), 1u);
  EXPECT_TRUE(a->warm());
  EXPECT_EQ(router.WarmCount(), 1u);
  ASSERT_EQ(activated.size(), 1u);
  EXPECT_EQ(activated[0], "a");
  EXPECT_EQ(router.ActivateNow(), 0u);  // one-way, no re-activation

  const traj::OdInput od = SampleOd(*city_a_);
  const auto standalone = serve::EtaService::FromArtifact(
      city_a_->artifact_path, a->network(), serve::EtaServiceOptions{});
  EXPECT_EQ(a->service()->Estimate(od), standalone->Estimate(od));
  router.Stop();
}

TEST_F(FleetTest, WatcherStopsPollingOnceTheLastColdShardIsWarm) {
  const std::string pending = *root_ + "/pending_poll.model.artifact";
  std::filesystem::remove(pending);
  const std::string path = WriteManifest(
      "manifest_pending_poll.csv",
      {"1,a,a.network.csv,a.model.artifact,,model",
       "2,b,b.network.csv,pending_poll.model.artifact,b.oracle.artifact,"
       "oracle"});
  serve::FleetRouterOptions options;  // no watch: activation only
  options.poll_interval = std::chrono::milliseconds(5);
  serve::FleetRouter router(serve::ReadFleetManifest(path), options);
  ASSERT_EQ(router.WarmCount(), 1u);
  // A cold shard keeps the watcher polling.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (CounterValue(router, "fleet/polls") < 2.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(CounterValue(router, "fleet/polls"), 2.0);

  std::filesystem::copy_file(city_b_->artifact_path, pending);
  ASSERT_EQ(router.ActivateNow(), 1u);
  ASSERT_EQ(router.WarmCount(), 2u);
  // Every shard warm and no hot swap: the poll loop ends (give it many
  // intervals to notice), and the round count stays put.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double settled = CounterValue(router, "fleet/polls");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(CounterValue(router, "fleet/polls"), settled);
  router.Stop();
}

// --- Hot swap ----------------------------------------------------------------

TEST_F(FleetTest, HotSwapRefusesAnArtifactStampedForAnotherCity) {
  // City a serves from a path the test republishes with an atomic rename,
  // the way a deployment publishes artifacts.
  const std::string watched = *root_ + "/swap.model.artifact";
  const auto publish = [&watched](const std::string& src) {
    const std::string tmp = watched + ".tmp";
    std::filesystem::copy_file(
        src, tmp, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::rename(tmp, watched);
  };
  publish(city_a_->artifact_path);
  // City a's network with other weights, stamped for city b.
  const std::string foreign = *root_ + "/a.foreign.model.artifact";
  {
    core::DeepOdConfig model_config = core::DeepOdConfig().Scaled(16);
    model_config.epochs = 1;
    model_config.batch_size = 8;
    model_config.seed = 99;
    core::DeepOdModel model(model_config, city_a_->dataset);
    model.SetTraining(false);
    io::ArtifactOptions options;
    options.network_id = 2;
    io::WriteModelArtifact(foreign, model, nullptr, options);
  }
  const std::string path = WriteManifest(
      "manifest_swap.csv",
      {"1,a,a.network.csv,swap.model.artifact,a.oracle.artifact,oracle"});
  serve::FleetRouterOptions options = QuietOptions();
  options.watch = true;
  serve::FleetRouter router(serve::ReadFleetManifest(path), options);
  serve::FleetShard* a = router.Resolve(1);
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->warm());
  const std::shared_ptr<serve::EtaService> service = a->service();
  const uint64_t epoch = service->state()->epoch;
  const auto standalone = serve::EtaService::FromArtifact(
      city_a_->artifact_path, a->network(), serve::EtaServiceOptions{});

  publish(foreign);
  EXPECT_EQ(router.ActivateNow(), 0u);  // refused
  EXPECT_EQ(CounterValue(router, "fleet/a/reload_failures"), 1.0);
  EXPECT_EQ(service->state()->epoch, epoch);
  for (size_t i = 0; i < 8; ++i) {
    const traj::OdInput od = SampleOd(*city_a_, i);
    const double served = a->service()->Estimate(od);
    const double expected = standalone->Estimate(od);
    EXPECT_EQ(std::memcmp(&served, &expected, sizeof(double)), 0) << i;
  }

  // The refused bytes are not re-tried; a correctly stamped artifact swaps.
  EXPECT_EQ(router.ActivateNow(), 0u);
  EXPECT_EQ(CounterValue(router, "fleet/a/reload_failures"), 1.0);
  publish(city_a_->artifact_path);
  EXPECT_EQ(router.ActivateNow(), 1u);
  EXPECT_EQ(service->state()->epoch, epoch + 1);
  router.Stop();
}

TEST_F(FleetTest, FleetOfOneRefusesAHotSwapStampedForAnotherCity) {
  // A single-city deployment of city a: its startup artifact carries
  // network_id 1, so a later artifact must carry 1 (or none) as well.
  const std::string watched = *root_ + "/one.model.artifact";
  const auto publish = [&watched](const std::string& src) {
    const std::string tmp = watched + ".tmp";
    std::filesystem::copy_file(
        src, tmp, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::rename(tmp, watched);
  };
  publish(city_a_->artifact_path);
  // City a's network, stamped for city b.
  const std::string foreign = *root_ + "/one.foreign.model.artifact";
  {
    core::DeepOdConfig model_config = core::DeepOdConfig().Scaled(16);
    model_config.epochs = 1;
    model_config.batch_size = 8;
    model_config.seed = 99;
    core::DeepOdModel model(model_config, city_a_->dataset);
    model.SetTraining(false);
    io::ArtifactOptions options;
    options.network_id = 2;
    io::WriteModelArtifact(foreign, model, nullptr, options);
  }
  auto network = std::make_shared<const road::RoadNetwork>(
      io::ReadNetworkCsv(city_a_->network_path));
  std::shared_ptr<serve::ServingState> state =
      serve::LoadServingState(watched, *network, io::ArtifactOptions{});
  serve::FleetRouterOptions options = QuietOptions();
  options.watch = true;
  std::vector<uint64_t> adopted_epochs;
  options.on_adopt = [&adopted_epochs](const serve::FleetShard& shard,
                                       bool hot_swap) {
    EXPECT_TRUE(hot_swap);
    // Runs after the flip: the new epoch already serves.
    adopted_epochs.push_back(shard.service()->state()->epoch);
  };
  serve::FleetRouter router(state, std::move(network), options);
  ASSERT_EQ(router.shards().size(), 1u);
  serve::FleetShard* shard = router.Resolve(42);  // any id
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard, router.Resolve(0));
  EXPECT_EQ(shard->network_id(), 1u);
  EXPECT_EQ(shard->policy(), serve::FallbackPolicy::kModel);
  const std::shared_ptr<serve::EtaService> service = shard->service();
  const auto standalone = serve::EtaService::FromArtifact(
      city_a_->artifact_path, shard->network(), serve::EtaServiceOptions{});

  publish(foreign);
  EXPECT_EQ(router.ActivateNow(), 0u);  // refused
  EXPECT_EQ(CounterValue(router, "fleet/reload_failures"), 1.0);
  EXPECT_EQ(service->state()->epoch, 0u);
  EXPECT_TRUE(adopted_epochs.empty());
  for (size_t i = 0; i < 8; ++i) {
    const traj::OdInput od = SampleOd(*city_a_, i);
    const double served = service->Estimate(od);
    const double expected = standalone->Estimate(od);
    EXPECT_EQ(std::memcmp(&served, &expected, sizeof(double)), 0) << i;
  }

  publish(city_a_->artifact_path);
  EXPECT_EQ(router.ActivateNow(), 1u);
  EXPECT_EQ(service->state()->epoch, 1u);
  EXPECT_EQ(adopted_epochs, std::vector<uint64_t>{1});
  router.Stop();
}

// --- Fleet server over a real socket -----------------------------------------

TEST_F(FleetTest, LiveHooksOverTwoShardsAreRefused) {
  const std::string path = WriteManifest(
      "manifest_hooks.csv",
      {"1,a,a.network.csv,a.model.artifact,a.oracle.artifact,oracle",
       "2,b,b.network.csv,b.model.artifact,b.oracle.artifact,oracle"});
  serve::FleetRouter router(serve::ReadFleetManifest(path), QuietOptions());
  serve::DriftMonitor drift(serve::DriftMonitorOptions{});
  ServerOptions options;
  options.live.drift = &drift;
  EXPECT_THROW(DeepOdServer(router, options), std::invalid_argument);
  options.live.drift = nullptr;
  EXPECT_NO_THROW(DeepOdServer(router, options));
  router.Stop();
}

TEST_F(FleetTest, ServerServesThreeCitiesFromOneProcess) {
  // a and b serve their models; c has no model artifact on disk and serves
  // from its oracle artifact under the (default) oracle policy.
  const std::string path = WriteManifest(
      "manifest_three.csv",
      {"1,a,a.network.csv,a.model.artifact,a.oracle.artifact,oracle",
       "2,b,b.network.csv,b.model.artifact,b.oracle.artifact,oracle",
       "3,c,c.network.csv,c.model.artifact,c.oracle.artifact,oracle"});
  serve::FleetRouter router(serve::ReadFleetManifest(path), QuietOptions());
  EXPECT_EQ(router.WarmCount(), 2u);

  DeepOdServer server(router, ServerOptions{});
  server.Start();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  const auto round_trip = [&](uint64_t id, uint32_t network_id,
                              const traj::OdInput& od, ResponseFrame* out) {
    RequestFrame request;
    request.request_id = id;
    request.network_id = network_id;
    request.od = od;
    ASSERT_TRUE(client.Send(request));
    ASSERT_TRUE(client.ReadResponse(out));
    EXPECT_EQ(out->request_id, id);
  };

  // Warm cities answer with their own shard's model numbers.
  ResponseFrame response;
  const traj::OdInput od_a = SampleOd(*city_a_);
  round_trip(1, 1, od_a, &response);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.estimator, Estimator::kModel);
  EXPECT_EQ(response.eta_seconds, router.Resolve(1)->service()->Estimate(od_a));

  const traj::OdInput od_b = SampleOd(*city_b_);
  round_trip(2, 2, od_b, &response);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.estimator, Estimator::kModel);
  EXPECT_EQ(response.eta_seconds, router.Resolve(2)->service()->Estimate(od_b));

  // The model-less city answers from the oracle tier, tagged in the
  // estimator byte, with exactly the oracle's numbers.
  const traj::OdInput od_c = SampleOd(*city_c_);
  round_trip(3, 3, od_c, &response);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.estimator, Estimator::kOracle);
  EXPECT_EQ(response.eta_seconds,
            city_c_->oracle.Predict(router.Resolve(3)->network(), od_c));

  // Unknown ids get the typed rejection; the connection stays usable.
  round_trip(4, 42, od_a, &response);
  EXPECT_EQ(response.status, Status::kUnknownNetwork);

  // Segment validation is per shard: a segment id valid in the 6x6 city is
  // out of range for the smaller 5x5 city.
  traj::OdInput oversized = od_a;
  oversized.origin_segment = city_b_->dataset.network.num_segments() + 1;
  ASSERT_LT(oversized.origin_segment, city_a_->dataset.network.num_segments());
  round_trip(5, 2, oversized, &response);
  EXPECT_EQ(response.status, Status::kInvalidRequest);
  round_trip(6, 1, oversized, &response);
  EXPECT_EQ(response.status, Status::kOk);
  // The mutated OD may fall in a cell pair city a never observed; then the
  // oracle policy answers it from the oracle tier instead of extrapolating.
  const bool in_dist =
      city_a_->oracle.InDistribution(router.Resolve(1)->network(), oversized);
  EXPECT_EQ(response.estimator,
            in_dist ? Estimator::kModel : Estimator::kOracle);

  client.Close();
  server.Shutdown();
  router.Stop();

  // The fleet stats identities at quiescence. City c's oracle answers
  // complete inline without ever being admitted; every admitted request was
  // answered in a batch, missed its deadline in the queue or met a cold
  // shard there.
  const auto count = [&server](const std::string& name) {
    return test::RegistryValue(server.registry(), name);
  };
  EXPECT_GE(count("server/completed_inline"), 1.0);
  EXPECT_EQ(count("server/completed"),
            count("server/completed_batch") + count("server/completed_inline"));
  EXPECT_EQ(count("server/admitted"),
            count("server/completed_batch") + count("server/deadline_missed") +
                count("server/shard_cold_in_batch"));

  // The merged stats export carries the per-city accounting.
  EXPECT_GE(CounterValue(router, "fleet/a/model_answers"), 1.0);
  EXPECT_GE(CounterValue(router, "fleet/a/model_answers") +
                CounterValue(router, "fleet/a/oracle_answers"),
            2.0);
  EXPECT_GE(CounterValue(router, "fleet/c/oracle_answers"), 1.0);
}

}  // namespace
}  // namespace deepod
