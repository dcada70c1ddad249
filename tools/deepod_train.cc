// deepod_train: trains a DeepOD model on a simulated city and emits a
// self-contained serving artifact next to everything a separate serving
// process needs:
//
//   <out>/model.artifact  config + model state + frozen speed field
//   <out>/network.csv     the road network (io::WriteNetworkCsv)
//   <out>/golden.csv      (--golden N) N test queries with this process's
//                         predictions, hex-float encoded so a replay can be
//                         compared bit-for-bit (deepod_loadgen --golden)
//   <out>/model.<mode>.artifact  (--quant MODE) the same artifact with its
//                         eligible weights stored quantised (fp16 or int8,
//                         serialize-v3); replay it with deepod_loadgen
//                         --golden --tolerance, not bit-for-bit
//
// The defaults mirror the test suite's tiny dataset so a full
// train->save->serve round trip finishes in CI time.
//
// With --data DIR the dataset comes from a deepod_datagen directory instead
// of being simulated in-process: the traffic/weather environment is rebuilt
// deterministically from DIR/manifest.csv and the splits are loaded from
// the columnar trip stores. --feed sharded trains fully out-of-core: the
// model-initialisation inputs (co-occurrence counts, time scale) and the
// fallback estimators stream from the mmap'd shards record by record, the
// training split is never materialised in memory, and the resulting model
// is bit-identical to the in-memory path. --parity-check trains the
// sharded and the in-memory grouped-shuffle paths side by side at --threads
// and fails unless their validation curves and final states are
// bit-identical.
//
// Fleet serving outputs: every run also trains the two serving-time
// fallback estimators from the training split — an OD-histogram oracle
// (grid-bucketed OD pairs x time slots) and per-segment link means — and
// embeds them, plus --network-id, in model.artifact; a standalone
// <out>/oracle.artifact carries just the fallback tier so deepod_server
// --fleet can answer for a city whose model never trained. --oracle-only
// skips model training entirely and emits only oracle.artifact +
// network.csv.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/od_oracle.h"
#include "baselines/path_tte.h"
#include "cli_flags.h"
#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "core/trip_feed.h"
#include "datagen_manifest.h"
#include "io/model_artifact.h"
#include "io/sharded_trip_source.h"
#include "io/trip_store.h"
#include "nn/quant.h"
#include "io/trip_io.h"
#include "road/edge_graph.h"
#include "sim/dataset.h"
#include "sim/snapshot_speed_field.h"
#include "util/weighted_digraph.h"

namespace {

struct Args {
  std::string out = ".";
  size_t scale = 16;
  int epochs = 1;
  size_t grid = 6;
  size_t trips_per_day = 12;
  size_t num_days = 15;
  uint64_t seed = 17;
  size_t threads = 1;
  size_t golden = 0;
  std::string checkpoint;  // optional: also write a resumable checkpoint
  // optional: also write <out>/model.<mode>.artifact with quantised weights
  deepod::nn::QuantMode quant = deepod::nn::QuantMode::kNone;
  std::string data;               // datagen directory (empty = simulate)
  std::string feed = "inmemory";  // inmemory | sharded (needs --data)
  bool parity_check = false;      // sharded vs in-memory bit parity
  uint64_t network_id = 0;        // stamped into the artifacts (fleet)
  bool oracle_only = false;       // emit only oracle.artifact + network.csv
  // OD-oracle grid resolution. The 16-cell default suits city-scale
  // networks; tiny smoke grids want a coarse oracle (2-4) so OD cell pairs
  // actually repeat and the fallback tier has in-distribution coverage.
  size_t oracle_grid = 16;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--out DIR] [--scale N] [--epochs N] [--grid N]\n"
      "          [--trips-per-day N] [--days N] [--seed N] [--threads N]\n"
      "          [--golden N] [--checkpoint PATH] [--quant fp16|int8]\n"
      "          [--data DIR] [--feed inmemory|sharded] [--parity-check]\n"
      "          [--network-id N] [--oracle-only] [--oracle-grid N]\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  deepod::tools::cli::FlagCursor flags(argc, argv);
  while (flags.Next()) {
    const std::string& flag = flags.flag();
    if (flag == "--out") {
      if (!flags.StringValue(&args->out)) return false;
    } else if (flag == "--scale") {
      if (!flags.SizeValue(&args->scale)) return false;
    } else if (flag == "--epochs") {
      if (!flags.IntValue(&args->epochs)) return false;
    } else if (flag == "--grid") {
      if (!flags.SizeValue(&args->grid)) return false;
    } else if (flag == "--trips-per-day") {
      if (!flags.SizeValue(&args->trips_per_day)) return false;
    } else if (flag == "--days") {
      if (!flags.SizeValue(&args->num_days)) return false;
    } else if (flag == "--seed") {
      if (!flags.U64Value(&args->seed)) return false;
    } else if (flag == "--threads") {
      if (!flags.SizeValue(&args->threads)) return false;
    } else if (flag == "--golden") {
      if (!flags.SizeValue(&args->golden)) return false;
    } else if (flag == "--checkpoint") {
      if (!flags.StringValue(&args->checkpoint)) return false;
    } else if (flag == "--quant") {
      if (!flags.QuantValue(&args->quant)) return false;
    } else if (flag == "--data") {
      if (!flags.DataDirValue(&args->data)) return false;
    } else if (flag == "--feed") {
      if (!flags.StringValue(&args->feed)) return false;
      if (args->feed != "inmemory" && args->feed != "sharded") {
        std::fprintf(stderr, "unknown --feed '%s' (expected inmemory|sharded)\n",
                     args->feed.c_str());
        return false;
      }
    } else if (flag == "--parity-check") {
      args->parity_check = true;
    } else if (flag == "--network-id") {
      if (!flags.U64Value(&args->network_id)) return false;
    } else if (flag == "--oracle-only") {
      args->oracle_only = true;
    } else if (flag == "--oracle-grid") {
      if (!flags.SizeValue(&args->oracle_grid)) return false;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepod;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.data.empty() && (args.feed == "sharded" || args.parity_check)) {
    std::fprintf(stderr, "--feed sharded / --parity-check require --data\n");
    return 2;
  }

  sim::Dataset dataset;
  std::vector<std::string> shard_paths;
  std::vector<size_t> shard_sizes;
  // --feed sharded keeps the training split on disk end to end: one
  // streamed pass over the shards computes everything construction-time
  // code would otherwise read dataset.train for (co-occurrence counts,
  // time scale, fallback estimators), bit-identically to the in-memory
  // path. --parity-check needs both feeds and keeps the old behaviour.
  const bool streamed_init =
      !args.data.empty() && args.feed == "sharded" && !args.parity_check;
  road::EdgeGraphAccumulator streamed_edges;
  double streamed_time_sum = 0.0;
  size_t streamed_trips = 0;
  std::unique_ptr<baselines::OdOracle> oracle;
  baselines::LinkMeanEstimator link_mean;
  if (!args.data.empty()) {
    // Datagen directory: rebuild the environment from the manifest and load
    // the splits from the columnar trip stores (mmap'd, zero projections).
    const tools::DatagenManifest manifest =
        tools::ReadManifest(args.data + "/manifest.csv");
    const sim::DatasetConfig dataset_config = tools::ToDatasetConfig(manifest);
    std::printf("loading dataset from %s (%zu shard(s))...\n",
                args.data.c_str(), manifest.shards);
    sim::InitDatasetEnvironment(dataset_config, &dataset);
    baselines::OdOracle::Options oracle_options;
    oracle_options.grid_cells = args.oracle_grid;
    oracle = std::make_unique<baselines::OdOracle>(dataset.network,
                                                   oracle_options);
    shard_paths = tools::ManifestShardPaths(args.data, manifest.shards);
    traj::TripRecord record;
    for (const auto& path : shard_paths) {
      const auto reader = io::TripStoreReader::OpenOrThrow(path);
      shard_sizes.push_back(reader.size());
      if (streamed_init) {
        for (size_t i = 0; i < reader.size(); ++i) {
          reader.Decode(i, &record);
          streamed_edges.AddSequence(dataset.network,
                                     record.trajectory.SegmentIds());
          streamed_time_sum += record.travel_time;
          ++streamed_trips;
          oracle->Add(dataset.network, record.od, record.travel_time);
          link_mean.Add(record.trajectory);
        }
      } else {
        auto trips = reader.ReadAll();
        dataset.train.insert(dataset.train.end(),
                             std::make_move_iterator(trips.begin()),
                             std::make_move_iterator(trips.end()));
      }
    }
    dataset.validation =
        io::TripStoreReader::OpenOrThrow(args.data + "/val.trips").ReadAll();
    dataset.test =
        io::TripStoreReader::OpenOrThrow(args.data + "/test.trips").ReadAll();
  } else {
    sim::DatasetConfig dataset_config;
    dataset_config.city = road::XianSimConfig();
    dataset_config.city.rows = args.grid;
    dataset_config.city.cols = args.grid;
    dataset_config.trips_per_day = args.trips_per_day;
    dataset_config.num_days = args.num_days;
    dataset_config.seed = args.seed;
    std::printf("building dataset (%zux%zu grid, %zu days)...\n", args.grid,
                args.grid, args.num_days);
    sim::BuildDataset(dataset_config, &dataset);
  }
  std::printf("dataset: %zu train / %zu val / %zu test trips, %zu segments\n",
              streamed_init ? streamed_trips : dataset.train.size(),
              dataset.validation.size(), dataset.test.size(),
              dataset.network.num_segments());

  // The fallback tier for fleet serving: an OD-histogram oracle plus link
  // means, trained from exactly the split the model trains on.
  if (oracle == nullptr) {
    baselines::OdOracle::Options oracle_options;
    oracle_options.grid_cells = args.oracle_grid;
    oracle = std::make_unique<baselines::OdOracle>(dataset.network,
                                                   oracle_options);
  }
  if (!streamed_init) {
    for (const auto& trip : dataset.train) {
      oracle->Add(dataset.network, trip.od, trip.travel_time);
      link_mean.Add(trip.trajectory);
    }
  }
  oracle->Finalize();
  link_mean.Finalize(dataset.network.num_segments());
  std::printf("oracle: %zu OD buckets over %zu pairs, global mean %.1f s\n",
              oracle->num_buckets(), oracle->num_pairs(),
              oracle->global_mean());

  std::filesystem::create_directories(args.out);
  const std::string oracle_path = args.out + "/oracle.artifact";
  const std::string network_path = args.out + "/network.csv";
  io::WriteOracleArtifact(oracle_path,
                          static_cast<uint32_t>(args.network_id),
                          oracle.get(), &link_mean);
  io::WriteNetworkCsv(dataset.network, network_path);
  if (args.oracle_only) {
    std::printf("oracle:   %s\nnetwork:  %s\n", oracle_path.c_str(),
                network_path.c_str());
    return 0;
  }

  core::DeepOdConfig config = core::DeepOdConfig().Scaled(args.scale);
  config.epochs = args.epochs;
  config.batch_size = 8;
  config.num_threads = args.threads;

  if (args.parity_check) {
    // The out-of-core feed against its in-memory twin: both epoch orders
    // come from core::BuildShardEpochOrder over the same shard sizes, so at
    // any --threads every validation MAE and the final model state must
    // agree bit-for-bit. Any divergence is a decode or feed-order bug.
    core::DeepOdModel model_mem(config, dataset);
    core::InMemoryTripFeed feed_mem(dataset.train, shard_sizes);
    core::DeepOdTrainer trainer_mem(model_mem, dataset, &feed_mem);
    core::DeepOdModel model_ooc(config, dataset);
    io::ShardedTripSource feed_ooc(shard_paths);
    core::DeepOdTrainer trainer_ooc(model_ooc, dataset, &feed_ooc);
    bool ok = true;
    for (int epoch = 1; epoch <= config.epochs; ++epoch) {
      const double val_mem = trainer_mem.TrainPrefix(epoch);
      const double val_ooc = trainer_ooc.TrainPrefix(epoch);
      const bool same = std::memcmp(&val_mem, &val_ooc, sizeof(double)) == 0;
      ok = ok && same;
      std::printf("epoch %d: in-memory %a, out-of-core %a — %s\n", epoch,
                  val_mem, val_ooc, same ? "match" : "MISMATCH");
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
    const bool state_same =
        flat_mem.size() == flat_ooc.size() &&
        std::memcmp(flat_mem.data(), flat_ooc.data(),
                    flat_mem.size() * sizeof(double)) == 0;
    ok = ok && state_same;
    std::printf("final model state (%zu doubles): %s\n", flat_mem.size(),
                state_same ? "match" : "MISMATCH");
    std::printf(ok ? "PARITY OK\n" : "PARITY FAILED\n");
    return ok ? 0 : 1;
  }

  std::unique_ptr<core::DeepOdModel> model;
  if (streamed_init) {
    // Same RNG order, same co-occurrence sums (order-independent), same
    // time-scale summation order as the in-memory constructor — the
    // datagen test pins the resulting state bit-for-bit.
    const util::WeightedDigraph edge_graph =
        streamed_edges.Build(dataset.network);
    const double time_scale =
        streamed_trips == 0
            ? 1.0
            : streamed_time_sum / static_cast<double>(streamed_trips);
    model = std::make_unique<core::DeepOdModel>(config, dataset, &edge_graph,
                                                time_scale);
  } else {
    model = std::make_unique<core::DeepOdModel>(config, dataset);
  }
  std::unique_ptr<io::ShardedTripSource> sharded_feed;
  if (args.feed == "sharded") {
    io::ShardedTripSource::Options feed_options;
    sharded_feed =
        std::make_unique<io::ShardedTripSource>(shard_paths, feed_options);
  }
  core::DeepOdTrainer trainer(*model, dataset, sharded_feed.get());
  const double best_mae = trainer.Train();
  std::printf("trained %d epoch(s), %zu steps, validation MAE %.3f s\n",
              config.epochs, trainer.steps_taken(), best_mae);

  if (!args.checkpoint.empty()) {
    trainer.SaveCheckpoint(args.checkpoint);
    std::printf("checkpoint: %s\n", args.checkpoint.c_str());
  }

  // Freeze the speed field over the window every test query falls in, so
  // serving from the artifact reproduces the training process's external
  // features exactly.
  std::unique_ptr<sim::SnapshotSpeedField> speed;
  if (dataset.speed_matrices != nullptr && !dataset.test.empty()) {
    double begin = dataset.test.front().od.departure_time;
    double end = begin;
    for (const auto& trip : dataset.test) {
      begin = std::min(begin, trip.od.departure_time);
      end = std::max(end, trip.od.departure_time);
    }
    speed = std::make_unique<sim::SnapshotSpeedField>(
        sim::SnapshotSpeedField::Capture(*dataset.speed_matrices, begin, end));
    std::printf("speed field: %zu snapshots of %zux%zu\n",
                speed->size(), speed->rows(), speed->cols());
  }

  const std::string artifact_path = args.out + "/model.artifact";
  io::ArtifactOptions artifact_options;
  artifact_options.network_id = static_cast<uint32_t>(args.network_id);
  artifact_options.oracle = oracle.get();
  artifact_options.link_mean = &link_mean;
  io::WriteModelArtifact(artifact_path, *model, speed.get(),
                         artifact_options);
  if (args.quant != nn::QuantMode::kNone) {
    // The fp64 artifact above stays the golden-replay source of truth; the
    // quantised sibling is the deployment variant.
    const std::string quant_path = args.out + "/model." +
                                   nn::QuantModeName(args.quant) + ".artifact";
    io::ArtifactOptions quant_options = artifact_options;
    quant_options.quant = args.quant;
    io::WriteModelArtifact(quant_path, *model, speed.get(), quant_options);
    std::printf("quantised artifact: %s\n", quant_path.c_str());
  }
  std::printf("artifact: %s\noracle:   %s\nnetwork:  %s\n",
              artifact_path.c_str(), oracle_path.c_str(),
              network_path.c_str());

  if (args.golden > 0) {
    const std::string golden_path = args.out + "/golden.csv";
    std::FILE* f = std::fopen(golden_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", golden_path.c_str());
      return 1;
    }
    // Hex floats (%a) round-trip doubles exactly; deepod_loadgen --golden
    // compares the served predictions bit-for-bit.
    std::fprintf(f,
                 "origin_segment,dest_segment,origin_ratio,dest_ratio,"
                 "departure_time,weather,prediction\n");
    // For fleet-destined artifacts (--network-id set) only in-distribution
    // test queries are written: under a fleet's oracle fallback policy,
    // out-of-distribution ODs are answered by the oracle tier, so goldens
    // over them would not replay bit-identically against the model.
    // Restricting to covered cell pairs keeps the golden file valid
    // against every fallback policy. Single-city artifacts keep the full
    // unfiltered golden set — no OOD redirection exists there.
    const bool fleet_goldens = args.network_id > 0;
    size_t n = 0;
    for (size_t i = 0; i < dataset.test.size() && n < args.golden; ++i) {
      const traj::OdInput& od = dataset.test[i].od;
      if (fleet_goldens && !oracle->InDistribution(dataset.network, od)) {
        continue;
      }
      const double prediction = model->Predict(od);
      std::fprintf(f, "%zu,%zu,%a,%a,%a,%d,%a\n", od.origin_segment,
                   od.dest_segment, od.origin_ratio, od.dest_ratio,
                   od.departure_time, od.weather_type, prediction);
      ++n;
    }
    std::fclose(f);
    std::printf("golden:   %s (%zu queries)\n", golden_path.c_str(), n);
  }
  return 0;
}
