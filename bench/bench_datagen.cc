// Million-trip data plane bench: trip-synthesis throughput across thread
// counts, columnar trip-store write/ingest rates (mmap vs. CSV), and the
// out-of-core training overhead of io::ShardedTripSource against the
// in-memory feed. Writes BENCH_datagen.json, which CI compares against the
// committed baseline.
//
// Scale knobs (record names embed the trip count, so runs at different
// scales never falsely compare against each other):
//   DEEPOD_BENCH_DATAGEN_TRIPS   full-scale corpus size   (default 1000000)
//   DEEPOD_BENCH_DATAGEN_SWEEP   trips per thread-sweep point (default /10)
//   DEEPOD_BENCH_DATAGEN_SHARDS  trip-store shard count   (default 8)
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "core/trip_feed.h"
#include "io/sharded_trip_source.h"
#include "io/trip_io.h"
#include "io/trip_store.h"
#include "obs/metrics.h"
#include "sim/dataset.h"
#include "sim/trip_gen.h"
#include "sim/trip_simulator.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace deepod;

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const unsigned long long parsed = std::strtoull(v, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

// The bench city: the Xi'an preset grid, trips spread over a fixed number
// of days so the traffic/weather environment stays the same at every scale.
sim::DatasetConfig CityConfig(size_t trips) {
  sim::DatasetConfig config;
  config.city = road::XianSimConfig();
  config.num_days = 10;
  config.trips_per_day = std::max<size_t>(1, trips / config.num_days);
  config.seed = 90210;
  return config;
}

std::string Trips(size_t n) { return "/trips=" + std::to_string(n); }

// A timed stage: `items` trips processed in `secs` on `threads` threads.
obs::Record Timed(std::string name, double secs, size_t threads,
                  size_t items) {
  obs::Record r;
  r.name = std::move(name);
  r.wall_seconds = secs;
  r.threads = threads;
  r.samples_per_sec = static_cast<double>(items) / secs;
  return r;
}

// A dimensionless ratio of two timed stages.
obs::Record Ratio(std::string name, double value) {
  obs::Record r;
  r.name = std::move(name);
  r.value = value;
  return r;
}

// One epoch of DeepOD training over `feed`; returns wall seconds.
double TimeEpoch(const sim::Dataset& dataset, core::TripFeed* feed) {
  core::DeepOdConfig config = bench::BenchModelConfig();
  config.epochs = 1;
  config.num_threads = 1;  // serial: isolates the feed's decode overhead
  core::DeepOdModel model(config, dataset);
  core::DeepOdTrainer trainer(model, dataset, feed);
  util::Stopwatch sw;
  trainer.TrainPrefix(1);
  return sw.ElapsedSeconds();
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Data plane — parallel synthesis, trip-store ingest, out-of-core train");
  const size_t trips = EnvSize("DEEPOD_BENCH_DATAGEN_TRIPS", 1000000);
  const size_t sweep_trips = EnvSize("DEEPOD_BENCH_DATAGEN_SWEEP",
                                     std::max<size_t>(1000, trips / 10));
  const size_t shards = EnvSize("DEEPOD_BENCH_DATAGEN_SHARDS", 8);
  const size_t auto_threads = util::ThreadPool::ResolveThreadCount(0);
  const std::string scratch = "bench_datagen_scratch";
  std::filesystem::create_directories(scratch);
  std::vector<obs::Record> records;

  // --- Generate-throughput thread sweep -----------------------------------
  // Per-trip RNG streams make the generated set identical at every thread
  // count, so the sweep measures pure synthesis scaling.
  {
    const sim::DatasetConfig config = CityConfig(sweep_trips);
    sim::Dataset env;
    sim::InitDatasetEnvironment(config, &env);
    const sim::TripSimulator simulator(env.network, *env.traffic, *env.weather);
    const size_t n = config.trips_per_day * config.num_days;
    for (size_t threads : {1, 2, 4, 8}) {
      sim::TripGenOptions options;
      options.num_threads = threads;
      util::Stopwatch sw;
      const auto generated = sim::GenerateTrips(simulator, config, options);
      const double secs = sw.ElapsedSeconds();
      const double sps = static_cast<double>(generated.size()) / secs;
      std::printf("generate %8zu trips, %zu thread(s): %6.2f s  (%.0f trips/s)\n",
                  generated.size(), threads, secs, sps);
      records.push_back(Timed("datagen/generate/threads=" +
                                  std::to_string(threads) + Trips(n),
                              secs, threads, generated.size()));
    }
  }

  // --- Full-scale generate + store write + ingest --------------------------
  const sim::DatasetConfig config = CityConfig(trips);
  const size_t n = config.trips_per_day * config.num_days;
  std::vector<traj::TripRecord> corpus;
  {
    sim::Dataset env;
    sim::InitDatasetEnvironment(config, &env);
    const sim::TripSimulator simulator(env.network, *env.traffic, *env.weather);
    sim::TripGenOptions options;
    options.num_threads = auto_threads;
    util::Stopwatch sw;
    corpus = sim::GenerateTrips(simulator, config, options);
    const double secs = sw.ElapsedSeconds();
    const double sps = static_cast<double>(corpus.size()) / secs;
    std::printf("generate %8zu trips, full scale:   %6.2f s  (%.0f trips/s)\n",
                corpus.size(), secs, sps);
    records.push_back(Timed("datagen/generate/full" + Trips(n), secs,
                            auto_threads, corpus.size()));

    double write_secs = 0.0;
    {
      util::Stopwatch w;
      io::WriteTripShards(scratch, "bench", corpus, shards);
      write_secs = w.ElapsedSeconds();
    }
    std::printf("store write (%zu shards):            %6.2f s  (%.0f trips/s)\n",
                shards, write_secs, static_cast<double>(n) / write_secs);
    records.push_back(Timed("datagen/store_write" + Trips(n), write_secs, 1, n));
  }

  // Ingest: mmap'd columnar shards vs. the CSV path, both ending in the
  // same in-memory std::vector<TripRecord>.
  double mmap_secs = 0.0;
  {
    util::Stopwatch sw;
    std::vector<traj::TripRecord> loaded;
    loaded.reserve(n);
    for (size_t k = 0; k < shards; ++k) {
      const auto reader = io::TripStoreReader::OpenOrThrow(
          scratch + "/bench-" + std::to_string(k) + ".trips");
      auto part = reader.ReadAll();
      loaded.insert(loaded.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    mmap_secs = sw.ElapsedSeconds();
    if (loaded.size() != corpus.size()) {
      std::fprintf(stderr, "ingest mismatch: %zu != %zu\n", loaded.size(),
                   corpus.size());
      return 1;
    }
  }
  records.push_back(Timed("datagen/ingest/mmap" + Trips(n), mmap_secs, 1, n));

  double csv_secs = 0.0;
  {
    // Write the CSV outside the timed region: the comparison is ingest.
    sim::Dataset env;
    sim::InitDatasetEnvironment(config, &env);
    const std::string csv_path = scratch + "/bench.csv";
    io::WriteTripsCsv(corpus, csv_path);
    util::Stopwatch sw;
    const auto loaded = io::ReadTripsCsv(env.network, csv_path);
    csv_secs = sw.ElapsedSeconds();
    if (loaded.size() != corpus.size()) {
      std::fprintf(stderr, "csv ingest mismatch: %zu != %zu\n", loaded.size(),
                   corpus.size());
      return 1;
    }
  }
  records.push_back(Timed("datagen/ingest/csv" + Trips(n), csv_secs, 1, n));
  const double ingest_speedup = csv_secs / mmap_secs;
  records.push_back(
      Ratio("datagen/ingest/mmap_vs_csv_speedup", ingest_speedup));
  std::printf(
      "ingest %zu trips: mmap %0.2f s, csv %0.2f s  (%.1fx)\n", n, mmap_secs,
      csv_secs, ingest_speedup);
  corpus.clear();
  corpus.shrink_to_fit();

  // --- Out-of-core vs. in-memory 1-epoch training --------------------------
  // Smoke-sized city: the point is the relative feed overhead, not absolute
  // training throughput (bench_table5_efficiency owns that).
  {
    sim::DatasetConfig train_config = CityConfig(3000);
    train_config.num_days = 15;
    train_config.trips_per_day = 200;
    const sim::Dataset dataset = sim::BuildDatasetParallel(train_config);
    const auto shard_paths =
        io::WriteTripShards(scratch, "train", dataset.train, 4);
    std::vector<size_t> shard_sizes;
    for (const auto& path : shard_paths) {
      shard_sizes.push_back(io::TripStoreReader::OpenOrThrow(path).size());
    }

    core::InMemoryTripFeed in_memory(dataset.train, shard_sizes);
    const double mem_secs = TimeEpoch(dataset, &in_memory);
    io::ShardedTripSource sharded(shard_paths);
    const double ooc_secs = TimeEpoch(dataset, &sharded);
    const double overhead = ooc_secs / mem_secs;
    const size_t m = dataset.train.size();
    std::printf(
        "train 1 epoch (%zu trips): in-memory %0.2f s, out-of-core %0.2f s\n"
        "  overhead %.3fx  (lookahead window hits: %zu)\n",
        m, mem_secs, ooc_secs, overhead, sharded.prefetch_hits());
    records.push_back(
        Timed("datagen/train_epoch/in_memory" + Trips(m), mem_secs, 1, m));
    records.push_back(
        Timed("datagen/train_epoch/out_of_core" + Trips(m), ooc_secs, 1, m));
    records.push_back(Ratio("datagen/train_epoch/ooc_vs_mem_speedup", overhead));
  }

  std::filesystem::remove_all(scratch);
  obs::WriteRecordsJson("BENCH_datagen.json", records);
  return 0;
}
