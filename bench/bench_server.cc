// Serving-policy bench: compares the estimator tiers a fleet shard can
// answer from, writing BENCH_server.json (obs::Record schema — the
// percentile-bearing superset of the BenchJsonRecord lines;
// tools/validate_bench_json.py covers both):
//   - server/policy/{model,oracle,linkmean}/{mae,latency}: the serving-time
//     estimator tiers compared offline on the held-out test trips — what a
//     fleet operator trades away when a city answers from a fallback tier
//     instead of its model.
//   - server/policy/cold_{oracle,model}/availability: a cold fleet shard
//     over the wire under both fallback policies. The oracle policy keeps
//     availability at 1.0 (every answer from the oracle tier); the model
//     policy rejects everything with kShardCold.
// The cold-shard scenario stands a DeepOdServer up in-process on an
// ephemeral port and drives it with the open-loop load generator. mae and
// availability are value records; bench_compare.py skips those names
// (data-dependent values, not regressions). Serving cost and the
// steady/overload shedding contracts are gated against the real
// deepod_server binary instead: perfbench's serve_* workloads and CI's
// server-smoke loadgen steps.
// Usage: bench_server [qps] (default 200; CI smoke passes less).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "baselines/od_oracle.h"
#include "baselines/path_tte.h"
#include "bench/common.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "io/model_artifact.h"
#include "io/trip_io.h"
#include "obs/metrics.h"
#include "serve/fleet_router.h"
#include "serve/server/loadgen.h"
#include "serve/server/server.h"
#include "sim/dataset.h"

using namespace deepod;

namespace {

double PercentileMs(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const size_t idx = static_cast<size_t>(q * double(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const double qps = argc > 1 ? std::atof(argv[1]) : 200.0;
  bench::PrintBanner("Serving policies — model vs fallback tiers");

  const sim::Dataset dataset =
      sim::BuildDataset(bench::MiniConfig(bench::City::kXian));
  // A few epochs are enough to make the policy comparison below honest.
  core::DeepOdConfig model_config = bench::BenchModelConfig();
  model_config.epochs = 4;
  core::DeepOdModel model(model_config, dataset);
  {
    core::DeepOdTrainer trainer(model, dataset);
    trainer.Train();
  }
  model.SetTraining(false);

  std::vector<obs::Record> records;

  // --- Serving-policy comparison: model vs oracle vs link-mean ---------------
  // What a fleet trades away when a city answers from a fallback tier: the
  // accuracy and per-call latency of each estimator over the held-out test
  // trips, and the availability a cold shard keeps under each policy.
  baselines::OdOracle oracle(dataset.network, baselines::OdOracle::Options{});
  baselines::LinkMeanEstimator links;
  for (const auto& trip : dataset.train) {
    oracle.Add(dataset.network, trip.od, trip.travel_time);
    links.Add(trip.trajectory);
  }
  oracle.Finalize();
  links.Finalize(dataset.network.num_segments());

  {
    const size_t eval_n = std::min<size_t>(dataset.test.size(), 400);
    struct Tier {
      const char* name;
      std::function<double(const traj::OdInput&)> predict;
    };
    const Tier tiers[] = {
        {"model", [&](const traj::OdInput& od) { return model.Predict(od); }},
        {"oracle",
         [&](const traj::OdInput& od) {
           return oracle.Predict(dataset.network, od);
         }},
        {"linkmean",
         [&](const traj::OdInput& od) {
           return links.Predict(dataset.network, od);
         }},
    };
    for (const Tier& tier : tiers) {
      double abs_error_sum = 0.0;
      double wall = 0.0;
      std::vector<double> call_ms;
      call_ms.reserve(eval_n);
      for (size_t i = 0; i < eval_n; ++i) {
        const auto& trip = dataset.test[i];
        const auto t0 = std::chrono::steady_clock::now();
        const double eta = tier.predict(trip.od);
        const auto t1 = std::chrono::steady_clock::now();
        abs_error_sum += std::fabs(eta - trip.travel_time);
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        call_ms.push_back(ms);
        wall += ms / 1000.0;
      }
      const double mae =
          eval_n == 0 ? 0.0 : abs_error_sum / static_cast<double>(eval_n);

      obs::Record mae_record;
      mae_record.name = std::string("server/policy/") + tier.name + "/mae";
      mae_record.wall_seconds = wall;
      mae_record.count = static_cast<double>(eval_n);
      mae_record.value = mae;
      records.push_back(mae_record);

      obs::Record latency;
      latency.name = std::string("server/policy/") + tier.name + "/latency";
      latency.wall_seconds = wall;
      latency.count = static_cast<double>(eval_n);
      latency.p50_ms = PercentileMs(call_ms, 0.50);
      latency.p95_ms = PercentileMs(call_ms, 0.95);
      latency.p99_ms = PercentileMs(call_ms, 0.99);
      records.push_back(latency);

      std::printf("policy/%s: mae %.1f s | call ms p50 %.4f p99 %.4f (%zu "
                  "test trips)\n",
                  tier.name, mae, *latency.p50_ms, *latency.p99_ms, eval_n);
    }
  }

  // --- Cold-shard availability under both fallback policies ------------------
  {
    namespace fs = std::filesystem;
    const fs::path root = fs::path("bench_fleet_tmp");
    fs::create_directories(root);
    io::WriteNetworkCsv(dataset.network, (root / "city.network.csv").string());
    io::WriteOracleArtifact((root / "city.oracle.artifact").string(), 1,
                            &oracle, &links);
    for (const char* policy : {"oracle", "model"}) {
      const fs::path manifest = root / (std::string("fleet_") + policy + ".csv");
      {
        std::ofstream out(manifest);
        out << "network_id,name,network,artifact,oracle,policy\n"
            << "1,city,city.network.csv,city.model.artifact,"
               "city.oracle.artifact,"
            << policy << "\n";  // model artifact deliberately absent: cold
      }
      serve::FleetRouterOptions router_options;
      router_options.poll_interval = std::chrono::milliseconds(600000);
      serve::FleetRouter router(serve::ReadFleetManifest(manifest.string()),
                                router_options);
      serve::net::ServerOptions server_options;
      server_options.executors = 2;
      serve::net::DeepOdServer server(router, server_options);
      server.Start();

      serve::net::LoadgenOptions load;
      load.port = server.port();
      load.qps = qps;
      load.duration_seconds = 1.5;
      load.connections = 4;
      load.num_segments = dataset.network.num_segments();
      load.network_ids = {1};
      load.slo_ms = 250.0;
      load.fetch_server_stats = false;
      const auto report = serve::net::RunLoadgen(load);
      server.Shutdown();
      router.Stop();

      const double availability =
          report.sent == 0
              ? 0.0
              : static_cast<double>(report.ok) / static_cast<double>(report.sent);
      std::printf("policy/cold_%s: sent %llu ok %llu (oracle %llu) "
                  "availability %.3f\n",
                  policy, static_cast<unsigned long long>(report.sent),
                  static_cast<unsigned long long>(report.ok),
                  static_cast<unsigned long long>(report.oracle_ok),
                  availability);

      obs::Record record;
      record.name = std::string("server/policy/cold_") + policy +
                    "/availability";
      record.wall_seconds = report.elapsed_seconds;
      record.threads = load.connections;
      record.count = static_cast<double>(report.ok);
      record.value = availability;
      records.push_back(record);
    }
  }

  obs::WriteRecordsJson("BENCH_server.json", records);
  std::fprintf(stderr, "[bench] wrote BENCH_server.json\n");
  return 0;
}
