// Network-serving bench: stands a DeepOdServer up in-process on an
// ephemeral port and drives it with the open-loop load generator, writing
// BENCH_server.json (obs::Record schema — the percentile-bearing superset
// of the BenchJsonRecord lines; tools/validate_bench_json.py covers both):
//   - server/steady/{throughput,goodput,shed_rate,latency}: ~200 qps
//     against a generously provisioned server — the sustained-load
//     contract. throughput carries achieved qps in samples_per_sec;
//     latency carries client-observed p50/p95/p99.
//   - server/overload/{offered,goodput,shed_rate,latency}: ~20x the steady
//     rate against a deliberately small queue + per-tenant quotas. The
//     point is the shedding contract: most of the load is rejected with
//     typed statuses, while the latency of what IS admitted stays bounded
//     (no queueing collapse). shed_rate here is expected to be large.
//   - server/policy/{model,oracle,linkmean}/{mae,latency}: the serving-time
//     estimator tiers compared offline on the held-out test trips — what a
//     fleet operator trades away when a city answers from a fallback tier
//     instead of its model.
//   - server/policy/cold_{oracle,model}/availability: a cold fleet shard
//     over the wire under both fallback policies. The oracle policy keeps
//     availability at 1.0 (every answer from the oracle tier); the model
//     policy rejects everything with kShardCold.
// goodput/shed_rate/mae/availability are value records; bench_compare.py
// skips those names (load- and data-dependent values, not regressions).
// Usage: bench_server [steady_qps] (default 200; CI smoke passes less).
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
#include "serve/eta_service.h"
#include "serve/fleet_router.h"
#include "serve/server/loadgen.h"
#include "serve/server/server.h"
#include "sim/dataset.h"

using namespace deepod;

namespace {

void AppendScenarioRecords(const std::string& prefix,
                           const serve::net::LoadgenReport& report,
                           size_t connections,
                           std::vector<obs::Record>* records) {
  obs::Record throughput;
  throughput.name = prefix + "/throughput";
  throughput.wall_seconds = report.elapsed_seconds;
  throughput.threads = connections;
  if (report.achieved_qps > 0.0) {
    throughput.samples_per_sec = report.achieved_qps;
  }
  throughput.count = static_cast<double>(report.ok);
  records->push_back(throughput);

  obs::Record latency;
  latency.name = prefix + "/latency";
  latency.wall_seconds = report.elapsed_seconds;
  latency.threads = connections;
  latency.count = static_cast<double>(report.ok);
  latency.p50_ms = report.p50_ms;
  latency.p95_ms = report.p95_ms;
  latency.p99_ms = report.p99_ms;
  records->push_back(latency);

  obs::Record goodput;
  goodput.name = prefix + "/goodput";
  goodput.wall_seconds = report.elapsed_seconds;
  goodput.threads = connections;
  goodput.value = report.goodput_qps;
  records->push_back(goodput);

  obs::Record shed;
  shed.name = prefix + "/shed_rate";
  shed.wall_seconds = report.elapsed_seconds;
  shed.threads = connections;
  shed.value = report.shed_rate;
  shed.count = static_cast<double>(report.shed);
  records->push_back(shed);
}

void PrintScenario(const char* label,
                   const serve::net::LoadgenReport& report) {
  std::printf(
      "%s: offered %.0f qps -> ok %llu shed %llu (rate %.3f) lost %llu\n"
      "  latency ms: p50 %.3f p95 %.3f p99 %.3f | goodput %.0f qps\n",
      label, report.offered_qps,
      static_cast<unsigned long long>(report.ok),
      static_cast<unsigned long long>(report.shed), report.shed_rate,
      static_cast<unsigned long long>(report.lost), report.p50_ms,
      report.p95_ms, report.p99_ms, report.goodput_qps);
}

double PercentileMs(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const size_t idx = static_cast<size_t>(q * double(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const double steady_qps = argc > 1 ? std::atof(argv[1]) : 200.0;
  bench::PrintBanner("Network serving — admission control, shedding");

  const sim::Dataset dataset =
      sim::BuildDataset(bench::MiniConfig(bench::City::kXian));
  // A few epochs are enough to make the policy comparison below honest
  // (the serving scenarios only care about inference cost, which training
  // does not change).
  core::DeepOdConfig model_config = bench::BenchModelConfig();
  model_config.epochs = 4;
  core::DeepOdModel model(model_config, dataset);
  {
    core::DeepOdTrainer trainer(model, dataset);
    trainer.Train();
  }
  model.SetTraining(false);

  std::vector<obs::Record> records;

  // --- Steady state: under capacity, nothing should shed --------------------
  {
    serve::EtaService service(model, serve::EtaServiceOptions{});
    serve::net::ServerOptions server_options;
    server_options.num_segments = dataset.network.num_segments();
    server_options.executors = 2;
    serve::net::DeepOdServer server(service, server_options);
    server.Start();

    serve::net::LoadgenOptions load;
    load.port = server.port();
    load.qps = steady_qps;
    load.duration_seconds = 2.5;
    load.connections = 4;
    load.num_segments = dataset.network.num_segments();
    load.slo_ms = 250.0;
    load.fetch_server_stats = false;
    const auto report = serve::net::RunLoadgen(load);
    server.Shutdown();
    PrintScenario("steady", report);
    AppendScenarioRecords("server/steady", report, load.connections, &records);
  }

  // --- Overload: 20x offered, small queue + tenant quotas --------------------
  // The server must shed (quota + queue-full) rather than queue to death;
  // the admitted slice keeps a bounded p99 because the backlog can never
  // exceed queue_capacity.
  {
    serve::EtaService service(model, serve::EtaServiceOptions{});
    serve::net::ServerOptions server_options;
    server_options.num_segments = dataset.network.num_segments();
    server_options.executors = 1;
    server_options.admission.queue_capacity = 64;
    server_options.admission.num_tenants = 4;
    server_options.admission.tenant_rate = 100.0;
    server_options.admission.tenant_burst = 50.0;
    serve::net::DeepOdServer server(service, server_options);
    server.Start();

    serve::net::LoadgenOptions load;
    load.port = server.port();
    load.qps = steady_qps * 20.0;
    load.duration_seconds = 2.0;
    load.connections = 8;
    load.num_segments = dataset.network.num_segments();
    load.num_tenants = 4;
    load.slo_ms = 250.0;
    load.fetch_server_stats = false;
    const auto report = serve::net::RunLoadgen(load);
    server.Shutdown();
    PrintScenario("overload", report);

    obs::Record offered;
    offered.name = "server/overload/offered";
    offered.wall_seconds = report.elapsed_seconds;
    offered.threads = load.connections;
    if (report.offered_qps > 0.0) offered.samples_per_sec = report.offered_qps;
    offered.count = static_cast<double>(report.sent);
    records.push_back(offered);
    AppendScenarioRecords("server/overload", report, load.connections,
                          &records);
  }

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
      load.qps = steady_qps;
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
