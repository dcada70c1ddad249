// deepod_server: the one serving tool. Loads a model artifact + road
// network (predict-only: no training dataset, traffic process or trajectory
// store in memory) as a fleet of one, or every city of a fleet manifest,
// and serves it over length-prefixed TCP with admission control and
// continuous batching (DESIGN.md "Network serving"). An artifact that fails
// to load exits 1 with its typed kind ("artifact load failed [KIND]"); a
// golden replay runs over the wire through deepod_loadgen --golden. A
// quantised artifact (deepod_train --quant) serves the f16/int8 weights it
// stores.
//
//   deepod_server --artifact model.artifact --network network.csv
//                 [--host H] [--port P] [--max-batch N] [--executors N]
//                 [--queue-capacity N]
//                 [--tenants N] [--tenant-rate R] [--tenant-burst B]
//                 [--stats-json PATH]
//                 [--watch] [--poll-ms N]
//                 [--live-speed] [--publish-ms N] [--speed-grid-m X]
//                 [--speed-window-s X]
//                 [--drift-window N] [--drift-trigger X]
//   deepod_server --fleet fleet.csv [shared flags as above]
//
// Batching: --executors N caps how many batches run at once (default 1)
// and --max-batch N how many requests one batch takes. The connection
// thread that admits a request runs the batch itself when one of the N
// slots is free; the N executor threads only take over work left queued.
// A client that stops reading its responses is disconnected after a
// fixed send timeout instead of stalling other clients.
//
// Either way the server serves a FleetRouter. --artifact/--network make a
// fleet of one: it answers every wire network_id and its hot swap refuses
// an artifact stamped for another city than the startup artifact. --fleet
// (mutually exclusive with --artifact/--network) serves every city in the
// manifest from one process: requests route by their exact wire
// network_id, each warm shard runs its own EtaService, and a shard whose
// artifact is missing or corrupt serves from its OD-oracle fallback tier
// until a loadable artifact appears ("fleet: activated CITY" is printed on
// each cold->warm transition). One artifact watcher activates cold shards
// and, with --watch, hot swaps warm ones ("reloaded PATH" is printed once
// the new epoch serves); --poll-ms sets its cadence. --live-speed and
// --drift-trigger bind to the only shard of a fleet of one and are
// rejected with --fleet.
//
// Prints "listening on HOST:PORT" once the socket is bound (port 0 binds
// an ephemeral port; tools/server_ctl.sh parses the line to discover it).
// SIGTERM and SIGINT trigger a graceful drain: stop accepting, answer
// every admitted request, close connections, then exit 0 — the shutdown
// contract the CI server-smoke job asserts. --stats-json writes the
// unified stats document (serve::ExportStatsJson — identical to the wire
// stats frame) on the way out.
//
// Live serving (DESIGN.md "Live serving"):
//   --watch        polls the artifact path and hot-swaps a rewritten
//                  artifact into the running shard with zero downtime
//                  (publish new artifacts with an atomic rename into place;
//                  a corrupt artifact is rejected and the old model keeps
//                  serving).
//   --live-speed   stands up a RollingSpeedField fed by ObserveTrip frames;
//                  a publish ticker folds ingested observations into served
//                  matrices every --publish-ms and bumps the service epoch.
//   --drift-trigger X  prints a retrain-trigger line when the rolling MAE
//                  of predictions vs observed actuals crosses X seconds.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include <vector>

#include "cli_flags.h"
#include "io/model_artifact.h"
#include "io/trip_io.h"
#include "nn/serialize.h"
#include "serve/drift_monitor.h"
#include "serve/eta_service.h"
#include "serve/fleet_router.h"
#include "serve/server/server.h"
#include "serve/serving_state.h"
#include "sim/rolling_speed_field.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace deepod;
  std::string artifact_path, network_path, fleet_path, stats_json_path;
  serve::net::ServerOptions server_options;
  bool watch = false;
  size_t poll_ms = 200;
  bool live_speed = false;
  size_t publish_ms = 1000;
  double speed_grid_m = 200.0;    // sim::DatasetConfig::speed_grid_m default
  double speed_window_s = 3600.0;
  size_t drift_window = 256;
  double drift_trigger = 0.0;
  const auto usage = [&argv] {
    std::fprintf(
        stderr,
        "usage: %s (--artifact PATH --network PATH | --fleet PATH)\n"
        "  [--host H] [--port P]\n"
        "  [--max-batch N] [--executors N]\n"
        "  [--queue-capacity N] [--tenants N] [--tenant-rate R]\n"
        "  [--tenant-burst B]\n"
        "  [--stats-json PATH]\n"
        "  [--watch] [--poll-ms N]\n"
        "  [--live-speed] [--publish-ms N] [--speed-grid-m X]\n"
        "  [--speed-window-s X] [--drift-window N] [--drift-trigger X]\n",
        argv[0]);
    return 2;
  };
  tools::cli::FlagCursor flags(argc, argv);
  while (flags.Next()) {
    const std::string& flag = flags.flag();
    if (flag == "--artifact") {
      if (!flags.StringValue(&artifact_path)) return 2;
    } else if (flag == "--network") {
      if (!flags.StringValue(&network_path)) return 2;
    } else if (flag == "--fleet") {
      if (!flags.StringValue(&fleet_path)) return 2;
    } else if (flag == "--host") {
      if (!flags.StringValue(&server_options.host)) return 2;
    } else if (flag == "--port") {
      if (!flags.PortValue(&server_options.port)) return 2;
    } else if (flag == "--max-batch") {
      if (!flags.SizeValue(&server_options.max_batch)) return 2;
    } else if (flag == "--executors") {
      if (!flags.SizeValue(&server_options.executors)) return 2;
    } else if (flag == "--queue-capacity") {
      if (!flags.SizeValue(&server_options.admission.queue_capacity)) return 2;
    } else if (flag == "--tenants") {
      if (!flags.SizeValue(&server_options.admission.num_tenants)) return 2;
    } else if (flag == "--tenant-rate") {
      if (!flags.NonNegativeValue(&server_options.admission.tenant_rate)) {
        return 2;
      }
    } else if (flag == "--tenant-burst") {
      if (!flags.NonNegativeValue(&server_options.admission.tenant_burst)) {
        return 2;
      }
    } else if (flag == "--stats-json") {
      if (!flags.StringValue(&stats_json_path)) return 2;
    } else if (flag == "--watch") {
      watch = true;
    } else if (flag == "--poll-ms") {
      if (!flags.SizeValue(&poll_ms)) return 2;
    } else if (flag == "--live-speed") {
      live_speed = true;
    } else if (flag == "--publish-ms") {
      if (!flags.SizeValue(&publish_ms)) return 2;
    } else if (flag == "--speed-grid-m") {
      if (!flags.PositiveValue(&speed_grid_m)) return 2;
    } else if (flag == "--speed-window-s") {
      if (!flags.PositiveValue(&speed_window_s)) return 2;
    } else if (flag == "--drift-window") {
      if (!flags.SizeValue(&drift_window)) return 2;
    } else if (flag == "--drift-trigger") {
      if (!flags.DoubleValue(&drift_trigger)) return 2;
    } else {
      return usage();
    }
  }
  const bool fleet_mode = !fleet_path.empty();
  if (fleet_mode && (!artifact_path.empty() || !network_path.empty())) {
    std::fprintf(stderr, "--fleet excludes --artifact/--network\n");
    return 2;
  }
  if (!fleet_mode && (artifact_path.empty() || network_path.empty())) {
    std::fprintf(stderr, "--artifact and --network are required "
                         "(or --fleet)\n");
    return 2;
  }
  if (fleet_mode && (live_speed || drift_trigger > 0.0)) {
    std::fprintf(stderr,
                 "--live-speed/--drift-trigger are single-city only and "
                 "cannot be combined with --fleet\n");
    return 2;
  }

  // Block SIGTERM/SIGINT before the router and the server spawn their threads so every
  // thread inherits the blocked mask and delivery can only happen inside
  // the main thread's sigsuspend window below (no lost-wakeup race).
  sigset_t stop_set, old_mask;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGTERM);
  sigaddset(&stop_set, SIGINT);
  sigprocmask(SIG_BLOCK, &stop_set, &old_mask);
  struct sigaction sa{};
  sa.sa_handler = HandleStop;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  serve::FleetRouterOptions fleet_options;
  fleet_options.watch = watch;
  fleet_options.poll_interval = std::chrono::milliseconds(poll_ms);
  fleet_options.on_adopt = [](const serve::FleetShard& shard, bool hot_swap) {
    // Runs once the new artifact serves — the operator-visible (and
    // CI-greppable) record that it went live.
    if (hot_swap) {
      std::printf("reloaded %s\n", shard.artifact_path().c_str());
    } else {
      std::printf("fleet: activated %s (network_id %u)\n",
                  shard.name().c_str(),
                  static_cast<unsigned>(shard.network_id()));
    }
    std::fflush(stdout);
  };

  std::unique_ptr<serve::FleetRouter> fleet;
  // A single city's startup state, pinned for the process lifetime: the
  // rolling field's baseline points into this bundle's frozen speed field,
  // so the bundle must survive hot swaps that would otherwise free it.
  std::shared_ptr<serve::ServingState> state;
  std::unique_ptr<sim::RollingSpeedField> rolling;
  serve::DriftMonitorOptions drift_options;
  drift_options.window = drift_window;
  drift_options.trigger_mae = drift_trigger;
  serve::DriftMonitor drift(drift_options, [](double mae) {
    std::printf("drift: retrain trigger fired (rolling MAE %.3f s)\n", mae);
    std::fflush(stdout);
  });
  if (fleet_mode) {
    try {
      fleet = std::make_unique<serve::FleetRouter>(
          serve::ReadFleetManifest(fleet_path), fleet_options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet load failed: %s\n", e.what());
      return 1;
    }
    std::printf("fleet: %zu cities, %zu warm\n", fleet->shards().size(),
                fleet->WarmCount());
    for (const auto& shard : fleet->shards()) {
      std::printf("fleet: %s network_id=%u %s policy=%s\n",
                  shard->name().c_str(),
                  static_cast<unsigned>(shard->network_id()),
                  shard->warm() ? "warm" : "cold",
                  serve::FallbackPolicyName(shard->policy()));
    }
  } else {
    std::shared_ptr<const road::RoadNetwork> network;
    try {
      network = std::make_shared<const road::RoadNetwork>(
          io::ReadNetworkCsv(network_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "network load failed: %s\n", e.what());
      return 1;
    }
    try {
      state = serve::LoadServingState(artifact_path, *network);
    } catch (const nn::SerializeError& e) {
      std::fprintf(stderr, "artifact load failed [%s]: %s\n",
                   nn::LoadErrorKindName(e.status().kind), e.what());
      return 1;
    }
    if (live_speed) {
      const sim::SpeedProvider* baseline = state->bundle->speed.get();
      const double snapshot_seconds =
          baseline != nullptr ? baseline->snapshot_seconds()
                              : state->bundle->config.slot_seconds;
      sim::RollingSpeedField::Options rolling_options;
      rolling_options.window_seconds = speed_window_s;
      try {
        rolling = std::make_unique<sim::RollingSpeedField>(
            *network, speed_grid_m, snapshot_seconds, baseline,
            rolling_options);
      } catch (const std::invalid_argument& e) {
        // A --speed-grid-m too fine for the network's extent.
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
      // Point the serving model at the live field before it serves (its
      // empty table falls back to the artifact's frozen matrices, so
      // behaviour is unchanged until the first publish), and every
      // swapped-in model too, so it serves live speeds from its first
      // request.
      state->model->SetSpeedProvider(rolling.get());
      fleet_options.prepare = [field = rolling.get()](serve::ServingState& s) {
        s.model->SetSpeedProvider(field);
      };
      std::printf("live speed field: %zux%zu grid, %.0fs snapshots, %.0fs "
                  "window\n",
                  rolling->rows(), rolling->cols(), snapshot_seconds,
                  speed_window_s);
    }
    fleet = std::make_unique<serve::FleetRouter>(state, std::move(network),
                                                 fleet_options);
    if (watch) {
      std::printf("watching %s (poll %zums)\n", artifact_path.c_str(),
                  poll_ms);
    }
    server_options.live.rolling_field = rolling.get();
    server_options.live.drift = &drift;
  }

  auto server =
      std::make_unique<serve::net::DeepOdServer>(*fleet, server_options);
  try {
    server->Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "server start failed: %s\n", e.what());
    return 1;
  }
  std::printf("listening on %s:%u\n", server_options.host.c_str(),
              static_cast<unsigned>(server->port()));
  std::fflush(stdout);

  // Publish ticker: fold ingested observations into served matrices and
  // bump the serving epoch (a fresh external-code table) whenever anything
  // new arrived.
  std::thread publisher;
  std::mutex publish_mu;
  std::condition_variable publish_cv;
  bool publish_stop = false;
  if (rolling != nullptr) {
    serve::EtaService& service = *fleet->shards().front()->service();
    publisher = std::thread([&] {
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(publish_mu);
          publish_cv.wait_for(lock, std::chrono::milliseconds(publish_ms),
                              [&] { return publish_stop; });
          if (publish_stop) return;
        }
        if (rolling->Publish() > 0) service.BumpEpoch();
      }
    });
  }

  sigset_t wait_mask = old_mask;
  sigdelset(&wait_mask, SIGTERM);
  sigdelset(&wait_mask, SIGINT);
  while (g_stop == 0) sigsuspend(&wait_mask);

  std::printf("draining...\n");
  std::fflush(stdout);
  if (publisher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(publish_mu);
      publish_stop = true;
    }
    publish_cv.notify_all();
    publisher.join();
  }
  fleet->Stop();
  server->Shutdown();
  if (!stats_json_path.empty()) {
    std::FILE* f = std::fopen(stats_json_path.c_str(), "w");
    if (f != nullptr) {
      const std::string json = server->ExportStatsJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  std::printf("shutdown complete\n");
  return 0;
}
