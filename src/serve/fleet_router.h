#ifndef DEEPOD_SERVE_FLEET_ROUTER_H_
#define DEEPOD_SERVE_FLEET_ROUTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/od_oracle.h"
#include "baselines/path_tte.h"
#include "obs/metrics.h"
#include "road/road_network.h"
#include "serve/eta_service.h"
#include "serve/model_reloader.h"
#include "serve/server/frame.h"
#include "serve/stats.h"
#include "traj/trajectory.h"

namespace deepod::serve {

// What a fleet shard does when its learned model cannot (or should not)
// answer a request — the shard is cold (no artifact loaded yet), the
// admission queue sheds, or the OD pair is out-of-distribution for the
// city's training data.
enum class FallbackPolicy : uint8_t {
  // No fallback tier: cold requests get a typed kShardCold rejection, shed
  // requests their shed status, OOD requests the model's extrapolation —
  // the historical single-city behaviour.
  kModel = 0,
  // The oracle tier (OD histogram, else link-mean) answers on all three
  // triggers, tagged with the estimator that produced the ETA. Default.
  kOracle = 1,
  // Strictest: like kModel, and OOD requests are additionally rejected
  // with kInvalidRequest instead of extrapolated.
  kReject = 2,
};

const char* FallbackPolicyName(FallbackPolicy p);
// Parses "model" / "oracle" / "reject"; throws std::invalid_argument.
FallbackPolicy ParseFallbackPolicy(const std::string& name);

// One row of the fleet manifest (fleet.csv):
//
//   network_id,name,network,artifact,oracle,policy
//   1,xian,xian/network.csv,xian/model.artifact,xian/oracle.artifact,oracle
//
// `oracle` (a standalone oracle artifact, io::WriteOracleArtifact) and
// `policy` may be empty (no pre-model fallback / policy oracle). Relative
// paths resolve against the manifest's own directory.
struct FleetEntry {
  uint32_t network_id = 0;
  std::string name;
  std::string network_path;
  std::string artifact_path;
  std::string oracle_path;  // may be empty
  FallbackPolicy policy = FallbackPolicy::kOracle;
};

// Parses a fleet manifest. Throws std::runtime_error on a malformed file,
// a duplicate network_id or a duplicate name.
std::vector<FleetEntry> ReadFleetManifest(const std::string& path);

class FleetShard;

struct FleetRouterOptions {
  // Per-shard EtaService options. registry_prefix is overridden per city
  // ("serve/<name>/") so the merged stats export stays collision-free.
  EtaServiceOptions service;
  // Watch each warm shard's artifact path and hot swap on change
  // (per-city ModelReloader — swaps stay independent across cities).
  bool watch = false;
  ModelReloaderOptions reloader;
  // Cold-shard activation poll cadence (artifact appearing after startup).
  std::chrono::milliseconds activation_poll{200};
  // Invoked on the activating thread each time a cold shard goes warm
  // (deepod_server prints its operator-visible activation line here).
  std::function<void(const FleetShard&)> on_activate;
};

// One city of the fleet: its road network, its fallback estimators and —
// once an artifact loads — its EtaService shard (own ServingState, serving
// epoch, obs registry and, in watch mode, ModelReloader). Created cold when
// the artifact is missing or unreadable at startup; the router's activation
// watcher brings it warm the moment a loadable artifact appears. A shard
// never goes warm → cold: activation is one-way, and later artifact changes
// are the per-shard reloader's job.
class FleetShard {
 public:
  FleetShard(FleetEntry entry, obs::Registry& fleet_registry);

  // Identity of an artifact file as far as stat can see (activation
  // watcher; mirrors the ModelReloader's signature).
  struct FileSig {
    bool exists = false;
    uint64_t size = 0;
    int64_t mtime_ns = 0;
    bool operator==(const FileSig&) const = default;
  };

  uint32_t network_id() const { return entry_.network_id; }
  const std::string& name() const { return entry_.name; }
  const std::string& artifact_path() const { return entry_.artifact_path; }
  FallbackPolicy policy() const { return entry_.policy; }
  const road::RoadNetwork& network() const { return network_; }
  size_t num_segments() const { return network_.num_segments(); }

  // The live service, or null while cold. The pointee stays valid for the
  // life of the router once published.
  std::shared_ptr<EtaService> service() const;
  bool warm() const { return service() != nullptr; }

  // Answer from the fallback tier: the OD-histogram oracle when present,
  // else the link-mean estimator; nullopt when the shard has neither (the
  // caller rejects). Cheap enough for a connection thread.
  struct Fallback {
    double eta = 0.0;
    net::Estimator estimator = net::Estimator::kOracle;
  };
  std::optional<Fallback> FallbackEstimate(const traj::OdInput& od) const;

  // False only when an oracle exists and has never seen the OD's cell pair.
  bool InDistribution(const traj::OdInput& od) const;

  // Per-city response accounting (names "fleet/<name>/...").
  void CountModelAnswer() { model_answers_.Add(); }
  void CountFallbackAnswer() { oracle_answers_.Add(); }
  void CountShedToOracle() { shed_to_oracle_.Add(); }
  void CountOodToOracle() { ood_to_oracle_.Add(); }
  void CountRejected() { rejected_.Add(); }

  const ModelReloader* reloader() const { return reloader_.get(); }

 private:
  friend class FleetRouter;

  // Installs the fallback estimators (idempotent: first non-null wins —
  // oracle tables are static per city).
  void AdoptEstimators(std::unique_ptr<baselines::OdOracle> oracle,
                       std::unique_ptr<baselines::LinkMeanEstimator> links);
  // Publishes the service built from a freshly loaded state (cold → warm).
  void Publish(std::shared_ptr<EtaService> service,
               std::unique_ptr<ModelReloader> reloader);

  FleetEntry entry_;
  road::RoadNetwork network_;

  mutable std::mutex mu_;
  std::shared_ptr<EtaService> service_;        // null while cold
  std::unique_ptr<ModelReloader> reloader_;    // watch mode, after warm
  std::shared_ptr<const baselines::OdOracle> oracle_;
  std::shared_ptr<const baselines::LinkMeanEstimator> link_mean_;

  obs::Counter& model_answers_;
  obs::Counter& oracle_answers_;
  obs::Counter& shed_to_oracle_;
  obs::Counter& ood_to_oracle_;
  obs::Counter& rejected_;
  obs::Counter& activation_failures_;
  obs::Gauge& cold_;

  // Activation bookkeeping (router's watcher thread only).
  std::optional<FileSig> pending_sig_;
  std::optional<FileSig> attempted_sig_;
};

// The multi-city front of the serving stack: owns one FleetShard per
// manifest row, resolves requests by wire network_id, and runs the
// cold-shard activation watcher. The network server (serve/server) holds a
// FleetRouter instead of a single EtaService in fleet mode; the admission
// queue stays shared across cities (one scheduler, per-tenant quotas
// unchanged) and the server groups each batch by shard.
//
// Loading at construction: every network.csv is read eagerly (a missing
// network is a hard error — routing is impossible without it); every
// oracle artifact given in the manifest is loaded eagerly; every model
// artifact is *attempted* — a missing or corrupt artifact leaves that
// shard cold (counted in "fleet/<name>/activation_failures", gauge
// "fleet/<name>/cold" = 1) and the rest of the fleet serving, which is the
// partial-failure behaviour the oracle tier exists for.
class FleetRouter {
 public:
  FleetRouter(std::vector<FleetEntry> entries,
              const FleetRouterOptions& options);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Shard for a wire network_id; null = unknown id (typed rejection).
  FleetShard* Resolve(uint32_t network_id);

  const std::vector<std::unique_ptr<FleetShard>>& shards() const {
    return shards_;
  }
  size_t WarmCount() const;

  // One synchronous activation sweep over the cold shards, bypassing the
  // poll cadence and stability guard (tests, CI). Returns the number of
  // shards that went warm.
  size_t ActivateNow();

  // Stops the activation watcher and every shard reloader (idempotent).
  void Stop();

  // Adds the router's registry and every warm shard's service/reloader
  // registries to `sources->extra` for the merged stats export.
  void AppendStatsSources(StatsSources* sources) const;

  const obs::Registry& registry() const { return registry_; }

 private:
  void ActivationLoop();
  // Attempts to load `shard`'s artifact and publish its service. `sig` is
  // remembered as attempted so a corrupt file is not re-tried every poll.
  bool TryActivate(FleetShard& shard, const FleetShard::FileSig& sig);

  FleetRouterOptions options_;
  std::vector<std::unique_ptr<FleetShard>> shards_;

  obs::Registry registry_;

  std::mutex activation_mu_;  // serialises TryActivate sweeps

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread watcher_;
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_FLEET_ROUTER_H_
