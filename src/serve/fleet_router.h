#ifndef DEEPOD_SERVE_FLEET_ROUTER_H_
#define DEEPOD_SERVE_FLEET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "baselines/od_oracle.h"
#include "baselines/path_tte.h"
#include "obs/metrics.h"
#include "road/road_network.h"
#include "serve/artifact_watcher.h"
#include "serve/eta_service.h"
#include "serve/serving_state.h"
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
  // requests their shed status, OOD requests the model's extrapolation.
  // The policy of a fleet of one.
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
  // ("serve/<name>/"; "serve/" for a fleet of one) so the merged stats
  // export stays collision-free. Its quant also applies to every activation
  // and hot swap.
  EtaServiceOptions service;
  // Hot swap a warm shard whose artifact changes. Cold shards are watched
  // for activation either way.
  bool watch = false;
  // Poll cadence of the fleet's one ArtifactWatcher (activation and, with
  // `watch`, hot swap).
  std::chrono::milliseconds poll_interval{200};
  // Runs on the loading thread against every state the router loads, after
  // its load check and before the shard publishes or swaps it in; a throw
  // counts as a failed load. deepod_server points the new model at its
  // live RollingSpeedField here, so a swapped-in model serves live speeds
  // from its first request.
  std::function<void(ServingState&)> prepare;
  // Runs on the loading thread after a shard adopted an artifact: once the
  // cold shard is published (hot_swap false) or the swap flipped the
  // serving epoch (hot_swap true). deepod_server prints its operator-visible
  // "fleet: activated" / "reloaded" lines here.
  std::function<void(const FleetShard&, bool hot_swap)> on_adopt;
};

// One city of the fleet: its road network, its fallback estimators and —
// once an artifact loads — its EtaService shard (own ServingState, serving
// epoch and obs registry). Created cold when the artifact is missing or
// unreadable at startup; the router's watcher brings it warm the moment a
// loadable artifact appears and, in watch mode, hot swaps it thereafter. A
// shard never goes warm → cold: activation is one-way.
class FleetShard {
 public:
  // Stats names are "fleet/<name>/..." ("fleet/..." for the unnamed shard
  // of a fleet of one).
  FleetShard(FleetEntry entry, std::shared_ptr<const road::RoadNetwork> network,
             obs::Registry& fleet_registry);

  uint32_t network_id() const { return entry_.network_id; }
  const std::string& name() const { return entry_.name; }
  const std::string& artifact_path() const { return entry_.artifact_path; }
  FallbackPolicy policy() const { return entry_.policy; }
  const road::RoadNetwork& network() const { return *network_; }
  size_t num_segments() const { return network_->num_segments(); }

  // The live service, or null while cold. The pointee stays valid for the
  // life of the router once published.
  std::shared_ptr<EtaService> service() const;
  // Lock-free: the request path asks this on every request.
  bool warm() const { return warm_.load(); }

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
  void CountModelAnswers(uint64_t n) { model_answers_.Add(n); }
  void CountFallbackAnswer() { oracle_answers_.Add(); }
  void CountShedToOracle() { shed_to_oracle_.Add(); }
  void CountOodToOracle() { ood_to_oracle_.Add(); }
  void CountRejected() { rejected_.Add(); }

 private:
  friend class FleetRouter;

  // Installs the fallback estimators (idempotent: first non-null wins —
  // oracle tables are static per city).
  void AdoptEstimators(std::unique_ptr<baselines::OdOracle> oracle,
                       std::unique_ptr<baselines::LinkMeanEstimator> links);
  // Publishes the service built from a freshly loaded state (cold → warm).
  void Publish(std::shared_ptr<EtaService> service);

  FleetEntry entry_;
  // Shared: a fleet of one serves a model its caller loaded against this
  // network, and the model keeps referring to it.
  std::shared_ptr<const road::RoadNetwork> network_;

  mutable std::mutex mu_;
  std::shared_ptr<EtaService> service_;  // null while cold
  std::atomic<bool> warm_{false};        // set once, after service_
  std::shared_ptr<const baselines::OdOracle> oracle_;
  std::shared_ptr<const baselines::LinkMeanEstimator> link_mean_;

  obs::Counter& model_answers_;
  obs::Counter& oracle_answers_;
  obs::Counter& shed_to_oracle_;
  obs::Counter& ood_to_oracle_;
  obs::Counter& rejected_;
  obs::Counter& activation_failures_;  // failed loads while cold
  obs::Counter& reload_failures_;      // failed hot swaps while warm
  obs::Gauge& cold_;
};

// The one serving front of the stack: owns one FleetShard per city,
// resolves requests by wire network_id, and runs one ArtifactWatcher over
// every shard's artifact path. The network server (serve/server) serves a
// FleetRouter; the admission queue stays shared across cities (one
// scheduler, per-tenant quotas unchanged) and the server groups each batch
// by shard.
//
// Two ways to build one:
//  - From a manifest. Every network.csv is read eagerly (a missing network
//    is a hard error — routing is impossible without it); every oracle
//    artifact given in the manifest is loaded eagerly; every model artifact
//    is *attempted* — a missing or corrupt artifact leaves that shard cold
//    (counted in "fleet/<name>/activation_failures", gauge
//    "fleet/<name>/cold" = 1) and the rest of the fleet serving, which is
//    the partial-failure behaviour the oracle tier exists for. Requests
//    route by exact network_id; an unknown id resolves to null.
//  - A fleet of one, around a state the caller already loaded (a
//    single-city deployment). Its one shard is unnamed (stats "serve/*" and
//    "fleet/*"), has policy kModel and no standalone oracle, and answers
//    every wire network_id. Its stamp check uses the startup artifact's
//    network_id (0 = unstamped = accept any).
//
// Cold → warm and warm → swapped run through one load function
// (LoadServingState with the shard's network_id, so an artifact stamped for
// another city is refused either way). A refused hot swap is counted in
// "fleet/<name>/reload_failures" and the shard keeps serving its current
// epoch. The watcher thread runs only while there is work for it: some
// shard is cold, or `watch` is on ("fleet/polls" counts its rounds).
// Without `watch`, it ends when the last cold shard activates.
class FleetRouter {
 public:
  FleetRouter(std::vector<FleetEntry> entries,
              const FleetRouterOptions& options);
  // A fleet of one serving `state` (un-adopted, from LoadServingState or
  // BorrowServingState) against `network`, the network it was loaded
  // against. With `watch` and a non-empty state->source, hot swaps that
  // path; the bytes already served count as attempted. Throws
  // std::invalid_argument on a null state, model or network.
  FleetRouter(std::shared_ptr<ServingState> state,
              std::shared_ptr<const road::RoadNetwork> network,
              const FleetRouterOptions& options);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Shard for a wire network_id; null = unknown id (typed rejection). A
  // fleet of one returns its shard for every id.
  FleetShard* Resolve(uint32_t network_id) {
    if (any_network_id_) return shards_.front().get();
    for (auto& shard : shards_) {
      if (shard->network_id() == network_id) return shard.get();
    }
    return nullptr;
  }

  const std::vector<std::unique_ptr<FleetShard>>& shards() const {
    return shards_;
  }
  size_t WarmCount() const;

  // One synchronous sweep over every shard's artifact, bypassing the poll
  // cadence and stability guard (tests, CI): a cold shard activates and,
  // in watch mode, a warm shard hot swaps a changed artifact. A file
  // unchanged since its last attempt is skipped. Returns the number of
  // shards that adopted a new artifact.
  size_t ActivateNow();

  // Stops the watcher (idempotent).
  void Stop();

  // Adds the router's registry and every warm shard's service registry to
  // `sources->extra` for the merged stats export.
  void AppendStatsSources(StatsSources* sources) const;

  const obs::Registry& registry() const { return registry_; }

 private:
  // The watcher's load callback for shards_[index]: loads and validates the
  // artifact, then publishes a service (cold) or swaps it in (warm, watch
  // mode). Returns true when the artifact was adopted.
  bool Load(size_t index);
  // Cold → warm: the state's embedded fallback estimators back-fill the
  // shard, then its service is published.
  void Publish(FleetShard& shard, std::shared_ptr<ServingState> state);

  FleetRouterOptions options_;
  std::vector<std::unique_ptr<FleetShard>> shards_;
  bool any_network_id_ = false;  // a fleet of one

  obs::Registry registry_;

  ArtifactWatcher watcher_;  // last: stopped before the shards it loads
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_FLEET_ROUTER_H_
