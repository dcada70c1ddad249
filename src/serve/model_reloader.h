#ifndef DEEPOD_SERVE_MODEL_RELOADER_H_
#define DEEPOD_SERVE_MODEL_RELOADER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "road/road_network.h"
#include "serve/artifact_watcher.h"
#include "serve/eta_service.h"
#include "serve/serving_state.h"

namespace deepod::serve {

struct ModelReloaderOptions {
  // Artifact-path poll cadence (ArtifactWatcher). Weight quantisation is
  // not an option here: every reload uses the quant of the service it
  // swaps into (EtaServiceOptions::quant).
  std::chrono::milliseconds poll_interval{200};
};

// Zero-downtime hot swap for one EtaService: an ArtifactWatcher polls the
// artifact path and, when the file changes, the new artifact is loaded and
// validated on the watcher thread (never a request thread) through
// LoadServingState — the same load check a fleet shard's activation uses
// — and atomically flipped into the running service via SwapState, the RCU
// epoch publish. In-flight requests finish on the epoch they started on;
// the old bundle is freed when its last reference drops. No request is
// ever dropped or answered from a half-loaded model.
//
// Rollback: a failed load (nn::SerializeError — truncated file, magic or
// checksum mismatch, wrong network, or an artifact stamped with another
// network_id than the one served at construction) leaves the service
// untouched on its current state. The watcher remembers the failing
// signature, so a corrupt artifact is not re-tried every poll; the next
// *different* file content gets a fresh attempt. Failures are counted
// ("reload/failures"), the last error string is kept for Status, and the
// "reload/healthy" gauge drops to 0 until a subsequent load succeeds.
//
// `prepare` (optional) runs on the watcher thread against the freshly
// loaded, not-yet-published state — the hook a live deployment uses to
// point the new model at a shared RollingSpeedField before the flip
// (state.model->SetSpeedProvider(...)), so the swapped-in model serves live
// speeds from its first request.
//
// Construction does not trigger a load when the service is already serving
// this exact path (EtaService::FromArtifact + same file): the current file
// is adopted as the baseline. Any other starting condition treats the first
// stable signature as new.
//
// Instruments live in a private registry under "reload/": polls, reloads,
// failures counters, healthy gauge, load_seconds histogram — exported
// through serve::ExportStats alongside the service's own.
class ModelReloader {
 public:
  using PrepareFn = std::function<void(ServingState&)>;

  // `service`, `network` and (if given) everything `prepare` touches must
  // outlive the reloader. The watcher thread starts immediately.
  ModelReloader(EtaService& service, std::string artifact_path,
                const road::RoadNetwork& network,
                const ModelReloaderOptions& options,
                PrepareFn prepare = nullptr);
  ~ModelReloader();

  ModelReloader(const ModelReloader&) = delete;
  ModelReloader& operator=(const ModelReloader&) = delete;

  // Stops the watcher thread (idempotent; the destructor calls it).
  void Stop();

  // Synchronous reload attempt, bypassing the poll cadence and stability
  // guard (tests, SIGHUP-style force-reload). Returns true when a new epoch
  // was adopted; false when the file is unchanged since the last attempt or
  // the load failed (see StatusSnapshot().last_error).
  bool ReloadNow();

  struct Status {
    uint64_t polls = 0;
    uint64_t reloads = 0;   // successful swaps through this reloader
    uint64_t failures = 0;  // failed load attempts (service kept old state)
    bool healthy = true;    // last attempt succeeded (or none attempted)
    std::string last_error;
    uint64_t epoch = 0;     // service epoch after the last successful swap
  };
  Status StatusSnapshot() const;

  const obs::Registry& registry() const { return registry_; }

 private:
  // Loads + validates + swaps (the watcher's load callback). Returns true
  // on an adopted swap.
  bool TryReload();
  void SetLastError(std::string error);

  EtaService& service_;
  const std::string artifact_path_;
  const road::RoadNetwork& network_;
  // The network_id stamp every reload must carry: the one of the artifact
  // served at construction (0 = unstamped, accept any).
  const uint32_t network_id_;
  PrepareFn prepare_;

  mutable std::mutex status_mu_;
  std::string last_error_;

  obs::Registry registry_;
  obs::Counter& polls_;
  obs::Counter& reloads_;
  obs::Counter& failures_;
  obs::Gauge& healthy_;
  obs::Histogram& load_seconds_;

  ArtifactWatcher watcher_;  // last: stopped before the members it reads
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_MODEL_RELOADER_H_
