#ifndef DEEPOD_SERVE_MODEL_RELOADER_H_
#define DEEPOD_SERVE_MODEL_RELOADER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "io/model_artifact.h"
#include "obs/metrics.h"
#include "road/road_network.h"
#include "serve/eta_service.h"
#include "serve/serving_state.h"

namespace deepod::serve {

struct ModelReloaderOptions {
  // Artifact-path poll cadence. Polling (stat mtime/size/inode) rather than
  // inotify keeps the watcher portable and dependency-free; at serving poll
  // rates the stat cost is unmeasurable.
  std::chrono::milliseconds poll_interval{200};

  // A changed stat signature must hold steady for this many consecutive
  // polls before the load is attempted — a guard against catching a writer
  // mid-copy. Publishers should still prefer an atomic rename(2) into
  // place, which this guard then never delays past one extra poll.
  int stability_polls = 2;

  // Load options (weight quantisation) applied to every reload.
  io::ArtifactOptions artifact;
};

// The ArtifactWatcher half of zero-downtime serving: polls an artifact path
// and, when the file changes, loads + validates the new artifact on the
// watcher thread (never a request thread), then atomically flips it into
// the running EtaService via SwapState — the RCU epoch publish. In-flight
// requests finish on the epoch they started on; the old bundle is freed
// when its last reference drops. No request is ever dropped or answered
// from a half-loaded model.
//
// Rollback: a failed load (nn::SerializeError — truncated file, magic or
// checksum mismatch, wrong network) leaves the service untouched on its
// current state. The failing signature is remembered so a corrupt artifact
// is not re-tried every poll; the next *different* file content gets a
// fresh attempt. Failures are counted ("reload/failures"), the last error
// string is kept for Status, and the "reload/healthy" gauge drops to 0
// until a subsequent load succeeds.
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
  // Identity of the file contents as far as stat can see: a change in any
  // field marks a new candidate. `exists` folds ENOENT in as "no file".
  struct FileSig {
    bool exists = false;
    uint64_t size = 0;
    uint64_t inode = 0;
    int64_t mtime_ns = 0;

    bool operator==(const FileSig&) const = default;
  };

  FileSig StatArtifact() const;
  void WatchLoop();
  // Loads + validates + swaps. `sig` is the signature the attempt is for;
  // it is remembered as attempted (success or failure) so the same bytes
  // are not re-tried. Returns true on an adopted swap.
  bool TryReload(const FileSig& sig);

  EtaService& service_;
  const std::string artifact_path_;
  const road::RoadNetwork& network_;
  ModelReloaderOptions options_;
  PrepareFn prepare_;

  // Serialises TryReload between the watcher thread and ReloadNow callers.
  std::mutex reload_mu_;
  std::optional<FileSig> attempted_sig_;  // last signature we tried to load

  mutable std::mutex status_mu_;
  std::string last_error_;

  obs::Registry registry_;
  obs::Counter& polls_;
  obs::Counter& reloads_;
  obs::Counter& failures_;
  obs::Gauge& healthy_;
  obs::Histogram& load_seconds_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread watcher_;
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_MODEL_RELOADER_H_
