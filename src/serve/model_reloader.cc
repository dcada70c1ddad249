#include "serve/model_reloader.h"

#include <exception>
#include <utility>

namespace deepod::serve {
namespace {

uint32_t ServedNetworkId(const EtaService& service) {
  const std::shared_ptr<const ServingState> state = service.state();
  return state->bundle != nullptr ? state->bundle->network_id : 0;
}

}  // namespace

ModelReloader::ModelReloader(EtaService& service, std::string artifact_path,
                             const road::RoadNetwork& network,
                             const ModelReloaderOptions& options,
                             PrepareFn prepare)
    : service_(service),
      artifact_path_(std::move(artifact_path)),
      network_(network),
      network_id_(ServedNetworkId(service)),
      prepare_(std::move(prepare)),
      polls_(registry_.counter("reload/polls")),
      reloads_(registry_.counter("reload/reloads")),
      failures_(registry_.counter("reload/failures")),
      healthy_(registry_.gauge("reload/healthy")),
      load_seconds_(registry_.histogram("reload/load_seconds")),
      watcher_({artifact_path_}, options.poll_interval,
               [this](size_t) { return TryReload(); }, &polls_) {
  healthy_.Set(1.0);
  // When the service is already serving exactly this artifact (the
  // FromArtifact + watch-same-path deployment), the file on disk IS the
  // current epoch: adopt it as the baseline so construction never
  // triggers a redundant reload. Any other starting state (borrowed
  // model, different source path) leaves the baseline empty and the first
  // stable signature loads.
  if (service_.state()->source == artifact_path_) watcher_.MarkAttempted(0);
  watcher_.Start();
}

ModelReloader::~ModelReloader() { Stop(); }

void ModelReloader::Stop() { watcher_.Stop(); }

void ModelReloader::SetLastError(std::string error) {
  std::lock_guard<std::mutex> lock(status_mu_);
  last_error_ = std::move(error);
}

bool ModelReloader::TryReload() {
  const auto start = std::chrono::steady_clock::now();
  try {
    io::ArtifactOptions artifact_options;
    artifact_options.quant = service_.options().quant;
    std::shared_ptr<ServingState> fresh = LoadServingState(
        artifact_path_, network_, artifact_options, network_id_);
    if (prepare_) prepare_(*fresh);
    service_.SwapState(std::move(fresh));
  } catch (const std::exception& e) {
    // The rollback path: a typed load/validation failure (nn::SerializeError)
    // or anything else (bad_alloc, invalid_argument from SwapState). The
    // service never saw the broken state and keeps answering from the
    // current epoch.
    failures_.Add();
    healthy_.Set(0.0);
    SetLastError(e.what());
    return false;
  }
  load_seconds_.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  reloads_.Add();
  healthy_.Set(1.0);
  SetLastError("");
  return true;
}

bool ModelReloader::ReloadNow() {
  const ArtifactWatcher::Result result = watcher_.LoadNow(0);
  if (result == ArtifactWatcher::Result::kMissing) {
    SetLastError("artifact not found: " + artifact_path_);
  }
  return result == ArtifactWatcher::Result::kLoaded;
}

ModelReloader::Status ModelReloader::StatusSnapshot() const {
  Status status;
  status.polls = polls_.Value();
  status.reloads = reloads_.Value();
  status.failures = failures_.Value();
  status.healthy = healthy_.Value() != 0.0;
  status.epoch = service_.state()->epoch;
  std::lock_guard<std::mutex> lock(status_mu_);
  status.last_error = last_error_;
  return status;
}

}  // namespace deepod::serve
