#ifndef DEEPOD_SERVE_SERVING_STATE_H_
#define DEEPOD_SERVE_SERVING_STATE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "temporal/time_slot.h"

namespace deepod::serve {

// t0 of the serving clock: departures are seconds on the same clock as the
// training data, which starts at 0.
constexpr temporal::Timestamp kServingClockBase = 0.0;

// Whether a departure time can be served: within [kServingClockBase,
// temporal::kMaxTimestamp] (false for NaN and infinities). Earlier times
// make TimeSlotter::Slot throw; later ones overflow the int64 slot casts.
inline bool ServableDeparture(temporal::Timestamp t) {
  return t >= kServingClockBase && t <= temporal::kMaxTimestamp;
}

// One immutable serving epoch: everything a request needs to be answered
// consistently — the model and the speed provider it points at (owned
// through the artifact bundle) — plus its epoch number.
//
// EtaService publishes the current epoch as a shared_ptr<const ServingState>
// and every request path (Estimate, EstimateBatch) acquires
// one snapshot for its whole unit of work, RCU-style: a model swap flips
// the pointer atomically, in-flight requests finish against the epoch they
// started on, and the old state is destroyed when its last in-flight
// reference drops. Nothing is ever answered from a half-swapped state.
//
// `epoch` identifies the state for stats and reload status. Epoch numbers
// are assigned by the service (monotone, starting at 0 for the construction
// state); states built by LoadServingState carry epoch 0 until adopted.
struct ServingState {
  // Swap / speed-publish counter. Assigned by EtaService on adopt.
  uint64_t epoch = 0;

  // Provenance for stats, logs and hot swap: the artifact path this state
  // was loaded from; empty for a borrowed model.
  std::string source;

  // The owning bundle (model + frozen speed field + config) when the state
  // was loaded from an artifact; null when the model is borrowed.
  std::shared_ptr<io::ServingModel> bundle;

  // The serving model: bundle->model.get() or the borrowed one. Never null
  // in an adopted state. The pointee is logically const for serving (only
  // thread-safe inference entry points are used) but the type stays
  // non-const because Predict touches internal memos.
  core::DeepOdModel* model = nullptr;
};

// Loads `artifact_path` against `network` and wraps the bundle into an
// un-adopted ServingState (epoch 0): the one load-and-validate step behind
// EtaService::FromArtifact, deepod_server's startup load and every
// FleetRouter activation and hot swap. Throws nn::SerializeError on a
// corrupt, truncated or mismatched artifact — the typed error a hot swap
// turns into a rollback.
// A non-zero `network_id` also refuses an artifact stamped for another
// city (stamp non-zero and different: kBadValue on "artifact.network_id").
// A quantised artifact serves its stored f16/int8 weights
// (bundle->quant names the mode). `speed_size` is forwarded to
// io::LoadModelArtifact: the speed field at the size the model reads it
// (the default), or the stored grid a live RollingSpeedField's baseline
// needs.
std::shared_ptr<ServingState> LoadServingState(
    const std::string& artifact_path, const road::RoadNetwork& network,
    uint32_t network_id = 0,
    io::SpeedFieldSize speed_size = io::SpeedFieldSize::kModelInput);

// Wraps a caller-owned model (no bundle) into an un-adopted state.
std::shared_ptr<ServingState> BorrowServingState(core::DeepOdModel& model);

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_SERVING_STATE_H_
