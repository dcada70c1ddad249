#ifndef DEEPOD_SERVE_SERVING_STATE_H_
#define DEEPOD_SERVE_SERVING_STATE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "nn/quant.h"
#include "temporal/time_slot.h"

namespace deepod::serve {

// t0 of every serving state's cache-key slotter: departures are seconds on
// the same clock as the training data, which starts at 0.
constexpr temporal::Timestamp kServingClockBase = 0.0;

// Whether a departure time can be served: within [kServingClockBase,
// temporal::kMaxTimestamp] (false for NaN and infinities). Earlier times
// make TimeSlotter::Slot throw; later ones overflow the int64 slot casts.
inline bool ServableDeparture(temporal::Timestamp t) {
  return t >= kServingClockBase && t <= temporal::kMaxTimestamp;
}

// One immutable serving epoch: everything a request needs to be answered
// consistently — the model, the speed provider it points at (owned through
// the artifact bundle), the cache-key slotter and the cache generation.
//
// EtaService publishes the current epoch as a shared_ptr<const ServingState>
// and every request path (Estimate, EstimateBatch, the dispatcher) acquires
// one snapshot for its whole unit of work, RCU-style: a model swap flips
// the pointer atomically, in-flight requests finish against the epoch they
// started on, and the old state is destroyed when its last in-flight
// reference drops. Nothing is ever answered from a half-swapped state.
//
// `epoch` doubles as the cache generation: it is packed into every
// OdCacheKey, so the answers an old model wrote into the LRU cache are
// unreachable the moment a new epoch is current — swap, cache invalidation
// and stats attribution are the same mechanism. Epoch numbers are assigned
// by the service (monotone, starting at 0 for the construction state);
// states built by LoadServingState carry epoch 0 until adopted.
struct ServingState {
  // Cache generation / swap counter. Assigned by EtaService on adopt.
  uint64_t epoch = 0;

  // Provenance for stats and logs: the artifact path this state was loaded
  // from, or "<caller-model>" for a service wrapped around a borrowed model.
  std::string source = "<caller-model>";

  // The owning bundle (model + frozen speed field + config) when the state
  // was loaded from an artifact; null when the model is borrowed.
  std::shared_ptr<io::ServingModel> bundle;

  // The serving model: bundle->model.get() or the borrowed one. Never null
  // in an adopted state. The pointee is logically const for serving (only
  // thread-safe inference entry points are used) but the type stays
  // non-const because Predict touches internal memos.
  core::DeepOdModel* model = nullptr;

  // Cache-key time slotter, built from the state's own config so two
  // artifacts with different slot_seconds never alias cache keys.
  temporal::TimeSlotter slotter{kServingClockBase, 300.0};

  // Effective weight quantisation of `model` (stats/provenance only).
  nn::QuantMode quant = nn::QuantMode::kNone;
};

// Loads `artifact_path` against `network` and wraps the bundle into an
// un-adopted ServingState (epoch 0). Throws nn::SerializeError on a
// corrupt, truncated or mismatched artifact — the typed error the reloader
// turns into a rollback. `options.quant` requests load-time quantisation.
std::shared_ptr<ServingState> LoadServingState(
    const std::string& artifact_path, const road::RoadNetwork& network,
    const io::ArtifactOptions& options);

// Wraps a caller-owned model (no bundle) into an un-adopted state.
std::shared_ptr<ServingState> BorrowServingState(core::DeepOdModel& model);

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_SERVING_STATE_H_
