#include "serve/serving_state.h"

#include "nn/serialize.h"

namespace deepod::serve {

std::shared_ptr<ServingState> LoadServingState(
    const std::string& artifact_path, const road::RoadNetwork& network,
    uint32_t network_id, io::SpeedFieldSize speed_size) {
  auto bundle = std::make_shared<io::ServingModel>(
      io::LoadModelArtifact(artifact_path, network, speed_size));
  // An artifact trained for another city is a load failure, not a serving
  // state: the caller keeps what it serves (a fleet shard its oracle).
  if (network_id != 0 && bundle->network_id != 0 &&
      bundle->network_id != network_id) {
    throw nn::SerializeError(nn::LoadStatus::Error(
        nn::LoadErrorKind::kBadValue,
        "artifact.network_id " + std::to_string(bundle->network_id) +
            " != expected " + std::to_string(network_id),
        "artifact.network_id"));
  }
  auto state = std::make_shared<ServingState>();
  state->source = artifact_path;
  state->model = bundle->model.get();
  state->bundle = std::move(bundle);
  return state;
}

std::shared_ptr<ServingState> BorrowServingState(core::DeepOdModel& model) {
  auto state = std::make_shared<ServingState>();
  state->model = &model;
  return state;
}

}  // namespace deepod::serve
