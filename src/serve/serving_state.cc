#include "serve/serving_state.h"

namespace deepod::serve {

std::shared_ptr<ServingState> LoadServingState(
    const std::string& artifact_path, const road::RoadNetwork& network,
    const io::ArtifactOptions& options) {
  auto bundle = std::make_shared<io::ServingModel>(
      io::LoadModelArtifact(artifact_path, network, options));
  auto state = std::make_shared<ServingState>();
  state->source = artifact_path;
  state->model = bundle->model.get();
  state->quant = bundle->quant;
  state->bundle = std::move(bundle);
  return state;
}

std::shared_ptr<ServingState> BorrowServingState(core::DeepOdModel& model) {
  auto state = std::make_shared<ServingState>();
  state->model = &model;
  return state;
}

}  // namespace deepod::serve
