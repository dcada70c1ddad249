#ifndef DEEPOD_IO_MODEL_ARTIFACT_H_
#define DEEPOD_IO_MODEL_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/od_oracle.h"
#include "baselines/path_tte.h"
#include "core/deepod_model.h"
#include "nn/quant.h"
#include "road/road_network.h"
#include "sim/snapshot_speed_field.h"

namespace deepod::io {

// A model artifact is one self-describing, checksummed state-dict file (the
// nn/serialize format) holding everything serving needs besides the road
// network itself:
//
//   artifact.version     format generation of the entry layout: 2, the one
//                        version written and read (a version-1 artifact,
//                        which lacks network_id, reads as kBadVersion)
//   artifact.network_id  fleet routing id of the network the model was
//                        trained on
//   config.*             one scalar per DeepOdConfig field
//   model.*              every parameter, BatchNorm buffer and the time scale
//   speed.*              the frozen speed field (optional: rows/cols/
//                        snapshot_seconds scalars, snapshot indices, matrices)
//   oracle.*             the OD-histogram fallback oracle (optional)
//   linkmean.*           the link-mean PathTTE fallback (optional)
//
// LoadModelArtifact reconstructs a predict-only DeepOdModel from the
// artifact plus a road network alone — no training dataset, traffic process
// or trajectory store in memory — and its predictions are bit-identical to
// the model that was saved. See DESIGN.md, "Model lifecycle".

// Write-side options. `quant` selects the storage dtype of the weight
// records (f16 or per-row int8, nn/quant.h; everything else stays f64): the
// quantised artifact is the smaller model, and the loader serves whatever
// dtype its records carry. Quantisation is serving-only: a quantised
// model's predictions match the fp64 goldens within an MAE budget, never
// bit-identically.
struct ArtifactOptions {
  nn::QuantMode quant = nn::QuantMode::kNone;
  // Fleet routing id stamped into the artifact.
  uint32_t network_id = 0;
  // Fallback estimators to embed on write (finalized; borrowed for the
  // duration of the call). Null skips the records, as with `speed`.
  baselines::OdOracle* oracle = nullptr;
  baselines::LinkMeanEstimator* link_mean = nullptr;
};

// The deserialised serving bundle. Move-only; `model` references `speed`
// (and the network passed to LoadModelArtifact), so keep the bundle (and
// that network) alive as long as the model is used. Members are ordered so
// the model is destroyed before the speed field it points at.
struct ServingModel {
  core::DeepOdConfig config;
  std::unique_ptr<sim::SnapshotSpeedField> speed;  // null if not captured
  std::unique_ptr<core::DeepOdModel> model;
  // The mode the artifact's weight records were stored in (kNone for a
  // plain fp64 artifact).
  nn::QuantMode quant = nn::QuantMode::kNone;
  // Fleet routing id the artifact was written for.
  uint32_t network_id = 0;
  // Fallback estimators, when the artifact carries them (null otherwise).
  // Independent of `model` — safe to move out.
  std::unique_ptr<baselines::OdOracle> oracle;
  std::unique_ptr<baselines::LinkMeanEstimator> link_mean;
};

// A model-less fallback bundle: the oracle tier alone, loadable before any
// trained model exists for the city (serve::FleetRouter's cold-shard path).
struct OracleBundle {
  uint32_t network_id = 0;
  std::unique_ptr<baselines::OdOracle> oracle;
  std::unique_ptr<baselines::LinkMeanEstimator> link_mean;
};

// Writes the artifact for `model`, embedding `speed` when non-null (pass
// the frozen field covering the serving horizon; null is valid for models
// trained without external features). Throws nn::SerializeError on I/O
// failure.
void WriteModelArtifact(const std::string& path, core::DeepOdModel& model,
                        const sim::SnapshotSpeedField* speed);
void WriteModelArtifact(const std::string& path, core::DeepOdModel& model,
                        const sim::SnapshotSpeedField* speed,
                        const ArtifactOptions& options);

// Reads an artifact and stands up a predict-only model against `network`
// (which must be the network the model was trained on — the embedding table
// size is validated against it). One sequential pass over the file
// (nn::ReadStateDict) frames and checksums it and lands every payload in
// its record, with no whole-file buffer; the strict pass then copies the
// model and estimator tensors out, and the speed.matrices record's storage
// becomes the speed field's contiguous matrix arena by move. Throws
// nn::SerializeError with a typed status on a truncated/corrupt file, an
// unsupported artifact version, a config or speed scalar outside its
// stated bound (kBadValue, or kNonFinite for a NaN/infinity — checked
// before the scalar sizes anything), a config/shape mismatch or a
// NaN/infinite value in any tensor (kNonFinite, decoded values included);
// no other exception type escapes a corrupt file, and a failed load never
// returns a half-written model. Quantised (f16/int8) artifacts dequantise
// into fp64 storage on load, so every kernel tier serves them unchanged.
ServingModel LoadModelArtifact(const std::string& path,
                               const road::RoadNetwork& network);

// Writes / reads a standalone oracle artifact (version + network_id +
// oracle.* + linkmean.* records, no model). Either estimator may be null on
// write; absent records load as null. Throws nn::SerializeError like the
// model-artifact functions; the load, too, reads the file in one pass.
void WriteOracleArtifact(const std::string& path, uint32_t network_id,
                         baselines::OdOracle* oracle,
                         baselines::LinkMeanEstimator* link_mean);
OracleBundle LoadOracleArtifact(const std::string& path);

}  // namespace deepod::io

#endif  // DEEPOD_IO_MODEL_ARTIFACT_H_
