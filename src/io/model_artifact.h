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
// nn/serialize v2 format) holding everything serving needs besides the road
// network itself:
//
//   artifact.version     format generation of the entry layout (currently 2;
//                        version-1 artifacts still load — they simply lack
//                        the entries below this line)
//   artifact.network_id  fleet routing id of the network the model was
//                        trained on (v2; absent in v1 = id 0)
//   config.*             one scalar per DeepOdConfig field
//   model.*              every parameter, BatchNorm buffer and the time scale
//   speed.*              the frozen speed field (optional: rows/cols/
//                        snapshot_seconds scalars, snapshot indices, matrices)
//   oracle.*             the OD-histogram fallback oracle (optional, v2)
//   linkmean.*           the link-mean PathTTE fallback (optional, v2)
//
// LoadModelArtifact reconstructs a predict-only DeepOdModel from the
// artifact plus a road network alone — no training dataset, traffic process
// or trajectory store in memory — and its predictions are bit-identical to
// the model that was saved. See DESIGN.md, "Model lifecycle".

// Options for the quantised predict-only path (nn/quant.h). On write,
// `quant` selects the storage dtype of the weight records (f16 or per-row
// int8; everything else stays f64 and all-f64 artifacts keep the v2 byte
// layout). On load, `quant` requests fake-quantisation of an fp64 artifact's
// weights at load time — useful for evaluating a quant tier without
// rewriting the artifact. Quantisation is serving-only: a quantised model's
// predictions match the fp64 goldens within an MAE budget, never
// bit-identically.
struct ArtifactOptions {
  nn::QuantMode quant = nn::QuantMode::kNone;
  // Fleet routing id stamped into the artifact on write (ignored on load —
  // the stored id is authoritative there).
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
  // Effective weight quantisation of `model`: the mode requested at load
  // time, or — when none was requested — the mode the artifact's records
  // were stored in (kNone for a plain fp64 artifact).
  nn::QuantMode quant = nn::QuantMode::kNone;
  // Fleet routing id the artifact was written for (0 for v1 artifacts).
  uint32_t network_id = 0;
  // Fallback estimators, when the artifact carries them (v2; null
  // otherwise). Independent of `model` — safe to move out.
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
// NaN/infinite value in any tensor (kNonFinite, checked again after
// load-time quantisation); no other exception type escapes a corrupt file,
// and a failed load never returns a half-written model.
// Quantised (v3) artifacts dequantise into fp64 storage on load, so every
// kernel tier serves them unchanged; options.quant additionally
// fake-quantises fp64 weights at load time.
ServingModel LoadModelArtifact(const std::string& path,
                               const road::RoadNetwork& network);
ServingModel LoadModelArtifact(const std::string& path,
                               const road::RoadNetwork& network,
                               const ArtifactOptions& options);

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
