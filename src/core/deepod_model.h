#ifndef DEEPOD_CORE_DEEPOD_MODEL_H_
#define DEEPOD_CORE_DEEPOD_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/deepod_config.h"
#include "core/encoders.h"
#include "core/serving_plan.h"
#include "nn/module.h"
#include "sim/dataset.h"
#include "temporal/time_slot.h"
#include "traj/trajectory.h"
#include "util/thread_pool.h"

namespace deepod::util {
class WeightedDigraph;
}

namespace deepod::core {

// The DeepOD architecture (Fig. 3): the OD encoder M_O, the trajectory
// encoder M_T and the travel-time estimator M_E over shared road-segment
// and time-slot embedding matrices. Construction initialises the embedding
// matrices from unsupervised graph embeddings (Algorithm 1 lines 1-5)
// unless the config's ablations say otherwise.
//
// Travel times are modelled in normalised units y / time_scale (the mean
// training travel time); this keeps mainloss and auxiliaryloss on the same
// O(1) scale so the paper's weighted combination behaves as described.
class DeepOdModel : public nn::Module {
 public:
  // Training construction. `dataset` provides the road network, the speed
  // field, the temporal slotter and the training trajectories used for
  // edge-graph co-occurrence weights (and the time-scale default).
  DeepOdModel(const DeepOdConfig& config, const sim::Dataset& dataset);

  // Streamed-init training construction: identical to the constructor above
  // except the two trajectory-derived inputs — the co-occurrence edge graph
  // and the mean training travel time — are supplied by the caller (e.g.
  // accumulated in one pass over trip shards with road::EdgeGraphAccumulator)
  // instead of being read from dataset.train, which may therefore be empty.
  // RNG consumption order matches the in-memory constructor exactly, so
  // equal inputs produce bit-identical parameters (pinned by datagen_test).
  // `edge_graph` may be null only when config.road_init == kOneHot (the
  // in-memory path never builds the graph there either).
  DeepOdModel(const DeepOdConfig& config, const sim::Dataset& dataset,
              const util::WeightedDigraph* edge_graph, double time_scale);

  // Predict-only construction: the model needs only the road network (for
  // table sizes and route predictions) and a speed provider (may be null —
  // ocode falls back to zeros, as for the N-other ablation). No graph
  // embedding pre-training runs and the time scale stays 1.0: every
  // parameter, buffer and the time scale are expected to come from Load /
  // the artifact loader. This is the constructor the serving path uses to
  // stand a model up without any training dataset in memory.
  DeepOdModel(const DeepOdConfig& config, const road::RoadNetwork& network,
              const sim::SpeedProvider* speed);

  // --- Forward pieces ------------------------------------------------------

  // M_O: hidden representation `code` of an OD input (Eq. 19).
  nn::Tensor EncodeOd(const traj::OdInput& od);

  // M_T: spatio-temporal representation `stcode` of a trajectory (Eq. 17).
  nn::Tensor EncodeTrajectory(const traj::MatchedTrajectory& trajectory);

  // M_E: normalised travel-time estimate from `code` (Eq. 20).
  nn::Tensor EstimateFromCode(const nn::Tensor& code);

  // External-features encoding (§4.5): ocode for the OD's departure time and
  // weather. In serving conditions (inference mode, training off) the result
  // is kept in the external-code table, keyed by (weather, speed-matrix
  // snapshot index) — the CNN is deterministic given those, so
  // a hit returns bit-identical values while skipping the dominant
  // per-query compute.
  // Entries fill lazily on a key's first miss, through the serving plan's
  // CNN, and live until the table's generation ends (ClearOcodeMemo).
  nn::Tensor EncodeExternal(const traj::OdInput& od);

  // Online estimation (Algorithm 1, Estimation): seconds for an OD input.
  // Runs through the serving plan (see serving_plan.h): the same values as
  // the Tensor forward EstimateFromCode(EncodeOd(od)) with gradients off,
  // bit for bit, without building a Tensor.
  double Predict(const traj::OdInput& od);

  // Batched estimation: one travel time per OD input, each bit-identical to
  // Predict of that input (every row runs the same plan forward). When
  // `pool` is given the batch is split into contiguous chunks fanned out
  // over the pool's workers; chunking never changes results.
  std::vector<double> PredictBatch(std::span<const traj::OdInput> ods,
                                   util::ThreadPool* pool = nullptr);

  // Starts a new generation of the external-code table: later lookups see
  // none of the codes stored so far, and a fill that read its speed matrix
  // before the call does not store its code. SetTraining, Load and
  // SetSpeedProvider call it; callers that change model state or speed data
  // behind the model's back (the trainer's checkpoint restore, the artifact
  // loader, EtaService::BumpEpoch after a speed-field publish) must call it
  // themselves.
  void ClearOcodeMemo();

  // Hard cap on the codes one generation of the external-code table stores.
  // A frozen speed field bounds the key space itself (16 weather types ×
  // stored snapshots, since it clamps every departure to a stored
  // snapshot); the cap only stops a provider with
  // unclamped snapshot times from growing a generation without end. Past
  // it, a miss computes its code without storing it. Not configurable.
  static constexpr size_t kOcodeTableMaxEntries = size_t{1} << 16;

  // Codes stored in the current generation of the external-code table.
  size_t ocode_table_size() const;

  // Swaps the external-feature speed source (e.g. a frozen
  // sim::SnapshotSpeedField from an artifact; null disables ocode). The
  // provider must outlive the model. Starts a new external-code table
  // generation.
  void SetSpeedProvider(const sim::SpeedProvider* speed);
  const sim::SpeedProvider* speed_provider() const { return speed_; }

  // The pseudo spatio-temporal path PredictForRoute feeds to M_T: intervals
  // from free-flow expectations via the §2 linear interpolation. Exposed so
  // the serving layer and tests can inspect or reuse it.
  traj::MatchedTrajectory BuildRoutePseudoTrajectory(
      const traj::OdInput& od, const std::vector<size_t>& route_segments) const;

  // Extension: what-if ETA for a concrete candidate route. §4.4 notes that
  // generating `code` "is analogous to generating a proper trajectory"; this
  // runs the reverse direction explicitly — it builds a pseudo
  // spatio-temporal path for `route_segments` (intervals from free-flow
  // expectations via the §2 linear interpolation), encodes it with M_T and
  // reads the time from M_E. Requires supervise_stcode (the default), which
  // grounds M_E on trajectory representations during training. The route
  // must be a connected path from od.origin_segment to od.dest_segment.
  double PredictForRoute(const traj::OdInput& od,
                         const std::vector<size_t>& route_segments);

  // --- Training support ----------------------------------------------------

  // Combined per-sample loss (Algorithm 1 lines 7-12):
  //   w · ||code - stcode||₂ + (1-w) · |ŷ - y| / time_scale.
  // For the N-st ablation the auxiliary term is dropped.
  nn::Tensor SampleLoss(const traj::TripRecord& record);

  double time_scale() const { return time_scale_; }
  void set_time_scale(double scale) { time_scale_ = scale; }

  // Checkpointing. Save writes the tagged state-dict format (v4): every
  // parameter, every BatchNorm running-statistic buffer and the time scale,
  // each under its hierarchical name. Load restores by name (strict —
  // throws nn::SerializeError naming the first mismatching tensor on
  // truncation, corruption or a config mismatch). The model must be
  // constructed with the same config and network shape (same embedding
  // table sizes) before Load.
  void Save(const std::string& path);
  void Load(const std::string& path);

  std::vector<nn::Tensor> Parameters() override;
  void AppendState(const std::string& prefix, nn::StateDict& out) override;
  void SetTraining(bool training) override;

  const DeepOdConfig& config() const { return config_; }
  nn::Embedding& road_embedding() { return *road_embedding_; }
  nn::Embedding& time_slot_embedding() { return *time_slot_embedding_; }

 private:
  // Writes the z9 feature vector of `od` (Eq. 19 input) into row[0..z9_dim):
  // the exact doubles EncodeOd's ConcatVec would produce.
  void FillOdFeatureRow(const ServingPlan& plan, const traj::OdInput& od,
                        double* row);

  // Predict for every ods[i] into out[i].
  void PredictInto(const ServingPlan& plan,
                   std::span<const traj::OdInput> ods, double* out);

  // The external-features forward proper (zeros when disabled), building an
  // autograd graph unless in inference mode.
  nn::Tensor ExternalForward(const traj::OdInput& od);

  // Writes ocode(od) to out[0..dm6). In serving conditions — inference mode
  // (a stored code is a leaf with no graph) and training off (a
  // training-mode forward updates BatchNorm running statistics, a side
  // effect a hit would skip) — through the external-code table, whose
  // misses run `plan`'s CNN; otherwise through the Tensor forward.
  void WriteExternalCode(const ServingPlan& plan, const traj::OdInput& od,
                         double* out);

  // The serving plan for the current parameter values, rebuilt first when
  // nn::ParamEpoch() moved or the training mode flipped since it was built.
  // Concurrent callers are safe: a rebuild that finds the same weights (an
  // epoch bump from another model's load) keeps the current plan in place,
  // so threads still reading it see no write. A rebuild with new weights
  // only follows a parameter update of this model, which must not overlap
  // its queries anyway.
  const ServingPlan& Plan();

  size_t z9_dim() const {
    return config_.ds * 2 + config_.dt + config_.dm6 + 3;
  }

  // Shared tail of both constructors: builds the module tree (no embedding
  // pre-training; the training constructor runs that first).
  void BuildModules(util::Rng& rng);

  DeepOdConfig config_;
  const road::RoadNetwork& network_;
  const sim::SpeedProvider* speed_;  // may be null (no external features)
  temporal::TimeSlotter slotter_;
  double time_scale_ = 1.0;

  // External-code table (see EncodeExternal): packed (weather, snapshot
  // index) key -> ocode, for the current generation.
  // ClearOcodeMemo bumps the generation; a fill stores its code only if the
  // generation it read before its MatrixAt is still current. The CNN runs
  // outside the mutex.
  mutable std::mutex ocode_mu_;
  uint64_t ocode_generation_ = 0;
  std::unordered_map<uint64_t, std::vector<double>> ocode_table_;

  // Serving plan (see Plan()). plan_epoch_ is the ParamEpoch plan_ matches,
  // 0 when it must be rebuilt; it is stored (release) only after plan_ is
  // complete. plan_mu_ serialises rebuilds.
  std::mutex plan_mu_;
  std::atomic<uint64_t> plan_epoch_{0};
  ServingPlan plan_;

  std::unique_ptr<nn::Embedding> road_embedding_;       // Ws
  std::unique_ptr<nn::Embedding> time_slot_embedding_;  // Wt
  std::unique_ptr<TrajectoryEncoder> trajectory_encoder_;
  std::unique_ptr<ExternalFeaturesEncoder> external_encoder_;
  std::unique_ptr<nn::Mlp2> mlp1_;  // Eq. 19: Z9 -> code
  std::unique_ptr<nn::Mlp2> mlp2_;  // Eq. 20: code -> y
};

}  // namespace deepod::core

#endif  // DEEPOD_CORE_DEEPOD_MODEL_H_
