#ifndef DEEPOD_CORE_DEEPOD_CONFIG_H_
#define DEEPOD_CORE_DEEPOD_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "embed/graph_embedding.h"

namespace deepod::core {

// Ablation switches of §6.4.2 (Table 4) and §6.5 (Table 7).
enum class Ablation {
  kFull,     // DeepOD
  kNoSt,     // N-st: no trajectory encoding (auxiliary task disabled)
  kNoSp,     // N-sp: no spatial (road-segment) encoding
  kNoTp,     // N-tp: no temporal (time-interval/time-slot) encoding
  kNoOther,  // N-other: no external-feature encoding
};

enum class TimeInit {
  kTemporalGraph,  // weekly temporal graph + graph embedding (DeepOD)
  kOneHot,         // T-one: random init instead of graph embedding
  kDailyGraph,     // T-day: one-day temporal graph
  kTimestamp,      // T-stamp: raw timestamp scalar, no slot embedding
};

enum class RoadInit {
  kGraphEmbedding,  // trajectory-weighted edge graph + node2vec (DeepOD)
  kOneHot,          // R-one: random init instead of graph embedding
};

// Hyper-parameters of the DeepOD architecture. Defaults are the paper's
// tuned values (§6.2): d_s = d_t = 64, d_m^1 = 128, d_m^2 = 64, d_h = 128,
// d_m^3 = 128, d_m^4 = d_m^8 = 64, d_m^5 = 128, d_m^6 = 64, d_m^7 = 128,
// d_m^9 = 128, d_traf = 128. Benches scale these down uniformly via
// Scaled() so every experiment finishes on one CPU core.
struct DeepOdConfig {
  // Embedding sizes.
  size_t ds = 64;  // road segment embedding
  size_t dt = 64;  // time slot embedding
  // MLP layer widths (the paper's d_m^i notation).
  size_t dm1 = 128;  // TimeIntervalEncoder hidden
  size_t dm2 = 64;   // TimeIntervalEncoder output (tcode)
  size_t dm3 = 128;  // TrajectoryEncoder hidden
  size_t dm4 = 64;   // TrajectoryEncoder output (stcode); must equal dm8
  size_t dm5 = 128;  // ExternalFeaturesEncoder hidden
  size_t dm6 = 64;   // ExternalFeaturesEncoder output (ocode)
  size_t dm7 = 128;  // MLP1 hidden
  size_t dm8 = 64;   // MLP1 output (code); must equal dm4
  size_t dm9 = 128;  // MLP2 hidden
  size_t dh = 128;   // LSTM hidden state
  size_t dtraf = 128;  // traffic-condition CNN output

  // Temporal discretisation (Def. 4); 5 minutes by default.
  double slot_seconds = 300.0;

  // Loss combination (Algorithm 1): loss = w·auxiliary + (1-w)·main.
  double loss_weight_w = 0.3;

  // Reproduction-scale stabilisation: also pass stcode through M_E and
  // supervise it with the true travel time during training. Algorithm 1
  // grounds only `code`; at the paper's data scale that suffices, but at
  // laptop scale the unanchored stcode can collapse toward a constant and
  // drag code with it through the auxiliary distance. Grounding both sides
  // keeps the trajectory representation informative. Documented in
  // DESIGN.md; switchable off to run the paper's exact loss.
  bool supervise_stcode = true;

  // Optimisation (§6.1): Adam, initial lr 0.01, x0.2 every 2 epochs.
  double learning_rate = 0.01;
  int lr_decay_epochs = 2;
  double lr_decay_factor = 0.2;
  size_t batch_size = 16;
  int epochs = 12;
  // Gradient-norm clip. mainloss is expressed in seconds, so gradient
  // norms scale with the dataset's travel times; the default is a loose
  // safety valve against occasional LSTM spikes, not a tuning knob.
  double grad_clip = 1e4;

  // External-feature CNN input: the speed matrix is average-pooled down to
  // at most this many rows/cols before entering the CNN (keeps per-sample
  // cost bounded on large cities; the paper ran the full matrix on a GPU).
  size_t max_speed_matrix_dim = 8;

  // Ablations.
  Ablation ablation = Ablation::kFull;
  TimeInit time_init = TimeInit::kTemporalGraph;
  RoadInit road_init = RoadInit::kGraphEmbedding;
  embed::EmbedMethod embed_method = embed::EmbedMethod::kNode2Vec;

  uint64_t seed = 7;

  // Worker threads for training and batched prediction. 0 = auto: the
  // DEEPOD_THREADS environment variable if set, otherwise the machine's
  // hardware concurrency. Training results are deterministic for a fixed
  // value, and at 1 bit-identical to per-sample backward.
  size_t num_threads = 0;

  // Uniformly divides every width by `factor` (minimum 4) — the bench
  // profiles use Scaled(4) so a full table regenerates in minutes.
  DeepOdConfig Scaled(size_t factor) const;
};

}  // namespace deepod::core

#endif  // DEEPOD_CORE_DEEPOD_CONFIG_H_
