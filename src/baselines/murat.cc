#include "baselines/murat.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "embed/graph_embedding.h"
#include "nn/ops.h"
#include "util/rng.h"
#include "util/weighted_digraph.h"

namespace deepod::baselines {
namespace {

// Undirected 4-neighbour adjacency over a grid of nx * ny cells — the
// structure MURAT pre-trains its coordinate-cell embeddings on.
util::WeightedDigraph GridGraph(size_t nx, size_t ny) {
  util::WeightedDigraph g(nx * ny);
  for (size_t y = 0; y < ny; ++y) {
    for (size_t x = 0; x < nx; ++x) {
      const size_t id = y * nx + x;
      if (x + 1 < nx) {
        g.AddArc(id, id + 1, 1.0);
        g.AddArc(id + 1, id, 1.0);
      }
      if (y + 1 < ny) {
        g.AddArc(id, id + nx, 1.0);
        g.AddArc(id + nx, id, 1.0);
      }
    }
  }
  return g;
}

// Undirected daily temporal chain without cross-day edges (§7.1: MURAT's
// temporal graph is undirected and has no neighbouring-day links).
util::WeightedDigraph MuratTemporalGraph(int64_t slots_per_day) {
  util::WeightedDigraph g(static_cast<size_t>(slots_per_day));
  for (int64_t i = 0; i < slots_per_day; ++i) {
    const size_t a = static_cast<size_t>(i);
    const size_t b = static_cast<size_t>((i + 1) % slots_per_day);
    g.AddArc(a, b, 1.0);
    g.AddArc(b, a, 1.0);
  }
  return g;
}

}  // namespace

MuratEstimator::MuratEstimator() : MuratEstimator(Options{}) {}

MuratEstimator::MuratEstimator(Options options)
    : options_(options), slotter_(0.0, options.slot_seconds) {}

size_t MuratEstimator::CellOf(const road::Point& p) const {
  const size_t cx = static_cast<size_t>(std::clamp(
      (p.x - grid_lo_.x) / options_.cell_size_m, 0.0,
      static_cast<double>(grid_nx_ - 1)));
  const size_t cy = static_cast<size_t>(std::clamp(
      (p.y - grid_lo_.y) / options_.cell_size_m, 0.0,
      static_cast<double>(grid_ny_ - 1)));
  return cy * grid_nx_ + cx;
}

void MuratEstimator::Train(const sim::Dataset& dataset) {
  if (options_.step_callback && options_.eval_every == 0) {
    throw std::invalid_argument(
        "MuratEstimator: eval_every must be positive when a step callback is set");
  }
  net_ = &dataset.network;
  util::Rng rng(options_.seed);

  road::Point hi;
  net_->BoundingBox(&grid_lo_, &hi);
  grid_nx_ = static_cast<size_t>(
                 std::ceil((hi.x - grid_lo_.x) / options_.cell_size_m)) + 1;
  grid_ny_ = static_cast<size_t>(
                 std::ceil((hi.y - grid_lo_.y) / options_.cell_size_m)) + 1;

  cell_embedding_ = std::make_unique<nn::Embedding>(grid_nx_ * grid_ny_,
                                                    options_.cell_dim, rng);
  {
    embed::EmbedOptions eo;
    eo.dim = options_.cell_dim;
    cell_embedding_->LoadPretrained(embed::EmbedGraph(
        GridGraph(grid_nx_, grid_ny_), embed::EmbedMethod::kNode2Vec, eo, rng));
  }
  time_embedding_ = std::make_unique<nn::Embedding>(
      static_cast<size_t>(slotter_.slots_per_day()), options_.time_dim, rng);
  {
    embed::EmbedOptions eo;
    eo.dim = options_.time_dim;
    time_embedding_->LoadPretrained(
        embed::EmbedGraph(MuratTemporalGraph(slotter_.slots_per_day()),
                          embed::EmbedMethod::kNode2Vec, eo, rng));
  }
  const size_t trunk_in = options_.cell_dim * 2 + options_.time_dim + 1;
  trunk_ = std::make_unique<nn::Mlp2>(trunk_in, options_.hidden_dim,
                                      options_.hidden_dim, rng);
  time_head_ = std::make_unique<nn::Linear>(options_.hidden_dim, 1, rng);
  dist_head_ = std::make_unique<nn::Linear>(options_.hidden_dim, 1, rng);

  const auto& train = dataset.train;
  if (train.empty()) return;
  double time_sum = 0.0, dist_sum = 0.0;
  for (const auto& t : train) {
    time_sum += t.travel_time;
    dist_sum += road::Distance(t.od.origin, t.od.destination);
  }
  time_scale_ = time_sum / static_cast<double>(train.size());
  dist_scale_ = std::max(1.0, dist_sum / static_cast<double>(train.size()));

  std::vector<nn::Tensor> params = cell_embedding_->Parameters();
  for (auto* m : std::vector<nn::Module*>{time_embedding_.get(), trunk_.get(),
                                          time_head_.get(), dist_head_.get()}) {
    auto p = m->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  nn::Adam optimizer(params, options_.learning_rate);

  std::vector<size_t> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t bs = std::max<size_t>(1, options_.batch_size);
  size_t step = 0;
  auto maybe_eval = [&] {
    ++step;
    if (!options_.step_callback || step % options_.eval_every != 0) return;
    const size_t n = std::min<size_t>(200, dataset.validation.size());
    if (n == 0) return;
    double mae = 0.0;
    for (size_t i = 0; i < n; ++i) {
      mae += std::fabs(Predict(dataset.validation[i].od) -
                       dataset.validation[i].travel_time);
    }
    options_.step_callback(step, mae / static_cast<double>(n));
  };
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    optimizer.set_learning_rate(options_.learning_rate *
                                std::pow(0.5, epoch / 2));
    rng.Shuffle(order);
    size_t in_batch = 0;
    optimizer.ZeroGrad();
    for (size_t idx : order) {
      const auto& trip = train[idx];
      const double dist_label =
          trip.trajectory.empty()
              ? road::Distance(trip.od.origin, trip.od.destination)
              : trip.trajectory.TravelledLength(*net_);
      const nn::Tensor h = Trunk(trip.od);
      const nn::Tensor time_loss = nn::MaeLoss(
          time_head_->Forward(h),
          nn::Tensor::Scalar(trip.travel_time / time_scale_));
      const nn::Tensor dist_loss = nn::MaeLoss(
          dist_head_->Forward(h), nn::Tensor::Scalar(dist_label / dist_scale_));
      nn::Tensor loss = nn::Add(
          nn::Scale(time_loss, 1.0 - options_.distance_loss_weight),
          nn::Scale(dist_loss, options_.distance_loss_weight));
      loss = nn::Scale(loss, 1.0 / static_cast<double>(bs));
      loss.Backward();
      if (++in_batch == bs) {
        optimizer.Step();
        optimizer.ZeroGrad();
        in_batch = 0;
        maybe_eval();
      }
    }
    if (in_batch > 0) {
      optimizer.Step();
      optimizer.ZeroGrad();
    }
  }
}

nn::Tensor MuratEstimator::Trunk(const traj::OdInput& od) const {
  const nn::Tensor co = cell_embedding_->Forward(CellOf(od.origin));
  const nn::Tensor cd = cell_embedding_->Forward(CellOf(od.destination));
  const int64_t node = slotter_.DailyNode(slotter_.Slot(od.departure_time));
  const nn::Tensor dt = time_embedding_->Forward(static_cast<size_t>(node));
  const double tr =
      slotter_.Remainder(od.departure_time) / slotter_.slot_seconds();
  const nn::Tensor extras = nn::Tensor::FromData({1}, {tr});
  return trunk_->Forward(nn::ConcatVec({co, cd, dt, extras}));
}

double MuratEstimator::Predict(const traj::OdInput& od) const {
  if (net_ == nullptr || !trunk_) return 0.0;
  return time_head_->Forward(Trunk(od)).item() * time_scale_;
}

size_t MuratEstimator::ModelSizeBytes() const {
  if (!trunk_) return 0;
  size_t n = 0;
  auto* self = const_cast<MuratEstimator*>(this);
  for (auto* m : std::vector<nn::Module*>{
           self->cell_embedding_.get(), self->time_embedding_.get(),
           self->trunk_.get(), self->time_head_.get(), self->dist_head_.get()}) {
    n += m->NumParameters();
  }
  return n * sizeof(double);
}

}  // namespace deepod::baselines
