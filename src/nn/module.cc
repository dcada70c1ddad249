#include "nn/module.h"

#include <cmath>
#include <stdexcept>

namespace deepod::nn {

void StateDict::AddParameter(const std::string& name, const Tensor& parameter) {
  Entry e;
  e.name = name;
  e.shape = parameter.shape();
  // The handle keeps the shared storage alive; the raw pointer stays valid
  // because Tensor data buffers are never reallocated after construction.
  e.keepalive = parameter;
  e.data = e.keepalive.data().data();
  e.size = parameter.size();
  e.is_buffer = false;
  entries_.push_back(std::move(e));
}

void StateDict::AddBuffer(const std::string& name, std::vector<size_t> shape,
                          double* data, Values values) {
  Entry e;
  e.name = name;
  e.size = nn::NumElements(shape);
  e.shape = std::move(shape);
  e.data = data;
  e.is_buffer = true;
  e.values = values;
  entries_.push_back(std::move(e));
}

void StateDict::AddScalarBuffer(const std::string& name, double* value,
                                Values values) {
  AddBuffer(name, {}, value, values);
}

const StateDict::Entry* StateDict::Find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

size_t StateDict::NumElements() const {
  size_t n = 0;
  for (const auto& e : entries_) n += e.size;
  return n;
}

std::string JoinName(const std::string& prefix, const std::string& name) {
  return prefix.empty() ? name : prefix + name;
}

StateDict Module::State(const std::string& prefix) {
  StateDict dict;
  AppendState(prefix, dict);
  return dict;
}

size_t Module::NumParameters() {
  size_t n = 0;
  for (auto& p : Parameters()) n += p.size();
  return n;
}

void Module::SetTraining(bool training) { training_ = training; }

Linear::Linear(size_t in_dim, size_t out_dim, util::Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  // Kaiming-uniform fan-in initialisation, matching PyTorch's nn.Linear.
  const double bound = 1.0 / std::sqrt(static_cast<double>(in_dim));
  w_ = Tensor::RandUniform({out_dim, in_dim}, rng, -bound, bound);
  b_ = Tensor::RandUniform({out_dim}, rng, -bound, bound);
  w_.set_requires_grad(true);
  b_.set_requires_grad(true);
}

Tensor Linear::Forward(const Tensor& x) const { return Affine(w_, x, b_); }

std::vector<Tensor> Linear::Parameters() { return {w_, b_}; }

void Linear::AppendState(const std::string& prefix, StateDict& out) {
  out.AddParameter(JoinName(prefix, "weight"), w_);
  out.AddParameter(JoinName(prefix, "bias"), b_);
}

Mlp2::Mlp2(size_t in_dim, size_t hidden_dim, size_t out_dim, util::Rng& rng)
    : layer1_(in_dim, hidden_dim, rng), layer2_(hidden_dim, out_dim, rng) {}

Tensor Mlp2::Forward(const Tensor& x) const {
  return layer2_.Forward(Relu(layer1_.Forward(x)));
}

std::vector<Tensor> Mlp2::Parameters() {
  auto p = layer1_.Parameters();
  auto p2 = layer2_.Parameters();
  p.insert(p.end(), p2.begin(), p2.end());
  return p;
}

void Mlp2::AppendState(const std::string& prefix, StateDict& out) {
  layer1_.AppendState(JoinName(prefix, "layer1."), out);
  layer2_.AppendState(JoinName(prefix, "layer2."), out);
}

Embedding::Embedding(size_t num_entries, size_t dim, util::Rng& rng)
    : num_entries_(num_entries), dim_(dim) {
  // Small-normal init; typically overwritten by LoadPretrained.
  table_ = Tensor::Randn({num_entries, dim}, rng, 0.1);
  table_.set_requires_grad(true);
}

Tensor Embedding::Forward(size_t id) const {
  if (id >= num_entries_) throw std::out_of_range("Embedding: id out of range");
  return Row(table_, id);
}

Tensor Embedding::Forward(const std::vector<size_t>& ids) const {
  return GatherRows(table_, ids);
}

void Embedding::LoadPretrained(const std::vector<std::vector<double>>& init) {
  if (init.size() != num_entries_) {
    throw std::invalid_argument("Embedding::LoadPretrained: row count mismatch");
  }
  auto& data = table_.data();
  for (size_t i = 0; i < num_entries_; ++i) {
    if (init[i].size() != dim_) {
      throw std::invalid_argument("Embedding::LoadPretrained: dim mismatch");
    }
    for (size_t j = 0; j < dim_; ++j) data[i * dim_ + j] = init[i][j];
  }
  BumpParamEpoch();  // invalidates the serving plan
}

std::vector<Tensor> Embedding::Parameters() { return {table_}; }

void Embedding::AppendState(const std::string& prefix, StateDict& out) {
  out.AddParameter(JoinName(prefix, "table"), table_);
}

}  // namespace deepod::nn
