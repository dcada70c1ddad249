#ifndef DEEPOD_NN_MODULE_H_
#define DEEPOD_NN_MODULE_H_

#include <string>
#include <vector>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace deepod::nn {

// An ordered, named view of a model's state: every trainable parameter plus
// every non-trainable buffer (BatchNorm running statistics, scalar extras
// like a model's time scale). Names are hierarchical dotted paths
// ("external_encoder.cnn.bn1.running_mean") assembled by the owning module
// tree, so a saved state identifies each tensor by name instead of by
// position — the contract the tagged serialisation format (serialize.h) and
// the model-artifact layer are built on.
//
// Entries borrow their storage: the dict is a view, valid only while the
// module that produced it is alive. Parameter entries additionally keep a
// Tensor handle so the shared storage cannot be recycled under the view.
class StateDict {
 public:
  // What an entry may hold. Model state is kFinite: the loaders reject a
  // NaN or infinity in it (see DeserializeStateDict in serialize.h). kAny
  // is for bookkeeping that stores sentinels or raw bit patterns in doubles.
  enum class Values { kFinite, kAny };

  struct Entry {
    std::string name;
    std::vector<size_t> shape;  // empty = scalar
    double* data = nullptr;     // borrowed, `size` elements
    size_t size = 0;
    bool is_buffer = false;  // true for non-trainable state
    Values values = Values::kFinite;
    Tensor keepalive;        // defined only for parameter entries
  };

  // Registers a trainable parameter (shape/storage taken from the tensor).
  void AddParameter(const std::string& name, const Tensor& parameter);
  // Registers a non-trainable buffer over caller-owned storage; `data` must
  // hold NumElements(shape) doubles and outlive the dict.
  void AddBuffer(const std::string& name, std::vector<size_t> shape,
                 double* data, Values values = Values::kFinite);
  // Scalar buffer convenience (shape {}).
  void AddScalarBuffer(const std::string& name, double* value,
                       Values values = Values::kFinite);

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Entry lookup by exact name; nullptr when absent.
  const Entry* Find(const std::string& name) const;

  // Total scalar element count across all entries.
  size_t NumElements() const;

 private:
  std::vector<Entry> entries_;
};

// Joins a hierarchical state prefix with a leaf or child name ("a." + "b"
// -> "a.b"). Prefixes passed to AppendState always end in '.' or are empty.
std::string JoinName(const std::string& prefix, const std::string& name);

// Base class for parameterised layers. Parameters are Tensor handles with
// requires_grad set; an optimiser updates them in place.
class Module {
 public:
  virtual ~Module() = default;

  // All trainable parameter tensors (handles share storage with the module).
  // The order is load-bearing for the optimiser and the gradient arenas;
  // AppendState must register the same tensors (plus buffers) by name.
  virtual std::vector<Tensor> Parameters() = 0;

  // Appends this module's named parameters and buffers to `out`, each name
  // prefixed with `prefix` (either empty or ending in '.'). Submodules are
  // recursed into with an extended prefix, yielding hierarchical names like
  // "mlp1.layer1.weight". Every module must register its complete state:
  // the state dict is the single source of truth for checkpointing.
  virtual void AppendState(const std::string& prefix, StateDict& out) = 0;

  // The full named state of this module tree (parameters and buffers).
  StateDict State(const std::string& prefix = "");

  // Total number of scalar parameters (model-size accounting, Table 5).
  size_t NumParameters();

  // Switches between training and inference behaviour (BatchNorm running
  // statistics). Default is training mode.
  virtual void SetTraining(bool training);

  bool training() const { return training_; }

 protected:
  bool training_ = true;
};

// Fully connected layer: y = W x + b for a vector x (the form used
// throughout the paper's equations). Weights use Kaiming-uniform init.
class Linear : public Module {
 public:
  Linear(size_t in_dim, size_t out_dim, util::Rng& rng);

  // Affine(W, x, b) for a 1-D x [in] -> [out]; Affine throws
  // std::invalid_argument for any other rank.
  Tensor Forward(const Tensor& x) const;

  std::vector<Tensor> Parameters() override;
  void AppendState(const std::string& prefix, StateDict& out) override;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  size_t in_dim_, out_dim_;
  Tensor w_;  // [out, in]
  Tensor b_;  // [out]
};

// The paper's two-layer MLP (PyTorch tutorial style, §4.3):
//   y = W2 ReLU(W1 x + b1) + b2.
class Mlp2 : public Module {
 public:
  Mlp2(size_t in_dim, size_t hidden_dim, size_t out_dim, util::Rng& rng);

  Tensor Forward(const Tensor& x) const;

  std::vector<Tensor> Parameters() override;
  void AppendState(const std::string& prefix, StateDict& out) override;

  size_t out_dim() const { return layer2_.out_dim(); }
  const Linear& layer1() const { return layer1_; }
  const Linear& layer2() const { return layer2_; }

 private:
  Linear layer1_;
  Linear layer2_;
};

// Embedding table (Eq. 1): a |V| x d weight matrix; looking up id i is the
// one-hot(i)^T W product, i.e. row i.
class Embedding : public Module {
 public:
  Embedding(size_t num_entries, size_t dim, util::Rng& rng);

  // Single row lookup.
  Tensor Forward(size_t id) const;
  // Batched lookup -> [N, dim].
  Tensor Forward(const std::vector<size_t>& ids) const;

  // Replaces the table contents with a pre-trained matrix (graph-embedding
  // initialisation per §4.1/§4.2). `init` must be [num_entries x dim].
  void LoadPretrained(const std::vector<std::vector<double>>& init);

  std::vector<Tensor> Parameters() override;
  void AppendState(const std::string& prefix, StateDict& out) override;

  size_t num_entries() const { return num_entries_; }
  size_t dim() const { return dim_; }
  const Tensor& table() const { return table_; }

 private:
  size_t num_entries_, dim_;
  Tensor table_;  // [num_entries, dim]
};

}  // namespace deepod::nn

#endif  // DEEPOD_NN_MODULE_H_
