#ifndef DEEPOD_NN_TENSOR_H_
#define DEEPOD_NN_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/small_fn.h"

namespace deepod::nn {

class GradArena;

// A dense, row-major, double-precision tensor participating in a dynamic
// reverse-mode autodiff graph (the style PyTorch popularised and the paper's
// reference implementation relies on).
//
// Tensor is a cheap handle (shared_ptr to storage). Ops in ops.h build the
// graph; calling Backward() on a scalar result propagates gradients into
// every reachable tensor that has requires_grad set. Gradients accumulate
// (+=) across backward calls until ZeroGrad(), which makes mini-batch
// accumulation by repeated per-sample Backward() calls correct.
class Tensor {
 public:
  // An empty (null) tensor handle.
  Tensor() = default;

  // --- Factories -----------------------------------------------------------

  static Tensor Zeros(std::vector<size_t> shape);
  static Tensor Full(std::vector<size_t> shape, double value);
  // Takes ownership of `data`; data.size() must equal the shape's element
  // count.
  static Tensor FromData(std::vector<size_t> shape, std::vector<double> data);
  static Tensor Scalar(double value);
  // I.I.D. normal entries with the given standard deviation.
  static Tensor Randn(std::vector<size_t> shape, util::Rng& rng,
                      double stddev = 1.0);
  // Uniform entries in [lo, hi).
  static Tensor RandUniform(std::vector<size_t> shape, util::Rng& rng,
                            double lo, double hi);

  // --- Shape ---------------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const std::vector<size_t>& shape() const;
  size_t ndim() const { return shape().size(); }
  size_t dim(size_t axis) const;
  size_t size() const;  // total element count

  // --- Data access ---------------------------------------------------------

  std::vector<double>& data();
  const std::vector<double>& data() const;
  double item() const;  // requires size() == 1

  double at(size_t i) const;                      // 1-D
  double at(size_t i, size_t j) const;            // 2-D
  double at(size_t i, size_t j, size_t k) const;  // 3-D
  void set(size_t i, double v);
  void set(size_t i, size_t j, double v);
  void set(size_t i, size_t j, size_t k, double v);

  // --- Autograd ------------------------------------------------------------

  bool requires_grad() const;
  // Marks this tensor as a leaf parameter whose gradient should be kept.
  Tensor& set_requires_grad(bool value);

  // Gradient buffer (same shape as data). Empty until first backward.
  const std::vector<double>& grad() const;
  std::vector<double>& mutable_grad();
  void ZeroGrad();

  // Reverse-mode sweep from this tensor; requires size() == 1.
  void Backward();

  // Stable identity for graph bookkeeping / debugging.
  const void* id() const { return impl_.get(); }

  std::string ShapeString() const;

  // --- Internal (used by ops.h) --------------------------------------------

  struct Impl;
  // Backward closures capture a few shared_ptrs plus loop bounds; the
  // SmallFn inline buffer keeps them off the heap (tensor graphs allocate
  // hundreds of closures per training sample).
  using BackwardFn = util::SmallFn<void(Impl&)>;

  struct Impl {
    std::vector<size_t> shape;
    std::vector<double> data;
    std::vector<double> grad;  // lazily sized
    bool requires_grad = false;
    // Backward() bookkeeping: DAG nodes are marked with the id of the
    // sweep that last visited them instead of being tracked in a hash set.
    // Only non-leaf (op-result) nodes are ever stamped, and op results are
    // private to the thread that built the graph, so this is race-free
    // even with shared leaf parameters.
    uint64_t visit_stamp = 0;
    // Parents in the autodiff DAG plus the function that routes this
    // tensor's grad into the parents' grads.
    std::vector<std::shared_ptr<Impl>> parents;
    BackwardFn backward_fn;

    ~Impl();  // recycles data/grad buffers into the thread-local pool

    void EnsureGrad();

    // Gradient write target for backward functions. Normally this is the
    // tensor's own grad buffer; when a GradArena is installed on the
    // current thread and covers this Impl (i.e. it is a shared model
    // parameter), writes are redirected into the arena's detached
    // per-worker buffer so concurrent backward passes never race on the
    // shared parameter gradients. Backward closures must route every
    // gradient write through this.
    double* grad_sink();
  };

  explicit Tensor(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  const std::shared_ptr<Impl>& impl() const { return impl_; }

  // Creates a non-leaf tensor produced by an op. `backward_fn` receives the
  // result Impl (whose .grad is populated) and must scatter into parents.
  static Tensor MakeOpResult(std::vector<size_t> shape,
                             std::vector<double> data,
                             std::vector<std::shared_ptr<Impl>> parents,
                             BackwardFn backward_fn);

 private:
  std::shared_ptr<Impl> impl_;
};

// Number of elements implied by a shape (product; 1 for rank-0).
size_t NumElements(const std::vector<size_t>& shape);

// --- Data-parallel gradient arenas -----------------------------------------

// A detached set of gradient buffers for a fixed parameter list. While a
// GradArenaScope is active on a thread, every backward write that targets
// one of the covered parameters lands in the arena instead of the shared
// parameter gradient, so N workers can run forward+backward concurrently
// and the trainer merges the arenas afterwards in a fixed worker order
// (keeping results deterministic for a given worker count).
class GradArena {
 public:
  explicit GradArena(const std::vector<Tensor>& params);

  // Arena buffer for the parameter Impl, or nullptr if not covered.
  double* Find(const Tensor::Impl* impl);

  size_t num_params() const { return buffers_.size(); }
  const std::vector<double>& buffer(size_t i) const { return buffers_[i]; }

  // Adds every arena buffer into the matching parameter's grad and clears
  // the arena to zero.
  void MergeIntoParamsAndReset();

 private:
  std::vector<Tensor> params_;
  std::vector<std::vector<double>> buffers_;
  std::unordered_map<const Tensor::Impl*, size_t> index_;
};

// RAII installation of a GradArena on the current thread. Not reentrant.
class GradArenaScope {
 public:
  explicit GradArenaScope(GradArena* arena);
  ~GradArenaScope();
  GradArenaScope(const GradArenaScope&) = delete;
  GradArenaScope& operator=(const GradArenaScope&) = delete;
};

// --- Inference mode ---------------------------------------------------------

// Per-thread autograd switch. While gradients are disabled,
// Tensor::MakeOpResult records no graph: every op computes its forward value
// exactly as usual (same kernels, same floating-point order) but returns a
// plain leaf with no parents, no backward closure and no requires_grad.
// Predict and PredictBatch do not rely on it; they run core::ServingPlan.
// What it still decides: DeepOdModel's EncodeExternal and WriteExternalCode
// pick the plan over the Tensor M_E forward while gradients are off, and
// PredictForRoute runs M_T and M_D through the ops graph-free.
bool GradEnabled();

// RAII gradient-disable for the current thread (nests safely; restores the
// previous state). The query path of DeepOdModel installs this.
class InferenceGuard {
 public:
  InferenceGuard();
  ~InferenceGuard();
  InferenceGuard(const InferenceGuard&) = delete;
  InferenceGuard& operator=(const InferenceGuard&) = delete;

 private:
  bool prev_;
};

// --- Parameter epoch --------------------------------------------------------

// Process-wide generation counter over *parameter values*. Every code path
// that mutates parameter storage in place (optimizer Step, state-dict
// deserialisation, Embedding::LoadPretrained, the trainer's best-state
// restore) bumps it; DeepOdModel's serving plan (core/serving_plan.h)
// records the epoch it was built at and rebuilds on mismatch.
uint64_t ParamEpoch();
void BumpParamEpoch();

// Acquires a buffer of `size` doubles with unspecified contents, reusing
// the calling thread's recycled tensor storage. Callers must overwrite
// every element (or use AcquireZeroBuffer); a pooled buffer still holds
// whatever the thread's earlier work left in it.
std::vector<double> AcquireBuffer(size_t size);
std::vector<double> AcquireZeroBuffer(size_t size);

}  // namespace deepod::nn

#endif  // DEEPOD_NN_TENSOR_H_
