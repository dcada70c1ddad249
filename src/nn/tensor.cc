#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>

namespace deepod::nn {
namespace {

// --- Thread-local buffer pool ----------------------------------------------
//
// Training builds and destroys a few hundred small tensors per sample; the
// data/grad vectors are recycled here instead of round-tripping through the
// allocator. The pool is a plain thread_local pointer (trivially
// destructible) so recycling stays safe even during thread shutdown, when
// the owning object may already be gone.
//
// The pool holds at most kMaxPooledDoubles of capacity per thread. Pooled
// buffers keep the largest capacity they were ever resized to, so a count
// cap alone lets a serving thread park megabytes of CNN feature-map-sized
// buffers: the budget took perfbench serve_live's peak RSS from 15.7 to
// 11.0 MB (4-vCPU host), with no change in CPU per request.
struct BufferPool {
  std::vector<std::vector<double>> buffers;
  size_t doubles = 0;  // total capacity of `buffers`
};

thread_local BufferPool* tls_pool = nullptr;
thread_local bool tls_pool_dead = false;

struct BufferPoolOwner {
  BufferPool pool;
  BufferPoolOwner() { tls_pool = &pool; }
  ~BufferPoolOwner() {
    tls_pool = nullptr;
    tls_pool_dead = true;
  }
};

BufferPool* GetPool() {
  if (tls_pool == nullptr && !tls_pool_dead) {
    static thread_local BufferPoolOwner owner;
  }
  return tls_pool;
}

constexpr size_t kMaxPooledBuffers = 4096;
constexpr size_t kMaxPooledDoubles = 1u << 17;  // 1 MiB per thread

thread_local bool tls_grad_enabled = true;

void RecycleBuffer(std::vector<double>&& v) {
  if (v.capacity() == 0) return;
  BufferPool* pool = GetPool();
  if (pool == nullptr || pool->buffers.size() >= kMaxPooledBuffers ||
      pool->doubles + v.capacity() > kMaxPooledDoubles) {
    return;
  }
  pool->doubles += v.capacity();
  pool->buffers.push_back(std::move(v));
}

// --- Thread-local grad arena ------------------------------------------------

thread_local GradArena* tls_arena = nullptr;

// Backward sweep id; stamped into visited op nodes (see Impl::visit_stamp).
// Process-wide atomic so sweep ids stay unique even if a graph is built on
// one thread and backwarded on another.
std::atomic<uint64_t> g_backward_epoch{0};

// Parameter-value generation (see ParamEpoch in tensor.h). Starts at 1 so
// a zero-initialised cache entry can never look current.
std::atomic<uint64_t> g_param_epoch{1};

}  // namespace

uint64_t ParamEpoch() {
  return g_param_epoch.load(std::memory_order_acquire);
}

void BumpParamEpoch() {
  g_param_epoch.fetch_add(1, std::memory_order_acq_rel);
}

bool GradEnabled() { return tls_grad_enabled; }

InferenceGuard::InferenceGuard() : prev_(tls_grad_enabled) {
  tls_grad_enabled = false;
}

InferenceGuard::~InferenceGuard() { tls_grad_enabled = prev_; }

std::vector<double> AcquireBuffer(size_t size) {
  if (BufferPool* pool = GetPool(); pool && !pool->buffers.empty()) {
    std::vector<double> v = std::move(pool->buffers.back());
    pool->buffers.pop_back();
    pool->doubles -= v.capacity();
    v.resize(size);
    return v;
  }
  return std::vector<double>(size);
}

std::vector<double> AcquireZeroBuffer(size_t size) {
  std::vector<double> v = AcquireBuffer(size);
  std::fill(v.begin(), v.end(), 0.0);
  return v;
}

size_t NumElements(const std::vector<size_t>& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return n;
}

Tensor::Impl::~Impl() {
  RecycleBuffer(std::move(data));
  RecycleBuffer(std::move(grad));
}

void Tensor::Impl::EnsureGrad() {
  if (grad.size() != data.size()) {
    grad = AcquireBuffer(data.size());
    std::fill(grad.begin(), grad.end(), 0.0);
  }
}

double* Tensor::Impl::grad_sink() {
  if (tls_arena != nullptr) {
    if (double* redirected = tls_arena->Find(this)) return redirected;
  }
  EnsureGrad();
  return grad.data();
}

GradArena::GradArena(const std::vector<Tensor>& params) : params_(params) {
  buffers_.reserve(params_.size());
  index_.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    buffers_.emplace_back(params_[i].size(), 0.0);
    index_.emplace(params_[i].impl().get(), i);
  }
}

double* GradArena::Find(const Tensor::Impl* impl) {
  auto it = index_.find(impl);
  return it == index_.end() ? nullptr : buffers_[it->second].data();
}

void GradArena::MergeIntoParamsAndReset() {
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& grad = params_[i].mutable_grad();
    auto& buffer = buffers_[i];
    for (size_t j = 0; j < buffer.size(); ++j) {
      grad[j] += buffer[j];
      buffer[j] = 0.0;
    }
  }
}

GradArenaScope::GradArenaScope(GradArena* arena) {
  if (tls_arena != nullptr) {
    throw std::logic_error("GradArenaScope: arena already installed");
  }
  tls_arena = arena;
}

GradArenaScope::~GradArenaScope() { tls_arena = nullptr; }

Tensor Tensor::Zeros(std::vector<size_t> shape) {
  return Full(std::move(shape), 0.0);
}

Tensor Tensor::Full(std::vector<size_t> shape, double value) {
  auto impl = std::make_shared<Impl>();
  impl->data.assign(NumElements(shape), value);
  impl->shape = std::move(shape);
  return Tensor(std::move(impl));
}

Tensor Tensor::FromData(std::vector<size_t> shape, std::vector<double> data) {
  if (NumElements(shape) != data.size()) {
    throw std::invalid_argument("Tensor::FromData: shape/data size mismatch");
  }
  auto impl = std::make_shared<Impl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(double value) { return FromData({1}, {value}); }

Tensor Tensor::Randn(std::vector<size_t> shape, util::Rng& rng, double stddev) {
  std::vector<double> data(NumElements(shape));
  for (double& x : data) x = rng.Normal(0.0, stddev);
  return FromData(std::move(shape), std::move(data));
}

Tensor Tensor::RandUniform(std::vector<size_t> shape, util::Rng& rng, double lo,
                           double hi) {
  std::vector<double> data(NumElements(shape));
  for (double& x : data) x = rng.Uniform(lo, hi);
  return FromData(std::move(shape), std::move(data));
}

const std::vector<size_t>& Tensor::shape() const {
  if (!impl_) throw std::logic_error("Tensor: null handle");
  return impl_->shape;
}

size_t Tensor::dim(size_t axis) const {
  const auto& s = shape();
  if (axis >= s.size()) throw std::out_of_range("Tensor::dim: axis out of range");
  return s[axis];
}

size_t Tensor::size() const { return impl_ ? impl_->data.size() : 0; }

std::vector<double>& Tensor::data() {
  if (!impl_) throw std::logic_error("Tensor: null handle");
  return impl_->data;
}

const std::vector<double>& Tensor::data() const {
  if (!impl_) throw std::logic_error("Tensor: null handle");
  return impl_->data;
}

double Tensor::item() const {
  if (size() != 1) throw std::logic_error("Tensor::item: size != 1");
  return impl_->data[0];
}

double Tensor::at(size_t i) const { return data().at(i); }

double Tensor::at(size_t i, size_t j) const {
  const auto& s = shape();
  if (s.size() != 2) throw std::logic_error("Tensor::at(i,j): not 2-D");
  return impl_->data[i * s[1] + j];
}

double Tensor::at(size_t i, size_t j, size_t k) const {
  const auto& s = shape();
  if (s.size() != 3) throw std::logic_error("Tensor::at(i,j,k): not 3-D");
  return impl_->data[(i * s[1] + j) * s[2] + k];
}

void Tensor::set(size_t i, double v) { data().at(i) = v; }

void Tensor::set(size_t i, size_t j, double v) {
  const auto& s = shape();
  if (s.size() != 2) throw std::logic_error("Tensor::set(i,j): not 2-D");
  impl_->data[i * s[1] + j] = v;
}

void Tensor::set(size_t i, size_t j, size_t k, double v) {
  const auto& s = shape();
  if (s.size() != 3) throw std::logic_error("Tensor::set(i,j,k): not 3-D");
  impl_->data[(i * s[1] + j) * s[2] + k] = v;
}

bool Tensor::requires_grad() const { return impl_ && impl_->requires_grad; }

Tensor& Tensor::set_requires_grad(bool value) {
  if (!impl_) throw std::logic_error("Tensor: null handle");
  impl_->requires_grad = value;
  if (value) impl_->EnsureGrad();
  return *this;
}

const std::vector<double>& Tensor::grad() const {
  if (!impl_) throw std::logic_error("Tensor: null handle");
  impl_->EnsureGrad();
  return impl_->grad;
}

std::vector<double>& Tensor::mutable_grad() {
  if (!impl_) throw std::logic_error("Tensor: null handle");
  impl_->EnsureGrad();
  return impl_->grad;
}

void Tensor::ZeroGrad() {
  if (!impl_) return;
  impl_->grad.assign(impl_->data.size(), 0.0);
}

void Tensor::Backward() {
  if (!impl_) throw std::logic_error("Tensor::Backward: null handle");
  if (size() != 1) {
    throw std::logic_error("Tensor::Backward: only scalar roots supported");
  }
  // Iterative post-order topological sort of the reachable DAG. Only op
  // nodes (backward_fn set) are traversed and stamped: leaves have no
  // parents and run no closure, and skipping the stamp on them keeps the
  // sweep free of writes to shared parameter tensors. Visited bookkeeping
  // uses a per-thread sweep id instead of a hash set.
  const uint64_t sweep =
      g_backward_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<Impl*> order;
  struct Frame {
    Impl* node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  if (impl_->backward_fn) {
    impl_->visit_stamp = sweep;
    stack.push_back({impl_.get(), 0});
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child < f.node->parents.size()) {
      Impl* child = f.node->parents[f.next_child].get();
      ++f.next_child;
      if (child->backward_fn && child->visit_stamp != sweep) {
        child->visit_stamp = sweep;
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  // Seed and propagate in reverse topological order (root last in `order`).
  impl_->EnsureGrad();
  impl_->grad[0] += 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Impl* node = *it;
    if (node->backward_fn) {
      node->EnsureGrad();
      for (auto& p : node->parents) p->EnsureGrad();
      node->backward_fn(*node);
    }
  }
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "[";
  const auto& s = shape();
  for (size_t i = 0; i < s.size(); ++i) out << (i ? "," : "") << s[i];
  out << "]";
  return out.str();
}

Tensor Tensor::MakeOpResult(std::vector<size_t> shape, std::vector<double> data,
                            std::vector<std::shared_ptr<Impl>> parents,
                            BackwardFn backward_fn) {
  if (NumElements(shape) != data.size()) {
    throw std::invalid_argument("MakeOpResult: shape/data size mismatch");
  }
  auto impl = std::make_shared<Impl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  // The one place that decides whether an op records a graph: the result
  // keeps its parents and backward closure only when gradients are enabled
  // and some parent needs a gradient. Otherwise (InferenceGuard, or inputs
  // that are all constants) it is a plain leaf, and the closure the op built
  // is dropped here.
  bool any_grad = false;
  if (tls_grad_enabled) {
    for (const auto& p : parents) {
      if (p->requires_grad || p->backward_fn) {
        any_grad = true;
        break;
      }
    }
  }
  if (any_grad) {
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward_fn);
  }
  return Tensor(std::move(impl));
}

}  // namespace deepod::nn
