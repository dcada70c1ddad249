#include "nn/simd.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "nn/simd_avx2.h"
#include "util/cpu.h"

namespace deepod::nn {
namespace {

bool ComputeActive() {
  if (!avx2::kAvx2Compiled) return false;
  if (!util::CpuHasAvx2Fma()) return false;
  // "avx2" merely *requests* what kAuto already grants; only kOff changes
  // the outcome. An override can never enable unsupported code.
  return util::SimdEnvOverride() != util::SimdOverride::kOff;
}

// --- Packed-weights cache ---------------------------------------------------

struct CacheEntry {
  // Liveness + address-reuse guard: a dead weak_ptr (or one resolving to a
  // different Impl after address reuse) invalidates the entry.
  std::weak_ptr<Tensor::Impl> owner;
  uint64_t epoch = 0;
  std::shared_ptr<const PackedGemv> packed;
};

struct PackCache {
  std::shared_mutex mu;
  std::unordered_map<const Tensor::Impl*, CacheEntry> entries;
};

PackCache& Cache() {
  static PackCache* cache = new PackCache();  // leaked: outlives all threads
  return *cache;
}

}  // namespace

bool Avx2Compiled() { return avx2::kAvx2Compiled; }

bool Avx2Active() {
  static const bool active = ComputeActive();
  return active;
}

const char* SimdBackendName() { return Avx2Active() ? "avx2" : "scalar"; }

PackedGemvView PackGemvInto(const double* w, size_t rows, size_t cols,
                            double* dst) {
  const size_t full_panels = rows / kGemvPanel;
  for (size_t p = 0; p < full_panels; ++p) {
    double* panel = dst + p * cols * kGemvPanel;
    for (size_t j = 0; j < cols; ++j) {
      for (size_t lane = 0; lane < kGemvPanel; ++lane) {
        panel[j * kGemvPanel + lane] = w[(p * kGemvPanel + lane) * cols + j];
      }
    }
  }
  const size_t packed_rows = full_panels * kGemvPanel;
  std::copy(w + packed_rows * cols, w + rows * cols, dst + packed_rows * cols);
  return {rows, cols, full_panels, dst, dst + packed_rows * cols};
}

PackedGemv PackGemv(const double* w, size_t rows, size_t cols) {
  std::vector<double> flat(rows * cols);
  const PackedGemvView view = PackGemvInto(w, rows, cols, flat.data());
  PackedGemv packed;
  packed.rows = rows;
  packed.cols = cols;
  packed.full_panels = view.full_panels;
  packed.panels.assign(view.panels, view.tail);
  packed.tail.assign(view.tail, view.panels + flat.size());
  return packed;
}

void GemvBiasPacked(const PackedGemvView& packed, const double* x,
                    const double* bias, double* y) {
  avx2::GemvBiasPacked(packed, x, bias, y);
}

void GemvBiasPacked2(const PackedGemv& packed, const double* x1, size_t n1,
                     const double* x2, const double* bias, double* y) {
  avx2::GemvBiasPacked2(packed, x1, n1, x2, bias, y);
}

std::shared_ptr<const PackedGemv> PackedFor(
    const std::shared_ptr<Tensor::Impl>& impl) {
  PackCache& cache = Cache();
  const Tensor::Impl* key = impl.get();
  const uint64_t epoch = ParamEpoch();
  {
    std::shared_lock<std::shared_mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end() && it->second.epoch == epoch &&
        it->second.owner.lock().get() == key) {
      return it->second.packed;
    }
  }
  // Build outside the lock: packing reads only this parameter's storage,
  // which no other thread mutates while serving runs.
  const size_t rows = impl->shape.empty() ? 1 : impl->shape[0];
  const size_t cols = impl->data.size() / (rows == 0 ? 1 : rows);
  auto packed = std::make_shared<const PackedGemv>(
      PackGemv(impl->data.data(), rows, cols));
  {
    std::unique_lock<std::shared_mutex> lock(cache.mu);
    // Opportunistic sweep of dead owners; the map holds one entry per 2-D
    // parameter tensor, so this stays cheap.
    for (auto it = cache.entries.begin(); it != cache.entries.end();) {
      if (it->second.owner.expired()) {
        it = cache.entries.erase(it);
      } else {
        ++it;
      }
    }
    auto& entry = cache.entries[key];
    // Another thread may have inserted a fresh pack meanwhile; keep either
    // (both were built from identical bytes at this epoch).
    if (entry.epoch != epoch || entry.owner.lock().get() != key) {
      entry.owner = impl;
      entry.epoch = epoch;
      entry.packed = packed;
    }
    return entry.packed;
  }
}

size_t PackedCacheSize() {
  PackCache& cache = Cache();
  std::shared_lock<std::shared_mutex> lock(cache.mu);
  return cache.entries.size();
}

void AxpyAvx2(double a, const double* x, double* y, size_t n) {
  avx2::Axpy(a, x, y, n);
}

void SigmoidAvx2(const double* x, double* y, size_t n) {
  avx2::SigmoidN(x, y, n);
}

void TanhAvx2(const double* x, double* y, size_t n) {
  avx2::TanhN(x, y, n);
}

}  // namespace deepod::nn
