#ifndef DEEPOD_NN_SIMD_H_
#define DEEPOD_NN_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.h"

// KernelMode::kSimd backend: explicit AVX2+FMA GEMV kernels over
// panel-major packed weights, plus the runtime dispatch that decides whether
// they may run at all.
//
// Dispatch chain (each probed once per process, then cached):
//   Avx2Compiled()  — the binary carries the AVX2 translation unit
//                     (simd_avx2.cc built with -mavx2 -mfma).
//   CpuHasAvx2Fma() — cpuid says the host supports both features.
//   DEEPOD_SIMD     — user override ("off" forces the fallback).
// Avx2Active() is the conjunction; when it is false, every kSimd op takes
// the kVector code path directly, so selecting kSimd is always safe and the
// fallback is bit-identical to kVector by construction.
//
// Floating-point contract of the active AVX2 kernels: the GEMV-shaped ops
// (Affine, the serving plan's dense layers, the fused LSTM cell) accumulate
// 4 output rows at a time with fused multiply-adds over the packed layout —
// deterministic, but a different summation order than kVector's DotUnrolled,
// so they carry their own tolerance-tested contract (tests/simd_quant_test).
// The fused LSTM cell additionally computes its gate activations with the
// 4-wide exp-based SigmoidAvx2/TanhAvx2 below (a few ulp from libm, same
// tolerance contract). Conv2d's kSimd kernel vectorises kVector's planar
// axpy in the same element order but fuses each multiply-add into one FMA
// (one rounding per tap where the scalar loop has two) — same tolerance
// contract, tighter error.

namespace deepod::nn {

// True when this binary was compiled with the AVX2 kernel TU enabled.
bool Avx2Compiled();

// True when the AVX2 kernels are actually used for kSimd on this process:
// compiled in, supported by the CPU, and not disabled via DEEPOD_SIMD=off.
bool Avx2Active();

// Human-readable backend tag for logs/benches: "avx2" or "scalar".
const char* SimdBackendName();

// --- Packed GEMV weights -----------------------------------------------------

// Number of output rows interleaved per panel. One AVX2 register holds 4
// doubles, so a panel lets one broadcast of x[j] feed 4 row accumulators.
inline constexpr size_t kGemvPanel = 4;

// Non-owning form of a packed matrix — what the GEMV kernel reads.
struct PackedGemvView {
  size_t rows = 0;
  size_t cols = 0;
  size_t full_panels = 0;
  const double* panels = nullptr;
  const double* tail = nullptr;
};

// A [rows, cols] row-major weight matrix repacked for the AVX2 GEMV:
//  - `panels` holds full_panels panels of kGemvPanel rows each, laid out
//    column-interleaved: panels[(p*cols + j)*kGemvPanel + lane] is
//    W[p*kGemvPanel + lane][j]. Each group of 4 is one aligned-size chunk
//    the kernel loads as a __m256d.
//  - `tail` holds the remaining rows % kGemvPanel rows row-major, consumed
//    by a scalar FMA loop (same fused contract, one accumulator per row).
struct PackedGemv {
  size_t rows = 0;
  size_t cols = 0;
  size_t full_panels = 0;
  std::vector<double> panels;  // full_panels * cols * kGemvPanel
  std::vector<double> tail;    // (rows % kGemvPanel) * cols

  PackedGemvView view() const {
    return {rows, cols, full_panels, panels.data(), tail.data()};
  }
};

// Packs `rows * cols` row-major weights (w points at W[0][0]).
PackedGemv PackGemv(const double* w, size_t rows, size_t cols);

// The same packing into one caller-owned buffer of rows * cols doubles
// (panels first, then the tail rows); returns the view over `dst`.
PackedGemvView PackGemvInto(const double* w, size_t rows, size_t cols,
                            double* dst);

// y[r] = bias[r] + sum_j W[r][j] * x[j] for every packed row, via broadcast
// x[j] + FMA into 4-row accumulators (tail rows scalar-FMA). `bias` may be
// nullptr (treated as zeros). Requires Avx2Active().
void GemvBiasPacked(const PackedGemvView& packed, const double* x,
                    const double* bias, double* y);

// Two-source variant for the fused LSTM cell: the packed matrix has
// cols == n1 + n2 and the logical input is the concatenation [x1; x2]
// without materialising it. Requires Avx2Active().
void GemvBiasPacked2(const PackedGemv& packed, const double* x1, size_t n1,
                     const double* x2, const double* bias, double* y);

// --- Packed-weights cache ----------------------------------------------------

// Returns the packed form of a 2-D parameter tensor, building and caching it
// on first use. Entries are keyed by the tensor's Impl address and validated
// against both a weak_ptr (liveness + address-reuse guard) and the global
// ParamEpoch() (any in-place parameter mutation invalidates every pack).
// Thread-safe; lookups take a shared lock.
std::shared_ptr<const PackedGemv> PackedFor(
    const std::shared_ptr<Tensor::Impl>& impl);

// Test/bench hook: number of live entries in the pack cache.
size_t PackedCacheSize();

// --- Non-packed AVX2 helpers -------------------------------------------------

// y[i] = fma(a, x[i], y[i]), vectorised. Same element order as the scalar
// `y[i] += a * x[i]` loop kVector's Conv2d uses, but fused (one rounding
// per element), so results differ from kVector by at most one rounding per
// accumulation — the kSimd tolerance contract. Requires Avx2Active().
void AxpyAvx2(double a, const double* x, double* y, size_t n);

// Elementwise y[i] = sigmoid(x[i]) / tanh(x[i]) over a 4-wide Cephes-style
// exp kernel (the fused LSTM cell's activation stage, where scalar libm
// transcendentals would otherwise dominate the vectorised GEMVs). Accurate
// to a few ulp but NOT bit-identical to std::exp/std::tanh — part of the
// kSimd tolerance contract, never used by other kernel tiers. Lengths not
// divisible by 4 finish with scalar libm calls. Requires Avx2Active().
void SigmoidAvx2(const double* x, double* y, size_t n);
void TanhAvx2(const double* x, double* y, size_t n);

}  // namespace deepod::nn

#endif  // DEEPOD_NN_SIMD_H_
