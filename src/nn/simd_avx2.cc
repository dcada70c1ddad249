#include "nn/simd_avx2.h"

#include <cstdlib>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include <cmath>
#endif

namespace deepod::nn::avx2 {

#if defined(__AVX2__) && defined(__FMA__)

const bool kAvx2Compiled = true;

// All loads/stores are unaligned (loadu/storeu): tensor storage comes from
// std::vector<double>, which only guarantees 16-byte alignment, and the
// packed panels inherit that. Unaligned AVX2 loads cost nothing extra on
// any CPU this targets and keep UBSan quiet.

void GemvBiasPacked(const PackedGemvView& packed, const double* x,
                    const double* bias, double* y) {
  const size_t cols = packed.cols;
  const double* panel = packed.panels;
  for (size_t p = 0; p < packed.full_panels; ++p) {
    __m256d acc = bias != nullptr
                      ? _mm256_loadu_pd(bias + p * kGemvPanel)
                      : _mm256_setzero_pd();
    for (size_t j = 0; j < cols; ++j) {
      const __m256d w = _mm256_loadu_pd(panel + j * kGemvPanel);
      acc = _mm256_fmadd_pd(w, _mm256_set1_pd(x[j]), acc);
    }
    _mm256_storeu_pd(y + p * kGemvPanel, acc);
    panel += cols * kGemvPanel;
  }
  // Tail rows: one scalar accumulator per row, fused like the vector lanes.
  const size_t tail_rows = packed.rows - packed.full_panels * kGemvPanel;
  const double* tail = packed.tail;
  for (size_t t = 0; t < tail_rows; ++t) {
    const size_t r = packed.full_panels * kGemvPanel + t;
    double acc = bias != nullptr ? bias[r] : 0.0;
    const double* wr = tail + t * cols;
    for (size_t j = 0; j < cols; ++j) acc = std::fma(wr[j], x[j], acc);
    y[r] = acc;
  }
}

void GemvBiasPacked2(const PackedGemv& packed, const double* x1, size_t n1,
                     const double* x2, const double* bias, double* y) {
  const size_t cols = packed.cols;
  const size_t n2 = cols - n1;
  const double* panel = packed.panels.data();
  for (size_t p = 0; p < packed.full_panels; ++p) {
    __m256d acc = bias != nullptr
                      ? _mm256_loadu_pd(bias + p * kGemvPanel)
                      : _mm256_setzero_pd();
    for (size_t j = 0; j < n1; ++j) {
      const __m256d w = _mm256_loadu_pd(panel + j * kGemvPanel);
      acc = _mm256_fmadd_pd(w, _mm256_set1_pd(x1[j]), acc);
    }
    const double* panel2 = panel + n1 * kGemvPanel;
    for (size_t j = 0; j < n2; ++j) {
      const __m256d w = _mm256_loadu_pd(panel2 + j * kGemvPanel);
      acc = _mm256_fmadd_pd(w, _mm256_set1_pd(x2[j]), acc);
    }
    _mm256_storeu_pd(y + p * kGemvPanel, acc);
    panel += cols * kGemvPanel;
  }
  const size_t tail_rows = packed.rows - packed.full_panels * kGemvPanel;
  const double* tail = packed.tail.data();
  for (size_t t = 0; t < tail_rows; ++t) {
    const size_t r = packed.full_panels * kGemvPanel + t;
    double acc = bias != nullptr ? bias[r] : 0.0;
    const double* wr = tail + t * cols;
    for (size_t j = 0; j < n1; ++j) acc = std::fma(wr[j], x1[j], acc);
    for (size_t j = 0; j < n2; ++j) acc = std::fma(wr[n1 + j], x2[j], acc);
    y[r] = acc;
  }
}

void Axpy(double a, const double* x, double* y, size_t n) {
  // Explicit fmadd, scalar fma tail: a single rounding per element. Writing
  // mul+add intrinsics would not buy bit-identity with kVector's scalar
  // loop anyway — this file is compiled with -mfma, and the compiler's
  // default fp-contract fuses the pattern back into fmadd — so the contract
  // is elementwise-FMA-vs-mul+add (one rounding of difference per tap),
  // under the kSimd value-tolerance contract like the GEMV kernels.
  const __m256d av = _mm256_set1_pd(a);
  const size_t full = n / kGemvPanel * kGemvPanel;
  for (size_t i = 0; i < full; i += kGemvPanel) {
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(y + i)));
  }
  for (size_t i = full; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

namespace {

// exp() for 4 doubles, Cephes-style: split x = n*ln2 + r with extended-
// precision ln2 (C1 + C2), evaluate exp(r) as the degree-(2,3) rational
// approximation in r^2 on [-ln2/2, ln2/2], then scale by 2^n through the
// exponent bits. Inputs are clamped to ±708 so n stays inside the normal
// exponent range (no denormal scaling to handle). Max observed error is a
// few ulp — well inside the kSimd tolerance contract; it is NOT
// bit-identical to std::exp.
__m256d Exp4(__m256d x) {
  const __m256d kMax = _mm256_set1_pd(708.0);
  const __m256d kMin = _mm256_set1_pd(-708.0);
  const __m256d kLog2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d kC1 = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d kC2 = _mm256_set1_pd(1.42860682030941723212e-6);
  x = _mm256_max_pd(_mm256_min_pd(x, kMax), kMin);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, kLog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, kC1, x);
  r = _mm256_fnmadd_pd(n, kC2, r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(9.99999999999999999910e-1));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.00000000000000000005e0));
  const __m256d e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  const __m256d er =
      _mm256_fmadd_pd(_mm256_set1_pd(2.0), e, _mm256_set1_pd(1.0));
  // 2^n: n is integral and within [-1022, 1022] after the clamp, so the
  // biased exponent (n + 1023) << 52 is always a valid normal double.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(er, _mm256_castsi256_pd(pow2));
}

}  // namespace

void SigmoidN(const double* x, double* y, size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const size_t full = n / kGemvPanel * kGemvPanel;
  for (size_t i = 0; i < full; i += kGemvPanel) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d e = Exp4(_mm256_sub_pd(_mm256_setzero_pd(), v));
    _mm256_storeu_pd(y + i, _mm256_div_pd(one, _mm256_add_pd(one, e)));
  }
  for (size_t i = full; i < n; ++i) y[i] = 1.0 / (1.0 + std::exp(-x[i]));
}

void TanhN(const double* x, double* y, size_t n) {
  // tanh(x) = sign(x) * (1 - 2 / (exp(2|x|) + 1)). Using |x| keeps the
  // exponential >= 1 (no cancellation in the denominator); the subtraction
  // from 1 loses relative precision near 0 but stays within ~1 ulp of 1e-16
  // absolute, inside the kSimd tolerance contract.
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const size_t full = n / kGemvPanel * kGemvPanel;
  for (size_t i = 0; i < full; i += kGemvPanel) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d sign = _mm256_and_pd(v, sign_bit);
    const __m256d mag = _mm256_andnot_pd(sign_bit, v);
    const __m256d e = Exp4(_mm256_add_pd(mag, mag));
    const __m256d t =
        _mm256_sub_pd(one, _mm256_div_pd(two, _mm256_add_pd(e, one)));
    _mm256_storeu_pd(y + i, _mm256_or_pd(t, sign));
  }
  for (size_t i = full; i < n; ++i) y[i] = std::tanh(x[i]);
}

#else  // !(__AVX2__ && __FMA__)

const bool kAvx2Compiled = false;

namespace {
[[noreturn]] void Unreachable() {
  // Avx2Active() is false whenever kAvx2Compiled is false, so the dispatch
  // in simd.cc can never route here.
  std::abort();
}
}  // namespace

void GemvBiasPacked(const PackedGemvView&, const double*, const double*,
                    double*) {
  Unreachable();
}
void GemvBiasPacked2(const PackedGemv&, const double*, size_t, const double*,
                     const double*, double*) {
  Unreachable();
}
void Axpy(double, const double*, double*, size_t) { Unreachable(); }
void SigmoidN(const double*, double*, size_t) { Unreachable(); }
void TanhN(const double*, double*, size_t) { Unreachable(); }

#endif  // __AVX2__ && __FMA__

}  // namespace deepod::nn::avx2
