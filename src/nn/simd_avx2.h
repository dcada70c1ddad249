#ifndef DEEPOD_NN_SIMD_AVX2_H_
#define DEEPOD_NN_SIMD_AVX2_H_

#include <cstddef>

#include "nn/simd.h"

// Internal interface of the AVX2 translation unit (simd_avx2.cc, the only
// file built with -mavx2 -mfma). Nothing here is part of the public API —
// callers go through nn/simd.h, which routes to these implementations only
// when Avx2Active() is true. When the toolchain cannot build AVX2 code the
// TU still links, kAvx2Compiled is false and every function is an aborting
// stub that Avx2Active() guarantees is never reached.

namespace deepod::nn::avx2 {

// Constant-initialised flag (no AVX2 instruction executes to read it).
extern const bool kAvx2Compiled;

void GemvBiasPacked(const PackedGemvView& packed, const double* x,
                    const double* bias, double* y);
void GemvBiasPacked2(const PackedGemv& packed, const double* x1, size_t n1,
                     const double* x2, const double* bias, double* y);
void Axpy(double a, const double* x, double* y, size_t n);
void SigmoidN(const double* x, double* y, size_t n);
void TanhN(const double* x, double* y, size_t n);

}  // namespace deepod::nn::avx2

#endif  // DEEPOD_NN_SIMD_AVX2_H_
