#ifndef DEEPOD_NN_KERNELS_H_
#define DEEPOD_NN_KERNELS_H_

#include <cstddef>

#include "nn/simd.h"

// Raw forward kernels behind the Tensor ops in ops.h, dispatched on the
// calling thread's KernelMode. The ops wrap them with shape checks, buffer
// management and autograd; the serving plan (core/serving_plan.h) calls them
// directly on its own storage. Both therefore produce the same bits in every
// tier.

namespace deepod::nn {

// True when the current thread selected kSimd AND the runtime dispatch
// (compiled + cpuid + DEEPOD_SIMD) allows the AVX2 kernels. When false a
// kSimd thread takes the kVector code path of each op, which makes the
// fallback bit-identical to kVector by construction.
bool SimdActive();

// Reassociated dot product with four independent accumulators (the kVector
// summation order).
double DotUnrolled(const double* a, const double* b, size_t n);

// y[i] = b[i] + W[i,:] x for a row-major W [out, in] — the one kernel Affine
// and the serving plan's dense layers run: bias-first ascending sums in
// kBlocked, b[i] + DotUnrolled in kVector, the packed AVX2 GEMV when
// SimdActive().
// `packed` (W packed by PackGemv/PackGemvInto) is read only when
// SimdActive() and must then be non-null.
void AffineForward(const double* w, const PackedGemvView* packed,
                   const double* x, const double* b, double* y, size_t out,
                   size_t in);

// --- Conv2d ----------------------------------------------------------------

// Stride-1 convolution geometry: input [cin, h, w], kernel [cout, cin, kh,
// kw], zero padding (pad_h, pad_w), output [cout, oh, ow].
struct ConvGeom {
  size_t cin, h, w, cout, kh, kw, oh, ow, pad_h, pad_w;
};

// Doubles of scratch ConvForward needs for `g` in the current kernel mode
// (the zero-padded input copy of kBlocked; 0 otherwise).
size_t ConvScratchSize(const ConvGeom& g);

// out [cout, oh, ow] = conv(in, kernel). `scratch` holds ConvScratchSize(g)
// doubles. Per tier:
//  - kBlocked: zero-pads the input once into `scratch`, then accumulates
//    four outputs of a row side by side, each in the naive per-point (ic,
//    ky, kx) order. The padding taps add ±0.0 to a sum that is never -0.0,
//    so the result is bit-identical to the naive loop that skips
//    out-of-range taps (the test oracle in tests/reference_kernels.h) —
//    provided every kernel weight is finite (0 * inf would be NaN). The
//    artifact loader rejects non-finite weights, which enforces this for
//    served models.
//  - kVector: planar shifted-row axpys (a different, deterministic order).
//  - kSimd: the kVector order with fused multiply-adds when SimdActive(),
//    else the kVector kernel itself.
void ConvForward(const ConvGeom& g, const double* in, const double* kernel,
                 double* out, double* scratch);

}  // namespace deepod::nn

#endif  // DEEPOD_NN_KERNELS_H_
