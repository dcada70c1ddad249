#ifndef DEEPOD_NN_KERNELS_H_
#define DEEPOD_NN_KERNELS_H_

#include <cstddef>

// Raw forward kernels behind the Tensor ops in ops.h. The ops wrap them with
// shape checks, buffer management and autograd; the serving plan
// (core/serving_plan.h) calls them directly on its own storage. Each op has
// one kernel, so the plan produces the same bits as the Tensor forward.

namespace deepod::nn {

// Dot product with four independent accumulators: lane k sums the products
// at indices i ≡ k (mod 4) in ascending order, the lanes combine as
// (s0 + s1) + (s2 + s3), and the n % 4 tail products are added after that
// in ascending order.
double DotUnrolled(const double* a, const double* b, size_t n);

// y[i] = b[i] + DotUnrolled(W[i,:], x) for a row-major W [out, in]: the one
// kernel Affine and the serving plan's dense layers run.
void AffineForward(const double* w, const double* x, const double* b,
                   double* y, size_t out, size_t in);

// --- Conv2d ----------------------------------------------------------------

// Stride-1 convolution geometry: input [cin, h, w], kernel [cout, cin, kh,
// kw], zero padding (pad_h, pad_w), output [cout, oh, ow].
struct ConvGeom {
  size_t cin, h, w, cout, kh, kw, oh, ow, pad_h, pad_w;
};

// Doubles of scratch ConvForward needs for `g`: the zero-padded input copy.
size_t ConvScratchSize(const ConvGeom& g);

// out [cout, oh, ow] = conv(in, kernel). `scratch` holds ConvScratchSize(g)
// doubles. Zero-pads the input once into `scratch`, then accumulates four
// outputs of a row side by side, each in the naive per-point (ic, ky, kx)
// order. The padding taps add ±0.0 to a sum that is never -0.0, so the
// result is bit-identical to the naive loop that skips out-of-range taps
// (the test oracle in tests/reference_kernels.h) — provided every kernel
// weight is finite (0 * inf would be NaN). The artifact loader rejects
// non-finite weights, which enforces this for served models.
void ConvForward(const ConvGeom& g, const double* in, const double* kernel,
                 double* out, double* scratch);

}  // namespace deepod::nn

#endif  // DEEPOD_NN_KERNELS_H_
