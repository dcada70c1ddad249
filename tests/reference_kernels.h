#ifndef DEEPOD_TESTS_REFERENCE_KERNELS_H_
#define DEEPOD_TESTS_REFERENCE_KERNELS_H_

#include <algorithm>
#include <cstddef>

#include "nn/kernels.h"

// Naive per-element Conv2d loops: the test oracles that the
// KernelMode::kBlocked conv kernels must match bit for bit (for finite
// values). Each output or gradient entry accumulates in the plain loop order
// that the blocked kernels preserve; skipping a zero multiplier only drops
// ±0.0 addends from a sum that is never -0.0.

namespace deepod::nn::reference {

// out [cout, oh, ow] = conv(in, kernel), skipping out-of-range taps.
inline void ConvForwardNaive(const ConvGeom& g, const double* xin,
                             const double* xk, double* out) {
  std::fill(out, out + g.cout * g.oh * g.ow, 0.0);
  for (size_t oc = 0; oc < g.cout; ++oc) {
    for (size_t oy = 0; oy < g.oh; ++oy) {
      for (size_t ox = 0; ox < g.ow; ++ox) {
        double s = 0.0;
        for (size_t ic = 0; ic < g.cin; ++ic) {
          for (size_t ky = 0; ky < g.kh; ++ky) {
            const long iy = static_cast<long>(oy + ky) - static_cast<long>(g.pad_h);
            if (iy < 0 || iy >= static_cast<long>(g.h)) continue;
            for (size_t kx = 0; kx < g.kw; ++kx) {
              const long ix = static_cast<long>(ox + kx) - static_cast<long>(g.pad_w);
              if (ix < 0 || ix >= static_cast<long>(g.w)) continue;
              s += xin[(ic * g.h + iy) * g.w + ix] *
                   xk[((oc * g.cin + ic) * g.kh + ky) * g.kw + kx];
            }
          }
        }
        out[(oc * g.oh + oy) * g.ow + ox] = s;
      }
    }
  }
}

// gin += d(out)/d(in) and gk += d(out)/d(kernel) for upstream `grad_out`.
inline void ConvBackwardNaive(const ConvGeom& g, const double* grad_out,
                              const double* xin, const double* xk, double* gin,
                              double* gk) {
  for (size_t oc = 0; oc < g.cout; ++oc) {
    for (size_t oy = 0; oy < g.oh; ++oy) {
      for (size_t ox = 0; ox < g.ow; ++ox) {
        const double go = grad_out[(oc * g.oh + oy) * g.ow + ox];
        if (go == 0.0) continue;
        for (size_t ic = 0; ic < g.cin; ++ic) {
          for (size_t ky = 0; ky < g.kh; ++ky) {
            const long iy = static_cast<long>(oy + ky) - static_cast<long>(g.pad_h);
            if (iy < 0 || iy >= static_cast<long>(g.h)) continue;
            for (size_t kx = 0; kx < g.kw; ++kx) {
              const long ix = static_cast<long>(ox + kx) - static_cast<long>(g.pad_w);
              if (ix < 0 || ix >= static_cast<long>(g.w)) continue;
              const size_t in_idx = (ic * g.h + iy) * g.w + ix;
              const size_t k_idx = ((oc * g.cin + ic) * g.kh + ky) * g.kw + kx;
              gin[in_idx] += go * xk[k_idx];
              gk[k_idx] += go * xin[in_idx];
            }
          }
        }
      }
    }
  }
}

}  // namespace deepod::nn::reference

#endif  // DEEPOD_TESTS_REFERENCE_KERNELS_H_
