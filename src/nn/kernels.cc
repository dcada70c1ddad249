#include "nn/kernels.h"

#include <algorithm>

namespace deepod::nn {

size_t ConvScratchSize(const ConvGeom& g) {
  return g.cin * (g.h + 2 * g.pad_h) * (g.w + 2 * g.pad_w);
}

// Four outputs of a row at a time over the zero-padded copy in `padded`,
// each in the per-point (ic, ky, kx) order: the four sums are independent,
// so they fill the FP pipeline where one serial add chain per output left
// it idle.
void ConvForward(const ConvGeom& g, const double* xin, const double* xk,
                 double* out, double* padded) {
  const size_t ph = g.h + 2 * g.pad_h, pw = g.w + 2 * g.pad_w;
  std::fill(padded, padded + g.cin * ph * pw, 0.0);
  for (size_t ic = 0; ic < g.cin; ++ic) {
    for (size_t y = 0; y < g.h; ++y) {
      const double* src = xin + (ic * g.h + y) * g.w;
      std::copy(src, src + g.w,
                padded + (ic * ph + y + g.pad_h) * pw + g.pad_w);
    }
  }
  const size_t taps = g.cin * g.kh * g.kw;
  for (size_t oc = 0; oc < g.cout; ++oc) {
    const double* koc = xk + oc * taps;
    for (size_t oy = 0; oy < g.oh; ++oy) {
      double* orow = out + (oc * g.oh + oy) * g.ow;
      size_t ox = 0;
      for (; ox + 4 <= g.ow; ox += 4) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (size_t ic = 0; ic < g.cin; ++ic) {
          for (size_t ky = 0; ky < g.kh; ++ky) {
            const double* in_row = padded + (ic * ph + oy + ky) * pw + ox;
            const double* k_row = koc + (ic * g.kh + ky) * g.kw;
            for (size_t kx = 0; kx < g.kw; ++kx) {
              const double k = k_row[kx];
              s0 += in_row[kx] * k;
              s1 += in_row[kx + 1] * k;
              s2 += in_row[kx + 2] * k;
              s3 += in_row[kx + 3] * k;
            }
          }
        }
        orow[ox] = s0;
        orow[ox + 1] = s1;
        orow[ox + 2] = s2;
        orow[ox + 3] = s3;
      }
      for (; ox < g.ow; ++ox) {
        double s = 0.0;
        for (size_t ic = 0; ic < g.cin; ++ic) {
          for (size_t ky = 0; ky < g.kh; ++ky) {
            const double* in_row = padded + (ic * ph + oy + ky) * pw + ox;
            const double* k_row = koc + (ic * g.kh + ky) * g.kw;
            for (size_t kx = 0; kx < g.kw; ++kx) s += in_row[kx] * k_row[kx];
          }
        }
        orow[ox] = s;
      }
    }
  }
}

double DotUnrolled(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void AffineForward(const double* w, const double* x, const double* b,
                   double* y, size_t out, size_t in) {
  for (size_t i = 0; i < out; ++i) y[i] = b[i] + DotUnrolled(&w[i * in], x, in);
}

}  // namespace deepod::nn
