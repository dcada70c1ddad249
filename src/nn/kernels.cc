#include "nn/kernels.h"

#include <algorithm>

namespace deepod::nn {
namespace {

// --- Conv2d forward kernels --------------------------------------------------

// Per-point (ic, ky, kx) order over a zero-padded copy of the input, four
// outputs of a row at a time: the four sums are independent, so they fill
// the FP pipeline where one serial add chain per output left it idle.
void ConvForwardBlocked(const ConvGeom& g, const double* xin, const double* xk,
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

// Planar kernel for KernelMode::kVector: accumulates whole shifted rows
// per (oc, ic, ky, kx) tap, which turns the innermost loop into a
// vectorisable contiguous axpy. Sums each output entry in (ic, ky, kx,
// then tap-major) order — deterministic but not bit-identical to the
// per-point kernels. With `fused` (kSimd, only when SimdActive()) the axpy
// is AxpyAvx2: the same element order, but each multiply-add is one FMA
// (one rounding per tap where the scalar loop has two), so it matches the
// scalar form under the kSimd value-tolerance contract, not bit-for-bit.
void ConvForwardPlanar(const ConvGeom& g, const double* xin, const double* xk,
                       double* out, bool fused) {
  std::fill(out, out + g.cout * g.oh * g.ow, 0.0);
  for (size_t oc = 0; oc < g.cout; ++oc) {
    const double* koc = xk + oc * g.cin * g.kh * g.kw;
    double* out_plane = out + oc * g.oh * g.ow;
    for (size_t ic = 0; ic < g.cin; ++ic) {
      const double* in_plane = xin + ic * g.h * g.w;
      for (size_t ky = 0; ky < g.kh; ++ky) {
        const size_t oy_lo = g.pad_h > ky ? g.pad_h - ky : 0;
        const size_t oy_hi = std::min(g.oh, g.h + g.pad_h - ky);
        for (size_t kx = 0; kx < g.kw; ++kx) {
          const double kval = koc[(ic * g.kh + ky) * g.kw + kx];
          if (kval == 0.0) continue;
          const size_t ox_lo = g.pad_w > kx ? g.pad_w - kx : 0;
          const size_t ox_hi = std::min(g.ow, g.w + g.pad_w - kx);
          if (ox_hi <= ox_lo) continue;
          const size_t len = ox_hi - ox_lo;
          const size_t ix_lo = ox_lo + kx - g.pad_w;
          for (size_t oy = oy_lo; oy < oy_hi; ++oy) {
            const size_t iy = oy + ky - g.pad_h;
            const double* in_row = in_plane + iy * g.w + ix_lo;
            double* o_row = out_plane + oy * g.ow + ox_lo;
            if (fused) {
              AxpyAvx2(kval, in_row, o_row, len);
            } else {
              for (size_t i = 0; i < len; ++i) o_row[i] += kval * in_row[i];
            }
          }
        }
      }
    }
  }
}

}  // namespace

bool SimdActive() {
  return GetKernelMode() == KernelMode::kSimd && Avx2Active();
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

void AffineForward(const double* w, const PackedGemvView* packed,
                   const double* x, const double* b, double* y, size_t out,
                   size_t in) {
  const KernelMode mode = GetKernelMode();
  if (SimdActive()) {
    GemvBiasPacked(*packed, x, b, y);
  } else if (mode == KernelMode::kVector || mode == KernelMode::kSimd) {
    for (size_t i = 0; i < out; ++i) {
      y[i] = b[i] + DotUnrolled(&w[i * in], x, in);
    }
  } else {
    for (size_t i = 0; i < out; ++i) {
      double s = b[i];
      const double* wrow = &w[i * in];
      for (size_t j = 0; j < in; ++j) s += wrow[j] * x[j];
      y[i] = s;
    }
  }
}

size_t ConvScratchSize(const ConvGeom& g) {
  if (GetKernelMode() != KernelMode::kBlocked) return 0;
  return g.cin * (g.h + 2 * g.pad_h) * (g.w + 2 * g.pad_w);
}

void ConvForward(const ConvGeom& g, const double* in, const double* kernel,
                 double* out, double* scratch) {
  switch (GetKernelMode()) {
    case KernelMode::kBlocked:
      ConvForwardBlocked(g, in, kernel, out, scratch);
      break;
    case KernelMode::kVector:
      ConvForwardPlanar(g, in, kernel, out, /*fused=*/false);
      break;
    case KernelMode::kSimd:
      ConvForwardPlanar(g, in, kernel, out, /*fused=*/SimdActive());
      break;
  }
}

}  // namespace deepod::nn
