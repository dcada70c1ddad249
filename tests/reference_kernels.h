#ifndef DEEPOD_TESTS_REFERENCE_KERNELS_H_
#define DEEPOD_TESTS_REFERENCE_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "nn/kernels.h"
#include "nn/lstm.h"
#include "nn/ops.h"

// Test oracles for the kernels in nn/kernels.h and nn/ops.cc:
//  - naive per-element Conv2d loops. The padded conv forward must match
//    the forward loop bit for bit (for finite values): each output
//    accumulates in the plain loop order, and skipping a zero multiplier
//    only drops ±0.0 addends from a sum that is never -0.0. The conv
//    backward reassociates the gradient sums, so it matches the backward
//    loop within rounding;
//  - a dense layer summed lane by lane, which Affine and the serving
//    plan's dense layers must match bit for bit;
//  - the LSTM recurrence composed from Tensor ops, which the fused cell
//    must match within rounding.

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

// y[i] = b[i] + W[i,:] x for a row-major W [out, in], in the lane order of
// AffineForward: product j goes to lane j % 4 while a whole group of four
// is left, the lanes combine as (0 + 1) + (2 + 3), the last in % 4
// products follow in ascending order, and the bias comes last.
inline void AffineNaive(const double* w, const double* x, const double* b,
                        double* y, size_t out, size_t in) {
  const size_t grouped = in - in % 4;
  for (size_t i = 0; i < out; ++i) {
    const double* row = w + i * in;
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t j = 0; j < grouped; ++j) lane[j % 4] += row[j] * x[j];
    double s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    for (size_t j = grouped; j < in; ++j) s += row[j] * x[j];
    y[i] = b[i] + s;
  }
}

// h_n of `lstm` over `inputs`, Eq. 12-16 composed from Tensor ops: each
// gate is one Affine over the concatenation [x ; h_prev].
inline Tensor ComposedLstmForward(Lstm& lstm,
                                  const std::vector<Tensor>& inputs) {
  const std::vector<Tensor> p = lstm.Parameters();  // wf wi wo wc bf bi bo bc
  Tensor h = Tensor::Zeros({lstm.hidden_dim()});
  Tensor c = Tensor::Zeros({lstm.hidden_dim()});
  for (const Tensor& x : inputs) {
    const Tensor xh = ConcatVec({x, h});
    const Tensor f = Sigmoid(Affine(p[0], xh, p[4]));  // Eq. 12
    const Tensor i = Sigmoid(Affine(p[1], xh, p[5]));  // Eq. 13
    const Tensor o = Sigmoid(Affine(p[2], xh, p[6]));  // Eq. 14
    const Tensor g = Tanh(Affine(p[3], xh, p[7]));
    c = Add(Mul(f, c), Mul(i, g));                     // Eq. 15
    h = Mul(o, Tanh(c));                               // Eq. 16
  }
  return h;
}

}  // namespace deepod::nn::reference

#endif  // DEEPOD_TESTS_REFERENCE_KERNELS_H_
