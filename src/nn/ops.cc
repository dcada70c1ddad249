#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/kernels.h"
#include "obs/metrics.h"

// Invocation counters ("nn/<op>" in the global registry) for the hot
// kernels, compiled in only when the DEEPOD_OBS_KERNEL_COUNTS CMake option
// is ON (the default build carries no code for this, not even a branch).
#if defined(DEEPOD_OBS_KERNEL_COUNTS)
#define DEEPOD_COUNT_KERNEL(op)                                \
  do {                                                         \
    static ::deepod::obs::Counter& deepod_kernel_count =       \
        ::deepod::obs::Registry::Global().counter("nn/" op);   \
    deepod_kernel_count.Add();                                 \
  } while (0)
#else
#define DEEPOD_COUNT_KERNEL(op) ((void)0)
#endif

namespace deepod::nn {
namespace {

using Impl = Tensor::Impl;

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.ShapeString() + " vs " + b.ShapeString());
  }
}

// Elementwise unary op helper: forward f(x), backward df(x, y) where y is
// the forward output value.
template <typename F, typename DF>
Tensor UnaryOp(const Tensor& a, F f, DF df) {
  const auto& x = a.data();
  auto out = AcquireBuffer(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = f(x[i]);
  auto pa = a.impl();
  return Tensor::MakeOpResult(
      a.shape(), std::move(out), {pa}, [pa, df](Impl& self) {
        double* ga = pa->grad_sink();
        for (size_t i = 0; i < self.data.size(); ++i) {
          ga[i] += self.grad[i] * df(pa->data[i], self.data[i]);
        }
      });
}

// --- Conv2d backward --------------------------------------------------------
//
// Per (oc, ic, ky, kx) tap over the valid output rows: a contiguous axpy of
// the upstream gradient into the input gradient, and a DotUnrolled of the
// upstream gradient with the input for the kernel gradient. It reassociates
// the naive loop's sums (tests/reference_kernels.h), so it matches that
// oracle within rounding, not bit for bit.

void ConvBackward(const ConvGeom& g, const double* grad_out,
                  const double* xin, const double* xk, double* gin,
                  double* gk) {
  for (size_t oc = 0; oc < g.cout; ++oc) {
    const double* koc = xk + oc * g.cin * g.kh * g.kw;
    double* gkoc = gk + oc * g.cin * g.kh * g.kw;
    const double* go_plane = grad_out + oc * g.oh * g.ow;
    for (size_t ic = 0; ic < g.cin; ++ic) {
      const double* in_plane = xin + ic * g.h * g.w;
      double* gin_plane = gin + ic * g.h * g.w;
      for (size_t ky = 0; ky < g.kh; ++ky) {
        // Output rows oy whose input row oy + ky - pad_h lies in [0, h);
        // none when the tap sits below the map (h + pad_h <= ky).
        const size_t oy_lo = g.pad_h > ky ? g.pad_h - ky : 0;
        const size_t oy_hi =
            g.h + g.pad_h > ky ? std::min(g.oh, g.h + g.pad_h - ky) : 0;
        for (size_t kx = 0; kx < g.kw; ++kx) {
          const size_t ox_lo = g.pad_w > kx ? g.pad_w - kx : 0;
          const size_t ox_hi =
              g.w + g.pad_w > kx ? std::min(g.ow, g.w + g.pad_w - kx) : 0;
          if (ox_hi <= ox_lo) continue;
          const size_t len = ox_hi - ox_lo;
          const size_t ix_lo = ox_lo + kx - g.pad_w;
          const size_t k_idx = (ic * g.kh + ky) * g.kw + kx;
          const double kval = koc[k_idx];
          double acc = 0.0;
          for (size_t oy = oy_lo; oy < oy_hi; ++oy) {
            const size_t iy = oy + ky - g.pad_h;
            const double* go_row = go_plane + oy * g.ow + ox_lo;
            const double* in_row = in_plane + iy * g.w + ix_lo;
            double* gin_row = gin_plane + iy * g.w + ix_lo;
            for (size_t i = 0; i < len; ++i) gin_row[i] += kval * go_row[i];
            acc += DotUnrolled(go_row, in_row, len);
          }
          gkoc[k_idx] += acc;
        }
      }
    }
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  const auto& xa = a.data();
  const auto& xb = b.data();
  auto out = AcquireBuffer(xa.size());
  for (size_t i = 0; i < xa.size(); ++i) out[i] = xa[i] + xb[i];
  auto pa = a.impl(), pb = b.impl();
  return Tensor::MakeOpResult(a.shape(), std::move(out), {pa, pb},
                              [pa, pb](Impl& self) {
                                double* ga = pa->grad_sink();
                                double* gb = pb->grad_sink();
                                for (size_t i = 0; i < self.grad.size(); ++i) {
                                  ga[i] += self.grad[i];
                                  gb[i] += self.grad[i];
                                }
                              });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  const auto& xa = a.data();
  const auto& xb = b.data();
  auto out = AcquireBuffer(xa.size());
  for (size_t i = 0; i < xa.size(); ++i) out[i] = xa[i] - xb[i];
  auto pa = a.impl(), pb = b.impl();
  return Tensor::MakeOpResult(a.shape(), std::move(out), {pa, pb},
                              [pa, pb](Impl& self) {
                                double* ga = pa->grad_sink();
                                double* gb = pb->grad_sink();
                                for (size_t i = 0; i < self.grad.size(); ++i) {
                                  ga[i] += self.grad[i];
                                  gb[i] -= self.grad[i];
                                }
                              });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  const auto& xa = a.data();
  const auto& xb = b.data();
  auto out = AcquireBuffer(xa.size());
  for (size_t i = 0; i < xa.size(); ++i) out[i] = xa[i] * xb[i];
  auto pa = a.impl(), pb = b.impl();
  return Tensor::MakeOpResult(a.shape(), std::move(out), {pa, pb},
                              [pa, pb](Impl& self) {
                                double* ga = pa->grad_sink();
                                double* gb = pb->grad_sink();
                                for (size_t i = 0; i < self.grad.size(); ++i) {
                                  ga[i] += self.grad[i] * pb->data[i];
                                  gb[i] += self.grad[i] * pa->data[i];
                                }
                              });
}

Tensor Scale(const Tensor& a, double c) {
  return UnaryOp(
      a, [c](double x) { return c * x; },
      [c](double, double) { return c; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double, double y) { return y * (1.0 - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      a, [](double x) { return std::fabs(x); },
      [](double x, double) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](double x) { return x * x; },
      [](double x, double) { return 2.0 * x; });
}

Tensor Sqrt(const Tensor& a, double eps) {
  return UnaryOp(
      a, [eps](double x) { return std::sqrt(x + eps); },
      [](double, double y) { return 0.5 / y; });
}

Tensor Affine(const Tensor& w, const Tensor& x, const Tensor& b) {
  if (w.ndim() != 2 || x.ndim() != 1 || b.ndim() != 1 || w.dim(1) != x.dim(0) ||
      w.dim(0) != b.dim(0)) {
    throw std::invalid_argument("Affine: incompatible shapes " +
                                w.ShapeString() + " * " + x.ShapeString() +
                                " + " + b.ShapeString());
  }
  DEEPOD_COUNT_KERNEL("affine");
  const size_t o = w.dim(0), in = w.dim(1);
  const auto& xw = w.data();
  const auto& xx = x.data();
  const auto& xb = b.data();
  auto out = AcquireBuffer(o);
  // The kernel the serving plan runs for each dense layer, so the plan stays
  // bit-identical to this op.
  AffineForward(xw.data(), xx.data(), xb.data(), out.data(), o, in);
  auto pw = w.impl(), px = x.impl(), pb = b.impl();
  return Tensor::MakeOpResult(
      {o}, std::move(out), {pw, px, pb}, [pw, px, pb, o, in](Impl& self) {
        double* gw = pw->grad_sink();
        double* gx = px->grad_sink();
        double* gb = pb->grad_sink();
        const double* xd = px->data.data();
        const double* wd = pw->data.data();
        for (size_t i = 0; i < o; ++i) {
          const double g = self.grad[i];
          if (g == 0.0) continue;
          gb[i] += g;
          double* gwrow = gw + i * in;
          const double* wrow = wd + i * in;
          for (size_t j = 0; j < in; ++j) gwrow[j] += g * xd[j];
          for (size_t j = 0; j < in; ++j) gx[j] += g * wrow[j];
        }
      });
}

Tensor ConcatVec(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("ConcatVec: no inputs");
  size_t total = 0;
  for (const auto& p : parts) {
    if (p.ndim() != 1) {
      throw std::invalid_argument("ConcatVec: all inputs must be 1-D, got " +
                                  p.ShapeString());
    }
    total += p.dim(0);
  }
  auto out = AcquireBuffer(total);
  size_t offset = 0;
  for (const auto& p : parts) {
    const auto& d = p.data();
    std::copy(d.begin(), d.end(), out.begin() + offset);
    offset += d.size();
  }
  std::vector<std::shared_ptr<Impl>> parents;
  parents.reserve(parts.size());
  for (const auto& p : parts) parents.push_back(p.impl());
  return Tensor::MakeOpResult({total}, std::move(out), parents,
                              [parents](Impl& self) {
                                size_t off = 0;
                                for (const auto& p : parents) {
                                  double* gp = p->grad_sink();
                                  for (size_t i = 0; i < p->data.size(); ++i) {
                                    gp[i] += self.grad[off + i];
                                  }
                                  off += p->data.size();
                                }
                              });
}

Tensor Row(const Tensor& matrix, size_t i) {
  if (matrix.ndim() != 2) throw std::invalid_argument("Row: input not 2-D");
  const size_t n = matrix.dim(0), d = matrix.dim(1);
  if (i >= n) throw std::out_of_range("Row: index out of range");
  const auto& x = matrix.data();
  auto out = AcquireBuffer(d);
  std::copy(x.begin() + i * d, x.begin() + (i + 1) * d, out.begin());
  auto pm = matrix.impl();
  return Tensor::MakeOpResult({d}, std::move(out), {pm},
                              [pm, i, d](Impl& self) {
                                double* gm = pm->grad_sink();
                                for (size_t j = 0; j < d; ++j) {
                                  gm[i * d + j] += self.grad[j];
                                }
                              });
}

Tensor GatherRows(const Tensor& matrix, const std::vector<size_t>& indices) {
  if (matrix.ndim() != 2) throw std::invalid_argument("GatherRows: input not 2-D");
  const size_t n = matrix.dim(0), d = matrix.dim(1);
  auto out = AcquireBuffer(indices.size() * d);
  const auto& x = matrix.data();
  size_t offset = 0;
  for (size_t idx : indices) {
    if (idx >= n) throw std::out_of_range("GatherRows: index out of range");
    std::copy(x.begin() + idx * d, x.begin() + (idx + 1) * d,
              out.begin() + offset);
    offset += d;
  }
  auto pm = matrix.impl();
  auto idx_copy = indices;
  return Tensor::MakeOpResult(
      {indices.size(), d}, std::move(out), {pm},
      [pm, idx_copy, d](Impl& self) {
        double* gm = pm->grad_sink();
        for (size_t r = 0; r < idx_copy.size(); ++r) {
          for (size_t j = 0; j < d; ++j) {
            gm[idx_copy[r] * d + j] += self.grad[r * d + j];
          }
        }
      });
}

Tensor Reshape(const Tensor& a, std::vector<size_t> new_shape) {
  if (NumElements(new_shape) != a.size()) {
    throw std::invalid_argument("Reshape: element count mismatch");
  }
  auto pa = a.impl();
  return Tensor::MakeOpResult(std::move(new_shape), a.data(), {pa},
                              [pa](Impl& self) {
                                double* ga = pa->grad_sink();
                                for (size_t i = 0; i < self.grad.size(); ++i) {
                                  ga[i] += self.grad[i];
                                }
                              });
}

Tensor Sum(const Tensor& a) {
  double s = 0.0;
  for (double x : a.data()) s += x;
  auto pa = a.impl();
  return Tensor::MakeOpResult({1}, {s}, {pa}, [pa](Impl& self) {
    const double g = self.grad[0];
    double* ga = pa->grad_sink();
    for (size_t i = 0; i < pa->data.size(); ++i) ga[i] += g;
  });
}

Tensor Mean(const Tensor& a) {
  if (a.size() == 0) throw std::invalid_argument("Mean: empty tensor");
  return Scale(Sum(a), 1.0 / static_cast<double>(a.size()));
}

Tensor MeanRows(const Tensor& a) {
  if (a.ndim() != 2) throw std::invalid_argument("MeanRows: input not 2-D");
  const size_t n = a.dim(0), d = a.dim(1);
  const auto& x = a.data();
  auto out = AcquireZeroBuffer(d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) out[j] += x[i * d + j];
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (double& v : out) v *= inv;
  auto pa = a.impl();
  return Tensor::MakeOpResult({d}, std::move(out), {pa},
                              [pa, n, d, inv](Impl& self) {
                                double* ga = pa->grad_sink();
                                for (size_t i = 0; i < n; ++i) {
                                  for (size_t j = 0; j < d; ++j) {
                                    ga[i * d + j] += self.grad[j] * inv;
                                  }
                                }
                              });
}

Tensor Conv2d(const Tensor& input, const Tensor& kernel, size_t pad_h,
              size_t pad_w) {
  if (input.ndim() != 3 || kernel.ndim() != 4 || input.dim(0) != kernel.dim(1)) {
    throw std::invalid_argument("Conv2d: incompatible shapes " +
                                input.ShapeString() + " conv " +
                                kernel.ShapeString());
  }
  const size_t cin = input.dim(0), h = input.dim(1), w = input.dim(2);
  const size_t cout = kernel.dim(0), kh = kernel.dim(2), kw = kernel.dim(3);
  if (h + 2 * pad_h < kh || w + 2 * pad_w < kw) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
  DEEPOD_COUNT_KERNEL("conv2d");
  const size_t oh = h + 2 * pad_h - kh + 1;
  const size_t ow = w + 2 * pad_w - kw + 1;
  const ConvGeom geom{cin, h, w, cout, kh, kw, oh, ow, pad_h, pad_w};
  const auto& xin = input.data();
  const auto& xk = kernel.data();
  auto out = AcquireBuffer(cout * oh * ow);
  thread_local std::vector<double> scratch;
  if (scratch.size() < ConvScratchSize(geom)) {
    scratch.resize(ConvScratchSize(geom));
  }
  ConvForward(geom, xin.data(), xk.data(), out.data(), scratch.data());
  auto pin = input.impl(), pk = kernel.impl();
  return Tensor::MakeOpResult(
      {cout, oh, ow}, std::move(out), {pin, pk}, [pin, pk, geom](Impl& self) {
        double* gin = pin->grad_sink();
        double* gk = pk->grad_sink();
        ConvBackward(geom, self.grad.data(), pin->data.data(),
                     pk->data.data(), gin, gk);
      });
}

Tensor AddChannelBias(const Tensor& input, const Tensor& bias) {
  if (input.ndim() != 3 || bias.ndim() != 1 || input.dim(0) != bias.dim(0)) {
    throw std::invalid_argument("AddChannelBias: incompatible shapes");
  }
  const size_t c = input.dim(0), hw = input.dim(1) * input.dim(2);
  const auto& xin = input.data();
  const auto& xb = bias.data();
  auto out = AcquireBuffer(xin.size());
  for (size_t ch = 0; ch < c; ++ch) {
    for (size_t i = 0; i < hw; ++i) out[ch * hw + i] = xin[ch * hw + i] + xb[ch];
  }
  auto pin = input.impl(), pb = bias.impl();
  return Tensor::MakeOpResult(input.shape(), std::move(out), {pin, pb},
                              [pin, pb, c, hw](Impl& self) {
                                double* gin = pin->grad_sink();
                                double* gb = pb->grad_sink();
                                for (size_t ch = 0; ch < c; ++ch) {
                                  for (size_t i = 0; i < hw; ++i) {
                                    const double g = self.grad[ch * hw + i];
                                    gin[ch * hw + i] += g;
                                    gb[ch] += g;
                                  }
                                }
                              });
}

Tensor GlobalAvgPool(const Tensor& input) {
  if (input.ndim() != 3) throw std::invalid_argument("GlobalAvgPool: input not 3-D");
  const size_t c = input.dim(0), hw = input.dim(1) * input.dim(2);
  const auto& xin = input.data();
  auto out = AcquireBuffer(c);
  const double inv = 1.0 / static_cast<double>(hw);
  for (size_t ch = 0; ch < c; ++ch) {
    double s = 0.0;
    for (size_t i = 0; i < hw; ++i) s += xin[ch * hw + i];
    out[ch] = s * inv;
  }
  auto pin = input.impl();
  return Tensor::MakeOpResult({c}, std::move(out), {pin},
                              [pin, c, hw, inv](Impl& self) {
                                double* gin = pin->grad_sink();
                                for (size_t ch = 0; ch < c; ++ch) {
                                  const double g = self.grad[ch] * inv;
                                  for (size_t i = 0; i < hw; ++i) {
                                    gin[ch * hw + i] += g;
                                  }
                                }
                              });
}

Tensor LstmCellFused(const Tensor& x, const Tensor& h_prev,
                     const Tensor& c_prev, const Tensor& wf, const Tensor& wi,
                     const Tensor& wo, const Tensor& wc, const Tensor& bf,
                     const Tensor& bi, const Tensor& bo, const Tensor& bc) {
  const size_t in = x.dim(0), hd = h_prev.dim(0), cd = in + hd;
  if (c_prev.dim(0) != hd || wf.ndim() != 2 || wf.dim(0) != hd ||
      wf.dim(1) != cd || wi.shape() != wf.shape() || wo.shape() != wf.shape() ||
      wc.shape() != wf.shape() || bf.dim(0) != hd || bi.dim(0) != hd ||
      bo.dim(0) != hd || bc.dim(0) != hd) {
    throw std::invalid_argument("LstmCellFused: incompatible shapes");
  }
  DEEPOD_COUNT_KERNEL("lstm_cell_fused");
  const double* xd = x.data().data();
  const double* hp = h_prev.data().data();
  const double* cp = c_prev.data().data();
  const double* wfd = wf.data().data();
  const double* wid = wi.data().data();
  const double* wod = wo.data().data();
  const double* wcd = wc.data().data();
  // Saved activations for backward: [f ; i ; o ; g], each hd long.
  std::vector<double> gates(4 * hd);
  auto out = AcquireBuffer(2 * hd);
  for (size_t j = 0; j < hd; ++j) {
    const size_t r = j * cd;
    const double af = bf.data()[j] + DotUnrolled(wfd + r, xd, in) +
                      DotUnrolled(wfd + r + in, hp, hd);
    const double ai = bi.data()[j] + DotUnrolled(wid + r, xd, in) +
                      DotUnrolled(wid + r + in, hp, hd);
    const double ao = bo.data()[j] + DotUnrolled(wod + r, xd, in) +
                      DotUnrolled(wod + r + in, hp, hd);
    const double ac = bc.data()[j] + DotUnrolled(wcd + r, xd, in) +
                      DotUnrolled(wcd + r + in, hp, hd);
    const double f = 1.0 / (1.0 + std::exp(-af));
    const double i = 1.0 / (1.0 + std::exp(-ai));
    const double o = 1.0 / (1.0 + std::exp(-ao));
    const double g = std::tanh(ac);
    const double cn = f * cp[j] + i * g;
    gates[j] = f;
    gates[hd + j] = i;
    gates[2 * hd + j] = o;
    gates[3 * hd + j] = g;
    out[j] = o * std::tanh(cn);
    out[hd + j] = cn;
  }
  // The backward reads parents through self.parents (fixed order below) so
  // the closure stays small enough for SmallFn's inline buffer.
  return Tensor::MakeOpResult(
      {2 * hd}, std::move(out),
      {x.impl(), h_prev.impl(), c_prev.impl(), wf.impl(), wi.impl(), wo.impl(),
       wc.impl(), bf.impl(), bi.impl(), bo.impl(), bc.impl()},
      [in, hd, cd, gates = std::move(gates)](Impl& self) {
        Impl* px = self.parents[0].get();
        Impl* ph = self.parents[1].get();
        Impl* pc = self.parents[2].get();
        Impl* pw[4] = {self.parents[3].get(), self.parents[4].get(),
                       self.parents[5].get(), self.parents[6].get()};
        Impl* pb[4] = {self.parents[7].get(), self.parents[8].get(),
                       self.parents[9].get(), self.parents[10].get()};
        const double* xd = px->data.data();
        const double* hp = ph->data.data();
        const double* cp = pc->data.data();
        double* gx = px->grad_sink();
        double* gh = ph->grad_sink();
        double* gc = pc->grad_sink();
        double* gw[4];
        double* gb[4];
        const double* wd[4];
        for (int k = 0; k < 4; ++k) {
          gw[k] = pw[k]->grad_sink();
          gb[k] = pb[k]->grad_sink();
          wd[k] = pw[k]->data.data();
        }
        for (size_t j = 0; j < hd; ++j) {
          const double dh = self.grad[j];
          const double dcout = self.grad[hd + j];
          if (dh == 0.0 && dcout == 0.0) continue;
          const double f = gates[j];
          const double i = gates[hd + j];
          const double o = gates[2 * hd + j];
          const double g = gates[3 * hd + j];
          const double tc = std::tanh(self.data[hd + j]);
          const double do_ = dh * tc;
          const double dc = dcout + dh * o * (1.0 - tc * tc);
          gc[j] += dc * f;
          // Pre-activation gradients in the f/i/o/c weight order.
          const double da[4] = {dc * cp[j] * f * (1.0 - f),
                                dc * g * i * (1.0 - i),
                                do_ * o * (1.0 - o),
                                dc * i * (1.0 - g * g)};
          const size_t r = j * cd;
          for (int k = 0; k < 4; ++k) {
            const double a = da[k];
            if (a == 0.0) continue;
            gb[k][j] += a;
            double* grow = gw[k] + r;
            const double* wrow = wd[k] + r;
            for (size_t t = 0; t < in; ++t) grow[t] += a * xd[t];
            for (size_t t = 0; t < hd; ++t) grow[in + t] += a * hp[t];
            for (size_t t = 0; t < in; ++t) gx[t] += a * wrow[t];
            for (size_t t = 0; t < hd; ++t) gh[t] += a * wrow[in + t];
          }
        }
      });
}

Tensor SliceVec(const Tensor& a, size_t begin, size_t end) {
  if (a.ndim() != 1 || begin > end || end > a.dim(0)) {
    throw std::invalid_argument("SliceVec: bad range for " + a.ShapeString());
  }
  const size_t n = end - begin;
  auto out = AcquireBuffer(n);
  std::copy(a.data().begin() + begin, a.data().begin() + end, out.begin());
  auto pa = a.impl();
  return Tensor::MakeOpResult({n}, std::move(out), {pa},
                              [pa, begin, n](Impl& self) {
                                double* ga = pa->grad_sink();
                                for (size_t i = 0; i < n; ++i) {
                                  ga[begin + i] += self.grad[i];
                                }
                              });
}

Tensor MaeLoss(const Tensor& pred, const Tensor& target) {
  CheckSameShape(pred, target, "MaeLoss");
  return Mean(Abs(Sub(pred, target)));
}

Tensor EuclideanDistance(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "EuclideanDistance");
  return Sqrt(Sum(Square(Sub(a, b))));
}

}  // namespace deepod::nn
