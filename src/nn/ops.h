#ifndef DEEPOD_NN_OPS_H_
#define DEEPOD_NN_OPS_H_

#include <vector>

#include "nn/tensor.h"

namespace deepod::nn {

// Differentiable operations over Tensor: the training graph. Every op
// validates shapes, computes the forward value eagerly and hands it with a
// backward closure to Tensor::MakeOpResult, which alone decides whether the
// graph is recorded. Gradients are exact (verified by the finite-difference
// property tests in tests/gradcheck_test.cc). Predict and PredictBatch do
// not run these ops: they run core::ServingPlan over the raw kernels in
// nn/kernels.h.

// --- Elementwise -----------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);   // same shape
Tensor Sub(const Tensor& a, const Tensor& b);   // same shape
Tensor Mul(const Tensor& a, const Tensor& b);   // same shape (Hadamard)
Tensor Scale(const Tensor& a, double c);        // c * a
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Square(const Tensor& a);
// sqrt(a + eps); eps guards the derivative at 0 (used by the Euclidean
// auxiliary loss of Algorithm 1).
Tensor Sqrt(const Tensor& a, double eps = 1e-12);

// --- Linear algebra --------------------------------------------------------

// W x + b for vector x: W [O,I], x [I], b [O] -> [O]. This is the exact
// form the paper's MLP equations (Eq. 11, 17-20) are written in.
Tensor Affine(const Tensor& w, const Tensor& x, const Tensor& b);

// --- Shape ops -------------------------------------------------------------

// Concatenation of 1-D vectors into one 1-D vector.
Tensor ConcatVec(const std::vector<Tensor>& parts);
// Row `i` of a 2-D matrix as a 1-D vector (gradient scatters into that row).
Tensor Row(const Tensor& matrix, size_t i);
// Rows `indices` of a 2-D matrix as an [N,D] matrix — the embedding lookup
// (Eq. 1: one-hot times the embedding matrix selects a row).
Tensor GatherRows(const Tensor& matrix, const std::vector<size_t>& indices);
// Reshape without moving data.
Tensor Reshape(const Tensor& a, std::vector<size_t> new_shape);

// --- Reductions ------------------------------------------------------------

Tensor Sum(const Tensor& a);               // scalar
Tensor Mean(const Tensor& a);              // scalar
// Column means of an [N,D] matrix -> [D]. This is the average pooling of
// Eq. 10 (compress Z4 of size Δd x d_t into a d_t vector).
Tensor MeanRows(const Tensor& a);

// --- Convolution (Fig. 6 / §4.5) ------------------------------------------

// 2-D convolution over a [C_in, H, W] input with kernel [C_out, C_in, KH, KW]
// and zero padding (pad_h, pad_w); stride 1. Output [C_out, H', W'].
Tensor Conv2d(const Tensor& input, const Tensor& kernel, size_t pad_h,
              size_t pad_w);
// Adds a per-channel bias [C] to a [C,H,W] tensor.
Tensor AddChannelBias(const Tensor& input, const Tensor& bias);
// Mean over the spatial dims of a [C,H,W] tensor -> [C].
Tensor GlobalAvgPool(const Tensor& input);

// --- Fused recurrent cell --------------------------------------------------

// One LSTM cell step (Eq. 12-16) as a single graph node: gates f/i/o and the
// candidate are computed from x [I] and h_prev [H] with weights [H, I+H]
// (layout [W_x | W_h], identical to the composed Affine-over-concat form) and
// biases [H]. Returns a [2H] vector holding [h_new ; c_new]; slice the halves
// apart with SliceVec. Each gate sums b + DotUnrolled(W_x, x) +
// DotUnrolled(W_h, h_prev): mathematically the composed Affine-over-concat
// form (kept in tests/reference_kernels.h as its reference), with a
// different floating-point association. Lstm::ForwardAll runs it per step.
Tensor LstmCellFused(const Tensor& x, const Tensor& h_prev,
                     const Tensor& c_prev, const Tensor& wf, const Tensor& wi,
                     const Tensor& wo, const Tensor& wc, const Tensor& bf,
                     const Tensor& bi, const Tensor& bo, const Tensor& bc);

// Contiguous sub-range [begin, end) of a 1-D vector as a 1-D vector
// (gradient scatters back into the range).
Tensor SliceVec(const Tensor& a, size_t begin, size_t end);

// --- Losses ----------------------------------------------------------------

// Mean absolute error between two same-shaped tensors -> scalar.
Tensor MaeLoss(const Tensor& pred, const Tensor& target);
// Euclidean distance ||a-b||_2 -> scalar (the paper's auxiliaryloss).
Tensor EuclideanDistance(const Tensor& a, const Tensor& b);

}  // namespace deepod::nn

#endif  // DEEPOD_NN_OPS_H_
