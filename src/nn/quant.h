#ifndef DEEPOD_NN_QUANT_H_
#define DEEPOD_NN_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"

// Weight quantisation for the predict-only serving path.
//
// The quantised tiers are *fake-quant*: weights are rounded to the target
// dtype's representable values and immediately dequantised back into the
// regular fp64 parameter storage. The one set of fp64 kernels then runs
// unchanged on the snapped values, so quantisation needs no int8/f16
// compute kernels. The accuracy contract is a value tolerance against the
// fp64 goldens (an explicit MAE budget, tests/quant_test.cc), never
// bit-identity.
//
// Eligibility: only trainable tensors with ndim >= 2 are quantised —
// embedding tables, linear / LSTM / conv weights. Biases, BatchNorm
// gamma/beta, all buffers (running stats, config scalars, the speed field)
// stay fp64; they are tiny and disproportionately accuracy-critical.
//
// Training never quantises. The one place a mode is applied is the
// state-dict writer (SaveStateDict/SerializeStateDict with a QuantMode,
// reached through io::WriteModelArtifact and `deepod_train --quant`): the
// f16/int8 records it writes are the quantised model, and the loader
// dequantises them into the predict-only model's fp64 storage.

namespace deepod::nn {

enum class QuantMode : uint8_t {
  kNone = 0,  // fp64 weights untouched
  kFp16 = 1,  // IEEE binary16 round-trip (round-to-nearest-even)
  kInt8 = 2,  // symmetric int8, one absmax scale per leading-dim row
};

// "none" / "fp16" / "int8".
const char* QuantModeName(QuantMode mode);

// Parses the names accepted on tool command lines ("none"/"fp64" -> kNone,
// "fp16"/"f16"/"half" -> kFp16, "int8"/"i8" -> kInt8). Returns false (and
// leaves *out untouched) for anything else.
bool ParseQuantMode(const std::string& text, QuantMode* out);

// --- IEEE binary16 codec -----------------------------------------------------

// Round-to-nearest-even conversion via float; handles denormals, overflow
// to infinity, and NaN. The round trip HalfToDouble(HalfFromDouble(x)) is
// exactly the value stored in an f16 artifact record.
uint16_t HalfFromDouble(double value);
double HalfToDouble(uint16_t half);

// --- Symmetric per-row int8 --------------------------------------------------

// Quantises a [rows, cols] row-major matrix: scale[r] = absmax(row r) / 127
// (0.0 for an all-zero row, which quantises to all zeros), q = round(x /
// scale) clamped to [-127, 127]. Dequantisation is q * scale.
void QuantizeInt8(const double* data, size_t rows, size_t cols,
                  double* scales, int8_t* q);

// In-place fake quantisation of one tensor's storage (see QuantizeInt8 /
// the f16 codec). `rows` is the leading dimension for int8 scales.
void FakeQuantizeValues(double* data, size_t rows, size_t cols,
                        QuantMode mode);

// Returns true when a state-dict entry is subject to weight quantisation
// (trainable and ndim >= 2).
bool QuantEligible(const StateDict::Entry& entry);

}  // namespace deepod::nn

#endif  // DEEPOD_NN_QUANT_H_
