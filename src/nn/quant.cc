#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace deepod::nn {
namespace {

float HalfToFloat(uint16_t half) {
  const uint32_t sign = static_cast<uint32_t>(half & 0x8000u) << 16;
  const uint32_t exp = (half >> 10) & 0x1fu;
  const uint32_t mant = half & 0x3ffu;
  uint32_t bits;
  if (exp == 0x1fu) {
    bits = sign | 0x7f800000u | (mant << 13);  // Inf / NaN
  } else if (exp != 0u) {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);  // normal
  } else if (mant != 0u) {
    // Denormal: value = mant * 2^-24. Exact in float.
    float f = static_cast<float>(mant) * 0x1p-24f;
    std::memcpy(&bits, &f, sizeof(bits));
    bits |= sign;
  } else {
    bits = sign;  // +-0
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

}  // namespace

const char* QuantModeName(QuantMode mode) {
  switch (mode) {
    case QuantMode::kNone:
      return "none";
    case QuantMode::kFp16:
      return "fp16";
    case QuantMode::kInt8:
      return "int8";
  }
  return "none";
}

bool ParseQuantMode(const std::string& text, QuantMode* out) {
  if (text == "none" || text == "fp64") {
    *out = QuantMode::kNone;
  } else if (text == "fp16" || text == "f16" || text == "half") {
    *out = QuantMode::kFp16;
  } else if (text == "int8" || text == "i8") {
    *out = QuantMode::kInt8;
  } else {
    return false;
  }
  return true;
}

uint16_t HalfFromDouble(double value) {
  // Rounds straight from the double representation. Going through float
  // first would double-round: a double just above a half tie point (e.g.
  // 1 + 2^-11 + 2^-30) lands exactly ON the tie after the float rounding,
  // and ties-to-even then resolves it the wrong way.
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint16_t sign = static_cast<uint16_t>((bits >> 48) & 0x8000u);
  bits &= 0x7fffffffffffffffull;  // drop sign
  if (bits >= 0x7ff0000000000000ull) {
    // Inf / NaN: keep a NaN payload bit so NaN stays NaN.
    const uint16_t mantissa = bits > 0x7ff0000000000000ull ? 0x0200u : 0u;
    return static_cast<uint16_t>(sign | 0x7c00u | mantissa);
  }
  if (bits >= 0x40effe0000000000ull) {
    // |x| >= 65520 rounds to >= 2^16: overflow to half infinity.
    return static_cast<uint16_t>(sign | 0x7c00u);
  }
  if (bits < 0x3f10000000000000ull) {
    // Half-denormal range (|x| < 2^-14), including zero: the half value is
    // mantissa * 2^-24, so scale by 2^24 (exact, power of two) and round
    // to integer under the current rounding mode (RNE by default).
    double f;
    std::memcpy(&f, &bits, sizeof(f));
    const uint32_t mantissa =
        static_cast<uint32_t>(std::nearbyint(f * 0x1p+24));
    // mantissa == 0x400 means the value rounded up into the smallest
    // normal — and sign | 0x400 encodes exactly that (exponent 1, mant 0).
    return static_cast<uint16_t>(sign | mantissa);
  }
  // Normal range: round the mantissa from 52 to 10 bits with RNE.
  const uint64_t mant_odd = (bits >> 42) & 1u;
  bits += 0x1ffffffffffull + mant_odd;  // RNE bias: 2^41 - 1 (+1 when odd)
  bits -= 0x3f00000000000000ull;        // rebias exponent (1023 -> 15)
  return static_cast<uint16_t>(sign | (bits >> 42));
}

double HalfToDouble(uint16_t half) {
  return static_cast<double>(HalfToFloat(half));
}

void QuantizeInt8(const double* data, size_t rows, size_t cols,
                  double* scales, int8_t* q) {
  for (size_t r = 0; r < rows; ++r) {
    const double* row = data + r * cols;
    double absmax = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      absmax = std::max(absmax, std::fabs(row[j]));
    }
    const double scale = absmax > 0.0 ? absmax / 127.0 : 0.0;
    scales[r] = scale;
    int8_t* qrow = q + r * cols;
    if (scale == 0.0) {
      std::fill(qrow, qrow + cols, static_cast<int8_t>(0));
      continue;
    }
    const double inv = 1.0 / scale;
    for (size_t j = 0; j < cols; ++j) {
      const double scaled = std::nearbyint(row[j] * inv);
      qrow[j] = static_cast<int8_t>(std::clamp(scaled, -127.0, 127.0));
    }
  }
}

void FakeQuantizeValues(double* data, size_t rows, size_t cols,
                        QuantMode mode) {
  const size_t n = rows * cols;
  switch (mode) {
    case QuantMode::kNone:
      return;
    case QuantMode::kFp16:
      for (size_t i = 0; i < n; ++i) {
        data[i] = HalfToDouble(HalfFromDouble(data[i]));
      }
      return;
    case QuantMode::kInt8: {
      std::vector<double> scales(rows);
      std::vector<int8_t> q(n);
      QuantizeInt8(data, rows, cols, scales.data(), q.data());
      for (size_t r = 0; r < rows; ++r) {
        for (size_t j = 0; j < cols; ++j) {
          data[r * cols + j] = static_cast<double>(q[r * cols + j]) * scales[r];
        }
      }
      return;
    }
  }
}

bool QuantEligible(const StateDict::Entry& entry) {
  return !entry.is_buffer && entry.shape.size() >= 2;
}

}  // namespace deepod::nn
