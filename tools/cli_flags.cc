#include "cli_flags.h"

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace deepod::tools::cli {

bool FlagCursor::Next() {
  ++index_;
  if (index_ >= argc_) return false;
  flag_ = argv_[index_];
  return true;
}

const char* FlagCursor::TakeRaw() {
  if (index_ + 1 >= argc_) {
    std::fprintf(stderr, "missing value for %s\n", flag_.c_str());
    return nullptr;
  }
  return argv_[++index_];
}

bool FlagCursor::StringValue(std::string* out) {
  const char* v = TakeRaw();
  if (v == nullptr) return false;
  *out = v;
  return true;
}

bool FlagCursor::SizeValue(size_t* out) {
  const char* v = TakeRaw();
  if (v == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  // strtoull skips leading space and accepts a sign — negating "-1" to
  // ULLONG_MAX without setting errno — so the first character must be a
  // digit.
  if (!std::isdigit(static_cast<unsigned char>(v[0])) || errno != 0 ||
      *end != '\0') {
    std::fprintf(stderr, "%s expects an unsigned integer, got '%s'\n",
                 flag_.c_str(), v);
    return false;
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

bool FlagCursor::IntValue(int* out) {
  const char* v = TakeRaw();
  if (v == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0') {
    std::fprintf(stderr, "%s expects an integer, got '%s'\n", flag_.c_str(),
                 v);
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

bool FlagCursor::U64Value(uint64_t* out) {
  size_t parsed = 0;
  if (!SizeValue(&parsed)) return false;
  *out = parsed;
  return true;
}

bool FlagCursor::DoubleValue(double* out) {
  const char* v = TakeRaw();
  if (v == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0') {
    std::fprintf(stderr, "%s expects a number, got '%s'\n", flag_.c_str(), v);
    return false;
  }
  *out = parsed;
  return true;
}

bool FlagCursor::PortValue(uint16_t* out) {
  size_t parsed = 0;
  if (!SizeValue(&parsed)) return false;
  if (parsed > 65535) {
    std::fprintf(stderr, "%s expects a port in 0..65535, got %zu\n",
                 flag_.c_str(), parsed);
    return false;
  }
  *out = static_cast<uint16_t>(parsed);
  return true;
}

bool FlagCursor::QuantValue(nn::QuantMode* out) {
  const char* v = TakeRaw();
  if (v == nullptr) return false;
  if (!nn::ParseQuantMode(v, out)) {
    std::fprintf(stderr, "unknown %s mode '%s' (expected none|fp16|int8)\n",
                 flag_.c_str(), v);
    return false;
  }
  return true;
}

bool FlagCursor::KernelValue(nn::KernelMode* out) {
  const char* v = TakeRaw();
  if (v == nullptr) return false;
  const std::string name = v;
  if (name == "blocked") {
    *out = nn::KernelMode::kBlocked;
  } else if (name == "vector") {
    *out = nn::KernelMode::kVector;
  } else if (name == "simd") {
    *out = nn::KernelMode::kSimd;
  } else {
    std::fprintf(stderr,
                 "unknown %s mode '%s' (expected blocked|vector|simd)\n",
                 flag_.c_str(), v);
    return false;
  }
  return true;
}

bool FlagCursor::KernelValue(std::optional<nn::KernelMode>* out) {
  nn::KernelMode mode;
  if (!KernelValue(&mode)) return false;
  *out = mode;
  return true;
}

bool FlagCursor::ToleranceValue(double* out) {
  if (!DoubleValue(out)) return false;
  if (!(*out >= 0.0)) {
    std::fprintf(stderr, "%s must be >= 0\n", flag_.c_str());
    return false;
  }
  return true;
}

bool FlagCursor::DataDirValue(std::string* out) {
  if (!StringValue(out)) return false;
  const std::string manifest = *out + "/manifest.csv";
  struct stat st{};
  if (::stat(manifest.c_str(), &st) != 0) {
    std::fprintf(stderr,
                 "%s expects a deepod_datagen directory, but %s is missing\n",
                 flag_.c_str(), manifest.c_str());
    return false;
  }
  return true;
}

const char* FlagCursor::QuantHelp() { return "--quant none|fp16|int8"; }

const char* FlagCursor::KernelHelp() {
  return "--kernel blocked|vector|simd";
}

const char* FlagCursor::ToleranceHelp() { return "--tolerance X"; }

}  // namespace deepod::tools::cli
