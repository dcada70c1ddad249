#include "cli_flags.h"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace deepod::tools::cli {
namespace {

// An unsigned decimal that fills all of `text`. strtoull skips leading space
// and accepts a sign — negating "-1" to ULLONG_MAX without setting errno —
// so the first character must be a digit.
bool ParseUnsigned(const std::string& text, unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || errno != 0 ||
      *end != '\0') {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

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
  unsigned long long parsed = 0;
  if (!ParseUnsigned(v, &parsed)) {
    std::fprintf(stderr, "%s expects an unsigned integer, got '%s'\n",
                 flag_.c_str(), v);
    return false;
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

bool FlagCursor::NetworkIdsValue(std::vector<uint32_t>* out) {
  const char* v = TakeRaw();
  if (v == nullptr) return false;
  const std::string list = v;
  std::vector<uint32_t> ids;
  for (size_t start = 0; start <= list.size();) {
    const size_t comma = std::min(list.find(',', start), list.size());
    unsigned long long id = 0;
    if (!ParseUnsigned(list.substr(start, comma - start), &id) ||
        id > UINT32_MAX) {
      std::fprintf(stderr,
                   "%s expects a comma-separated list of network ids in "
                   "0..%u, got '%s'\n",
                   flag_.c_str(), UINT32_MAX, v);
      return false;
    }
    ids.push_back(static_cast<uint32_t>(id));
    start = comma + 1;
  }
  *out = std::move(ids);
  return true;
}

bool FlagCursor::IntValue(int* out) {
  const char* v = TakeRaw();
  if (v == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || parsed < INT_MIN ||
      parsed > INT_MAX) {
    std::fprintf(stderr, "%s expects an integer in %d..%d, got '%s'\n",
                 flag_.c_str(), INT_MIN, INT_MAX, v);
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

bool FlagCursor::PositiveValue(double* out) {
  double v = 0.0;
  if (!DoubleValue(&v)) return false;
  if (!std::isfinite(v) || v <= 0.0) {
    std::fprintf(stderr, "%s expects a finite number > 0, got %g\n",
                 flag_.c_str(), v);
    return false;
  }
  *out = v;
  return true;
}

bool FlagCursor::NonNegativeValue(double* out) {
  double v = 0.0;
  if (!DoubleValue(&v)) return false;
  if (!std::isfinite(v) || v < 0.0) {
    std::fprintf(stderr, "%s expects a finite number >= 0, got %g\n",
                 flag_.c_str(), v);
    return false;
  }
  *out = v;
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

const char* FlagCursor::ToleranceHelp() { return "--tolerance X"; }

}  // namespace deepod::tools::cli
