#include "nn/checksum.h"

#include <cstring>

namespace deepod::nn {
namespace {

constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

constexpr size_t kStripe = 32;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

// Little-endian loads, as the formats store every integer.
uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t lane) {
  return Rotl(acc + lane * kP2, 31) * kP1;
}

uint64_t MergeLane(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kP1 + kP4;
}

// Consumes whole stripes from `p`; returns the bytes consumed.
size_t ConsumeStripes(uint64_t lanes[4], const uint8_t* p, size_t size) {
  uint64_t v0 = lanes[0], v1 = lanes[1], v2 = lanes[2], v3 = lanes[3];
  size_t done = 0;
  for (; size - done >= kStripe; done += kStripe) {
    v0 = Round(v0, Load64(p + done));
    v1 = Round(v1, Load64(p + done + 8));
    v2 = Round(v2, Load64(p + done + 16));
    v3 = Round(v3, Load64(p + done + 24));
  }
  lanes[0] = v0, lanes[1] = v1, lanes[2] = v2, lanes[3] = v3;
  return done;
}

}  // namespace

void Xxh64::Update(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  total_ += size;
  if (tail_size_ + size < kStripe) {
    if (size > 0) std::memcpy(tail_ + tail_size_, p, size);
    tail_size_ += size;
    return;
  }
  if (tail_size_ > 0) {
    const size_t fill = kStripe - tail_size_;
    std::memcpy(tail_ + tail_size_, p, fill);
    ConsumeStripes(lanes_, tail_, kStripe);
    p += fill;
    size -= fill;
    tail_size_ = 0;
  }
  const size_t done = ConsumeStripes(lanes_, p, size);
  tail_size_ = size - done;
  if (tail_size_ > 0) std::memcpy(tail_, p + done, tail_size_);
}

uint64_t Xxh64::Digest() const {
  uint64_t acc;
  if (total_ >= kStripe) {
    acc = Rotl(lanes_[0], 1) + Rotl(lanes_[1], 7) + Rotl(lanes_[2], 12) +
          Rotl(lanes_[3], 18);
    for (const uint64_t lane : lanes_) acc = MergeLane(acc, lane);
  } else {
    acc = kP5;  // the seed (0) plus prime 5
  }
  acc += total_;
  const uint8_t* p = tail_;
  size_t left = tail_size_;
  for (; left >= 8; p += 8, left -= 8) {
    acc = Rotl(acc ^ Round(0, Load64(p)), 27) * kP1 + kP4;
  }
  if (left >= 4) {
    acc = Rotl(acc ^ (Load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    acc = Rotl(acc ^ (*p * kP5), 11) * kP1;
  }
  acc ^= acc >> 33;
  acc *= kP2;
  acc ^= acc >> 29;
  acc *= kP3;
  acc ^= acc >> 32;
  return acc;
}

}  // namespace deepod::nn
