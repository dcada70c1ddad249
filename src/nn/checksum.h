#ifndef DEEPOD_NN_CHECKSUM_H_
#define DEEPOD_NN_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace deepod::nn {

// The checksum that seals the repo's binary formats: a state-dict stream
// (nn/serialize.h) and a columnar .trips file (io/trip_store.h).

// XXH64 with seed 0, exactly as the xxHash specification defines it
// (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md): four
// independent 64-bit lanes consume 32-byte stripes with a rotate-multiply
// round, and a short tail buffer holds what does not fill a stripe yet, so
// any chunking of a stream gives the same digest.
class Xxh64 {
 public:
  // Folds `size` bytes into the running state.
  void Update(const void* data, size_t size);
  // The digest of every byte folded so far; the state is left as it is.
  uint64_t Digest() const;

  // One-shot digest of `size` bytes.
  static uint64_t Hash(const void* data, size_t size) {
    Xxh64 h;
    h.Update(data, size);
    return h.Digest();
  }

 private:
  static constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
  static constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;

  uint64_t lanes_[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  uint64_t total_ = 0;
  uint8_t tail_[32] = {};
  size_t tail_size_ = 0;
};

}  // namespace deepod::nn

#endif  // DEEPOD_NN_CHECKSUM_H_
