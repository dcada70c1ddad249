#ifndef DEEPOD_IO_SHARDED_TRIP_SOURCE_H_
#define DEEPOD_IO_SHARDED_TRIP_SOURCE_H_

#include <future>
#include <string>
#include <vector>

#include "core/trip_feed.h"
#include "io/trip_store.h"

namespace deepod::io {

// Out-of-core TripFeed over K on-disk trip-store shards. The shards stay
// mmap'd for the lifetime of the source; only a bounded window of decoded
// TripRecords is materialised on the heap at any time, so training memory
// no longer scales with the corpus.
//
// Epoch order: BeginEpoch rebuilds the visit order through
// core::BuildShardEpochOrder — shuffle the shard visit order, then an
// independent intra-shard permutation. A core::InMemoryTripFeed constructed
// with the same shard sizes consumes the identical RNG draws and produces
// the identical order, which is the parity contract the datagen smoke test
// asserts.
//
// Prefetch: PrefetchWindow(pos, n) guarantees positions [pos, pos+n) are
// decoded. It serves them from the current window when possible, adopts the
// asynchronously prefetched next window when it lines up, or decodes
// synchronously. After every
// call it kicks off a background decode of the *following* window, so shard
// decode overlaps with the trainer's compute on the current batch. At(pos)
// is a const read of the resident window and is safe from concurrent pool
// workers; calling it outside the prefetched range throws.
class ShardedTripSource : public core::TripFeed {
 public:
  struct Options {
    // Decoded records kept resident (clamped up to the largest PrefetchWindow
    // request). ~1k trips of a few dozen route elements ≈ a few MB.
    size_t window_size = 1024;
  };

  // Opens every shard up front, verifying each one's checksum. Throws
  // nn::SerializeError on any open failure (bad magic/checksum/truncation
  // included).
  explicit ShardedTripSource(const std::vector<std::string>& shard_paths);
  ShardedTripSource(const std::vector<std::string>& shard_paths,
                    Options options);
  ~ShardedTripSource() override;

  ShardedTripSource(const ShardedTripSource&) = delete;
  ShardedTripSource& operator=(const ShardedTripSource&) = delete;

  size_t size() const override { return total_; }
  void BeginEpoch(util::Rng& rng) override;
  const traj::TripRecord& At(size_t pos) override;
  void PrefetchWindow(size_t pos, size_t n) override;
  std::vector<size_t>& order() override { return order_; }
  void NotifyOrderChanged() override;

  size_t num_shards() const { return readers_.size(); }
  const std::vector<size_t>& shard_sizes() const { return shard_sizes_; }
  // Decoded-window fills that were served by the async lookahead.
  size_t prefetch_hits() const { return prefetch_hits_; }

 private:
  struct Window {
    size_t begin = 0;
    std::vector<traj::TripRecord> records;
  };

  // Decodes epoch positions [begin, begin+count) into `out`.
  void DecodeRange(size_t begin, size_t count, Window* out) const;
  // Decodes one global sample index.
  void DecodeGlobal(size_t global_index, traj::TripRecord* out) const;
  // Starts the async decode of the window following the resident one.
  void LaunchLookahead();
  // Joins and discards any pending lookahead.
  void CancelLookahead();

  std::vector<TripStoreReader> readers_;
  std::vector<size_t> shard_sizes_;
  std::vector<size_t> shard_offsets_;  // prefix sums; offsets_[k] = start of k
  size_t total_ = 0;
  size_t window_size_;

  std::vector<size_t> order_;
  Window window_;
  bool window_valid_ = false;
  std::future<Window> lookahead_;
  size_t prefetch_hits_ = 0;
};

}  // namespace deepod::io

#endif  // DEEPOD_IO_SHARDED_TRIP_SOURCE_H_
