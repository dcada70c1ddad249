#include "io/sharded_trip_source.h"

#include <algorithm>
#include <stdexcept>

namespace deepod::io {

ShardedTripSource::ShardedTripSource(const std::vector<std::string>& shard_paths)
    : ShardedTripSource(shard_paths, Options{}) {}

ShardedTripSource::ShardedTripSource(
    const std::vector<std::string>& shard_paths, Options options)
    : window_size_(std::max<size_t>(1, options.window_size)) {
  if (shard_paths.empty()) {
    throw std::invalid_argument("ShardedTripSource: no shard paths");
  }
  readers_.reserve(shard_paths.size());
  shard_sizes_.reserve(shard_paths.size());
  shard_offsets_.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    readers_.push_back(TripStoreReader::OpenOrThrow(path));
    shard_offsets_.push_back(total_);
    shard_sizes_.push_back(readers_.back().size());
    total_ += readers_.back().size();
  }
  // Identity order until the first BeginEpoch, matching InMemoryTripFeed.
  order_.resize(total_);
  for (size_t i = 0; i < total_; ++i) order_[i] = i;
}

ShardedTripSource::~ShardedTripSource() { CancelLookahead(); }

void ShardedTripSource::BeginEpoch(util::Rng& rng) {
  CancelLookahead();
  window_valid_ = false;
  order_ = core::BuildShardEpochOrder(rng, shard_sizes_);
}

void ShardedTripSource::NotifyOrderChanged() {
  CancelLookahead();
  window_valid_ = false;
}

void ShardedTripSource::DecodeGlobal(size_t global_index,
                                     traj::TripRecord* out) const {
  // Shards are few (K is small); a linear upper-bound scan over the prefix
  // sums is cheaper than it looks.
  const auto it = std::upper_bound(shard_offsets_.begin(),
                                   shard_offsets_.end(), global_index);
  const size_t shard = static_cast<size_t>(it - shard_offsets_.begin()) - 1;
  readers_[shard].Decode(global_index - shard_offsets_[shard], out);
}

void ShardedTripSource::DecodeRange(size_t begin, size_t count,
                                    Window* out) const {
  out->begin = begin;
  out->records.resize(count);
  for (size_t i = 0; i < count; ++i) {
    DecodeGlobal(order_[begin + i], &out->records[i]);
  }
}

void ShardedTripSource::LaunchLookahead() {
  if (lookahead_.valid() || !window_valid_) return;
  const size_t next_begin = window_.begin + window_.records.size();
  if (next_begin >= total_) return;
  const size_t count = std::min(window_size_, total_ - next_begin);
  // The lookahead thread only touches const state (readers_, order_) and
  // its own Window; order_ is never mutated while a lookahead is pending
  // (BeginEpoch/NotifyOrderChanged cancel it first).
  lookahead_ = std::async(std::launch::async, [this, next_begin, count] {
    Window w;
    DecodeRange(next_begin, count, &w);
    return w;
  });
}

void ShardedTripSource::CancelLookahead() {
  if (lookahead_.valid()) lookahead_.get();
}

void ShardedTripSource::PrefetchWindow(size_t pos, size_t n) {
  if (pos + n > total_) {
    throw std::out_of_range("ShardedTripSource::PrefetchWindow past the end");
  }
  const bool covered = window_valid_ && pos >= window_.begin &&
                       pos + n <= window_.begin + window_.records.size();
  if (!covered) {
    // Adopt the async lookahead when it is exactly the window we need —
    // the common steady-state case of sequential batch consumption.
    bool adopted = false;
    if (lookahead_.valid()) {
      Window next = lookahead_.get();
      if (pos >= next.begin &&
          pos + n <= next.begin + next.records.size()) {
        window_ = std::move(next);
        window_valid_ = true;
        adopted = true;
        ++prefetch_hits_;
      }
    }
    if (!adopted) {
      DecodeRange(pos, std::min(std::max(window_size_, n), total_ - pos),
                  &window_);
      window_valid_ = true;
    }
  }
  LaunchLookahead();
}

const traj::TripRecord& ShardedTripSource::At(size_t pos) {
  if (!window_valid_ || pos < window_.begin ||
      pos >= window_.begin + window_.records.size()) {
    throw std::logic_error(
        "ShardedTripSource::At(" + std::to_string(pos) +
        ") outside the prefetched window — call PrefetchWindow first");
  }
  return window_.records[pos - window_.begin];
}

}  // namespace deepod::io
