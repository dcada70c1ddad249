#ifndef DEEPOD_IO_TRIP_STORE_H_
#define DEEPOD_IO_TRIP_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/serialize.h"
#include "traj/trajectory.h"

namespace deepod::io {

// Compact columnar binary format for trip records — the on-disk shape the
// million-trip data plane trains from. Unlike the row-oriented CSV
// interchange format (trip_io.h), the store lays every field out as a
// contiguous column so a reader can mmap the file and serve zero-copy
// column scans and O(1) random record access.
//
// Byte layout (version 2, all integers little-endian, every block 8-byte
// aligned; `n` trips, `m` total route elements):
//
//   u32  magic       0xd33b7301 ("deepod trip store, generation 1")
//   u32  version     2
//   u64  n           number of trips
//   u64  m           total path elements across all trips
//   fixed-width column blocks, in this order:
//     f64  depart[n]              od.departure_time
//     f64  origin_x[n] origin_y[n] dest_x[n] dest_y[n]
//     f64  travel_time[n]
//     f64  od_origin_ratio[n] od_dest_ratio[n]
//     f64  traj_origin_ratio[n] traj_dest_ratio[n]
//     u64  route_begin[n+1]       trip i's route = arena [begin[i], begin[i+1])
//     i32  weather[n]             (padded to 8 bytes)
//     u32  origin_seg[n] dest_seg[n]   (0xFFFFFFFF = road::kInvalidId; padded)
//   route arena (struct-of-arrays):
//     u32  seg[m]                 (padded to 8 bytes)
//     f64  enter[m]
//     f64  exit[m]
//   u64  checksum of every preceding byte: XXH64, seed 0 (nn/checksum.h)
//
// Version policy (as for state dicts, nn/serialize.h): every store is
// written and read as version 2, and the reader hashes the mapped bytes in
// one pass. The retired version 1 (the same layout sealed with FNV-1a 64)
// reads as kBadVersion; such a corpus is regenerated.
//
// The format reuses the nn/serialize typed-error vocabulary (LoadStatus /
// LoadErrorKind / SerializeError): bad magic, bad version, truncation,
// trailing bytes and checksum mismatches are reported before any record is
// handed out. Round-trips are bit-identical: every f64 lands on disk as its
// exact bit pattern, OD-only records (empty route) and kInvalidId matched
// segments are preserved.

inline constexpr uint32_t kTripStoreMagic = 0xd33b7301u;
inline constexpr uint32_t kTripStoreVersion = 2;
// u32 encoding of road::kInvalidId segment ids.
inline constexpr uint32_t kTripStoreInvalidSeg = 0xFFFFFFFFu;

// Serialises trips into one self-contained buffer (header + columns +
// arena + checksum). Throws std::invalid_argument when a segment id is
// neither road::kInvalidId nor representable in 32 bits.
std::vector<uint8_t> SerializeTripStore(std::span<const traj::TripRecord> trips);

// Byte size SerializeTripStore would produce for (num_trips, route_elems).
size_t TripStoreBytes(size_t num_trips, size_t route_elems);

// Writes SerializeTripStore(trips) to `path`. kIoError status on failure.
nn::LoadStatus WriteTripStore(const std::string& path,
                              std::span<const traj::TripRecord> trips);

// Splits `trips` into `num_shards` contiguous chunks
// (util::ThreadPool::ChunkRange split) and writes one store per chunk to
// "<dir>/<prefix>-<k>.trips". Returns the shard paths. Throws
// nn::SerializeError on the first write failure.
std::vector<std::string> WriteTripShards(const std::string& dir,
                                         const std::string& prefix,
                                         std::span<const traj::TripRecord> trips,
                                         size_t num_shards);

// Read-only view of one store file. Open maps the file read-only (mmap;
// a heap read is the fallback when mapping fails) and validates framing +
// checksum up front, so Get/column accessors never fail afterwards. All
// const accessors are safe to call concurrently.
class TripStoreReader {
 public:
  TripStoreReader() = default;
  ~TripStoreReader();
  TripStoreReader(TripStoreReader&& other) noexcept;
  TripStoreReader& operator=(TripStoreReader&& other) noexcept;
  TripStoreReader(const TripStoreReader&) = delete;
  TripStoreReader& operator=(const TripStoreReader&) = delete;

  // Validates and indexes `path`, checksum included (one sequential read
  // of the map). Any error leaves the reader empty.
  nn::LoadStatus Open(const std::string& path);
  // Open + throw nn::SerializeError on failure.
  static TripStoreReader OpenOrThrow(const std::string& path);

  bool is_open() const { return base_ != nullptr; }
  // True when the file is served by an actual memory map (vs heap fallback).
  bool mapped() const { return mapped_; }

  size_t size() const { return num_trips_; }
  size_t route_elements() const { return route_elems_; }

  // Materialises record i. Decode reuses `out`'s path capacity — the batch
  // decode path calls it in a loop without reallocating per trip.
  traj::TripRecord Get(size_t i) const;
  void Decode(size_t i, traj::TripRecord* out) const;
  std::vector<traj::TripRecord> ReadAll() const;

  // Zero-copy column views (valid while the reader is open).
  std::span<const double> departs() const { return {depart_, num_trips_}; }
  std::span<const double> travel_times() const {
    return {travel_time_, num_trips_};
  }
  std::span<const uint64_t> route_begins() const {
    return {route_begin_, num_trips_ + 1};
  }

 private:
  void Reset();
  // Binds the typed column pointers into base_; validates framing.
  nn::LoadStatus Index(const std::string& path);

  const uint8_t* base_ = nullptr;
  size_t bytes_ = 0;
  bool mapped_ = false;
  std::vector<uint8_t> heap_;  // fallback storage when mmap fails

  size_t num_trips_ = 0;
  size_t route_elems_ = 0;
  const double* depart_ = nullptr;
  const double* origin_x_ = nullptr;
  const double* origin_y_ = nullptr;
  const double* dest_x_ = nullptr;
  const double* dest_y_ = nullptr;
  const double* travel_time_ = nullptr;
  const double* od_origin_ratio_ = nullptr;
  const double* od_dest_ratio_ = nullptr;
  const double* traj_origin_ratio_ = nullptr;
  const double* traj_dest_ratio_ = nullptr;
  const uint64_t* route_begin_ = nullptr;
  const int32_t* weather_ = nullptr;
  const uint32_t* origin_seg_ = nullptr;
  const uint32_t* dest_seg_ = nullptr;
  const uint32_t* arena_seg_ = nullptr;
  const double* arena_enter_ = nullptr;
  const double* arena_exit_ = nullptr;
};

}  // namespace deepod::io

#endif  // DEEPOD_IO_TRIP_STORE_H_
