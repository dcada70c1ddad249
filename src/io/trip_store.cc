#include "io/trip_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/thread_pool.h"

namespace deepod::io {
namespace {

using nn::LoadErrorKind;
using nn::LoadStatus;

size_t Align8(size_t offset) { return (offset + 7) & ~size_t{7}; }

// Header: magic, version, num_trips, route_elems.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;

// Offsets of every column block for (n trips, m route elements). Mirrored
// exactly by the writer and the reader so there is no offset table on disk.
struct Layout {
  size_t depart, origin_x, origin_y, dest_x, dest_y, travel_time;
  size_t od_origin_ratio, od_dest_ratio, traj_origin_ratio, traj_dest_ratio;
  size_t route_begin, weather, origin_seg, dest_seg;
  size_t arena_seg, arena_enter, arena_exit;
  size_t checksum;  // trailing u64
  size_t total;     // file size in bytes
};

Layout ComputeLayout(size_t n, size_t m) {
  Layout l{};
  size_t at = kHeaderBytes;
  auto block = [&](size_t elem_bytes, size_t count) {
    const size_t offset = at;
    at = Align8(at + elem_bytes * count);
    return offset;
  };
  l.depart = block(8, n);
  l.origin_x = block(8, n);
  l.origin_y = block(8, n);
  l.dest_x = block(8, n);
  l.dest_y = block(8, n);
  l.travel_time = block(8, n);
  l.od_origin_ratio = block(8, n);
  l.od_dest_ratio = block(8, n);
  l.traj_origin_ratio = block(8, n);
  l.traj_dest_ratio = block(8, n);
  l.route_begin = block(8, n + 1);
  l.weather = block(4, n);
  l.origin_seg = block(4, n);
  l.dest_seg = block(4, n);
  l.arena_seg = block(4, m);
  l.arena_enter = block(8, m);
  l.arena_exit = block(8, m);
  l.checksum = at;
  l.total = at + 8;
  return l;
}

uint32_t EncodeSeg(size_t segment_id) {
  if (segment_id == road::kInvalidId) return kTripStoreInvalidSeg;
  if (segment_id >= kTripStoreInvalidSeg) {
    throw std::invalid_argument(
        "trip_store: segment id " + std::to_string(segment_id) +
        " does not fit the 32-bit column");
  }
  return static_cast<uint32_t>(segment_id);
}

size_t DecodeSeg(uint32_t encoded) {
  return encoded == kTripStoreInvalidSeg ? road::kInvalidId
                                         : static_cast<size_t>(encoded);
}

}  // namespace

size_t TripStoreBytes(size_t num_trips, size_t route_elems) {
  return ComputeLayout(num_trips, route_elems).total;
}

std::vector<uint8_t> SerializeTripStore(
    std::span<const traj::TripRecord> trips) {
  const size_t n = trips.size();
  size_t m = 0;
  for (const auto& trip : trips) m += trip.trajectory.path.size();
  const Layout l = ComputeLayout(n, m);
  std::vector<uint8_t> buffer(l.total, 0);
  uint8_t* base = buffer.data();

  const uint32_t magic = kTripStoreMagic;
  const uint32_t version = kTripStoreVersion;
  const uint64_t n64 = n, m64 = m;
  std::memcpy(base + 0, &magic, 4);
  std::memcpy(base + 4, &version, 4);
  std::memcpy(base + 8, &n64, 8);
  std::memcpy(base + 16, &m64, 8);

  auto f64 = [&](size_t offset) { return reinterpret_cast<double*>(base + offset); };
  auto u64 = [&](size_t offset) { return reinterpret_cast<uint64_t*>(base + offset); };
  auto u32 = [&](size_t offset) { return reinterpret_cast<uint32_t*>(base + offset); };
  auto i32 = [&](size_t offset) { return reinterpret_cast<int32_t*>(base + offset); };

  size_t arena_at = 0;
  for (size_t i = 0; i < n; ++i) {
    const traj::TripRecord& t = trips[i];
    f64(l.depart)[i] = t.od.departure_time;
    f64(l.origin_x)[i] = t.od.origin.x;
    f64(l.origin_y)[i] = t.od.origin.y;
    f64(l.dest_x)[i] = t.od.destination.x;
    f64(l.dest_y)[i] = t.od.destination.y;
    f64(l.travel_time)[i] = t.travel_time;
    f64(l.od_origin_ratio)[i] = t.od.origin_ratio;
    f64(l.od_dest_ratio)[i] = t.od.dest_ratio;
    f64(l.traj_origin_ratio)[i] = t.trajectory.origin_ratio;
    f64(l.traj_dest_ratio)[i] = t.trajectory.dest_ratio;
    i32(l.weather)[i] = t.od.weather_type;
    u32(l.origin_seg)[i] = EncodeSeg(t.od.origin_segment);
    u32(l.dest_seg)[i] = EncodeSeg(t.od.dest_segment);
    u64(l.route_begin)[i] = arena_at;
    for (const traj::PathElement& e : t.trajectory.path) {
      u32(l.arena_seg)[arena_at] = EncodeSeg(e.segment_id);
      f64(l.arena_enter)[arena_at] = e.enter;
      f64(l.arena_exit)[arena_at] = e.exit;
      ++arena_at;
    }
  }
  u64(l.route_begin)[n] = arena_at;

  const uint64_t checksum =
      nn::Fnv1a64(nn::kFnv1a64Offset, base, l.checksum);
  std::memcpy(base + l.checksum, &checksum, 8);
  return buffer;
}

nn::LoadStatus WriteTripStore(const std::string& path,
                              std::span<const traj::TripRecord> trips) {
  const std::vector<uint8_t> buffer = SerializeTripStore(trips);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return LoadStatus::Error(LoadErrorKind::kIoError,
                             "trip_store: cannot open " + path + " for write");
  }
  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
  if (!out) {
    return LoadStatus::Error(LoadErrorKind::kIoError,
                             "trip_store: short write to " + path);
  }
  return LoadStatus::Ok();
}

std::vector<std::string> WriteTripShards(
    const std::string& dir, const std::string& prefix,
    std::span<const traj::TripRecord> trips, size_t num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("WriteTripShards: num_shards must be > 0");
  }
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  paths.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    const auto [begin, end] =
        util::ThreadPool::ChunkRange(trips.size(), num_shards, k);
    std::string path = dir + "/" + prefix + "-" + std::to_string(k) + ".trips";
    nn::ThrowIfError(WriteTripStore(path, trips.subspan(begin, end - begin)));
    paths.push_back(std::move(path));
  }
  return paths;
}

// --- Reader ------------------------------------------------------------------

TripStoreReader::~TripStoreReader() { Reset(); }

TripStoreReader::TripStoreReader(TripStoreReader&& other) noexcept {
  *this = std::move(other);
}

TripStoreReader& TripStoreReader::operator=(TripStoreReader&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  // Steal the mapping/heap then re-bind the column pointers: the heap's
  // data() survives the vector move, and the mmap base is unchanged, so a
  // straight member copy is valid either way.
  base_ = other.base_;
  bytes_ = other.bytes_;
  mapped_ = other.mapped_;
  heap_ = std::move(other.heap_);
  num_trips_ = other.num_trips_;
  route_elems_ = other.route_elems_;
  depart_ = other.depart_;
  origin_x_ = other.origin_x_;
  origin_y_ = other.origin_y_;
  dest_x_ = other.dest_x_;
  dest_y_ = other.dest_y_;
  travel_time_ = other.travel_time_;
  od_origin_ratio_ = other.od_origin_ratio_;
  od_dest_ratio_ = other.od_dest_ratio_;
  traj_origin_ratio_ = other.traj_origin_ratio_;
  traj_dest_ratio_ = other.traj_dest_ratio_;
  route_begin_ = other.route_begin_;
  weather_ = other.weather_;
  origin_seg_ = other.origin_seg_;
  dest_seg_ = other.dest_seg_;
  arena_seg_ = other.arena_seg_;
  arena_enter_ = other.arena_enter_;
  arena_exit_ = other.arena_exit_;
  other.base_ = nullptr;
  other.bytes_ = 0;
  other.mapped_ = false;
  other.num_trips_ = 0;
  other.route_elems_ = 0;
  return *this;
}

void TripStoreReader::Reset() {
  if (mapped_ && base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), bytes_);
  }
  base_ = nullptr;
  bytes_ = 0;
  mapped_ = false;
  heap_.clear();
  heap_.shrink_to_fit();
  num_trips_ = 0;
  route_elems_ = 0;
}

nn::LoadStatus TripStoreReader::Open(const std::string& path,
                                     bool verify_checksum) {
  Reset();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return LoadStatus::Error(LoadErrorKind::kIoError,
                             "trip_store: cannot open " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return LoadStatus::Error(LoadErrorKind::kIoError,
                             "trip_store: cannot stat " + path);
  }
  bytes_ = static_cast<size_t>(st.st_size);
  void* map = bytes_ > 0
                  ? ::mmap(nullptr, bytes_, PROT_READ, MAP_PRIVATE, fd, 0)
                  : MAP_FAILED;
  if (map != MAP_FAILED) {
    base_ = static_cast<const uint8_t*>(map);
    mapped_ = true;
  } else {
    // Fallback for filesystems without mmap support: plain heap read.
    heap_.resize(bytes_);
    size_t got = 0;
    while (got < bytes_) {
      const ssize_t r = ::read(fd, heap_.data() + got, bytes_ - got);
      if (r <= 0) {
        ::close(fd);
        Reset();
        return LoadStatus::Error(LoadErrorKind::kIoError,
                                 "trip_store: short read of " + path);
      }
      got += static_cast<size_t>(r);
    }
    base_ = heap_.data();
    mapped_ = false;
  }
  ::close(fd);
  LoadStatus status = Index(path, verify_checksum);
  if (!status.ok()) Reset();
  return status;
}

nn::LoadStatus TripStoreReader::Index(const std::string& path,
                                      bool verify_checksum) {
  if (bytes_ < kHeaderBytes + 8) {
    return LoadStatus::Error(
        LoadErrorKind::kTruncated,
        "trip_store: " + path + " is shorter than the header");
  }
  uint32_t magic = 0, version = 0;
  uint64_t n = 0, m = 0;
  std::memcpy(&magic, base_ + 0, 4);
  std::memcpy(&version, base_ + 4, 4);
  std::memcpy(&n, base_ + 8, 8);
  std::memcpy(&m, base_ + 16, 8);
  if (magic != kTripStoreMagic) {
    return LoadStatus::Error(LoadErrorKind::kBadMagic,
                             "trip_store: " + path + " is not a trip store");
  }
  if (version != kTripStoreVersion) {
    return LoadStatus::Error(
        LoadErrorKind::kBadVersion,
        "trip_store: " + path + " has unsupported version " +
            std::to_string(version));
  }
  // Overflow-safe framing check before trusting the counts.
  if (n > bytes_ / 8 || m > bytes_ / 8) {
    return LoadStatus::Error(LoadErrorKind::kTruncated,
                             "trip_store: " + path +
                                 " header counts exceed the file size");
  }
  const Layout l = ComputeLayout(n, m);
  if (bytes_ < l.total) {
    return LoadStatus::Error(
        LoadErrorKind::kTruncated,
        "trip_store: " + path + " ends inside the column blocks (" +
            std::to_string(bytes_) + " of " + std::to_string(l.total) +
            " bytes)");
  }
  if (bytes_ > l.total) {
    return LoadStatus::Error(
        LoadErrorKind::kTrailingBytes,
        "trip_store: " + path + " carries " +
            std::to_string(bytes_ - l.total) + " trailing byte(s)");
  }
  if (verify_checksum) {
    uint64_t stored = 0;
    std::memcpy(&stored, base_ + l.checksum, 8);
    const uint64_t computed =
        nn::Fnv1a64(nn::kFnv1a64Offset, base_, l.checksum);
    if (stored != computed) {
      return LoadStatus::Error(LoadErrorKind::kBadChecksum,
                               "trip_store: " + path + " checksum mismatch");
    }
  }
  num_trips_ = n;
  route_elems_ = m;
  auto f64 = [&](size_t offset) {
    return reinterpret_cast<const double*>(base_ + offset);
  };
  depart_ = f64(l.depart);
  origin_x_ = f64(l.origin_x);
  origin_y_ = f64(l.origin_y);
  dest_x_ = f64(l.dest_x);
  dest_y_ = f64(l.dest_y);
  travel_time_ = f64(l.travel_time);
  od_origin_ratio_ = f64(l.od_origin_ratio);
  od_dest_ratio_ = f64(l.od_dest_ratio);
  traj_origin_ratio_ = f64(l.traj_origin_ratio);
  traj_dest_ratio_ = f64(l.traj_dest_ratio);
  route_begin_ = reinterpret_cast<const uint64_t*>(base_ + l.route_begin);
  weather_ = reinterpret_cast<const int32_t*>(base_ + l.weather);
  origin_seg_ = reinterpret_cast<const uint32_t*>(base_ + l.origin_seg);
  dest_seg_ = reinterpret_cast<const uint32_t*>(base_ + l.dest_seg);
  arena_seg_ = reinterpret_cast<const uint32_t*>(base_ + l.arena_seg);
  arena_enter_ = f64(l.arena_enter);
  arena_exit_ = f64(l.arena_exit);
  // The route index must be monotone and end exactly at the arena size, or
  // Decode could read out of bounds.
  uint64_t prev = 0;
  for (size_t i = 0; i <= num_trips_; ++i) {
    if (route_begin_[i] < prev || route_begin_[i] > route_elems_) {
      return LoadStatus::Error(
          LoadErrorKind::kTruncated,
          "trip_store: " + path + " has a corrupt route index at trip " +
              std::to_string(i));
    }
    prev = route_begin_[i];
  }
  if (num_trips_ > 0 && route_begin_[num_trips_] != route_elems_) {
    return LoadStatus::Error(
        LoadErrorKind::kTruncated,
        "trip_store: " + path + " route index does not cover the arena");
  }
  return LoadStatus::Ok();
}

TripStoreReader TripStoreReader::OpenOrThrow(const std::string& path,
                                             bool verify_checksum) {
  TripStoreReader reader;
  nn::ThrowIfError(reader.Open(path, verify_checksum));
  return reader;
}

void TripStoreReader::Decode(size_t i, traj::TripRecord* out) const {
  if (i >= num_trips_) {
    throw std::out_of_range("TripStoreReader::Decode: index " +
                            std::to_string(i) + " >= " +
                            std::to_string(num_trips_));
  }
  out->od.departure_time = depart_[i];
  out->od.origin = {origin_x_[i], origin_y_[i]};
  out->od.destination = {dest_x_[i], dest_y_[i]};
  out->od.weather_type = weather_[i];
  out->od.origin_segment = DecodeSeg(origin_seg_[i]);
  out->od.dest_segment = DecodeSeg(dest_seg_[i]);
  out->od.origin_ratio = od_origin_ratio_[i];
  out->od.dest_ratio = od_dest_ratio_[i];
  out->travel_time = travel_time_[i];
  out->trajectory.origin_ratio = traj_origin_ratio_[i];
  out->trajectory.dest_ratio = traj_dest_ratio_[i];
  const size_t begin = route_begin_[i];
  const size_t end = route_begin_[i + 1];
  out->trajectory.path.resize(end - begin);
  for (size_t e = begin; e < end; ++e) {
    traj::PathElement& elem = out->trajectory.path[e - begin];
    elem.segment_id = DecodeSeg(arena_seg_[e]);
    elem.enter = arena_enter_[e];
    elem.exit = arena_exit_[e];
  }
}

traj::TripRecord TripStoreReader::Get(size_t i) const {
  traj::TripRecord record;
  Decode(i, &record);
  return record;
}

std::vector<traj::TripRecord> TripStoreReader::ReadAll() const {
  std::vector<traj::TripRecord> trips(num_trips_);
  for (size_t i = 0; i < num_trips_; ++i) Decode(i, &trips[i]);
  return trips;
}

}  // namespace deepod::io
