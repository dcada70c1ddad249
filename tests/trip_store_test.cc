// Columnar trip-store (io/trip_store.h) round-trip and typed-error tests,
// mirroring the serialize_test.cc framing suite: every corruption mode must
// be reported with the right LoadErrorKind before any record is handed out.
#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/trip_store.h"
#include "nn/checksum.h"
#include "road/road_network.h"
#include "traj/trajectory.h"

namespace deepod {
namespace {

using nn::LoadErrorKind;
using nn::LoadStatus;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "trip_store_test_" + name;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A small corpus exercising every representational corner: ordinary matched
// trips, an OD-only record (empty route — the test-split shape), unmatched
// kInvalidId segments, negative coordinates and denormal-ish ratios.
std::vector<traj::TripRecord> SampleTrips() {
  std::vector<traj::TripRecord> trips(4);

  trips[0].od.origin = {1.25, -3.5};
  trips[0].od.destination = {7.0, 2.125};
  trips[0].od.departure_time = 86400.0 + 0.1;
  trips[0].od.origin_segment = 3;
  trips[0].od.dest_segment = 9;
  trips[0].od.origin_ratio = 0.625;
  trips[0].od.dest_ratio = 0.1;
  trips[0].od.weather_type = 2;
  trips[0].travel_time = 612.75;
  trips[0].trajectory.origin_ratio = 0.625;
  trips[0].trajectory.dest_ratio = 0.1;
  trips[0].trajectory.path = {{3, 100.0, 160.5}, {5, 160.5, 300.0},
                              {9, 300.0, 712.75}};

  // OD-only: empty trajectory, as test records are stored.
  trips[1].od.origin = {-2.0, -2.0};
  trips[1].od.destination = {0.0, 0.5};
  trips[1].od.departure_time = 3601.5;
  trips[1].od.origin_segment = 1;
  trips[1].od.dest_segment = 2;
  trips[1].od.weather_type = 1;
  trips[1].travel_time = 89.0;

  // Unmatched OD endpoints must survive the u32 sentinel encoding.
  trips[2].od.departure_time = 7200.0;
  trips[2].od.origin_segment = road::kInvalidId;
  trips[2].od.dest_segment = road::kInvalidId;
  trips[2].travel_time = 1.0 / 3.0;
  trips[2].trajectory.path = {{road::kInvalidId, 0.0, 1.0}};

  trips[3].od.departure_time = 0.0;
  trips[3].od.origin_segment = 0;
  trips[3].od.dest_segment = 0;
  trips[3].od.origin_ratio = 1e-300;
  trips[3].od.dest_ratio = 1.0;
  trips[3].travel_time = 1e6;
  trips[3].trajectory.origin_ratio = 1e-300;
  trips[3].trajectory.dest_ratio = 1.0;
  trips[3].trajectory.path = {{0, -1.5, 2.5}};
  return trips;
}

// Bit-level double equality: round-trips must preserve the exact pattern,
// not just compare equal (0.0 vs -0.0, NaN payloads).
void ExpectBitEqual(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b)) << what;
}

void ExpectTripsBitEqual(const traj::TripRecord& a, const traj::TripRecord& b,
                         size_t i) {
  const std::string at = "trip " + std::to_string(i);
  ExpectBitEqual(a.od.origin.x, b.od.origin.x, at);
  ExpectBitEqual(a.od.origin.y, b.od.origin.y, at);
  ExpectBitEqual(a.od.destination.x, b.od.destination.x, at);
  ExpectBitEqual(a.od.destination.y, b.od.destination.y, at);
  ExpectBitEqual(a.od.departure_time, b.od.departure_time, at);
  ExpectBitEqual(a.od.origin_ratio, b.od.origin_ratio, at);
  ExpectBitEqual(a.od.dest_ratio, b.od.dest_ratio, at);
  EXPECT_EQ(a.od.origin_segment, b.od.origin_segment) << at;
  EXPECT_EQ(a.od.dest_segment, b.od.dest_segment) << at;
  EXPECT_EQ(a.od.weather_type, b.od.weather_type) << at;
  ExpectBitEqual(a.travel_time, b.travel_time, at);
  ExpectBitEqual(a.trajectory.origin_ratio, b.trajectory.origin_ratio, at);
  ExpectBitEqual(a.trajectory.dest_ratio, b.trajectory.dest_ratio, at);
  ASSERT_EQ(a.trajectory.path.size(), b.trajectory.path.size()) << at;
  for (size_t k = 0; k < a.trajectory.path.size(); ++k) {
    EXPECT_EQ(a.trajectory.path[k].segment_id, b.trajectory.path[k].segment_id)
        << at;
    ExpectBitEqual(a.trajectory.path[k].enter, b.trajectory.path[k].enter, at);
    ExpectBitEqual(a.trajectory.path[k].exit, b.trajectory.path[k].exit, at);
  }
}

TEST(TripStoreTest, RoundTripIsBitExact) {
  const auto trips = SampleTrips();
  const std::string path = TempPath("roundtrip.trips");
  ASSERT_TRUE(io::WriteTripStore(path, trips).ok());

  const auto reader = io::TripStoreReader::OpenOrThrow(path);
  ASSERT_EQ(reader.size(), trips.size());
  EXPECT_EQ(reader.route_elements(), 5u);
  const auto loaded = reader.ReadAll();
  ASSERT_EQ(loaded.size(), trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    ExpectTripsBitEqual(trips[i], loaded[i], i);
  }
}

TEST(TripStoreTest, SerializedSizeMatchesPrediction) {
  const auto trips = SampleTrips();
  const auto bytes = io::SerializeTripStore(trips);
  EXPECT_EQ(bytes.size(), io::TripStoreBytes(trips.size(), 5));
}

TEST(TripStoreTest, ZeroCopyColumnsMatchRecords) {
  const auto trips = SampleTrips();
  const std::string path = TempPath("columns.trips");
  ASSERT_TRUE(io::WriteTripStore(path, trips).ok());
  const auto reader = io::TripStoreReader::OpenOrThrow(path);

  const auto departs = reader.departs();
  const auto times = reader.travel_times();
  const auto begins = reader.route_begins();
  ASSERT_EQ(departs.size(), trips.size());
  ASSERT_EQ(begins.size(), trips.size() + 1);
  EXPECT_EQ(begins.front(), 0u);
  for (size_t i = 0; i < trips.size(); ++i) {
    ExpectBitEqual(departs[i], trips[i].od.departure_time, "depart");
    ExpectBitEqual(times[i], trips[i].travel_time, "travel_time");
    EXPECT_EQ(begins[i + 1] - begins[i], trips[i].trajectory.path.size());
  }
}

TEST(TripStoreTest, EmptyStoreRoundTrips) {
  const std::string path = TempPath("empty.trips");
  ASSERT_TRUE(io::WriteTripStore(path, {}).ok());
  const auto reader = io::TripStoreReader::OpenOrThrow(path);
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.route_elements(), 0u);
  EXPECT_TRUE(reader.ReadAll().empty());
}

TEST(TripStoreTest, ShardsConcatenateToTheOriginalCorpus) {
  const auto one = SampleTrips();
  std::vector<traj::TripRecord> trips;
  for (int rep = 0; rep < 3; ++rep) {
    trips.insert(trips.end(), one.begin(), one.end());
  }
  const auto paths =
      io::WriteTripShards(testing::TempDir(), "trip_store_test_shard", trips,
                          /*num_shards=*/4);
  ASSERT_EQ(paths.size(), 4u);

  std::vector<traj::TripRecord> loaded;
  for (const auto& shard_path : paths) {
    const auto part = io::TripStoreReader::OpenOrThrow(shard_path).ReadAll();
    loaded.insert(loaded.end(), part.begin(), part.end());
  }
  ASSERT_EQ(loaded.size(), trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    ExpectTripsBitEqual(trips[i], loaded[i], i);
  }
}

TEST(TripStoreTest, SealedWithXxh64AndRewritesByteIdentical) {
  const auto trips = SampleTrips();
  const auto bytes = io::SerializeTripStore(trips);
  uint32_t version = 0;
  uint64_t stored = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  std::memcpy(&stored, bytes.data() + bytes.size() - 8, sizeof(stored));
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(stored, nn::Xxh64::Hash(bytes.data(), bytes.size() - 8));

  // Write -> Load -> Write.
  const std::string path = TempPath("rewrite.trips");
  ASSERT_TRUE(io::WriteTripStore(path, trips).ok());
  const auto loaded = io::TripStoreReader::OpenOrThrow(path).ReadAll();
  EXPECT_EQ(io::SerializeTripStore(loaded), bytes);
}

TEST(TripStoreTest, EverySingleByteFlipIsATypedError) {
  // Every offset of a small store (a routed trip and an OD-only one), XORed
  // with every non-zero byte, patched into one file in place: framing,
  // version or checksum must catch each one.
  std::vector<traj::TripRecord> trips = SampleTrips();
  trips.resize(2);
  const auto intact = io::SerializeTripStore(trips);
  const std::string path = TempPath("flip_sweep.trips");
  WriteBytes(path, intact);
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const auto patch = [fd](size_t at, uint8_t value) {
    return ::pwrite(fd, &value, 1, static_cast<off_t>(at)) == 1;
  };
  size_t accepted = 0;
  io::TripStoreReader reader;
  for (size_t at = 0; at < intact.size() && accepted <= 10; ++at) {
    for (int x = 1; x < 256; ++x) {
      ASSERT_TRUE(patch(at, static_cast<uint8_t>(intact[at] ^ x)));
      if (reader.Open(path).ok()) {
        ADD_FAILURE() << "offset " << at << " xor " << x << " opened Ok";
        ++accepted;
      }
    }
    ASSERT_TRUE(patch(at, intact[at]));
  }
  ::close(fd);
  EXPECT_EQ(accepted, 0u);
  EXPECT_TRUE(reader.Open(path).ok());
  std::remove(path.c_str());
}

TEST(TripStoreTest, OversizedSegmentIdThrows) {
  std::vector<traj::TripRecord> trips(1);
  trips[0].od.origin_segment = size_t{1} << 40;
  EXPECT_THROW(io::SerializeTripStore(trips), std::invalid_argument);
}

TEST(TripStoreTest, MissingFileReportsIoError) {
  io::TripStoreReader reader;
  const LoadStatus status = reader.Open(TempPath("does_not_exist.trips"));
  EXPECT_EQ(status.kind, LoadErrorKind::kIoError);
  EXPECT_FALSE(reader.is_open());
}

TEST(TripStoreTest, TruncationReported) {
  auto bytes = io::SerializeTripStore(SampleTrips());
  bytes.pop_back();
  const std::string path = TempPath("truncated.trips");
  WriteBytes(path, bytes);
  io::TripStoreReader reader;
  EXPECT_EQ(reader.Open(path).kind, LoadErrorKind::kTruncated);
}

TEST(TripStoreTest, HeaderShorterThanMagicReported) {
  const std::string path = TempPath("stub.trips");
  WriteBytes(path, {0x01, 0x73});
  io::TripStoreReader reader;
  EXPECT_EQ(reader.Open(path).kind, LoadErrorKind::kTruncated);
}

TEST(TripStoreTest, BadMagicReported) {
  auto bytes = io::SerializeTripStore(SampleTrips());
  bytes[0] ^= 0xFF;
  const std::string path = TempPath("badmagic.trips");
  WriteBytes(path, bytes);
  io::TripStoreReader reader;
  EXPECT_EQ(reader.Open(path).kind, LoadErrorKind::kBadMagic);
}

TEST(TripStoreTest, BadVersionReported) {
  // The retired FNV-sealed version 1 is refused by its version word before
  // any checksum is computed, as is an unknown one.
  for (const uint8_t version : {0x01, 0x7F}) {
    SCOPED_TRACE("version " + std::to_string(version));
    auto bytes = io::SerializeTripStore(SampleTrips());
    bytes[4] = version;  // version word follows the magic
    const std::string path = TempPath("badversion.trips");
    WriteBytes(path, bytes);
    io::TripStoreReader reader;
    EXPECT_EQ(reader.Open(path).kind, LoadErrorKind::kBadVersion);
  }
}

TEST(TripStoreTest, CorruptPayloadFailsChecksum) {
  auto bytes = io::SerializeTripStore(SampleTrips());
  bytes[bytes.size() / 2] ^= 0x20;
  const std::string path = TempPath("corrupt.trips");
  WriteBytes(path, bytes);
  io::TripStoreReader reader;
  EXPECT_EQ(reader.Open(path).kind, LoadErrorKind::kBadChecksum);
}

TEST(TripStoreTest, TrailingGarbageReported) {
  auto bytes = io::SerializeTripStore(SampleTrips());
  bytes.push_back(0xAB);
  bytes.insert(bytes.end(), 7, 0);  // keep 8-byte file size alignment
  const std::string path = TempPath("trailing.trips");
  WriteBytes(path, bytes);
  io::TripStoreReader reader;
  EXPECT_EQ(reader.Open(path).kind, LoadErrorKind::kTrailingBytes);
}

}  // namespace
}  // namespace deepod
