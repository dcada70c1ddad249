#include "io/trip_io.h"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace deepod::io {
namespace {

std::vector<std::string> SplitCsvLine(const std::string& line, char sep = ',') {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, sep)) fields.push_back(field);
  // A trailing separator yields an implicit final empty field.
  if (!line.empty() && line.back() == sep) fields.emplace_back();
  return fields;
}

double ParseDouble(const std::string& s, const char* what) {
  try {
    size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("trip_io: bad number for ") + what +
                             ": '" + s + "'");
  }
}

size_t ParseIndex(const std::string& s, const char* what) {
  const double v = ParseDouble(s, what);
  if (v < 0 || v != static_cast<double>(static_cast<size_t>(v))) {
    throw std::runtime_error(std::string("trip_io: bad index for ") + what);
  }
  return static_cast<size_t>(v);
}

// --- Fast char-level trip-row parsing ---------------------------------------
// The trip reader is on the million-row ingest path, so it avoids
// istringstream/stod entirely: fields are split as string_views over the
// line buffer and numbers go through std::from_chars.

[[noreturn]] void BadField(const char* what, std::string_view s) {
  throw std::runtime_error(std::string("trip_io: bad number for ") + what +
                           ": '" + std::string(s) + "'");
}

double FastDouble(std::string_view s, const char* what) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) BadField(what, s);
  return v;
}

long long FastInt(std::string_view s, const char* what) {
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) BadField(what, s);
  return v;
}

// Splits `line` on `sep` into at most `max_fields` views. Returns the count.
size_t SplitView(std::string_view line, char sep, std::string_view* fields,
                 size_t max_fields) {
  size_t count = 0;
  size_t start = 0;
  while (count < max_fields) {
    const size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      fields[count++] = line.substr(start);
      break;
    }
    fields[count++] = line.substr(start, pos - start);
    start = pos + 1;
  }
  return count;
}

// Shortest-round-trip double formatting (value-exact on re-read).
void AppendDouble(std::string& out, double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<size_t>(ptr - buf));
}

void AppendInt(std::string& out, long long v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<size_t>(ptr - buf));
}

long long SegToCsv(size_t segment_id) {
  return segment_id == road::kInvalidId
             ? -1
             : static_cast<long long>(segment_id);
}

size_t SegFromCsv(std::string_view s, const road::RoadNetwork& net,
                  const char* what) {
  const long long v = FastInt(s, what);
  if (v < 0) return road::kInvalidId;
  if (static_cast<size_t>(v) >= net.num_segments()) {
    throw std::runtime_error("trip_io: segment id out of range");
  }
  return static_cast<size_t>(v);
}

std::ofstream OpenOut(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trip_io: cannot open " + path);
  return out;
}

constexpr char kTripsHeader[] =
    "depart,origin_x,origin_y,dest_x,dest_y,weather,travel_time,"
    "origin_seg,origin_ratio,dest_seg,dest_ratio,route";

std::ifstream OpenIn(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trip_io: cannot open " + path);
  return in;
}

}  // namespace

void WriteNetworkCsv(const road::RoadNetwork& net, std::ostream& out) {
  out.precision(15);
  out << "vertices\n";
  out << "id,x,y\n";
  for (size_t v = 0; v < net.num_vertices(); ++v) {
    const auto& vertex = net.vertex(v);
    out << v << "," << vertex.pos.x << "," << vertex.pos.y << "\n";
  }
  out << "segments\n";
  out << "id,from,to,length,speed,class\n";
  for (const auto& s : net.segments()) {
    out << s.id << "," << s.from << "," << s.to << "," << s.length << ","
        << s.free_flow_speed << "," << static_cast<int>(s.road_class) << "\n";
  }
}

void WriteNetworkCsv(const road::RoadNetwork& net, const std::string& path) {
  auto out = OpenOut(path);
  WriteNetworkCsv(net, out);
}

road::RoadNetwork ReadNetworkCsv(std::istream& in) {
  road::RoadNetwork net;
  std::string line;
  if (!std::getline(in, line) || line != "vertices") {
    throw std::runtime_error("trip_io: expected 'vertices' section");
  }
  std::getline(in, line);  // header
  while (std::getline(in, line) && line != "segments") {
    const auto f = SplitCsvLine(line);
    if (f.size() != 3) throw std::runtime_error("trip_io: bad vertex row");
    net.AddVertex({ParseDouble(f[1], "x"), ParseDouble(f[2], "y")});
  }
  if (line != "segments") {
    throw std::runtime_error("trip_io: expected 'segments' section");
  }
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto f = SplitCsvLine(line);
    if (f.size() != 6) throw std::runtime_error("trip_io: bad segment row");
    net.AddSegment(ParseIndex(f[1], "from"), ParseIndex(f[2], "to"),
                   ParseDouble(f[4], "speed"),
                   static_cast<road::RoadClass>(
                       static_cast<int>(ParseDouble(f[5], "class"))),
                   ParseDouble(f[3], "length"));
  }
  net.Finalize();
  return net;
}

road::RoadNetwork ReadNetworkCsv(const std::string& path) {
  auto in = OpenIn(path);
  return ReadNetworkCsv(in);
}

void WriteTripsCsv(const std::vector<traj::TripRecord>& trips,
                   std::ostream& out) {
  out << kTripsHeader << '\n';
  std::string row;
  for (const auto& trip : trips) {
    row.clear();
    AppendDouble(row, trip.od.departure_time);
    row.push_back(',');
    AppendDouble(row, trip.od.origin.x);
    row.push_back(',');
    AppendDouble(row, trip.od.origin.y);
    row.push_back(',');
    AppendDouble(row, trip.od.destination.x);
    row.push_back(',');
    AppendDouble(row, trip.od.destination.y);
    row.push_back(',');
    AppendInt(row, trip.od.weather_type);
    row.push_back(',');
    AppendDouble(row, trip.travel_time);
    row.push_back(',');
    AppendInt(row, SegToCsv(trip.od.origin_segment));
    row.push_back(',');
    AppendDouble(row, trip.od.origin_ratio);
    row.push_back(',');
    AppendInt(row, SegToCsv(trip.od.dest_segment));
    row.push_back(',');
    AppendDouble(row, trip.od.dest_ratio);
    row.push_back(',');
    for (size_t i = 0; i < trip.trajectory.path.size(); ++i) {
      const auto& e = trip.trajectory.path[i];
      if (i) row.push_back('|');
      AppendInt(row, static_cast<long long>(e.segment_id));
      row.push_back(':');
      AppendDouble(row, e.enter);
      row.push_back(':');
      AppendDouble(row, e.exit);
    }
    row.push_back('\n');
    out.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

void WriteTripsCsv(const std::vector<traj::TripRecord>& trips,
                   const std::string& path) {
  auto out = OpenOut(path);
  WriteTripsCsv(trips, out);
}

std::vector<traj::TripRecord> ReadTripsCsv(const road::RoadNetwork& net,
                                           std::istream& in) {
  std::vector<traj::TripRecord> trips;
  std::string line;
  if (!std::getline(in, line) || line != kTripsHeader) {
    throw std::runtime_error(std::string("trip_io: expected trip header '") +
                             kTripsHeader + "'");
  }
  constexpr size_t kNumFields = 12;
  std::string_view fields[kNumFields];
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (SplitView(line, ',', fields, kNumFields) != kNumFields) {
      throw std::runtime_error("trip_io: bad trip row");
    }
    traj::TripRecord trip;
    trip.od.departure_time = FastDouble(fields[0], "depart");
    trip.od.origin = {FastDouble(fields[1], "origin_x"),
                      FastDouble(fields[2], "origin_y")};
    trip.od.destination = {FastDouble(fields[3], "dest_x"),
                           FastDouble(fields[4], "dest_y")};
    trip.od.weather_type = static_cast<int>(FastInt(fields[5], "weather"));
    trip.travel_time = FastDouble(fields[6], "travel_time");
    // Route, if present.
    const std::string_view route = fields[kNumFields - 1];
    if (!route.empty()) {
      size_t start = 0;
      while (start <= route.size()) {
        const size_t bar = route.find('|', start);
        const std::string_view triplet =
            route.substr(start, bar == std::string_view::npos ? bar
                                                              : bar - start);
        std::string_view parts[3];
        if (SplitView(triplet, ':', parts, 3) != 3) {
          throw std::runtime_error("trip_io: bad route");
        }
        traj::PathElement e;
        const long long seg = FastInt(parts[0], "segment");
        if (seg < 0 || static_cast<size_t>(seg) >= net.num_segments()) {
          throw std::runtime_error("trip_io: segment id out of range");
        }
        e.segment_id = static_cast<size_t>(seg);
        e.enter = FastDouble(parts[1], "enter");
        e.exit = FastDouble(parts[2], "exit");
        trip.trajectory.path.push_back(e);
        if (bar == std::string_view::npos) break;
        start = bar + 1;
      }
    }
    trip.od.origin_segment = SegFromCsv(fields[7], net, "origin_seg");
    trip.od.origin_ratio = FastDouble(fields[8], "origin_ratio");
    trip.od.dest_segment = SegFromCsv(fields[9], net, "dest_seg");
    trip.od.dest_ratio = FastDouble(fields[10], "dest_ratio");
    trip.trajectory.origin_ratio = trip.od.origin_ratio;
    trip.trajectory.dest_ratio = trip.od.dest_ratio;
    trips.push_back(std::move(trip));
  }
  return trips;
}

std::vector<traj::TripRecord> ReadTripsCsv(const road::RoadNetwork& net,
                                           const std::string& path) {
  auto in = OpenIn(path);
  return ReadTripsCsv(net, in);
}

}  // namespace deepod::io
