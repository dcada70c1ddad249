#ifndef DEEPOD_IO_TRIP_IO_H_
#define DEEPOD_IO_TRIP_IO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "road/road_network.h"
#include "traj/trajectory.h"

namespace deepod::io {

// CSV interchange for trip records and road networks, so the library can be
// driven by external data (the paper's pipeline starts from taxi-order
// files). Formats are line-oriented with a header row:
//
// Trips (12 fields):
//           depart,origin_x,origin_y,dest_x,dest_y,weather,travel_time,
//           origin_seg,origin_ratio,dest_seg,dest_ratio,route
//           — the matched OD representation is persisted at write time
//           (origin_seg/dest_seg are segment ids, -1 for unmatched), so a
//           load performs zero nearest-segment projections. `route` is a
//           |-separated list of segment:enter:exit triplets (empty for
//           OD-only records). Doubles are written in shortest
//           round-trip form (std::to_chars), so write→read is value-exact.
// Network:  two sections — "vertices" (id,x,y) then "segments"
//           (id,from,to,length,speed,class).

// --- Road network -----------------------------------------------------------

void WriteNetworkCsv(const road::RoadNetwork& net, std::ostream& out);
void WriteNetworkCsv(const road::RoadNetwork& net, const std::string& path);

// Parses a network written by WriteNetworkCsv. Finalised before return.
road::RoadNetwork ReadNetworkCsv(std::istream& in);
road::RoadNetwork ReadNetworkCsv(const std::string& path);

// --- Trip records ------------------------------------------------------------

void WriteTripsCsv(const std::vector<traj::TripRecord>& trips,
                   std::ostream& out);
void WriteTripsCsv(const std::vector<traj::TripRecord>& trips,
                   const std::string& path);

// Parses trips written by WriteTripsCsv. Throws std::runtime_error naming
// the expected header when the first line is not the 12-column header, and
// on any malformed row or out-of-range segment id.
std::vector<traj::TripRecord> ReadTripsCsv(const road::RoadNetwork& net,
                                           std::istream& in);
std::vector<traj::TripRecord> ReadTripsCsv(const road::RoadNetwork& net,
                                           const std::string& path);

}  // namespace deepod::io

#endif  // DEEPOD_IO_TRIP_IO_H_
