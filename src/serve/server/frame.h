#ifndef DEEPOD_SERVE_SERVER_FRAME_H_
#define DEEPOD_SERVE_SERVER_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/rolling_speed_field.h"
#include "traj/trajectory.h"

namespace deepod::serve::net {

// Wire protocol of deepod_server, version 2 (DESIGN.md "Network serving" /
// "Fleet serving").
//
// Every frame on the wire is a 4-byte little-endian length prefix followed
// by exactly `length` payload bytes. Payloads are fixed-layout
// little-endian records identified by a leading 32-bit magic:
//
//   request  (client -> server, kRequestPayloadBytes):
//     magic u32 | request_id u64 | network_id u32 | tenant_id u32 |
//     priority u8 | deadline_ms i32 | origin_segment u64 | dest_segment u64 |
//     origin_ratio f64 | dest_ratio f64 | departure_time f64 | weather i32
//   response (server -> client, kResponsePayloadBytes):
//     magic u32 | request_id u64 | status u8 | estimator u8 |
//     retry_after_ms u32 | eta f64
//   stats request  (client -> server): magic u32 alone
//   stats response (server -> client): magic u32 | the server's obs
//     registry rendered as BENCH-schema JSON (variable length)
//
// v2 added network_id to the request/observe layouts (fleet routing: which
// city's shard answers; single-network servers accept only id 0 ... their
// one configured id) and the estimator tag to responses (which tier
// produced the ETA — the learned model or a fallback estimator). The magics
// are unchanged: a v1-sized request decodes as kBadFrame — a typed,
// connection-preserving rejection, not a silent misparse, because every
// fixed-layout payload is length-checked exactly.
//
// deadline_ms is the client's remaining latency budget relative to server
// receipt: > 0 = budget in milliseconds, 0 = no deadline, < 0 = already
// expired when sent (the server answers kDeadlineExpired without queueing).
// Doubles travel as raw IEEE-754 bit patterns, so an ETA survives the wire
// bit-for-bit.
//
// Error handling is connection-preserving by construction: the length
// prefix always tells the server how many bytes to consume, so a truncated
// payload, a wrong magic or an oversized frame each produce one typed
// error response and leave the stream in sync for the next frame. Only a
// broken length prefix (EOF mid-frame) kills the connection.

inline constexpr uint32_t kRequestMagic = 0xD33B0D10u;
inline constexpr uint32_t kResponseMagic = 0xD33B0D11u;
inline constexpr uint32_t kStatsRequestMagic = 0xD33B0D12u;
inline constexpr uint32_t kStatsResponseMagic = 0xD33B0D13u;
inline constexpr uint32_t kObserveMagic = 0xD33B0D14u;

// Hard ceiling on inbound frame payloads. Larger declared lengths are
// drained in bounded chunks (never buffered whole) and answered with
// kFrameTooLarge.
inline constexpr uint32_t kMaxInboundFrameBytes = 4096;

enum class Status : uint8_t {
  kOk = 0,
  kBadFrame = 1,         // payload malformed / truncated vs. the layout
  kBadMagic = 2,         // unknown leading magic
  kFrameTooLarge = 3,    // declared length above kMaxInboundFrameBytes
  kInvalidRequest = 4,   // od fields out of range for the served network
  kUnknownTenant = 5,    // tenant id outside the configured quota table
  kDeadlineExpired = 6,  // expired on arrival or while queued
  kShedQueueFull = 7,    // admission queue at capacity
  kShedQuota = 8,        // per-tenant token bucket empty
  kShedDeadline = 9,     // estimated queue wait exceeds the deadline
  kShuttingDown = 10,    // server draining; request not admitted
  kUnknownNetwork = 11,  // network_id not in the fleet manifest
  kShardCold = 12,       // shard has no model yet and its policy forbids
                         // the oracle fallback (model | reject)
};

const char* StatusName(Status s);

// Which estimator tier produced a response's ETA (response frame tag).
enum class Estimator : uint8_t {
  kModel = 0,     // the learned DeepOD model
  kOracle = 1,    // the OD-histogram fallback oracle
  kLinkMean = 2,  // the link-mean PathTTE fallback
};

const char* EstimatorName(Estimator e);

// Shed statuses carry a retry_after_ms hint: the client should back off
// and retry instead of treating the answer as a hard failure.
inline bool IsShed(Status s) {
  return s == Status::kShedQueueFull || s == Status::kShedQuota ||
         s == Status::kShedDeadline;
}

struct RequestFrame {
  uint64_t request_id = 0;
  uint32_t network_id = 0;  // fleet routing id (v2)
  uint32_t tenant_id = 0;
  uint8_t priority = 1;     // 0 = interactive, 1 = normal, 2 = best-effort
  int32_t deadline_ms = 0;  // see header comment
  traj::OdInput od;         // matched fields only (segments/ratios/time/weather)
};

inline constexpr uint8_t kNumPriorities = 3;

struct ResponseFrame {
  uint64_t request_id = 0;
  Status status = Status::kOk;
  Estimator estimator = Estimator::kModel;  // which tier answered (v2)
  uint32_t retry_after_ms = 0;  // only meaningful when IsShed(status)
  double eta_seconds = 0.0;     // only meaningful when status == kOk
};

inline constexpr size_t kRequestPayloadBytes =
    4 + 8 + 4 + 4 + 1 + 4 + 8 + 8 + 8 + 8 + 8 + 4;  // = 69
inline constexpr size_t kResponsePayloadBytes = 4 + 8 + 1 + 1 + 4 + 8;  // = 26

// --- ObserveTrip ingest ------------------------------------------------------
//
// A completed trip reported back to the server (client -> server):
//
//   observe (kObservePayloadHeaderBytes + n_observations * 24):
//     magic u32 | request_id u64 | network_id u32 | origin_segment u64 |
//     dest_segment u64 | origin_ratio f64 | dest_ratio f64 |
//     departure_time f64 | weather i32 | actual_seconds f64 |
//     n_observations u32 |
//     n_observations x { segment u64 | time f64 | speed_mps f64 }
//
// The OD block mirrors the request layout so the server can re-score the
// trip against its current model (the drift monitor's prediction/actual
// pair); the per-segment observations feed the RollingSpeedField. The
// server answers with a standard response frame: status kOk and
// eta_seconds = the prediction used for drift scoring (0 when the server
// has no drift monitor), so a reporting client sees what the serving model
// currently believes about the trip it just completed. n_observations is
// bounded by the frame ceiling — chunk longer trips across frames.

struct ObserveFrame {
  uint64_t request_id = 0;
  uint32_t network_id = 0;       // fleet routing id (v2)
  traj::OdInput od;              // the trip's OD query, as in RequestFrame
  double actual_seconds = 0.0;   // observed door-to-door travel time
  std::vector<sim::TripObservation> observations;
};

inline constexpr size_t kObservePayloadHeaderBytes =
    4 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 8 + 4;  // = 72
inline constexpr size_t kObservationBytes = 8 + 8 + 8;  // = 24
inline constexpr size_t kMaxObservationsPerFrame =
    (kMaxInboundFrameBytes - kObservePayloadHeaderBytes) / kObservationBytes;

// Encoders emit the full wire frame (length prefix included).
std::vector<uint8_t> EncodeRequestFrame(const RequestFrame& frame);
std::vector<uint8_t> EncodeResponseFrame(const ResponseFrame& frame);
// Appends the same bytes EncodeResponseFrame returns (several responses
// to one connection coalesce into one buffer and one send).
void AppendResponseFrame(const ResponseFrame& frame,
                         std::vector<uint8_t>* out);
std::vector<uint8_t> EncodeStatsRequestFrame();
std::vector<uint8_t> EncodeStatsResponseFrame(std::string_view json);
// Throws std::invalid_argument past kMaxObservationsPerFrame.
std::vector<uint8_t> EncodeObserveFrame(const ObserveFrame& frame);

// First 4 payload bytes as a little-endian magic; 0 when size < 4.
uint32_t PeekMagic(const uint8_t* data, size_t size);

// Decodes a request payload (length prefix already stripped). Returns kOk
// on success, else the typed error the server should answer with. On a
// kBadFrame whose payload still holds the id field, out->request_id is
// recovered so the error response can be correlated by the client.
Status DecodeRequestPayload(const uint8_t* data, size_t size,
                            RequestFrame* out);
// Client side; false on a malformed payload.
bool DecodeResponsePayload(const uint8_t* data, size_t size,
                           ResponseFrame* out);

// Decodes an observe payload (length prefix stripped). kOk on success, else
// the typed error to answer with; request_id is recovered on truncated
// payloads that still hold the id bytes.
Status DecodeObservePayload(const uint8_t* data, size_t size,
                            ObserveFrame* out);

// --- Blocking socket helpers (EINTR-safe, SIGPIPE-suppressed) --------------

bool ReadExact(int fd, void* buf, size_t n);
bool WriteAll(int fd, const void* buf, size_t n);

enum class ReadFrameResult {
  kOk,        // *payload holds the declared bytes
  kOversize,  // declared length > max_bytes; payload bytes were drained
  kEof,       // clean EOF before a length prefix
  kError,     // short read mid-frame or socket error
};

// Reads one length-prefixed frame into *payload (resized to the declared
// length, capped by max_bytes). Oversized payloads are consumed in bounded
// chunks so the stream stays in sync.
ReadFrameResult ReadFrame(int fd, std::vector<uint8_t>* payload,
                          uint32_t max_bytes);

// Server-side buffered frame reader for one connection. Fill() is one
// recv() that takes every byte the socket has ready (up to the buffer's
// free space), so a pipelined burst arrives with one syscall; Next() then
// hands out each complete frame in the buffer. Oversized frames are
// skipped in place, as ReadFrame drains them, and reported once their
// declared bytes are consumed. Not thread-safe: one reader per connection.
class FrameReader {
 public:
  static constexpr size_t kReadBufferBytes = 64 * 1024;
  static_assert(kReadBufferBytes >= 4 + kMaxInboundFrameBytes,
                "the buffer must hold one whole frame");

  FrameReader();

  // Blocks until bytes arrive, then appends what is ready. false on EOF
  // or a socket error (the caller closes the connection).
  bool Fill(int fd);

  enum class Item {
    kFrame,     // *payload / *size hold one payload, valid until Fill()
    kOversize,  // declared length > kMaxInboundFrameBytes; now skipped
    kNone,      // no complete frame buffered: Fill() again
  };
  Item Next(const uint8_t** payload, size_t* size);

 private:
  std::unique_ptr<uint8_t[]> buf_;
  size_t begin_ = 0;   // first unconsumed byte
  size_t end_ = 0;     // one past the last received byte
  uint64_t skip_ = 0;  // oversized-payload bytes still to discard
};

}  // namespace deepod::serve::net

#endif  // DEEPOD_SERVE_SERVER_FRAME_H_
