#include "serve/server/frame.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace deepod::serve::net {
namespace {

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
  return v;
}

double ReadF64(const uint8_t* p) {
  const uint64_t bits = ReadU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Prepends the 4-byte length prefix to a finished payload.
std::vector<uint8_t> WithLengthPrefix(std::vector<uint8_t> payload) {
  std::vector<uint8_t> frame;
  frame.reserve(4 + payload.size());
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

}  // namespace

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kBadFrame: return "bad_frame";
    case Status::kBadMagic: return "bad_magic";
    case Status::kFrameTooLarge: return "frame_too_large";
    case Status::kInvalidRequest: return "invalid_request";
    case Status::kUnknownTenant: return "unknown_tenant";
    case Status::kDeadlineExpired: return "deadline_expired";
    case Status::kShedQueueFull: return "shed_queue_full";
    case Status::kShedQuota: return "shed_quota";
    case Status::kShedDeadline: return "shed_deadline";
    case Status::kShuttingDown: return "shutting_down";
    case Status::kUnknownNetwork: return "unknown_network";
    case Status::kShardCold: return "shard_cold";
  }
  return "unknown";
}

const char* EstimatorName(Estimator e) {
  switch (e) {
    case Estimator::kModel: return "model";
    case Estimator::kOracle: return "oracle";
    case Estimator::kLinkMean: return "linkmean";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeRequestFrame(const RequestFrame& frame) {
  std::vector<uint8_t> payload;
  payload.reserve(kRequestPayloadBytes);
  AppendU32(&payload, kRequestMagic);
  AppendU64(&payload, frame.request_id);
  AppendU32(&payload, frame.network_id);
  AppendU32(&payload, frame.tenant_id);
  payload.push_back(frame.priority);
  AppendU32(&payload, static_cast<uint32_t>(frame.deadline_ms));
  AppendU64(&payload, static_cast<uint64_t>(frame.od.origin_segment));
  AppendU64(&payload, static_cast<uint64_t>(frame.od.dest_segment));
  AppendF64(&payload, frame.od.origin_ratio);
  AppendF64(&payload, frame.od.dest_ratio);
  AppendF64(&payload, frame.od.departure_time);
  AppendU32(&payload, static_cast<uint32_t>(frame.od.weather_type));
  return WithLengthPrefix(std::move(payload));
}

void AppendResponseFrame(const ResponseFrame& frame,
                         std::vector<uint8_t>* out) {
  AppendU32(out, static_cast<uint32_t>(kResponsePayloadBytes));
  AppendU32(out, kResponseMagic);
  AppendU64(out, frame.request_id);
  out->push_back(static_cast<uint8_t>(frame.status));
  out->push_back(static_cast<uint8_t>(frame.estimator));
  AppendU32(out, frame.retry_after_ms);
  AppendF64(out, frame.eta_seconds);
}

std::vector<uint8_t> EncodeResponseFrame(const ResponseFrame& frame) {
  std::vector<uint8_t> wire;
  wire.reserve(4 + kResponsePayloadBytes);
  AppendResponseFrame(frame, &wire);
  return wire;
}

std::vector<uint8_t> EncodeStatsRequestFrame() {
  std::vector<uint8_t> payload;
  AppendU32(&payload, kStatsRequestMagic);
  return WithLengthPrefix(std::move(payload));
}

std::vector<uint8_t> EncodeStatsResponseFrame(std::string_view json) {
  std::vector<uint8_t> payload;
  payload.reserve(4 + json.size());
  AppendU32(&payload, kStatsResponseMagic);
  payload.insert(payload.end(), json.begin(), json.end());
  return WithLengthPrefix(std::move(payload));
}

std::vector<uint8_t> EncodeObserveFrame(const ObserveFrame& frame) {
  if (frame.observations.size() > kMaxObservationsPerFrame) {
    throw std::invalid_argument(
        "EncodeObserveFrame: too many observations for one frame");
  }
  std::vector<uint8_t> payload;
  payload.reserve(kObservePayloadHeaderBytes +
                  frame.observations.size() * kObservationBytes);
  AppendU32(&payload, kObserveMagic);
  AppendU64(&payload, frame.request_id);
  AppendU32(&payload, frame.network_id);
  AppendU64(&payload, static_cast<uint64_t>(frame.od.origin_segment));
  AppendU64(&payload, static_cast<uint64_t>(frame.od.dest_segment));
  AppendF64(&payload, frame.od.origin_ratio);
  AppendF64(&payload, frame.od.dest_ratio);
  AppendF64(&payload, frame.od.departure_time);
  AppendU32(&payload, static_cast<uint32_t>(frame.od.weather_type));
  AppendF64(&payload, frame.actual_seconds);
  AppendU32(&payload, static_cast<uint32_t>(frame.observations.size()));
  for (const sim::TripObservation& obs : frame.observations) {
    AppendU64(&payload, obs.segment_id);
    AppendF64(&payload, obs.time);
    AppendF64(&payload, obs.speed_mps);
  }
  return WithLengthPrefix(std::move(payload));
}

uint32_t PeekMagic(const uint8_t* data, size_t size) {
  return size < 4 ? 0 : ReadU32(data);
}

Status DecodeRequestPayload(const uint8_t* data, size_t size,
                            RequestFrame* out) {
  *out = RequestFrame{};
  if (size < 4) return Status::kBadFrame;
  if (ReadU32(data) != kRequestMagic) return Status::kBadMagic;
  if (size != kRequestPayloadBytes) {
    // Truncated (or padded) request: recover the id when its bytes are
    // present so the error response names the right request.
    if (size >= 12) out->request_id = ReadU64(data + 4);
    return Status::kBadFrame;
  }
  const uint8_t* p = data + 4;
  out->request_id = ReadU64(p);
  p += 8;
  out->network_id = ReadU32(p);
  p += 4;
  out->tenant_id = ReadU32(p);
  p += 4;
  out->priority = *p;
  p += 1;
  out->deadline_ms = static_cast<int32_t>(ReadU32(p));
  p += 4;
  out->od.origin_segment = static_cast<size_t>(ReadU64(p));
  p += 8;
  out->od.dest_segment = static_cast<size_t>(ReadU64(p));
  p += 8;
  out->od.origin_ratio = ReadF64(p);
  p += 8;
  out->od.dest_ratio = ReadF64(p);
  p += 8;
  out->od.departure_time = ReadF64(p);
  p += 8;
  out->od.weather_type = static_cast<int>(ReadU32(p));
  if (out->priority >= kNumPriorities) out->priority = kNumPriorities - 1;
  return Status::kOk;
}

Status DecodeObservePayload(const uint8_t* data, size_t size,
                            ObserveFrame* out) {
  *out = ObserveFrame{};
  if (size < 4) return Status::kBadFrame;
  if (ReadU32(data) != kObserveMagic) return Status::kBadMagic;
  if (size < kObservePayloadHeaderBytes) {
    if (size >= 12) out->request_id = ReadU64(data + 4);
    return Status::kBadFrame;
  }
  const uint8_t* p = data + 4;
  out->request_id = ReadU64(p);
  p += 8;
  out->network_id = ReadU32(p);
  p += 4;
  out->od.origin_segment = static_cast<size_t>(ReadU64(p));
  p += 8;
  out->od.dest_segment = static_cast<size_t>(ReadU64(p));
  p += 8;
  out->od.origin_ratio = ReadF64(p);
  p += 8;
  out->od.dest_ratio = ReadF64(p);
  p += 8;
  out->od.departure_time = ReadF64(p);
  p += 8;
  out->od.weather_type = static_cast<int>(ReadU32(p));
  p += 4;
  out->actual_seconds = ReadF64(p);
  p += 8;
  const uint32_t n = ReadU32(p);
  p += 4;
  if (n > kMaxObservationsPerFrame ||
      size != kObservePayloadHeaderBytes + size_t(n) * kObservationBytes) {
    return Status::kBadFrame;
  }
  out->observations.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    out->observations[i].segment_id = ReadU64(p);
    p += 8;
    out->observations[i].time = ReadF64(p);
    p += 8;
    out->observations[i].speed_mps = ReadF64(p);
    p += 8;
  }
  return Status::kOk;
}

bool DecodeResponsePayload(const uint8_t* data, size_t size,
                           ResponseFrame* out) {
  if (size != kResponsePayloadBytes) return false;
  if (ReadU32(data) != kResponseMagic) return false;
  const uint8_t* p = data + 4;
  out->request_id = ReadU64(p);
  p += 8;
  out->status = static_cast<Status>(*p);
  p += 1;
  out->estimator = static_cast<Estimator>(*p);
  p += 1;
  out->retry_after_ms = ReadU32(p);
  p += 4;
  out->eta_seconds = ReadF64(p);
  return true;
}

bool ReadExact(int fd, void* buf, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got == 0) return false;  // EOF
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteAll(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<size_t>(sent);
  }
  return true;
}

ReadFrameResult ReadFrame(int fd, std::vector<uint8_t>* payload,
                          uint32_t max_bytes) {
  uint8_t prefix[4];
  // Distinguish a clean EOF (no prefix byte at all) from a mid-frame one.
  {
    ssize_t got;
    do {
      got = ::recv(fd, prefix, sizeof(prefix), MSG_WAITALL);
    } while (got < 0 && errno == EINTR);
    if (got == 0) return ReadFrameResult::kEof;
    if (got < 0) return ReadFrameResult::kError;
    if (got < 4 && !ReadExact(fd, prefix + got, 4 - static_cast<size_t>(got))) {
      return ReadFrameResult::kError;
    }
  }
  const uint32_t length = ReadU32(prefix);
  if (length > max_bytes) {
    // Drain the declared bytes in bounded chunks so the next frame starts
    // at a clean boundary, then report the oversize to the caller.
    uint8_t sink[4096];
    uint32_t remaining = length;
    while (remaining > 0) {
      const size_t chunk = std::min<size_t>(remaining, sizeof(sink));
      if (!ReadExact(fd, sink, chunk)) return ReadFrameResult::kError;
      remaining -= static_cast<uint32_t>(chunk);
    }
    payload->clear();
    return ReadFrameResult::kOversize;
  }
  payload->resize(length);
  if (length > 0 && !ReadExact(fd, payload->data(), length)) {
    return ReadFrameResult::kError;
  }
  return ReadFrameResult::kOk;
}

FrameReader::FrameReader() : buf_(new uint8_t[kReadBufferBytes]) {}

bool FrameReader::Fill(int fd) {
  // Move the unconsumed tail (at most one partial frame) to the front so
  // the free space is always one contiguous run.
  if (begin_ == end_) {
    begin_ = end_ = 0;
  } else if (begin_ > 0) {
    std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  for (;;) {
    const ssize_t got =
        ::recv(fd, buf_.get() + end_, kReadBufferBytes - end_, 0);
    if (got > 0) {
      end_ += static_cast<size_t>(got);
      return true;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;  // EOF (a partial frame is dropped with the stream) or error
  }
}

FrameReader::Item FrameReader::Next(const uint8_t** payload, size_t* size) {
  if (skip_ == 0) {
    if (end_ - begin_ < 4) return Item::kNone;
    const uint32_t length = ReadU32(buf_.get() + begin_);
    if (length <= kMaxInboundFrameBytes) {
      if (end_ - begin_ < 4 + size_t(length)) return Item::kNone;
      *payload = buf_.get() + begin_ + 4;
      *size = length;
      begin_ += 4 + size_t(length);
      return Item::kFrame;
    }
    begin_ += 4;
    skip_ = length;  // > kMaxInboundFrameBytes, so never 0 here
  }
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(skip_, static_cast<uint64_t>(end_ - begin_)));
  begin_ += n;
  skip_ -= n;
  return skip_ == 0 ? Item::kOversize : Item::kNone;
}

}  // namespace deepod::serve::net
