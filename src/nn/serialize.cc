#include "nn/serialize.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

namespace deepod::nn {
namespace {

constexpr uint32_t kMagic = 0xd33b0d02;  // "deepod" format v2+

// Dtype a quantising write stores this entry as (f64 unless the quant mode
// applies and the entry is weight-quantisation eligible).
uint8_t DtypeFor(const StateDict::Entry& e, QuantMode quant) {
  if (quant == QuantMode::kNone || !QuantEligible(e)) return kDtypeF64;
  return quant == QuantMode::kFp16 ? kDtypeF16 : kDtypeI8;
}

// Leading dimension used for int8 per-row scales.
size_t RecordRows(const std::vector<size_t>& shape) {
  return shape.empty() || shape[0] == 0 ? 1 : shape[0];
}

// Whether `record`'s payload fits in `available` bytes. Compares quotients,
// so a hostile element count cannot wrap a byte product past the check.
bool PayloadFits(const TensorRecord& record, size_t available) {
  switch (record.dtype) {
    case kDtypeF16:
      return record.num_elements <= available / sizeof(uint16_t);
    case kDtypeI8: {
      const size_t rows = RecordRows(record.shape);
      return rows <= available / sizeof(double) &&
             record.num_elements <= available - rows * sizeof(double);
    }
    default:
      return record.num_elements <= available / sizeof(double);
  }
}

LoadStatus Truncated(const std::string& where) {
  return LoadStatus::Error(LoadErrorKind::kTruncated,
                           "state dict truncated in " + where);
}

}  // namespace

LoadStatus LoadStatus::Error(LoadErrorKind kind, std::string message,
                             std::string tensor) {
  LoadStatus status;
  status.kind = kind;
  status.message = std::move(message);
  status.tensor = std::move(tensor);
  return status;
}

const char* LoadErrorKindName(LoadErrorKind kind) {
  switch (kind) {
    case LoadErrorKind::kNone: return "ok";
    case LoadErrorKind::kIoError: return "io_error";
    case LoadErrorKind::kBadMagic: return "bad_magic";
    case LoadErrorKind::kBadVersion: return "bad_version";
    case LoadErrorKind::kTruncated: return "truncated";
    case LoadErrorKind::kBadChecksum: return "bad_checksum";
    case LoadErrorKind::kBadDtype: return "bad_dtype";
    case LoadErrorKind::kMissingTensor: return "missing_tensor";
    case LoadErrorKind::kUnexpectedTensor: return "unexpected_tensor";
    case LoadErrorKind::kShapeMismatch: return "shape_mismatch";
    case LoadErrorKind::kTrailingBytes: return "trailing_bytes";
    case LoadErrorKind::kNonFinite: return "non_finite";
    case LoadErrorKind::kBadValue: return "bad_value";
  }
  return "unknown";
}

SerializeError::SerializeError(LoadStatus status)
    : std::runtime_error(std::string(LoadErrorKindName(status.kind)) + ": " +
                         status.message),
      status_(std::move(status)) {}

const LoadStatus& ThrowIfError(const LoadStatus& status) {
  if (!status.ok()) throw SerializeError(status);
  return status;
}

// --- Tagged state-dict format (v4) ------------------------------------------

size_t SerializedStateSize(const StateDict& state) {
  size_t bytes = sizeof(uint32_t) * 2 + sizeof(uint64_t);  // header
  for (const auto& e : state.entries()) {
    bytes += sizeof(uint32_t) + e.name.size();               // name
    bytes += sizeof(uint8_t);                                // dtype
    bytes += sizeof(uint32_t) + sizeof(uint64_t) * e.shape.size();  // dims
    bytes += sizeof(double) * e.size;                        // payload
  }
  return bytes + sizeof(uint64_t);  // checksum
}

std::string ShapeToString(const std::vector<size_t>& shape) {
  std::ostringstream out;
  out << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << ']';
  return out.str();
}

const char* RecordDtypeName(uint8_t dtype) {
  switch (dtype) {
    case kDtypeF64:
      return "f64";
    case kDtypeF16:
      return "f16";
    case kDtypeI8:
      return "int8";
    default:
      return "unknown";
  }
}

namespace {

// A state-dict stream written front to back, the mirror of ByteSource
// below: bytes are staged in a fixed kReadWindowBytes window and folded
// into XXH64 as they leave it for the sink, an in-memory buffer or a file.
// A write of at least a window's worth leaves directly, after what the
// window already holds, so no sink ever sees a whole-file copy.
class ByteSink {
 public:
  explicit ByteSink(std::vector<uint8_t>* buffer) : buffer_(buffer) {}
  explicit ByteSink(std::ofstream* file) : file_(file) {}

  void Write(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    if (n > kReadWindowBytes - used_) {
      Flush();
      if (n >= kReadWindowBytes) {
        Emit(p, n);
        return;
      }
    }
    std::memcpy(window_.get() + used_, p, n);
    used_ += n;
  }

  template <typename T>
  void WritePod(const T& value) {
    Write(&value, sizeof(T));
  }

  // Ends the stream with the XXH64 digest of every byte written before it.
  void Seal() {
    Flush();
    const uint64_t digest = hash_.Digest();
    Output(reinterpret_cast<const uint8_t*>(&digest), sizeof(digest));
  }

 private:
  void Flush() {
    Emit(window_.get(), used_);
    used_ = 0;
  }
  void Emit(const uint8_t* p, size_t n) {
    hash_.Update(p, n);
    Output(p, n);
  }
  void Output(const uint8_t* p, size_t n) {
    if (buffer_ != nullptr) {
      buffer_->insert(buffer_->end(), p, p + n);
    } else {
      file_->write(reinterpret_cast<const char*>(p),
                   static_cast<std::streamsize>(n));
    }
  }

  std::vector<uint8_t>* buffer_ = nullptr;
  std::ofstream* file_ = nullptr;
  std::unique_ptr<uint8_t[]> window_{new uint8_t[kReadWindowBytes]};
  size_t used_ = 0;
  Xxh64 hash_;
};

// The one state-dict encoder: header, then every entry as a record in its
// stored dtype, then the digest.
void EncodeStateDict(const StateDict& state, QuantMode quant, ByteSink& out) {
  out.WritePod(kMagic);
  out.WritePod(kStateDictVersion);
  out.WritePod(static_cast<uint64_t>(state.size()));
  for (const auto& e : state.entries()) {
    out.WritePod(static_cast<uint32_t>(e.name.size()));
    out.Write(e.name.data(), e.name.size());
    const uint8_t dtype = DtypeFor(e, quant);
    out.WritePod(dtype);
    out.WritePod(static_cast<uint32_t>(e.shape.size()));
    for (size_t d : e.shape) out.WritePod(static_cast<uint64_t>(d));
    switch (dtype) {
      case kDtypeF64:
        out.Write(e.data, sizeof(double) * e.size);
        break;
      case kDtypeF16:
        for (size_t i = 0; i < e.size; ++i) {
          out.WritePod(HalfFromDouble(e.data[i]));
        }
        break;
      case kDtypeI8: {
        const size_t rows = RecordRows(e.shape);
        const size_t cols = e.size / rows;
        std::vector<double> scales(rows);
        std::vector<int8_t> q(e.size);
        QuantizeInt8(e.data, rows, cols, scales.data(), q.data());
        out.Write(scales.data(), sizeof(double) * rows);
        out.Write(q.data(), e.size);
        break;
      }
    }
  }
  out.Seal();
}

}  // namespace

std::vector<uint8_t> SerializeStateDict(const StateDict& state) {
  return SerializeStateDict(state, QuantMode::kNone);
}

std::vector<uint8_t> SerializeStateDict(const StateDict& state,
                                        QuantMode quant) {
  std::vector<uint8_t> buf;
  buf.reserve(SerializedStateSize(state));  // upper bound for any dtype mix
  ByteSink sink(&buf);
  EncodeStateDict(state, quant, sink);
  return buf;
}

size_t RecordPayloadBytes(const TensorRecord& record) {
  switch (record.dtype) {
    case kDtypeF16:
      return sizeof(uint16_t) * record.num_elements;
    case kDtypeI8:
      return sizeof(double) * RecordRows(record.shape) + record.num_elements;
    default:
      return sizeof(double) * record.num_elements;
  }
}

namespace {

// A state-dict stream consumed front to back through a window: an
// in-memory buffer is one window holding the whole stream; a file is read
// with read(2) into an owned kReadWindowBytes window, except that a read of
// at least a window's worth takes what the window still holds and lands
// the rest straight in its destination. Each Read puts the bytes in the
// caller's destination and only then folds them into the stream's
// checksum, so the checksum covers exactly the bytes handed out: a file
// rewritten under a load fails the checksum (or the framing) instead of
// passing a torn mix of old and new bytes to the decode. Every byte from
// the first is folded into XXH64. Reads never go past size(), the stream
// size taken when the source was opened.
class ByteSource {
 public:
  explicit ByteSource(const std::vector<uint8_t>& buffer)
      : size_(buffer.size()),
        window_(buffer.data()),
        window_end_(buffer.size()) {}
  ByteSource(int fd, size_t size)
      : size_(size),
        fd_(fd),
        owned_(new uint8_t[kReadWindowBytes]),
        window_(owned_.get()) {}

  size_t size() const { return size_; }
  size_t offset() const { return offset_; }
  bool io_error() const { return io_error_; }

  uint64_t digest() const { return hash_.Digest(); }

  bool Read(void* dst, size_t n) {
    if (n > size_ - offset_) return false;
    auto* d = static_cast<uint8_t*>(dst);
    const bool direct = n >= kReadWindowBytes;
    while (n > 0) {
      size_t got;
      if (window_pos_ < window_end_) {
        got = std::min(n, window_end_ - window_pos_);
        std::memcpy(d, window_ + window_pos_, got);
        window_pos_ += got;
      } else if (direct) {
        got = ReadSome(d, n);
        if (got == 0) return false;  // the file shrank under the read
      } else {
        window_pos_ = 0;
        window_end_ = ReadSome(owned_.get(), kReadWindowBytes);
        if (window_end_ == 0) return false;
        continue;
      }
      hash_.Update(d, got);
      offset_ += got;
      d += got;
      n -= got;
    }
    return true;
  }

  // Hands the next n bytes to `sink(bytes, size)` in chunks straight from
  // the window, folding each into the checksum after the sink saw it; no
  // byte is copied out. False if the stream ends first.
  template <typename Sink>
  bool Stream(size_t n, Sink&& sink) {
    if (n > size_ - offset_) return false;
    while (n > 0) {
      if (window_pos_ == window_end_) {
        window_pos_ = 0;
        window_end_ = ReadSome(owned_.get(), kReadWindowBytes);
        if (window_end_ == 0) return false;  // the file shrank under the read
      }
      const size_t got = std::min(n, window_end_ - window_pos_);
      const uint8_t* chunk = window_ + window_pos_;
      sink(chunk, got);
      hash_.Update(chunk, got);
      window_pos_ += got;
      offset_ += got;
      n -= got;
    }
    return true;
  }

  // True when nothing follows the bytes read so far — not even bytes a
  // file gained after it was sized.
  bool AtEnd() {
    uint8_t probe;
    return window_pos_ == window_end_ && ReadSome(&probe, 1) == 0;
  }

 private:
  // One read(2), retried on EINTR; 0 at end of file, on an error and for
  // an in-memory buffer.
  size_t ReadSome(uint8_t* dst, size_t n) {
    if (fd_ < 0) return 0;
    ssize_t got;
    do {
      got = ::read(fd_, dst, n);
    } while (got < 0 && errno == EINTR);
    if (got < 0) io_error_ = true;
    return got < 0 ? 0 : static_cast<size_t>(got);
  }

  size_t size_;
  size_t offset_ = 0;
  Xxh64 hash_;
  int fd_ = -1;
  std::unique_ptr<uint8_t[]> owned_;
  const uint8_t* window_;
  size_t window_pos_ = 0;
  size_t window_end_ = 0;
  bool io_error_ = false;
};

template <typename T>
bool ReadPod(ByteSource& in, T* value) {
  return in.Read(value, sizeof(T));
}

// The framing parser (see IndexStateDict and ReadStateDict).
LoadStatus ParseStateDict(ByteSource& in, std::vector<TensorRecord>* out,
                          PayloadConsumer* consumer) {
  out->clear();
  uint32_t magic = 0;
  if (!ReadPod(in, &magic)) return Truncated("header");
  if (magic != kMagic) {
    return LoadStatus::Error(LoadErrorKind::kBadMagic,
                             "not a deepod state dict");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Truncated("header");
  if (version != kStateDictVersion) {
    return LoadStatus::Error(
        LoadErrorKind::kBadVersion,
        "unsupported state-dict version " + std::to_string(version) +
            " (reader supports " + std::to_string(kStateDictVersion) + ")");
  }
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return Truncated("header");
  if (in.size() < in.offset() + sizeof(uint64_t)) return Truncated("checksum");
  const size_t checksum_offset = in.size() - sizeof(uint64_t);
  for (uint64_t i = 0; i < count; ++i) {
    TensorRecord rec;
    uint32_t name_len = 0;
    if (!ReadPod(in, &name_len) || in.offset() > checksum_offset ||
        name_len > checksum_offset - in.offset()) {
      return Truncated("record name");
    }
    rec.name.resize(name_len);
    if (!in.Read(rec.name.data(), name_len)) return Truncated("record name");
    if (!ReadPod(in, &rec.dtype)) return Truncated("record " + rec.name);
    if (rec.dtype != kDtypeF64 && rec.dtype != kDtypeF16 &&
        rec.dtype != kDtypeI8) {
      return LoadStatus::Error(
          LoadErrorKind::kBadDtype,
          "tensor '" + rec.name + "' has unknown dtype tag " +
              std::to_string(static_cast<int>(rec.dtype)),
          rec.name);
    }
    uint32_t ndim = 0;
    if (!ReadPod(in, &ndim)) return Truncated("record " + rec.name);
    rec.num_elements = 1;
    rec.shape.reserve(std::min<size_t>(
        ndim, (in.size() - in.offset()) / sizeof(uint64_t)));
    for (uint32_t d = 0; d < ndim; ++d) {
      uint64_t dim = 0;
      if (!ReadPod(in, &dim)) return Truncated("record " + rec.name);
      rec.shape.push_back(static_cast<size_t>(dim));
      // An element count past size_t cannot fit in any stream.
      if (__builtin_mul_overflow(rec.num_elements, static_cast<size_t>(dim),
                                 &rec.num_elements)) {
        return Truncated("payload of " + rec.name);
      }
    }
    rec.payload_offset = in.offset();
    if (in.offset() > checksum_offset ||
        !PayloadFits(rec, checksum_offset - in.offset())) {
      return Truncated("payload of " + rec.name);
    }
    const size_t bytes = RecordPayloadBytes(rec);
    if (consumer != nullptr && rec.name == consumer->name()) {
      bool taking = consumer->Begin(rec, *out);
      if (!in.Stream(bytes, [&](const uint8_t* chunk, size_t n) {
            taking = taking && consumer->Consume(chunk, n);
          })) {
        return Truncated("payload of " + rec.name);
      }
      continue;
    }
    rec.payload.resize((bytes + sizeof(double) - 1) / sizeof(double));
    if (!in.Read(rec.payload.data(), bytes)) {
      return Truncated("payload of " + rec.name);
    }
    out->push_back(std::move(rec));
  }
  if (in.offset() != checksum_offset) {
    return LoadStatus::Error(LoadErrorKind::kTrailingBytes,
                             "state dict holds bytes past the last record");
  }
  const uint64_t computed = in.digest();
  uint64_t stored = 0;
  if (!ReadPod(in, &stored)) return Truncated("checksum");
  if (!in.AtEnd()) {
    return LoadStatus::Error(LoadErrorKind::kTrailingBytes,
                             "state dict grew past its checksum while read");
  }
  if (stored != computed) {
    return LoadStatus::Error(LoadErrorKind::kBadChecksum,
                             "state-dict checksum mismatch");
  }
  return LoadStatus::Ok();
}

}  // namespace

LoadStatus IndexStateDict(const std::vector<uint8_t>& buffer,
                          std::vector<TensorRecord>* out) {
  ByteSource in(buffer);
  return ParseStateDict(in, out, nullptr);
}

LoadStatus ReadStateDict(const std::string& path,
                         std::vector<TensorRecord>* out,
                         PayloadConsumer* consumer) {
  // Closes the file on every return path.
  struct File {
    explicit File(int fd) : fd(fd) {}
    File(const File&) = delete;
    File& operator=(const File&) = delete;
    ~File() {
      if (fd >= 0) ::close(fd);
    }
    const int fd;
  } file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  struct stat st{};
  if (file.fd < 0 || ::fstat(file.fd, &st) != 0) {
    return LoadStatus::Error(LoadErrorKind::kIoError, "cannot open " + path);
  }
  ByteSource in(file.fd, static_cast<size_t>(st.st_size));
  const LoadStatus status = ParseStateDict(in, out, consumer);
  if (in.io_error()) {
    return LoadStatus::Error(LoadErrorKind::kIoError, "cannot read " + path);
  }
  return status;
}

namespace {

// Decodes a record's payload into `dst` (num_elements doubles),
// dequantising f16/int8 records. Dequantisation reproduces exactly the
// fake-quant values (nn/quant.h): q * scale for int8, the half round-trip
// for f16.
void DecodeRecordInto(const TensorRecord& record, double* dst) {
  const auto* payload =
      reinterpret_cast<const uint8_t*>(record.payload.data());
  switch (record.dtype) {
    case kDtypeF16: {
      for (size_t i = 0; i < record.num_elements; ++i) {
        uint16_t half;
        std::memcpy(&half, payload + sizeof(uint16_t) * i, sizeof(half));
        dst[i] = HalfToDouble(half);
      }
      return;
    }
    case kDtypeI8: {
      const size_t rows = RecordRows(record.shape);
      const size_t cols = record.num_elements / rows;
      const double* scales = record.payload.data();
      const auto* q =
          reinterpret_cast<const int8_t*>(payload + sizeof(double) * rows);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t j = 0; j < cols; ++j) {
          dst[r * cols + j] =
              static_cast<double>(q[r * cols + j]) * scales[r];
        }
      }
      return;
    }
    default:
      // An entry that is its record's own storage is already decoded.
      if (record.num_elements > 0 && dst != record.payload.data()) {
        std::memcpy(dst, payload, sizeof(double) * record.num_elements);
      }
      return;
  }
}

// Index of the first element of `record` that decodes (as DecodeRecordInto
// would) to NaN or an infinity, or SIZE_MAX. Reads the payload in place, so
// validating a load needs no staging copy of the state.
size_t FirstNonFinite(const TensorRecord& record) {
  const auto* payload =
      reinterpret_cast<const uint8_t*>(record.payload.data());
  switch (record.dtype) {
    case kDtypeF16: {
      for (size_t i = 0; i < record.num_elements; ++i) {
        uint16_t half;
        std::memcpy(&half, payload + sizeof(uint16_t) * i, sizeof(half));
        if (!std::isfinite(HalfToDouble(half))) return i;
      }
      return SIZE_MAX;
    }
    case kDtypeI8: {
      const size_t rows = RecordRows(record.shape);
      const size_t cols = record.num_elements / rows;
      const auto* q =
          reinterpret_cast<const int8_t*>(payload + sizeof(double) * rows);
      for (size_t r = 0; r < rows; ++r) {
        const double scale = record.payload[r];
        for (size_t j = 0; j < cols; ++j) {
          if (!std::isfinite(static_cast<double>(q[r * cols + j]) * scale)) {
            return r * cols + j;
          }
        }
      }
      return SIZE_MAX;
    }
    default:
      for (size_t i = 0; i < record.num_elements; ++i) {
        double value;
        std::memcpy(&value, payload + sizeof(double) * i, sizeof(value));
        if (!std::isfinite(value)) return i;
      }
      return SIZE_MAX;
  }
}

LoadStatus NonFiniteError(const std::string& tensor, size_t index) {
  return LoadStatus::Error(LoadErrorKind::kNonFinite,
                           "tensor '" + tensor +
                               "' holds a NaN or an infinity at element " +
                               std::to_string(index),
                           tensor);
}

}  // namespace

std::vector<double> ReadRecordPayload(const TensorRecord& record) {
  std::vector<double> out(record.num_elements);
  DecodeRecordInto(record, out.data());
  return out;
}

std::vector<double> ReadRecordScales(const TensorRecord& record) {
  if (record.dtype != kDtypeI8) return {};
  // The int8 payload opens with its f64 scales, double-aligned in storage.
  const auto rows = static_cast<ptrdiff_t>(RecordRows(record.shape));
  return {record.payload.begin(), record.payload.begin() + rows};
}

LoadStatus DeserializeStateDict(const std::vector<uint8_t>& buffer,
                                StateDict& state) {
  std::vector<TensorRecord> records;
  if (LoadStatus status = IndexStateDict(buffer, &records); !status.ok()) {
    return status;
  }
  return DeserializeStateDict(records, state);
}

LoadStatus DeserializeStateDict(const std::vector<TensorRecord>& records,
                                StateDict& state) {
  // Validate everything before writing anything: a failed load must not
  // leave the model half-restored.
  std::vector<const TensorRecord*> sources(state.size(), nullptr);
  std::vector<bool> consumed(records.size(), false);
  const auto& entries = state.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    const TensorRecord* found = nullptr;
    for (size_t r = 0; r < records.size(); ++r) {
      if (!consumed[r] && records[r].name == e.name) {
        found = &records[r];
        consumed[r] = true;
        break;
      }
    }
    if (found == nullptr) {
      return LoadStatus::Error(
          LoadErrorKind::kMissingTensor,
          "tensor '" + e.name + "' (expected shape " + ShapeToString(e.shape) +
              ") is not in the file — config mismatch or older format",
          e.name);
    }
    if (found->shape != e.shape) {
      return LoadStatus::Error(
          LoadErrorKind::kShapeMismatch,
          "tensor '" + e.name + "': expected shape " + ShapeToString(e.shape) +
              ", file has " + ShapeToString(found->shape),
          e.name);
    }
    sources[i] = found;
  }
  for (size_t r = 0; r < records.size(); ++r) {
    if (!consumed[r]) {
      return LoadStatus::Error(
          LoadErrorKind::kUnexpectedTensor,
          "file tensor '" + records[r].name +
              "' has no destination in the model — config mismatch",
          records[r].name);
    }
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].values == StateDict::Values::kAny) continue;
    if (const size_t bad = FirstNonFinite(*sources[i]);
        bad != SIZE_MAX) {
      return NonFiniteError(entries[i].name, bad);
    }
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    DecodeRecordInto(*sources[i], entries[i].data);
  }
  // Parameter storage changed in place: a serving plan built from it must
  // rebuild.
  BumpParamEpoch();
  return LoadStatus::Ok();
}

LoadStatus SaveStateDict(const std::string& path, const StateDict& state) {
  return SaveStateDict(path, state, QuantMode::kNone);
}

LoadStatus SaveStateDict(const std::string& path, const StateDict& state,
                         QuantMode quant) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return LoadStatus::Error(LoadErrorKind::kIoError, "cannot open " + path);
  }
  ByteSink sink(&out);
  EncodeStateDict(state, quant, sink);
  out.flush();
  if (!out) {
    return LoadStatus::Error(LoadErrorKind::kIoError, "cannot write " + path);
  }
  return LoadStatus::Ok();
}

LoadStatus LoadStateDict(const std::string& path, StateDict& state) {
  std::vector<TensorRecord> records;
  if (LoadStatus status = ReadStateDict(path, &records); !status.ok()) {
    return status;
  }
  return DeserializeStateDict(records, state);
}

}  // namespace deepod::nn
