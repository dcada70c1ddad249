#include "nn/serialize.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

namespace deepod::nn {
namespace {

constexpr uint32_t kMagic = 0xd33b0d02;        // "deepod" format v2+
constexpr uint32_t kVersion = 2;       // all-f64 records
constexpr uint32_t kVersionQuant = 3;  // may carry f16/int8 records

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

template <typename T>
void AppendPod(std::vector<uint8_t>& buf, const T& value) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
  buf.insert(buf.end(), bytes, bytes + sizeof(T));
}

// Bounds-checked POD read; returns false instead of reading past the end.
template <typename T>
bool TryReadPod(const std::vector<uint8_t>& buf, size_t& offset, T* value) {
  if (offset + sizeof(T) > buf.size()) return false;
  std::memcpy(value, buf.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
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

// --- Tagged state-dict format (v2) ------------------------------------------

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

std::vector<uint8_t> SerializeStateDict(const StateDict& state) {
  return SerializeStateDict(state, QuantMode::kNone);
}

std::vector<uint8_t> SerializeStateDict(const StateDict& state,
                                        QuantMode quant) {
  bool any_quantised = false;
  for (const auto& e : state.entries()) {
    if (DtypeFor(e, quant) != kDtypeF64) any_quantised = true;
  }
  std::vector<uint8_t> buf;
  buf.reserve(SerializedStateSize(state));  // upper bound for any dtype mix
  AppendPod(buf, kMagic);
  // All-f64 files stay version 2 so old readers keep working; the version
  // only moves when a record an old reader would misparse is present.
  AppendPod(buf, any_quantised ? kVersionQuant : kVersion);
  AppendPod(buf, static_cast<uint64_t>(state.size()));
  for (const auto& e : state.entries()) {
    AppendPod(buf, static_cast<uint32_t>(e.name.size()));
    buf.insert(buf.end(), e.name.begin(), e.name.end());
    const uint8_t dtype = DtypeFor(e, quant);
    AppendPod(buf, dtype);
    AppendPod(buf, static_cast<uint32_t>(e.shape.size()));
    for (size_t d : e.shape) AppendPod(buf, static_cast<uint64_t>(d));
    switch (dtype) {
      case kDtypeF64: {
        const auto* payload = reinterpret_cast<const uint8_t*>(e.data);
        buf.insert(buf.end(), payload, payload + sizeof(double) * e.size);
        break;
      }
      case kDtypeF16: {
        for (size_t i = 0; i < e.size; ++i) {
          AppendPod(buf, HalfFromDouble(e.data[i]));
        }
        break;
      }
      case kDtypeI8: {
        const size_t rows = RecordRows(e.shape);
        const size_t cols = e.size / rows;
        std::vector<double> scales(rows);
        std::vector<int8_t> q(e.size);
        QuantizeInt8(e.data, rows, cols, scales.data(), q.data());
        const auto* sbytes = reinterpret_cast<const uint8_t*>(scales.data());
        buf.insert(buf.end(), sbytes, sbytes + sizeof(double) * rows);
        const auto* qbytes = reinterpret_cast<const uint8_t*>(q.data());
        buf.insert(buf.end(), qbytes, qbytes + e.size);
        break;
      }
    }
  }
  AppendPod(buf, Fnv1a64(buf.data(), buf.size()));
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

LoadStatus IndexStateDict(const std::vector<uint8_t>& buffer,
                          std::vector<TensorRecord>* out,
                          bool verify_checksum) {
  out->clear();
  size_t offset = 0;
  uint32_t magic = 0;
  if (!TryReadPod(buffer, offset, &magic)) return Truncated("header");
  if (magic != kMagic) {
    return LoadStatus::Error(LoadErrorKind::kBadMagic,
                             "not a deepod state dict");
  }
  uint32_t version = 0;
  if (!TryReadPod(buffer, offset, &version)) return Truncated("header");
  if (version != kVersion && version != kVersionQuant) {
    return LoadStatus::Error(
        LoadErrorKind::kBadVersion,
        "unsupported state-dict version " + std::to_string(version) +
            " (reader supports " + std::to_string(kVersion) + " and " +
            std::to_string(kVersionQuant) + ")");
  }
  uint64_t count = 0;
  if (!TryReadPod(buffer, offset, &count)) return Truncated("header");
  if (buffer.size() < offset + sizeof(uint64_t)) return Truncated("checksum");
  const size_t checksum_offset = buffer.size() - sizeof(uint64_t);
  for (uint64_t i = 0; i < count; ++i) {
    TensorRecord rec;
    uint32_t name_len = 0;
    if (!TryReadPod(buffer, offset, &name_len)) return Truncated("record name");
    if (offset + name_len > checksum_offset) return Truncated("record name");
    rec.name.assign(reinterpret_cast<const char*>(buffer.data() + offset),
                    name_len);
    offset += name_len;
    if (!TryReadPod(buffer, offset, &rec.dtype)) {
      return Truncated("record " + rec.name);
    }
    // Quantised dtypes are only legal past the version bump that introduced
    // them — a v2 file carrying one was written by a broken producer.
    const bool dtype_ok =
        rec.dtype == kDtypeF64 ||
        (version == kVersionQuant &&
         (rec.dtype == kDtypeF16 || rec.dtype == kDtypeI8));
    if (!dtype_ok) {
      return LoadStatus::Error(
          LoadErrorKind::kBadDtype,
          "tensor '" + rec.name + "' has unknown dtype tag " +
              std::to_string(static_cast<int>(rec.dtype)) + " for version " +
              std::to_string(version),
          rec.name);
    }
    uint32_t ndim = 0;
    if (!TryReadPod(buffer, offset, &ndim)) {
      return Truncated("record " + rec.name);
    }
    rec.num_elements = 1;
    rec.shape.reserve(ndim);
    for (uint32_t d = 0; d < ndim; ++d) {
      uint64_t dim = 0;
      if (!TryReadPod(buffer, offset, &dim)) {
        return Truncated("record " + rec.name);
      }
      rec.shape.push_back(static_cast<size_t>(dim));
      // An element count past size_t cannot fit in any buffer.
      if (__builtin_mul_overflow(rec.num_elements, static_cast<size_t>(dim),
                                 &rec.num_elements)) {
        return Truncated("payload of " + rec.name);
      }
    }
    rec.payload_offset = offset;
    if (offset > checksum_offset ||
        !PayloadFits(rec, checksum_offset - offset)) {
      return Truncated("payload of " + rec.name);
    }
    offset += RecordPayloadBytes(rec);
    out->push_back(std::move(rec));
  }
  if (offset != checksum_offset) {
    return LoadStatus::Error(LoadErrorKind::kTrailingBytes,
                             "state dict holds bytes past the last record");
  }
  if (verify_checksum) {
    uint64_t stored = 0;
    size_t co = checksum_offset;
    TryReadPod(buffer, co, &stored);
    const uint64_t computed = Fnv1a64(buffer.data(), checksum_offset);
    if (stored != computed) {
      return LoadStatus::Error(LoadErrorKind::kBadChecksum,
                               "state-dict checksum mismatch");
    }
  }
  return LoadStatus::Ok();
}

namespace {

// Decodes a record's payload into `dst` (num_elements doubles),
// dequantising f16/int8 records. Dequantisation reproduces exactly the
// fake-quant values (nn/quant.h): q * scale for int8, the half round-trip
// for f16.
void DecodeRecordInto(const std::vector<uint8_t>& buffer,
                      const TensorRecord& record, double* dst) {
  const uint8_t* payload = buffer.data() + record.payload_offset;
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
      std::vector<double> scales(rows);
      std::memcpy(scales.data(), payload, sizeof(double) * rows);
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
      std::memcpy(dst, payload, sizeof(double) * record.num_elements);
      return;
  }
}

// Index of the first element of `record` that decodes (as DecodeRecordInto
// would) to NaN or an infinity, or SIZE_MAX. Reads the payload in place, so
// validating a load needs no staging copy of the state.
size_t FirstNonFinite(const std::vector<uint8_t>& buffer,
                      const TensorRecord& record) {
  const uint8_t* payload = buffer.data() + record.payload_offset;
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
        double scale;
        std::memcpy(&scale, payload + sizeof(double) * r, sizeof(scale));
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

std::vector<double> ReadRecordPayload(const std::vector<uint8_t>& buffer,
                                      const TensorRecord& record) {
  std::vector<double> out(record.num_elements);
  DecodeRecordInto(buffer, record, out.data());
  return out;
}

std::vector<double> ReadRecordScales(const std::vector<uint8_t>& buffer,
                                     const TensorRecord& record) {
  if (record.dtype != kDtypeI8) return {};
  const size_t rows = RecordRows(record.shape);
  std::vector<double> scales(rows);
  std::memcpy(scales.data(), buffer.data() + record.payload_offset,
              sizeof(double) * rows);
  return scales;
}

LoadStatus DeserializeStateDict(const std::vector<uint8_t>& buffer,
                                StateDict& state) {
  std::vector<TensorRecord> records;
  if (LoadStatus status = IndexStateDict(buffer, &records); !status.ok()) {
    return status;
  }
  return DeserializeStateDict(buffer, records, state);
}

LoadStatus DeserializeStateDict(const std::vector<uint8_t>& buffer,
                                const std::vector<TensorRecord>& records,
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
    if (const size_t bad = FirstNonFinite(buffer, *sources[i]);
        bad != SIZE_MAX) {
      return NonFiniteError(entries[i].name, bad);
    }
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    DecodeRecordInto(buffer, *sources[i], entries[i].data);
  }
  // Parameter storage changed in place: derived caches (the kSimd packed
  // weights) must rebuild.
  BumpParamEpoch();
  return LoadStatus::Ok();
}

LoadStatus CheckFinite(const StateDict& state) {
  for (const auto& e : state.entries()) {
    if (e.values == StateDict::Values::kAny) continue;
    for (size_t i = 0; i < e.size; ++i) {
      if (!std::isfinite(e.data[i])) return NonFiniteError(e.name, i);
    }
  }
  return LoadStatus::Ok();
}

LoadStatus ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return LoadStatus::Error(LoadErrorKind::kIoError, "cannot open " + path);
  }
  const auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  out->resize(size);
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(size));
  if (!in) {
    return LoadStatus::Error(LoadErrorKind::kIoError, "cannot read " + path);
  }
  return LoadStatus::Ok();
}

LoadStatus SaveStateDict(const std::string& path, const StateDict& state) {
  return SaveStateDict(path, state, QuantMode::kNone);
}

LoadStatus SaveStateDict(const std::string& path, const StateDict& state,
                         QuantMode quant) {
  const auto buf = SerializeStateDict(state, quant);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return LoadStatus::Error(LoadErrorKind::kIoError, "cannot open " + path);
  }
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) {
    return LoadStatus::Error(LoadErrorKind::kIoError, "cannot write " + path);
  }
  return LoadStatus::Ok();
}

LoadStatus LoadStateDict(const std::string& path, StateDict& state) {
  std::vector<uint8_t> buf;
  if (LoadStatus status = ReadFileBytes(path, &buf); !status.ok()) {
    return status;
  }
  return DeserializeStateDict(buf, state);
}

}  // namespace deepod::nn
