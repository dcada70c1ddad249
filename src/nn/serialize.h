#ifndef DEEPOD_NN_SERIALIZE_H_
#define DEEPOD_NN_SERIALIZE_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/checksum.h"
#include "nn/module.h"
#include "nn/quant.h"

namespace deepod::nn {

// (De)serialisation of model state in the tagged state-dict format (v4),
// the one on-disk contract. Self-describing: a
// magic/version header, one record per tensor holding its *name*, dtype,
// shape and payload, and a trailing checksum over the whole stream. A load
// is one sequential pass that frames the stream, checksums it and lands
// each payload in its record (ReadStateDict / IndexStateDict), then a
// strict decode of that record table (DeserializeStateDict). Tensors are matched by name on load, so
// file layout is decoupled from module traversal order, config mismatches
// are detected (and reported) per tensor, and corruption is caught before
// any value is written into a model. A file in the retired
// positional format (v1, magic 0xd33b0d01) is rejected as kBadMagic like
// any other foreign stream. See DESIGN.md, "Model lifecycle".
//
// Byte layout (all integers little-endian):
//   u32  magic      0xd33b0d02 ("deepod" format, generation 2)
//   u32  version    4
//   u64  entry count
//   per entry:
//     u32  name length, then that many name bytes (UTF-8, no NUL)
//     u8   dtype      1 = f64; 2 = f16; 3 = int8 (per-row scales)
//     u32  ndim, then ndim u64 dims   (ndim 0 = scalar, 1 element)
//     payload:
//       f64  — f64 data[product(dims)]
//       f16  — u16 half-float data[product(dims)]
//       int8 — f64 scales[dims[0]] then i8 quantised data[product(dims)]
//   u64  checksum of every preceding byte: XXH64, seed 0 (nn/checksum.h)
//
// Version policy (CONTRIBUTING.md): every file is written as version 4,
// whatever its dtype mix, and version 4 is the only one read. A change to
// the framing bumps the version and retires the old reader; files in the
// retired versions (the FNV-1a-sealed v2 and v3) read as kBadVersion and
// are rebuilt from their source.

// --- Typed load errors -------------------------------------------------------

enum class LoadErrorKind {
  kNone = 0,
  kIoError,           // file cannot be opened / read / written
  kBadMagic,          // not a state-dict stream
  kBadVersion,        // recognised magic, unsupported format version
  kTruncated,         // stream ends inside a record
  kBadChecksum,       // payload bytes do not match the trailing checksum
  kBadDtype,          // unknown dtype tag in a record, or a dtype its
                      // loader does not read (io/model_artifact: a
                      // quantised speed.matrices)
  kMissingTensor,     // the model expects a tensor the file does not hold
  kUnexpectedTensor,  // the file holds a tensor the model does not expect
  kShapeMismatch,     // name matched but shapes differ (config mismatch)
  kTrailingBytes,     // well-formed records followed by garbage
  kNonFinite,         // a NaN or infinity in a finite-valued tensor
  kBadValue,          // a finite scalar outside its stated domain (e.g. an
                      // artifact config width past its bound)
};

// Outcome of a load/save operation. `tensor` names the first offending
// record for per-tensor failures (kMissingTensor / kUnexpectedTensor /
// kShapeMismatch / kNonFinite / kBadValue); `message` is a human-readable
// one-liner that includes expected-vs-found shapes where applicable.
struct LoadStatus {
  LoadErrorKind kind = LoadErrorKind::kNone;
  std::string tensor;
  std::string message;

  bool ok() const { return kind == LoadErrorKind::kNone; }
  static LoadStatus Ok() { return {}; }
  static LoadStatus Error(LoadErrorKind kind, std::string message,
                          std::string tensor = "");
};

// Short identifier for an error kind ("bad_checksum", ...; "ok" for kNone).
const char* LoadErrorKindName(LoadErrorKind kind);

// Exception form for call sites without a status channel (model Load,
// CLIs). Carries the full typed status.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(LoadStatus status);
  const LoadStatus& status() const { return status_; }

 private:
  LoadStatus status_;
};

// Throws SerializeError if `status` is an error; returns it otherwise.
const LoadStatus& ThrowIfError(const LoadStatus& status);

// --- Tagged state-dict format -----------------------------------------------

// The one format version written and read (see the byte-layout comment
// above).
inline constexpr uint32_t kStateDictVersion = 4;

// Record dtype tags (see the byte-layout comment above).
inline constexpr uint8_t kDtypeF64 = 1;
inline constexpr uint8_t kDtypeF16 = 2;
inline constexpr uint8_t kDtypeI8 = 3;

// "f64" / "f16" / "int8" (or "unknown").
const char* RecordDtypeName(uint8_t dtype);

// "[2, 3]"-style rendering of a tensor shape, as load errors print it.
std::string ShapeToString(const std::vector<size_t>& shape);

// Serialises every entry of `state` (names, shapes, payloads, checksum)
// as an all-f64 version-4 stream.
std::vector<uint8_t> SerializeStateDict(const StateDict& state);

// Quantising writer: entries eligible for weight quantisation (nn/quant.h)
// are stored as f16 or int8 records, everything else stays f64. With
// QuantMode::kNone — or when nothing is eligible — this is exactly the
// overload above.
//
// Writing is one encoder with two sinks: this in-memory buffer, and the
// file SaveStateDict writes. The encoder stages bytes in a fixed
// kReadWindowBytes window and folds them into XXH64 as they leave it; a
// payload of at least a window (an f64 record such as the speed field)
// leaves straight from the entry's storage, so a file write holds no copy
// of the stream.
std::vector<uint8_t> SerializeStateDict(const StateDict& state,
                                        QuantMode quant);

// Byte size the all-f64 SerializeStateDict(state) call would produce.
size_t SerializedStateSize(const StateDict& state);

// One record of a serialised state dict. `payload` is storage the record
// owns, filled by the pass that read and checksummed it: an f64 record's
// values, or the raw on-disk bytes of an f16/int8 record (double-aligned,
// the tail of the last double zero-padded).
struct TensorRecord {
  std::string name;
  uint8_t dtype = 0;
  std::vector<size_t> shape;
  size_t num_elements = 0;
  size_t payload_offset = 0;  // byte offset of the payload in the stream
  std::vector<double> payload;
};

// Restores `state` in place from a state-dict buffer, dequantising f16/int8
// records into the fp64 entry storage. Strict by-name matching: every dict
// entry must appear in the buffer with an identical shape and every buffer
// record must be expected by the dict — the first violation is reported
// with its tensor name and both shapes. Decoded values must be finite
// (kNonFinite naming the entry otherwise; entries marked
// StateDict::Values::kAny are exempt): a NaN weight serves NaN, and the
// padded conv forward is bit-identical to the naive loop only for finite
// weights (nn/kernels.h). No entry is modified unless the whole
// buffer validates (checksum included), so a failed load never leaves a
// model half-written.
// Bumps the parameter epoch on success. Runs IndexStateDict(buffer) and
// then the record-table overload below.
LoadStatus DeserializeStateDict(const std::vector<uint8_t>& buffer,
                                StateDict& state);

// The same restore from a record table that IndexStateDict or
// ReadStateDict returned Ok — framing and checksum verified, every payload
// in its record — so no byte is read or hashed twice. Checks in this order:
// by-name/shape matching, then the finite scan; only then does it decode,
// so nothing reaches `state` until every check has passed. An entry may
// point at its own f64 record's payload: it is checked in place and its
// decode is a no-op, which lets a loader move that storage into its final
// owner afterwards (io/model_artifact does so with the speed arena).
LoadStatus DeserializeStateDict(const std::vector<TensorRecord>& records,
                                StateDict& state);

// The framing parser: one sequential pass over a byte source that frames
// every record, copies its payload into the record and folds each chunk
// into XXH64 as it lands, so the checksum covers exactly the bytes later
// decoded. Errors come in stream order: framing (kBadMagic,
// kBadVersion, kTruncated, kBadDtype), then kTrailingBytes, then
// kBadChecksum. Before a record's name, dims or payload is allocated, its
// size is overflow-checked against the bytes the stream has left, so
// allocation is bounded by the stream size.
//
// IndexStateDict parses an in-memory buffer (tests and the two-argument
// DeserializeStateDict).
LoadStatus IndexStateDict(const std::vector<uint8_t>& buffer,
                          std::vector<TensorRecord>* out);

// Takes the payload of every record named name() while ReadStateDict reads
// it, in place of the record table holding it, so a loader that keeps only
// a reduced form of a large record (io/model_artifact pools the speed
// field) never holds its stored payload whole. Such records are left out of
// the table.
class PayloadConsumer {
 public:
  explicit PayloadConsumer(std::string name) : name_(std::move(name)) {}
  virtual ~PayloadConsumer() = default;
  const std::string& name() const { return name_; }

  // Called once the record's header is framed and its payload size checked
  // against the stream, before any payload byte is read. `earlier` holds
  // every record framed before it, payloads landed but not yet checksummed.
  // Returns whether to take the payload.
  virtual bool Begin(const TensorRecord& record,
                     const std::vector<TensorRecord>& earlier) = 0;
  // The taken payload in stream order, in chunks of any size as they leave
  // the read window. Returns false to take no more of it.
  virtual bool Consume(const uint8_t* bytes, size_t n) = 0;

 private:
  std::string name_;
};

// ReadStateDict parses the file at `path`, sized by fstat and read with
// read(2) through a fixed kReadWindowBytes window. No whole-file buffer
// exists: a payload at least as large as the window takes what the window
// still holds and reads the rest straight into its record. A file that
// shrinks or grows while it is read is kTruncated or kTrailingBytes, and a
// same-size rewrite fails the checksum — never a torn record table. Open
// and read failures are kIoError. Every file loader (LoadStateDict, the
// artifact loaders, deepod_inspect) reads through it.
//
// With a `consumer`, the payload of each record it names is handed to it
// from the window instead (nothing else changes: every byte is still
// framed, bounded and hashed, whether or not the consumer takes it). The
// consumer sees bytes before the checksum is verified, so its result means
// nothing unless this call returns Ok.
inline constexpr size_t kReadWindowBytes = size_t{64} << 10;
LoadStatus ReadStateDict(const std::string& path,
                         std::vector<TensorRecord>* out,
                         PayloadConsumer* consumer = nullptr);

// On-disk payload size of a record, in bytes (dtype-dependent; the int8
// payload carries dims[0] f64 scales before the quantised bytes).
size_t RecordPayloadBytes(const TensorRecord& record);

// Decodes a record's payload into fp64 values (dequantising f16/int8
// records).
std::vector<double> ReadRecordPayload(const TensorRecord& record);

// The per-row scales of an int8 record (dims[0] values); empty for any
// other dtype.
std::vector<double> ReadRecordScales(const TensorRecord& record);

// File helpers. SaveStateDict streams the encoder above into `path`
// (version 4); the QuantMode overload routes through the quantising writer.
LoadStatus SaveStateDict(const std::string& path, const StateDict& state);
LoadStatus SaveStateDict(const std::string& path, const StateDict& state,
                         QuantMode quant);
// ReadStateDict + DeserializeStateDict.
LoadStatus LoadStateDict(const std::string& path, StateDict& state);

}  // namespace deepod::nn

#endif  // DEEPOD_NN_SERIALIZE_H_
