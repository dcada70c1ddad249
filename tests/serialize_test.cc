// Tests for the tagged state-dict format (nn/serialize.h, v2) and the
// named-state plumbing it rides on: round-trip bit-identity, strict
// validate-before-write semantics, typed errors naming the first offending
// tensor, and rejection of the retired positional format (v1).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/conv.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace deepod::nn {
namespace {

// A small dict with one matrix parameter, one vector buffer and one scalar
// buffer — the three entry kinds the format must carry.
struct DictFixture {
  Tensor weight = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  std::vector<double> running = {0.5, -0.5};
  double scale = 42.0;

  StateDict Dict() {
    StateDict dict;
    dict.AddParameter("mlp.weight", weight);
    dict.AddBuffer("bn.running_mean", {2}, running.data());
    dict.AddScalarBuffer("time_scale", &scale);
    return dict;
  }
};

TEST(StateDictTest, RoundTripIsBitExact) {
  DictFixture src;
  const std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());
  EXPECT_EQ(bytes.size(), SerializedStateSize(src.Dict()));

  DictFixture dst;
  dst.weight.data().assign(6, 0.0);
  dst.running = {9.0, 9.0};
  dst.scale = 0.0;
  StateDict dict = dst.Dict();
  ASSERT_TRUE(DeserializeStateDict(bytes, dict).ok());
  EXPECT_EQ(dst.weight.data(), src.weight.data());
  EXPECT_EQ(dst.running, src.running);
  EXPECT_EQ(dst.scale, src.scale);
}

TEST(StateDictTest, LoadMatchesByNameNotPosition) {
  DictFixture src;
  const std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());

  // Same entries registered in a different order: by-name matching must
  // still restore each one.
  DictFixture dst;
  dst.weight.data().assign(6, 0.0);
  dst.running = {0.0, 0.0};
  dst.scale = 0.0;
  StateDict dict;
  dict.AddScalarBuffer("time_scale", &dst.scale);
  dict.AddBuffer("bn.running_mean", {2}, dst.running.data());
  dict.AddParameter("mlp.weight", dst.weight);
  ASSERT_TRUE(DeserializeStateDict(bytes, dict).ok());
  EXPECT_EQ(dst.weight.data(), src.weight.data());
  EXPECT_EQ(dst.scale, 42.0);
}

TEST(StateDictTest, FindAndNumElements) {
  DictFixture src;
  const StateDict dict = src.Dict();
  ASSERT_NE(dict.Find("bn.running_mean"), nullptr);
  EXPECT_TRUE(dict.Find("bn.running_mean")->is_buffer);
  EXPECT_FALSE(dict.Find("mlp.weight")->is_buffer);
  EXPECT_EQ(dict.Find("nope"), nullptr);
  EXPECT_EQ(dict.NumElements(), 6u + 2u + 1u);
}

TEST(StateDictTest, BatchNormBuffersAreNamedStateNotParameters) {
  BatchNorm2d bn(3);
  const StateDict dict = bn.State("cnn.bn1.");
  const auto* mean = dict.Find("cnn.bn1.running_mean");
  const auto* var = dict.Find("cnn.bn1.running_var");
  ASSERT_NE(mean, nullptr);
  ASSERT_NE(var, nullptr);
  EXPECT_TRUE(mean->is_buffer);
  EXPECT_TRUE(var->is_buffer);
  // Running statistics must not reach the optimiser.
  EXPECT_EQ(bn.Parameters().size() + 2, dict.size());
  for (const auto& e : bn.NamedParameters()) {
    EXPECT_FALSE(e.is_buffer) << e.name;
  }
  EXPECT_EQ(bn.NamedBuffers().size(), 2u);
}

TEST(StateDictTest, HierarchicalNamesThroughModuleTree) {
  util::Rng rng(7);
  Mlp2 mlp(4, 8, 2, rng);
  const StateDict dict = mlp.State("mlp1.");
  EXPECT_EQ(dict.size(), mlp.Parameters().size());
  for (const auto& e : dict.entries()) {
    EXPECT_EQ(e.name.rfind("mlp1.", 0), 0u) << e.name;
  }
  // Named parameters come back in Parameters() order (the optimiser order).
  const auto params = mlp.Parameters();
  const auto named = mlp.NamedParameters();
  ASSERT_EQ(params.size(), named.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(named[i].data, params[i].data().data());
  }
}

// --- Negative paths ---------------------------------------------------------

TEST(StateDictTest, TruncationReportedBeforeAnyWrite) {
  DictFixture src;
  std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());
  bytes.resize(bytes.size() - 12);  // chop into the last payload/checksum

  DictFixture dst;
  dst.scale = -1.0;
  StateDict dict = dst.Dict();
  const LoadStatus status = DeserializeStateDict(bytes, dict);
  EXPECT_EQ(status.kind, LoadErrorKind::kTruncated);
  EXPECT_EQ(dst.scale, -1.0);  // untouched
  EXPECT_EQ(dst.weight.at(0, 0), 1.0);
}

TEST(StateDictTest, BadMagicReported) {
  DictFixture src;
  std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());
  bytes[0] ^= 0xff;
  std::vector<TensorRecord> records;
  EXPECT_EQ(IndexStateDict(bytes, &records).kind, LoadErrorKind::kBadMagic);
}

// The retired v1 positional format (magic 0xd33b0d01, little-endian) is
// just another foreign stream.
TEST(StateDictTest, V1MagicReportedAsBadMagic) {
  const std::vector<uint8_t> v1 = {0x01, 0x0d, 0x3b, 0xd3};
  std::vector<TensorRecord> records;
  EXPECT_EQ(IndexStateDict(v1, &records).kind, LoadErrorKind::kBadMagic);
}

TEST(StateDictTest, BadVersionReported) {
  DictFixture src;
  std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());
  bytes[4] = 99;  // version field follows the u32 magic
  std::vector<TensorRecord> records;
  EXPECT_EQ(IndexStateDict(bytes, &records).kind, LoadErrorKind::kBadVersion);
}

TEST(StateDictTest, CorruptPayloadFailsChecksum) {
  DictFixture src;
  std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());
  std::vector<TensorRecord> records;
  ASSERT_TRUE(IndexStateDict(bytes, &records).ok());
  bytes[records[0].payload_offset] ^= 0x01;  // flip one payload bit
  DictFixture dst;
  StateDict dict = dst.Dict();
  EXPECT_EQ(DeserializeStateDict(bytes, dict).kind,
            LoadErrorKind::kBadChecksum);
}

TEST(StateDictTest, TrailingGarbageReported) {
  DictFixture src;
  std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
  std::vector<TensorRecord> records;
  EXPECT_EQ(IndexStateDict(bytes, &records).kind,
            LoadErrorKind::kTrailingBytes);
}

TEST(StateDictTest, RecordHeaderInsideTheChecksumIsTruncated) {
  // One record more than the stream holds: the next name length is read
  // from the checksum bytes. Zeroed there, it is a zero-length name that
  // still ends past the records, so framing reports it before the dtype
  // (read from the checksum too) can pass for a bad dtype.
  DictFixture src;
  std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + 8, sizeof(count));
  ++count;
  std::memcpy(bytes.data() + 8, &count, sizeof(count));
  std::memset(bytes.data() + bytes.size() - 8, 0, 8);
  std::vector<TensorRecord> records;
  const LoadStatus status = IndexStateDict(bytes, &records);
  EXPECT_EQ(status.kind, LoadErrorKind::kTruncated);
  EXPECT_EQ(status.message, "state dict truncated in record name");
}

TEST(StateDictTest, ShapeMismatchNamesTheTensor) {
  DictFixture src;
  const std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());

  Tensor wrong = Tensor::Zeros({3, 2});  // transposed vs the file's [2, 3]
  DictFixture dst;
  StateDict dict;
  dict.AddParameter("mlp.weight", wrong);
  dict.AddBuffer("bn.running_mean", {2}, dst.running.data());
  dict.AddScalarBuffer("time_scale", &dst.scale);
  const LoadStatus status = DeserializeStateDict(bytes, dict);
  EXPECT_EQ(status.kind, LoadErrorKind::kShapeMismatch);
  EXPECT_EQ(status.tensor, "mlp.weight");
  EXPECT_NE(status.message.find("[2, 3]"), std::string::npos) << status.message;
  // Nothing was written, not even the entries that did match.
  EXPECT_EQ(dst.scale, 42.0);
  EXPECT_EQ(dst.running[0], 0.5);
}

TEST(StateDictTest, MissingTensorNamesTheTensor) {
  DictFixture src;
  const std::vector<uint8_t> bytes = SerializeStateDict(src.Dict());
  DictFixture dst;
  StateDict dict = dst.Dict();
  double extra = 0.0;
  dict.AddScalarBuffer("optimizer.step", &extra);  // not in the file
  const LoadStatus status = DeserializeStateDict(bytes, dict);
  EXPECT_EQ(status.kind, LoadErrorKind::kMissingTensor);
  EXPECT_EQ(status.tensor, "optimizer.step");
}

TEST(StateDictTest, UnexpectedTensorNamesTheTensor) {
  DictFixture src;
  StateDict wide = src.Dict();
  double extra = 1.0;
  wide.AddScalarBuffer("stray", &extra);
  const std::vector<uint8_t> bytes = SerializeStateDict(wide);

  DictFixture dst;
  StateDict dict = dst.Dict();  // does not expect "stray"
  const LoadStatus status = DeserializeStateDict(bytes, dict);
  EXPECT_EQ(status.kind, LoadErrorKind::kUnexpectedTensor);
  EXPECT_EQ(status.tensor, "stray");
}

TEST(StateDictTest, ThrowIfErrorCarriesTypedStatus) {
  const LoadStatus bad =
      LoadStatus::Error(LoadErrorKind::kBadChecksum, "boom", "t");
  try {
    ThrowIfError(bad);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.status().kind, LoadErrorKind::kBadChecksum);
    EXPECT_EQ(e.status().tensor, "t");
    EXPECT_NE(std::string(e.what()).find("bad_checksum"), std::string::npos);
  }
  EXPECT_STREQ(LoadErrorKindName(LoadErrorKind::kMissingTensor),
               "missing_tensor");
  EXPECT_STREQ(LoadErrorKindName(LoadErrorKind::kNone), "ok");
}

TEST(StateDictTest, FileHelpersAndIoError) {
  DictFixture src;
  const std::string path = testing::TempDir() + "serialize_test_dict.bin";
  ASSERT_TRUE(SaveStateDict(path, src.Dict()).ok());

  DictFixture dst;
  dst.scale = 0.0;
  StateDict dict = dst.Dict();
  ASSERT_TRUE(LoadStateDict(path, dict).ok());
  EXPECT_EQ(dst.scale, 42.0);
  std::remove(path.c_str());

  std::vector<TensorRecord> records;
  EXPECT_EQ(ReadStateDict(path + ".does-not-exist", &records).kind,
            LoadErrorKind::kIoError);
  StateDict dict2 = dst.Dict();
  EXPECT_EQ(LoadStateDict(path + ".does-not-exist", dict2).kind,
            LoadErrorKind::kIoError);
}

}  // namespace
}  // namespace deepod::nn
