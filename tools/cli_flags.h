#ifndef DEEPOD_TOOLS_CLI_FLAGS_H_
#define DEEPOD_TOOLS_CLI_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "nn/quant.h"
#include "nn/tensor.h"

namespace deepod::tools::cli {

// Shared flag parsing for the CLI tools (deepod_train / deepod_server /
// deepod_loadgen). Before this helper each tool hand-rolled
// the same argv walk — three private copies of --quant parsing, two of
// --kernel, each with its own error text. FlagCursor owns the walk and the
// typed value-takes, so a given flag parses and fails identically
// everywhere:
//
//   cli::FlagCursor flags(argc, argv);
//   while (flags.Next()) {
//     if (flags.flag() == "--artifact") {
//       if (!flags.StringValue(&artifact_path)) return 2;
//     } else if (flags.flag() == "--quant") {
//       if (!flags.QuantValue(&options.quant)) return 2;
//     } else { return usage(); }
//   }
//
// Every value-take consumes the next argv token; on a missing or invalid
// value it prints one consistent diagnostic to stderr ("missing value for
// --artifact", "unknown --quant mode 'x' (expected none|fp16|int8)", ...)
// and returns false — callers just propagate exit code 2.
class FlagCursor {
 public:
  FlagCursor(int argc, char** argv) : argc_(argc), argv_(argv) {}

  // Advances to the next flag; false when argv is exhausted.
  bool Next();
  const std::string& flag() const { return flag_; }

  // Typed value-takes for the flag just returned by Next().
  bool StringValue(std::string* out);
  bool SizeValue(size_t* out);    // unsigned decimal
  bool IntValue(int* out);        // signed decimal
  bool U64Value(uint64_t* out);
  bool DoubleValue(double* out);
  bool PortValue(uint16_t* out);  // 0..65535

  // Domain-typed takes shared across tools.
  // --quant none|fp16|int8 (nn::ParseQuantMode under the hood).
  bool QuantValue(nn::QuantMode* out);
  // --kernel blocked|vector|simd.
  bool KernelValue(nn::KernelMode* out);
  bool KernelValue(std::optional<nn::KernelMode>* out);
  // --tolerance X with the X >= 0 contract every replay gate shares.
  bool ToleranceValue(double* out);
  // --data DIR: a deepod_datagen directory; fails with a consistent
  // message when DIR/manifest.csv is missing.
  bool DataDirValue(std::string* out);

  // Canonical usage fragments, so every tool's --help names the shared
  // flags the same way.
  static const char* QuantHelp();      // "--quant none|fp16|int8"
  static const char* KernelHelp();     // "--kernel blocked|vector|simd"
  static const char* ToleranceHelp();  // "--tolerance X"

 private:
  // Consumes the next argv token as the current flag's value; nullptr (and
  // the diagnostic) when there is none.
  const char* TakeRaw();

  int argc_;
  char** argv_;
  int index_ = 0;
  std::string flag_;
};

}  // namespace deepod::tools::cli

#endif  // DEEPOD_TOOLS_CLI_FLAGS_H_
