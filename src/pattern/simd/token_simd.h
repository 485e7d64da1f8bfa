// Name of the tokenizer implementation, for benchmark environment records.
//
// The tokenizer has one implementation, the scalar run scanner in
// pattern/token.cc. These declarations remain only because the repository
// benchmark (avbench/workloads.cc) prints TokenizerArmName(TokenizerDispatch())
// into its environment record, and the benchmark sources change only with
// a change to the benchmark itself. Delete this header together with that
// line.
#pragma once

#include <cstdint>

namespace av::simd {

enum class TokenizerArm : uint8_t {
  kScalar = 0,
};

inline const char* TokenizerArmName(TokenizerArm) { return "scalar"; }

inline TokenizerArm TokenizerDispatch() { return TokenizerArm::kScalar; }

}  // namespace av::simd
