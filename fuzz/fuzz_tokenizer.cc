// Fuzz target for the tokenizer: arbitrary bytes as one value, the token
// stream cross-checked against an in-harness per-byte reference scanner
// (an independent copy, not the library's — a shared bug cannot hide).
// Also pins TokenCount == stream length and that tokens tile the input
// with no gaps or overlaps. Any divergence aborts, so libFuzzer minimizes
// the offending value.
//
// Build with -DAV_FUZZ=ON; under clang this is a libFuzzer binary, under
// gcc it links fuzz/standalone_driver.cc and replays files given as args.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "pattern/token.h"

namespace {

bool RefDigit(unsigned char c) { return c >= '0' && c <= '9'; }
bool RefLetter(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool RefAlnum(unsigned char c) { return RefDigit(c) || RefLetter(c); }

std::vector<av::Token> ReferenceTokenize(std::string_view value) {
  std::vector<av::Token> out;
  const size_t n = value.size();
  size_t i = 0;
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(value[i]);
    if (RefAlnum(c)) {
      size_t j = i;
      bool has_digit = false, has_letter = false;
      while (j < n && RefAlnum(static_cast<unsigned char>(value[j]))) {
        (RefDigit(static_cast<unsigned char>(value[j])) ? has_digit
                                                        : has_letter) = true;
        ++j;
      }
      const av::TokenClass cls = has_digit && has_letter
                                     ? av::TokenClass::kAlnum
                                 : has_digit ? av::TokenClass::kDigits
                                             : av::TokenClass::kLetters;
      out.push_back(av::Token{cls, static_cast<uint32_t>(i),
                              static_cast<uint32_t>(j - i)});
      i = j;
    } else if (c >= 0x80) {
      size_t j = i;
      while (j < n && static_cast<unsigned char>(value[j]) >= 0x80) ++j;
      out.push_back(av::Token{av::TokenClass::kOther, static_cast<uint32_t>(i),
                              static_cast<uint32_t>(j - i)});
      i = j;
    } else {
      out.push_back(
          av::Token{av::TokenClass::kSymbol, static_cast<uint32_t>(i), 1});
      ++i;
    }
  }
  return out;
}

[[noreturn]] void Die(const char* what, std::string_view value) {
  std::fprintf(stderr, "tokenizer divergence: %s (value %zu bytes)\n", what,
               value.size());
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view value(reinterpret_cast<const char*>(data), size);
  const std::vector<av::Token> expect = ReferenceTokenize(value);

  std::vector<av::Token> got;
  av::TokenizeInto(value, &got);
  if (got != expect) Die("token stream", value);
  if (av::TokenCount(value) != expect.size()) Die("TokenCount", value);
  uint32_t pos = 0;
  for (const av::Token& t : got) {
    if (t.begin != pos || t.len == 0) Die("coverage", value);
    pos += t.len;
  }
  if (pos != value.size()) Die("coverage end", value);
  return 0;
}
