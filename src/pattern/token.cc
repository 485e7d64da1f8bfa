#include "pattern/token.h"

namespace av {

const char* TokenClassName(TokenClass c) {
  switch (c) {
    case TokenClass::kDigits:
      return "digits";
    case TokenClass::kLetters:
      return "letters";
    case TokenClass::kAlnum:
      return "alnum";
    case TokenClass::kSymbol:
      return "symbol";
    case TokenClass::kOther:
      return "other";
  }
  return "?";
}

namespace {

/// Branch-chain classifiers. On the serial run scan, predicted compares
/// beat a table lookup: real values' class sequences are periodic enough
/// that the branches predict well, while table probes would chain L1 load
/// latencies.
inline bool IsAsciiDigit(unsigned char c) { return c >= '0' && c <= '9'; }
inline bool IsAsciiLetter(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
inline bool IsAsciiAlnum(unsigned char c) {
  return IsAsciiDigit(c) || IsAsciiLetter(c);
}

/// The run scanner: one left-to-right pass that hands each maximal run to
/// `emit(cls, begin, len)`. Templated on the sink so TokenCount compiles to
/// a loop that never materializes a token.
template <typename Emit>
[[gnu::always_inline]] inline void ScanTokens(std::string_view value,
                                              const Emit& emit) {
  const char* p = value.data();
  const size_t n = value.size();
  size_t i = 0;
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(p[i]);
    if (IsAsciiAlnum(c)) {
      size_t j = i;
      bool has_digit = false;
      bool has_letter = false;
      while (j < n && IsAsciiAlnum(static_cast<unsigned char>(p[j]))) {
        if (IsAsciiDigit(static_cast<unsigned char>(p[j]))) {
          has_digit = true;
        } else {
          has_letter = true;
        }
        ++j;
      }
      const TokenClass cls = has_digit && has_letter ? TokenClass::kAlnum
                             : has_digit             ? TokenClass::kDigits
                                                     : TokenClass::kLetters;
      emit(cls, i, j - i);
      i = j;
    } else if (c >= 0x80) {
      size_t j = i + 1;
      while (j < n && static_cast<unsigned char>(p[j]) >= 0x80) ++j;
      emit(TokenClass::kOther, i, j - i);
      i = j;
    } else {
      emit(TokenClass::kSymbol, i, 1);
      ++i;
    }
  }
}

}  // namespace

std::vector<Token> Tokenize(std::string_view value) {
  std::vector<Token> out;
  TokenizeAppend(value, &out);
  return out;
}

void TokenizeInto(std::string_view value, std::vector<Token>* out) {
  out->clear();
  TokenizeAppend(value, out);
}

void TokenizeAppend(std::string_view value, std::vector<Token>* out) {
  ScanTokens(value, [out](TokenClass cls, size_t begin, size_t len) {
    out->push_back(
        Token{cls, static_cast<uint32_t>(begin), static_cast<uint32_t>(len)});
  });
}

size_t TokenCount(std::string_view value) {
  size_t count = 0;
  ScanTokens(value, [&count](TokenClass, size_t, size_t) { ++count; });
  return count;
}

bool TokenIsLower(std::string_view value, const Token& t) {
  if (t.cls != TokenClass::kLetters) return false;
  for (uint32_t i = t.begin; i < t.begin + t.len; ++i) {
    if (value[i] < 'a' || value[i] > 'z') return false;
  }
  return true;
}

bool TokenIsUpper(std::string_view value, const Token& t) {
  if (t.cls != TokenClass::kLetters) return false;
  for (uint32_t i = t.begin; i < t.begin + t.len; ++i) {
    if (value[i] < 'A' || value[i] > 'Z') return false;
  }
  return true;
}

std::string ShapeKey(std::string_view value, std::span<const Token> tokens) {
  std::string key;
  key.reserve(tokens.size() * 2);
  for (const Token& t : tokens) {
    switch (t.cls) {
      case TokenClass::kDigits:
      case TokenClass::kLetters:
      case TokenClass::kAlnum:
        key.push_back('\x01');  // any chunk
        break;
      case TokenClass::kOther:
        key.push_back('\x02');
        break;
      case TokenClass::kSymbol: {
        key.push_back('\x03');
        const char c = value[t.begin];
        if (c >= '\x01' && c <= '\x04') {
          // A symbol character in the marker range could otherwise spell a
          // marker byte inside the key; re-encode it as \x04 plus the
          // character shifted into a printable, never-special byte.
          key.push_back('\x04');
          key.push_back(static_cast<char>(c + 0x40));
        } else {
          key.push_back(c);
        }
        break;
      }
    }
  }
  return key;
}

}  // namespace av
