#include "pattern/token.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "pattern/token_arena.h"

namespace av {
namespace {

// ---------------------------------------------------------------------------
// Reference scanner: a verbatim copy of the original per-character
// branch-chain tokenizer, kept here as the specification the scanner in
// token.cc must reproduce byte-for-byte.

bool RefIsAsciiDigit(unsigned char c) { return c >= '0' && c <= '9'; }
bool RefIsAsciiLetter(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool RefIsAsciiAlnum(unsigned char c) {
  return RefIsAsciiDigit(c) || RefIsAsciiLetter(c);
}

std::vector<Token> ReferenceTokenize(std::string_view value) {
  std::vector<Token> out;
  const size_t n = value.size();
  size_t i = 0;
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(value[i]);
    if (RefIsAsciiAlnum(c)) {
      size_t j = i;
      bool has_digit = false, has_letter = false;
      while (j < n && RefIsAsciiAlnum(static_cast<unsigned char>(value[j]))) {
        if (RefIsAsciiDigit(static_cast<unsigned char>(value[j]))) {
          has_digit = true;
        } else {
          has_letter = true;
        }
        ++j;
      }
      TokenClass cls = has_digit && has_letter ? TokenClass::kAlnum
                       : has_digit             ? TokenClass::kDigits
                                               : TokenClass::kLetters;
      out.push_back(Token{cls, static_cast<uint32_t>(i),
                          static_cast<uint32_t>(j - i)});
      i = j;
    } else if (c >= 0x80) {
      size_t j = i;
      while (j < n && static_cast<unsigned char>(value[j]) >= 0x80) ++j;
      out.push_back(Token{TokenClass::kOther, static_cast<uint32_t>(i),
                          static_cast<uint32_t>(j - i)});
      i = j;
    } else {
      out.push_back(Token{TokenClass::kSymbol, static_cast<uint32_t>(i), 1});
      ++i;
    }
  }
  return out;
}

void ExpectMatchesReference(std::string_view v) {
  const std::vector<Token> expect = ReferenceTokenize(v);
  EXPECT_EQ(Tokenize(v), expect) << "value: " << v;
  EXPECT_EQ(TokenCount(v), expect.size()) << "value: " << v;
  std::vector<Token> into = {Token{TokenClass::kSymbol, 9, 9}};  // stale
  TokenizeInto(v, &into);
  EXPECT_EQ(into, expect) << "value: " << v;
}

std::vector<std::string> Texts(std::string_view v) {
  std::vector<std::string> out;
  for (const Token& t : Tokenize(v)) out.emplace_back(TokenText(v, t));
  return out;
}

TEST(TokenizeTest, EmptyString) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_EQ(TokenCount(""), 0u);
}

TEST(TokenizeTest, PureDigits) {
  const auto tokens = Tokenize("12345");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].cls, TokenClass::kDigits);
  EXPECT_EQ(tokens[0].len, 5u);
}

TEST(TokenizeTest, PureLetters) {
  const auto tokens = Tokenize("Delivered");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].cls, TokenClass::kLetters);
}

TEST(TokenizeTest, MixedAlnumChunkIsOneToken) {
  const auto tokens = Tokenize("abc123def");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].cls, TokenClass::kAlnum);
  EXPECT_EQ(tokens[0].len, 9u);
}

TEST(TokenizeTest, DateTimeExample) {
  // Figure 5's value shape: chunks separated by symbols.
  const auto texts = Texts("9/12/2019 12:01:32 PM");
  const std::vector<std::string> expected = {"9",  "/", "12", "/",  "2019",
                                             " ",  "12", ":", "01", ":",
                                             "32", " ", "PM"};
  EXPECT_EQ(texts, expected);
}

TEST(TokenizeTest, EverySymbolIsItsOwnToken) {
  const auto tokens = Tokenize("a--b");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].cls, TokenClass::kSymbol);
  EXPECT_EQ(tokens[2].cls, TokenClass::kSymbol);
}

TEST(TokenizeTest, TokensCoverWholeStringWithoutGaps) {
  const std::string v = "[0.1|02/18/2015 00:00:00|OnBooking]";
  const auto tokens = Tokenize(v);
  uint32_t pos = 0;
  for (const Token& t : tokens) {
    EXPECT_EQ(t.begin, pos);
    pos += t.len;
  }
  EXPECT_EQ(pos, v.size());
}

TEST(TokenizeTest, NonAsciiBytesFormOtherRuns) {
  const std::string v = "a\xc3\xa9z";  // 'a', UTF-8 e-acute, 'z'
  const auto tokens = Tokenize(v);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].cls, TokenClass::kLetters);
  EXPECT_EQ(tokens[1].cls, TokenClass::kOther);
  EXPECT_EQ(tokens[1].len, 2u);
  EXPECT_EQ(tokens[2].cls, TokenClass::kLetters);
}

TEST(TokenizeTest, ControlBytesAreSymbols) {
  const std::string v = "a\tb\x01";
  const auto tokens = Tokenize(v);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].cls, TokenClass::kSymbol);
  EXPECT_EQ(tokens[3].cls, TokenClass::kSymbol);
}

TEST(ShapeKeyTest, SameSkeletonSameKey) {
  auto key = [](std::string_view v) { return ShapeKey(v, Tokenize(v)); };
  // Chunk classes are wildcarded: digit and hex chunks align.
  EXPECT_EQ(key("1234-ab12"), key("abcd-9999"));
  // Symbols are not wildcarded.
  EXPECT_NE(key("1234-ab12"), key("1234/ab12"));
  // Token counts differ.
  EXPECT_NE(key("a b"), key("a b c"));
}

TEST(ShapeKeyTest, GuidRowsShareShape) {
  auto key = [](std::string_view v) { return ShapeKey(v, Tokenize(v)); };
  EXPECT_EQ(key("3f2504e0-4f89-11d3-9a0c-0305e82c3301"),
            key("12345678-1234-1234-1234-123456789012"));
}

TEST(TokenizeEquivalenceTest, HandPickedBoundaryValues) {
  const std::vector<std::string> values = {
      "",
      "a",
      "\x7f",                       // last ASCII byte: symbol
      "\x80",                       // first non-ASCII byte: other
      "a\x7f\x80z",                 // boundary sandwich
      std::string(1, '\0'),         // NUL is a symbol
      "9/12/2019 12:01:32 PM",
      "abcdefghijklmnopqrstuvwxyz0123456789",  // long alnum run
      "ABCDEFG-1234567890123456789012345678901234567890",
      std::string(64, 'x'),
      std::string(64, '7'),
      std::string(64, '\xc3'),      // long non-ASCII run
      "caf\xc3\xa9 cr\xc3\xa8me",   // UTF-8 mixed with ASCII
      "abcdefg\x80hijklmn",         // non-ASCII byte mid-word
      "abcdefgh\tij",               // symbol exactly at word boundary
      "1234567\x41zzzzzzzz",        // digit run turning alnum at byte 8
  };
  for (const std::string& v : values) ExpectMatchesReference(v);
}

TEST(TokenizeEquivalenceTest, RandomizedPropertyAllByteMixes) {
  // Three generators stress different run structures: raw byte soup, ASCII
  // with long alnum stretches, and UTF-8-ish text with multi-byte runs.
  Rng rng(20260731);
  for (int iter = 0; iter < 3000; ++iter) {
    const size_t len = rng.Below(97);
    std::string v;
    v.reserve(len);
    const int mode = static_cast<int>(rng.Below(3));
    for (size_t i = 0; i < len; ++i) {
      switch (mode) {
        case 0:  // uniform bytes, all 256 values
          v.push_back(static_cast<char>(rng.Below(256)));
          break;
        case 1: {  // alnum-heavy ASCII with occasional symbols
          const uint64_t r = rng.Below(20);
          if (r < 9) {
            v.push_back(static_cast<char>('a' + rng.Below(26)));
          } else if (r < 17) {
            v.push_back(static_cast<char>('0' + rng.Below(10)));
          } else {
            v.push_back(static_cast<char>(rng.Below(0x80)));
          }
          break;
        }
        default: {  // UTF-8-ish: continuation-range bytes in runs
          if (rng.Below(3) == 0) {
            v.push_back(static_cast<char>(0x80 + rng.Below(0x80)));
          } else {
            v.push_back(static_cast<char>(rng.Below(0x80)));
          }
          break;
        }
      }
    }
    ExpectMatchesReference(v);
  }
}

TEST(TokenArenaTest, PacksRunsContiguouslyAndMatchesTokenize) {
  TokenArena arena;
  const std::vector<std::string> values = {"a-1", "", "caf\xc3\xa9", "2019"};
  for (const std::string& v : values) ASSERT_TRUE(arena.Add(v));
  ASSERT_EQ(arena.size(), values.size());
  size_t total = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const auto span = arena.tokens(i);
    const std::vector<Token> expect = Tokenize(values[i]);
    EXPECT_EQ(std::vector<Token>(span.begin(), span.end()), expect);
    EXPECT_EQ(arena.token_count(i), expect.size());
    total += expect.size();
  }
  EXPECT_EQ(arena.total_tokens(), total);
  arena.Clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.total_tokens(), 0u);
}

// The marker re-encode regression: adversarial values whose symbol tokens
// are the literal marker bytes \x01-\x04 must never merge two different
// skeletons into one shape key. Brute-forces every value up to length 4
// over an alphabet of chunk bytes, marker bytes, an ordinary symbol and a
// non-ASCII byte, and checks ShapeKey is injective on skeletons.
TEST(ShapeKeyTest, AdversarialControlBytesNeverCollide) {
  const std::string alphabet = {'a',    '1',    '\x01', '\x02',
                                '\x03', '\x04', '-',    static_cast<char>(0x80)};
  // Canonical (unambiguous) skeleton spelling for the oracle side.
  const auto skeleton = [](std::string_view v) {
    std::string s;
    for (const Token& t : Tokenize(v)) {
      if (IsChunk(t.cls)) {
        s += "[C]";
      } else if (t.cls == TokenClass::kOther) {
        s += "[O]";
      } else {
        s += "[S";
        s += std::to_string(static_cast<unsigned char>(v[t.begin]));
        s += "]";
      }
    }
    return s;
  };
  std::map<std::string, std::string> key_to_skeleton;
  std::vector<std::string> frontier = {""};
  size_t checked = 0;
  for (int len = 1; len <= 4; ++len) {
    std::vector<std::string> next;
    for (const std::string& prev : frontier) {
      for (const char c : alphabet) next.push_back(prev + c);
    }
    for (const std::string& v : next) {
      const std::string key = ShapeKey(v, Tokenize(v));
      const auto [it, inserted] = key_to_skeleton.emplace(key, skeleton(v));
      if (!inserted) {
        ASSERT_EQ(it->second, skeleton(v))
            << "ShapeKey collision between different skeletons";
      }
      ++checked;
    }
    frontier = std::move(next);
  }
  EXPECT_GT(checked, 4000u);
}

TEST(ShapeKeyTest, MarkerRangeSymbolsKeepDistinctIdentities) {
  // Symbols are not wildcards: each marker-range byte is its own skeleton.
  auto key = [](std::string_view v) { return ShapeKey(v, Tokenize(v)); };
  EXPECT_NE(key("\x01"), key("\x02"));
  EXPECT_NE(key("\x01"), key("\x03"));
  EXPECT_NE(key("\x03"), key("\x04"));
  EXPECT_NE(key("a\x01"), key("\x01"
                              "a"));
  // ... while ordinary same-skeleton values still group.
  EXPECT_EQ(key("a\x01z"), key("q\x01"
                               "7"));
}

TEST(TokenizeTest, FuzzNeverCrashesAndCovers) {
  // Deterministic byte soup; the lexer must cover any input exactly.
  uint64_t state = 99;
  for (int iter = 0; iter < 200; ++iter) {
    std::string v;
    const size_t len = (state >> 5) % 64;
    for (size_t i = 0; i < len; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      v.push_back(static_cast<char>(state >> 56));
    }
    const auto tokens = Tokenize(v);
    size_t covered = 0;
    for (const Token& t : tokens) covered += t.len;
    EXPECT_EQ(covered, v.size());
  }
}

}  // namespace
}  // namespace av
