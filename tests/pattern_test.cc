#include "pattern/pattern.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"

namespace av {
namespace {

TEST(PatternTest, ToStringBasicAtoms) {
  Pattern p({Atom::Literal("Mar "), Atom::Fixed(AtomKind::kDigitsFix, 2),
             Atom::Literal(" "), Atom::Fixed(AtomKind::kDigitsFix, 4)});
  EXPECT_EQ(p.ToString(), "Mar <digit>{2} <digit>{4}");
}

TEST(PatternTest, ToStringEscapesSpecials) {
  Pattern p({Atom::Literal("a<b\\c")});
  EXPECT_EQ(p.ToString(), "a\\<b\\\\c");
}

TEST(PatternTest, ToStringRendersEveryAtomKind) {
  // One renderer feeds both ToString and the key fold, so each atom's text
  // is pinned here together with PatternKey == PolyHash64(text).
  const struct {
    Atom atom;
    const char* text;
  } cases[] = {
      {Atom::Literal("a<b\\c<<"), "a\\<b\\\\c\\<\\<"},
      {Atom::Literal("\\"), "\\\\"},
      {Atom::Literal(""), ""},
      {Atom::Fixed(AtomKind::kDigitsFix, 0), "<digit>{0}"},
      {Atom::Fixed(AtomKind::kDigitsFix, 9), "<digit>{9}"},
      {Atom::Fixed(AtomKind::kDigitsFix, 10), "<digit>{10}"},
      {Atom::Fixed(AtomKind::kDigitsFix, UINT32_MAX), "<digit>{4294967295}"},
      {Atom::Var(AtomKind::kDigitsVar), "<digit>+"},
      {Atom::Var(AtomKind::kNum), "<num>"},
      {Atom::Fixed(AtomKind::kLettersFix, 3), "<letter>{3}"},
      {Atom::Var(AtomKind::kLettersVar), "<letter>+"},
      {Atom::Fixed(AtomKind::kAlnumFix, 8), "<alnum>{8}"},
      {Atom::Var(AtomKind::kAlnumVar), "<alnum>+"},
      {Atom::Var(AtomKind::kOtherVar), "<other>+"},
      {Atom::Var(AtomKind::kAnyVar), "<any>+"},
      {Atom::Fixed(AtomKind::kLowerFix, 2), "<lower>{2}"},
      {Atom::Var(AtomKind::kLowerVar), "<lower>+"},
      {Atom::Fixed(AtomKind::kUpperFix, 4), "<upper>{4}"},
      {Atom::Var(AtomKind::kUpperVar), "<upper>+"},
  };
  std::string all;
  std::vector<Atom> atoms;
  for (const auto& c : cases) {
    const Pattern p({c.atom});
    EXPECT_EQ(p.ToString(), c.text);
    EXPECT_EQ(PatternKey(p), PolyHash64(c.text)) << c.text;
    std::string appended = "x";
    AppendAtomText(c.atom, &appended);
    EXPECT_EQ(appended, std::string("x") + c.text);
    all += c.text;
    atoms.push_back(c.atom);
  }
  const Pattern whole(atoms);
  EXPECT_EQ(whole.ToString(), all);
  EXPECT_EQ(PatternKey(whole), PolyHash64(all));
}

TEST(PatternTest, ParseRoundTripsAllKinds) {
  const char* cases[] = {
      "<digit>{2}",        "<digit>+",  "<num>",     "<letter>{3}",
      "<lower>{2}",        "<lower>+",  "<upper>{3}", "<upper>+",
      "<letter>+",         "<alnum>{8}", "<alnum>+", "<other>+",
      "<any>+",            "Mar <digit>{2} <digit>{4}",
      "a\\<b\\\\c",        "/m/<alnum>+",
      "<digit>+/<digit>+/<digit>{4} <digit>+:<digit>{2}:<digit>{2} "
      "<letter>{2}",
  };
  for (const char* text : cases) {
    auto p = Pattern::Parse(text);
    ASSERT_TRUE(p.ok()) << text << ": " << p.status().ToString();
    EXPECT_EQ(p->ToString(), text);
  }
}

TEST(PatternTest, ParseRejectsMalformed) {
  const char* bad[] = {
      "<digit>",      // missing quantifier
      "<digit>{}",    // empty length
      "<digit>{x}",   // non-numeric
      "<digit>{0}",   // zero length
      "<unknown>+",   // unknown tag
      "<digit",       // unterminated
      "abc\\",        // dangling escape
      "<num>+",       // num takes no quantifier
      "<other>{2}",   // other must be var
      "<any>{3}",     // any must be var
      "<digit>{2",    // unterminated brace
  };
  for (const char* text : bad) {
    auto p = Pattern::Parse(text);
    EXPECT_FALSE(p.ok()) << "should reject: " << text;
  }
}

TEST(PatternTest, AppendMergesAdjacentLiterals) {
  Pattern a({Atom::Literal("ab")});
  Pattern b({Atom::Literal("cd"), Atom::Var(AtomKind::kDigitsVar)});
  a.Append(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.atoms()[0].lit, "abcd");
  EXPECT_EQ(a.ToString(), "abcd<digit>+");
}

TEST(PatternTest, SpecificityOrdering) {
  auto score = [](const char* s) {
    return Pattern::Parse(s)->SpecificityScore();
  };
  EXPECT_GT(score("Mar"), score("<letter>{3}"));
  EXPECT_GT(score("<letter>{3}"), score("<letter>+"));
  EXPECT_GT(score("<letter>+"), score("<alnum>+"));
  EXPECT_GT(score("<alnum>+"), score("<any>+"));
}

TEST(PatternTest, HashDiffersAcrossPatterns) {
  const auto a = PatternHash(*Pattern::Parse("<digit>{2}"));
  const auto b = PatternHash(*Pattern::Parse("<digit>{3}"));
  const auto c = PatternHash(*Pattern::Parse("<letter>{2}"));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, PatternHash(*Pattern::Parse("<digit>{2}")));
}

TEST(PatternTest, EmptyPattern) {
  Pattern p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.ToString(), "");
  auto parsed = Pattern::Parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

}  // namespace
}  // namespace av
