#include "pattern/generalize.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/hash.h"
#include "lakegen/lakegen.h"
#include "pattern/matcher.h"

namespace av {
namespace {

std::vector<std::string> MonthColumn() {
  // Figure 2's C1: all values from March 2019.
  std::vector<std::string> values;
  for (int d = 1; d <= 28; ++d) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "Mar %02d 2019", d);
    values.push_back(buf);
  }
  return values;
}

TEST(ColumnProfileTest, GroupsByShape) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"1/2/2019", "11/22/2020",
                                           "Delivered", "3/4/2021"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 2u);
  EXPECT_EQ(profile.shapes()[0].weight, 3u);  // dominant first
  EXPECT_EQ(profile.shapes()[1].weight, 1u);
  EXPECT_EQ(profile.total_weight(), 4u);
}

TEST(ColumnProfileTest, CountsDuplicates) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"a", "a", "a", "b"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  EXPECT_EQ(profile.shapes()[0].weight, 4u);
  EXPECT_EQ(profile.num_distinct(), 2u);
}

TEST(ColumnProfileTest, EmptyValuesExcludedFromShapes) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"a", "", "b"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  EXPECT_EQ(profile.shapes()[0].weight, 2u);
  EXPECT_EQ(profile.total_weight(), 3u);  // empty counted in total
}

TEST(ColumnProfileTest, DistinctCapFeedsTotalsOnly) {
  GeneralizeConfig cfg;
  cfg.max_distinct_values = 4;
  std::vector<std::string> values;
  for (int i = 0; i < 10; ++i) {
    std::string v = "v";
    v += std::to_string(i);
    values.push_back(std::move(v));
  }
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  EXPECT_EQ(profile.num_distinct(), 4u);
  EXPECT_EQ(profile.total_weight(), 10u);
}

TEST(ColumnProfileTest, OverTokenLimitFlagged) {
  GeneralizeConfig cfg;
  cfg.max_tokens = 3;
  const std::vector<std::string> values = {"a b c d e"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  EXPECT_TRUE(profile.shapes()[0].over_token_limit);
}

TEST(HypothesisTest, IntersectionOptionsForC1) {
  // H(C) for the March column must contain the ideal validation pattern
  // "<letter>{3} <digit>{2} <digit>{4}" and the profiling pattern
  // "Mar <digit>{2} 2019" (both consistent with every value).
  GeneralizeConfig cfg;
  const auto values = MonthColumn();
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  ShapeOptions options(profile, profile.shapes()[0], cfg);

  std::set<std::string> hypotheses;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<letter>{3} <digit>{2} <digit>{4}"))
      << "ideal validation pattern missing from H(C)";
  EXPECT_TRUE(hypotheses.count("Mar <digit>{2} 2019"))
      << "profiling pattern missing from H(C)";
  EXPECT_TRUE(hypotheses.count("Mar <digit>+ <digit>+"));
  // Patterns inconsistent with the data must be absent.
  EXPECT_FALSE(hypotheses.count("Apr <digit>{2} <digit>{4}"));
}

TEST(HypothesisTest, EveryHypothesisMatchesEveryValue) {
  GeneralizeConfig cfg;
  const auto values = MonthColumn();
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  size_t count = 0;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    ++count;
    for (const auto& v : values) {
      ASSERT_TRUE(Matches(p, v)) << p.ToString() << " vs " << v;
    }
  });
  EXPECT_GT(count, 4u);
}

TEST(HypothesisTest, MixedChunksUseAlnumLadder) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"1a2b-99", "7777-12", "abcd-34"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  std::set<std::string> hypotheses;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<alnum>{4}-<digit>{2}"));
  EXPECT_TRUE(hypotheses.count("<alnum>+-<digit>+"));
  // Pure-class ladders cannot cover the mixed position.
  EXPECT_FALSE(hypotheses.count("<digit>{4}-<digit>{2}"));
}

TEST(HypothesisTest, CaseRungsForConsistentlyCasedColumns) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"en-us", "fr-fr", "de-jp"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  std::set<std::string> hypotheses;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<lower>{2}-<lower>{2}"));
  EXPECT_TRUE(hypotheses.count("<letter>{2}-<letter>{2}"));
}

TEST(HypothesisTest, NoLowerRungWhenCasingIsMixed) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"en-US", "fr-FR", "de-JP"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  std::set<std::string> hypotheses;
  options.EnumerateHypotheses(100000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<lower>{2}-<upper>{2}"));
  EXPECT_FALSE(hypotheses.count("<lower>{2}-<lower>{2}"));
  EXPECT_FALSE(hypotheses.count("<upper>{2}-<upper>{2}"));
}

TEST(UnionEnumerationTest, WeightsAreExactMatchCounts) {
  GeneralizeConfig cfg;
  cfg.coverage_frac = 0.0;
  cfg.min_cover_values = 1;
  // 3 values with 1-digit hour, 1 value with 2-digit hour.
  const std::vector<std::string> values = {"9:07", "8:30", "7:45", "10:02"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ASSERT_EQ(profile.shapes().size(), 1u);
  ShapeOptions options(profile, profile.shapes()[0], cfg);

  bool saw_fix1 = false, saw_var = false;
  options.EnumerateUnion(1, 100000, [&](Pattern&& p, uint64_t weight) {
    const std::string s = p.ToString();
    // Cross-check every reported weight against the matcher.
    size_t matched = 0;
    for (const auto& v : values) {
      if (Matches(p, v)) ++matched;
    }
    EXPECT_EQ(matched, weight) << s;
    if (s == "<digit>{1}:<digit>{2}") {
      saw_fix1 = true;
      EXPECT_EQ(weight, 3u);
    }
    if (s == "<digit>+:<digit>{2}") {
      saw_var = true;
      EXPECT_EQ(weight, 4u);
    }
  });
  EXPECT_TRUE(saw_fix1);
  EXPECT_TRUE(saw_var);
}

TEST(UnionEnumerationTest, CoveragePruningDropsRarePatterns) {
  GeneralizeConfig cfg;
  std::vector<std::string> values;
  for (int i = 0; i < 99; ++i) values.push_back(std::to_string(1000 + i));
  values.push_back("7");  // rare 1-digit value
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  const uint64_t min_weight = 5;  // 5% coverage floor
  options.EnumerateUnion(min_weight, 100000, [&](Pattern&& p, uint64_t w) {
    EXPECT_GE(w, min_weight) << p.ToString();
    EXPECT_NE(p.ToString(), "<digit>{1}");
  });
}

TEST(UnionEnumerationTest, RespectsPatternBudget) {
  GeneralizeConfig cfg;
  cfg.coverage_frac = 0;
  cfg.min_cover_values = 1;
  std::vector<std::string> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back(std::to_string(10 + i) + ":" + std::to_string(10 + i));
  }
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  size_t emitted = 0;
  options.EnumerateUnion(1, 7, [&](Pattern&&, uint64_t) { ++emitted; });
  EXPECT_LE(emitted, 7u);
  EXPECT_GT(emitted, 0u);
}

TEST(UnionEnumerationTest, KeyedNamesEqualMaterializedPatterns) {
  // The keyed enumeration names each pattern by concatenating precomputed
  // atom texts; over every column of a seeded lake its (key, name, weight)
  // stream must equal materializing each pattern and calling ToString.
  const Corpus corpus = GenerateLake(EnterpriseLakeConfig(40, 3));
  const GeneralizeConfig cfg;
  using Emission = std::tuple<uint64_t, std::string, uint64_t>;
  size_t checked = 0;
  for (const Column* column : corpus.AllColumns()) {
    const ColumnProfile profile = ColumnProfile::Build(column->values, cfg);
    const uint64_t min_weight = std::max<uint64_t>(
        cfg.min_cover_values,
        static_cast<uint64_t>(cfg.coverage_frac *
                              static_cast<double>(profile.total_weight())));
    for (const ShapeGroup& group : profile.shapes()) {
      if (group.over_token_limit) continue;
      ShapeOptions options(profile, group, cfg);
      std::vector<Emission> keyed;
      options.EnumerateUnionKeyed(
          min_weight, cfg.max_patterns_per_column,
          [&](uint64_t key, uint64_t weight, const auto& name) {
            keyed.emplace_back(key, std::string(name()), weight);
          });
      std::vector<Emission> materialized;
      options.EnumerateUnion(
          min_weight, cfg.max_patterns_per_column,
          [&](Pattern&& p, uint64_t weight) {
            materialized.emplace_back(PatternKey(p), p.ToString(), weight);
          });
      ASSERT_EQ(keyed, materialized) << column->name;
      for (const auto& [key, name, weight] : keyed) {
        EXPECT_EQ(PolyHash64(name), key) << name;
        auto parsed = Pattern::Parse(name);
        ASSERT_TRUE(parsed.ok()) << name;
        EXPECT_EQ(parsed->ToString(), name);
      }
      checked += keyed.size();
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(HypothesisRangeTest, SubRangeEnumeratesSegmentPatterns) {
  GeneralizeConfig cfg;
  const std::vector<std::string> values = {"12:34 OK", "56:78 OK"};
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  ShapeOptions options(profile, profile.shapes()[0], cfg);
  // Positions: [digits][:][digits][ ][letters] — range [0,3) is "12:34".
  std::set<std::string> hypotheses;
  options.EnumerateHypothesesRange(0, 3, 1000, [&](Pattern&& p) {
    hypotheses.insert(p.ToString());
  });
  EXPECT_TRUE(hypotheses.count("<digit>{2}:<digit>{2}"));
  EXPECT_FALSE(hypotheses.count("<digit>{2}:<digit>{2} OK"));
}

TEST(AppendAtomMergedTest, MergesLiterals) {
  std::vector<Atom> atoms;
  AppendAtomMerged(atoms, Atom::Literal("a"));
  AppendAtomMerged(atoms, Atom::Literal("b"));
  AppendAtomMerged(atoms, Atom::Var(AtomKind::kDigitsVar));
  AppendAtomMerged(atoms, Atom::Literal("c"));
  ASSERT_EQ(atoms.size(), 3u);
  EXPECT_EQ(atoms[0].lit, "ab");
}

}  // namespace
}  // namespace av
