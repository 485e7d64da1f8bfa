#include "index/indexer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <utility>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/temp_file.h"
#include "core/validation_service.h"
#include "common/rng.h"
#include "lakegen/lakegen.h"

#include "index/analysis.h"
#include "index/pattern_index.h"
#include "tests/test_util.h"

// Bytes requested through operator new on the current thread while
// `g_count_allocs` is set: lets a test assert that a loader rejects a
// malformed file before it allocates tables sized from the file's header.
namespace {
thread_local bool g_count_allocs = false;
thread_local size_t g_alloc_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs) g_alloc_bytes += n;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
// The array and nothrow forms are replaced too (the index's name arenas
// allocate arrays, std::stable_sort takes nothrow buffers): sanitizer
// runtimes intercept the default ones directly, which would bypass the
// count and pair their allocations with the free() below.
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_count_allocs) g_alloc_bytes += n;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
// GCC flags free() on memory from operator new even when operator new is
// this malloc-backed replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace av {
namespace {

TEST(PatternIndexTest, AddAggregatesPerDefinition3) {
  PatternIndex idx;
  idx.Add("<digit>+", 0.0);
  idx.Add("<digit>+", 0.5);
  idx.Add("<letter>+", 0.1);
  const auto d = idx.Lookup("<digit>+");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->coverage, 2u);
  EXPECT_DOUBLE_EQ(d->fpr, 0.25);
  EXPECT_FALSE(idx.Lookup("<num>").has_value());
  EXPECT_EQ(idx.size(), 2u);
}

TEST(PatternIndexTest, MergeFrom) {
  PatternIndex a, b;
  a.Add("p", 0.2);
  b.Add("p", 0.4);
  b.Add("q", 0.0);
  a.MergeFrom(std::move(b));
  EXPECT_EQ(a.size(), 2u);
  const auto p = a.Lookup("p");
  EXPECT_EQ(p->coverage, 2u);
  EXPECT_NEAR(p->fpr, 0.3, 1e-12);
}

TEST(PatternIndexTest, MergeIntoEmptyMoves) {
  PatternIndex a, b;
  b.Add("p", 0.1);
  a.MergeFrom(std::move(b));
  EXPECT_EQ(a.size(), 1u);
}

TEST(PatternIndexTest, SaveLoadRoundTrip) {
  PatternIndex idx;
  idx.Add("Mar <digit>{2} <digit>{4}", 0.25);
  idx.Add("<letter>+", 0.0);
  idx.Add("<letter>+", 1.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "av_index_test.bin").string();
  ASSERT_TRUE(idx.Save(path).ok());
  auto loaded = PatternIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  const auto e = loaded->Lookup("<letter>+");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->coverage, 2u);
  EXPECT_DOUBLE_EQ(e->fpr, 0.5);
  std::filesystem::remove(path);
}

TEST(PatternIndexTest, LoadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "av_index_garbage.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an index";
  }
  auto loaded = PatternIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::filesystem::remove(path);
}

/// The (name, key) sequence ForEachSorted emits with `threads` sort threads.
std::vector<std::pair<std::string, uint64_t>> SortedSequence(
    const PatternIndex& idx, size_t threads) {
  std::vector<std::pair<std::string, uint64_t>> seq;
  idx.ForEachSorted(
      [&](uint64_t key, std::string_view name, const PatternIndex::Entry&) {
        seq.emplace_back(std::string(name), key);
      },
      threads);
  return seq;
}

TEST(PatternIndexTest, SortedOrderIsTotalAtAnySize) {
  constexpr size_t kThreshold = PatternIndex::kParallelSortMinRows;
  // Names share a 44-byte prefix, so comparisons run deep into the strings;
  // every 37th entry is nameless (empty name), so those order by key alone.
  const std::string prefix =
      "<digit>{4}-<digit>{2}-<digit>{2}T<digit>{2}:<";
  ASSERT_GE(prefix.size(), 40u);
  for (const size_t n : {size_t{0}, size_t{1}, kThreshold - 1, kThreshold,
                         size_t{100000}}) {
    PatternIndex idx;
    std::vector<std::pair<std::string, uint64_t>> reference;
    Rng rng(n + 1);
    for (size_t i = 0; i < n; ++i) {
      const std::string name =
          i % 37 == 0 ? std::string()
                      : prefix + std::to_string(rng.Below(1u << 30)) + ">";
      const uint64_t key = rng.Next();
      bool fresh = false;
      idx.AddKeyed(key, 0.5, [&] {
        fresh = true;
        return name;
      });
      if (fresh) reference.emplace_back(name, key);
    }
    std::sort(reference.begin(), reference.end());
    ASSERT_EQ(reference.size(), idx.size());
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
      EXPECT_EQ(SortedSequence(idx, threads), reference)
          << "n=" << n << " threads=" << threads;
    }
  }

  // Save sorts on every core: a 1-thread and a 4-thread build of a lake
  // above the parallel threshold must still save identical bytes.
  const Corpus corpus = testutil::SmallLake(200, 5);
  std::string saved[2];
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    IndexerConfig cfg;
    cfg.num_threads = threads;
    const PatternIndex idx = BuildIndex(corpus, cfg);
    ASSERT_GE(idx.size(), kThreshold);
    const std::string path =
        (std::filesystem::temp_directory_path() / "av_index_sorted.bin")
            .string();
    ASSERT_TRUE(idx.Save(path).ok());
    auto file = ReadFileToString(path);
    ASSERT_TRUE(file.ok());
    saved[threads == 1 ? 0 : 1] = std::move(*file);
    std::filesystem::remove(path);
  }
  EXPECT_EQ(saved[0], saved[1]);
}

/// An AVIDX003 image: header claiming `count` entries, then `entries`, then
/// a correct trailer — so the loader gets past the checksum to the entries.
std::string IndexImage(uint64_t count, const std::string& entries) {
  std::string bytes("AVIDX003", 8);
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  bytes += entries;
  const uint64_t len = bytes.size();
  const uint64_t digest = PolyHash64(bytes);
  bytes.append(reinterpret_cast<const char*>(&len), sizeof(len));
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  bytes.append(kTrailerMagic, sizeof(kTrailerMagic));
  return bytes;
}

/// One on-disk entry whose name length field says `len` and whose body is
/// `body_bytes` bytes long (name plus sum_impurity and columns).
std::string EntryBytes(uint64_t key, uint32_t len, size_t body_bytes) {
  std::string e;
  e.append(reinterpret_cast<const char*>(&key), sizeof(key));
  e.append(reinterpret_cast<const char*>(&len), sizeof(len));
  e.append(body_bytes, '\0');
  return e;
}

TEST(PatternIndexTest, LoadRejectsBadEntryHeadersBeforeAllocating) {
  // The header claims as many entries as the payload could hold (~50k), so
  // tables reserved from the count alone would take megabytes; the
  // pre-pass must reject the file before reserving anything.
  constexpr size_t kPayload = 1200000;
  constexpr size_t kCount = kPayload / 24;
  struct Case {
    const char* what;
    std::string entries;
  };
  const Case cases[] = {
      // Entry 0 spans all but 6 bytes, so entry 1's 12-byte header is cut.
      {"truncated entry header",
       EntryBytes(1, kPayload - 12 - 12 - 6, kPayload - 12 - 6) +
           std::string(6, '\0')},
      // Entry 0's name length exceeds the 2^24 loader cap.
      {"name length above 2^24",
       EntryBytes(1, (1u << 24) + 1, kPayload - 12)},
  };
  for (const Case& c : cases) {
    ASSERT_GE(c.entries.size(), kCount * 24) << c.what;
    const std::string image = IndexImage(kCount, c.entries);
    g_alloc_bytes = 0;
    g_count_allocs = true;
    auto loaded = PatternIndex::LoadFromBuffer(image);
    g_count_allocs = false;
    ASSERT_FALSE(loaded.ok()) << c.what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << c.what;
    EXPECT_LT(g_alloc_bytes, 64u * 1024) << c.what;
  }
}

// ---------------------------------------------------------------------------
// Collision checks: two names forged onto one key must never merge silently.

/// A key shared by the forged names "alpha" and "beta" below.
constexpr uint64_t kForgedKey = 0x3c0ffee000000042ULL;

TEST(PatternIndexDeathTest, AddKeyedSampledCheckCatchesCollision) {
  // The sampled check runs on the 256th insertion of a key.
  PatternIndex idx;
  for (int i = 0; i < 255; ++i) {
    idx.AddKeyed(kForgedKey, 0.5, [] { return std::string("alpha"); });
  }
  EXPECT_DEATH(
      idx.AddKeyed(kForgedKey, 0.5, [] { return std::string("beta"); }),
      "key collision");
}

TEST(PatternIndexDeathTest, InsertAggregateCatchesCollision) {
  PatternIndex idx;
  idx.InsertAggregate(kForgedKey, "alpha", 0.5, 2);
  idx.InsertAggregate(kForgedKey, "alpha", 0.5, 2);  // same name: merges
  EXPECT_EQ(idx.Lookup(kForgedKey)->coverage, 4u);
  EXPECT_DEATH(idx.InsertAggregate(kForgedKey, "beta", 0.5, 2),
               "key collision");
}

TEST(PatternIndexDeathTest, MergeShardFromCatchesCollision) {
  // Two chunk indexes name one key differently; the reduce compares the
  // names of every duplicate key it merges, however few columns it has.
  PatternIndex chunk0;
  PatternIndex chunk1;
  chunk0.AddKeyed(kForgedKey, 0.5, [] { return std::string("alpha"); });
  chunk1.AddKeyed(kForgedKey, 0.5, [] { return std::string("beta"); });
  const size_t shard = kForgedKey >> 60;  // the key's shard (top bits)
  PatternIndex global;
  global.MergeShardFrom(shard, &chunk0);  // adopts chunk 0's shard
  EXPECT_DEATH(global.MergeShardFrom(shard, &chunk1), "key collision");
}

/// One on-disk entry with a real name and the given key.
std::string NamedEntryBytes(uint64_t key, std::string_view name,
                            double sum_impurity, uint32_t columns) {
  std::string e;
  const uint32_t len = static_cast<uint32_t>(name.size());
  e.append(reinterpret_cast<const char*>(&key), sizeof(key));
  e.append(reinterpret_cast<const char*>(&len), sizeof(len));
  e.append(name);
  e.append(reinterpret_cast<const char*>(&sum_impurity), sizeof(sum_impurity));
  e.append(reinterpret_cast<const char*>(&columns), sizeof(columns));
  return e;
}

TEST(PatternIndexTest, LoadRejectsKeyNameMismatch) {
  const std::string good =
      NamedEntryBytes(PolyHash64("alpha"), "alpha", 0.5, 2);
  ASSERT_TRUE(PatternIndex::LoadFromBuffer(IndexImage(1, good)).ok());
  // The second entry claims alpha's key under another name.
  const std::string forged =
      NamedEntryBytes(PolyHash64("alpha"), "beta", 0.5, 2);
  auto loaded = PatternIndex::LoadFromBuffer(IndexImage(2, good + forged));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Name storage: names live in per-shard arenas, viewed from the slots, and
// must survive every way an index changes hands.

/// Distinct names long enough that each shard's arena spans several blocks.
std::string ArenaName(size_t i) {
  return "<digit>{" + std::to_string(i) + "}-" + std::string(48, 'n');
}
constexpr size_t kArenaNames = 12000;

PatternIndex ArenaIndex(size_t begin, size_t end) {
  PatternIndex idx;
  for (size_t i = begin; i < end; ++i) idx.Add(ArenaName(i), 0.25);
  return idx;
}

void ExpectNamesIntact(const PatternIndex& idx, size_t begin, size_t end) {
  ASSERT_EQ(idx.size(), end - begin);
  for (size_t i = begin; i < end; ++i) {
    const std::string want = ArenaName(i);
    const auto name = idx.LookupName(PolyHash64(want));
    ASSERT_TRUE(name.has_value()) << want;
    ASSERT_EQ(*name, want);
  }
  size_t seen = 0;
  idx.ForEach([&](const std::string& name, const PatternIndex::Entry&) {
    ASSERT_TRUE(idx.Lookup(name).has_value()) << name;
    ++seen;
  });
  EXPECT_EQ(seen, end - begin);
}

TEST(PatternIndexTest, NamesSurviveAdoptingMerge) {
  PatternIndex global;
  {
    PatternIndex chunk = ArenaIndex(0, kArenaNames);
    global.MergeFrom(std::move(chunk));
    EXPECT_EQ(chunk.size(), 0u);
  }  // the source is destroyed
  ExpectNamesIntact(global, 0, kArenaNames);
}

TEST(PatternIndexTest, NamesSurviveCopyingMerge) {
  PatternIndex global = ArenaIndex(0, kArenaNames / 2);
  {
    // Overlaps half of `global`'s keys, so both the new-name copy and the
    // duplicate-key compare run.
    PatternIndex chunk = ArenaIndex(kArenaNames / 4, kArenaNames);
    global.MergeFrom(std::move(chunk));
    EXPECT_EQ(chunk.size(), 0u);
  }
  ExpectNamesIntact(global, 0, kArenaNames);
  EXPECT_EQ(global.Lookup(ArenaName(kArenaNames / 3))->coverage, 2u);
  EXPECT_EQ(global.Lookup(ArenaName(kArenaNames - 1))->coverage, 1u);
}

TEST(PatternIndexTest, NamesSurviveMoves) {
  auto source = std::make_unique<PatternIndex>(ArenaIndex(0, kArenaNames));
  PatternIndex moved(std::move(*source));
  source.reset();
  ExpectNamesIntact(moved, 0, kArenaNames);
  PatternIndex assigned = ArenaIndex(0, 10);  // its own arena is released
  assigned = std::move(moved);
  ExpectNamesIntact(assigned, 0, kArenaNames);
}

// Golden byte-identity of the saved AVIDX003 payload (the bytes before the
// checksum trailer): indexes built from fixed deterministic corpora must
// keep producing exactly these bytes, so any future change to tokenization,
// option selection, enumeration order or serialization that silently alters
// the pattern stream fails loudly here. (The tokenizer-subsystem refactor
// that introduced this test was verified byte-identical against the
// pre-refactor per-value vector<Token> implementation the same way; the
// recorded constants reflect today's lakegen output. The AVIDX003 bump
// changed one magic byte and re-recorded the hashes; payload sizes were
// unchanged.) The trailer is excluded so the constants pin the logical
// content, not the framing. If a change is MEANT to alter index contents,
// re-record the constants and say so in the PR.
TEST(IndexerTest, SavedIndexBytesMatchGolden) {
  struct GoldenCase {
    LakeConfig lake;
    size_t threads;
    size_t size;
    uint64_t hash;
    size_t memory_budget = 0;   ///< >0: out-of-core spill build
    size_t merge_fanin = 0;     ///< >0: force cascaded merge passes
  };
  // The budgeted cases must reproduce the exact bytes of the unbounded
  // cases above them: the spill reduce (and its left-cascade merge) is
  // byte-identical to the in-memory shard reduce by contract.
  const GoldenCase cases[] = {
      {EnterpriseLakeConfig(60, 7), 1, 4010044, 0x26c4d420d40eb4a0ULL},
      {EnterpriseLakeConfig(60, 7), 4, 4010044, 0x26c4d420d40eb4a0ULL},
      {GovernmentLakeConfig(40, 11), 2, 4062244, 0x345aea5c2adb9c10ULL},
      {EnterpriseLakeConfig(60, 7), 4, 4010044, 0x26c4d420d40eb4a0ULL,
       /*memory_budget=*/1u << 20},
      {GovernmentLakeConfig(40, 11), 2, 4062244, 0x345aea5c2adb9c10ULL,
       /*memory_budget=*/1u << 20, /*merge_fanin=*/2},
  };
  for (const GoldenCase& c : cases) {
    const Corpus corpus = GenerateLake(c.lake);
    IndexerConfig cfg;
    cfg.num_threads = c.threads;
    cfg.build.memory_budget_bytes = c.memory_budget;
    cfg.build.max_merge_fanin = c.merge_fanin;
    const PatternIndex idx = BuildIndex(corpus, cfg);
    const std::string path =
        (std::filesystem::temp_directory_path() / "av_index_golden.bin")
            .string();
    ASSERT_TRUE(idx.Save(path).ok());
    auto file = ReadFileToString(path);
    ASSERT_TRUE(file.ok());
    auto payload_len = VerifyTrailer(*file);
    ASSERT_TRUE(payload_len.ok()) << payload_len.status().message();
    const std::string_view payload(file->data(), *payload_len);
    std::filesystem::remove(path);
    EXPECT_EQ(payload.size(), c.size);
    EXPECT_EQ(PolyHash64(payload), c.hash);
  }
}

// Golden pins for what the index feeds downstream, recorded the same way:
// the saved AVRULESET2 payload (trailer excluded) of three columns trained
// on the first table of the EnterpriseLakeConfig(60, 7) lake, indexed with
// 2 threads, and the validation report of the table's first column
// (size_mb_0, not a trained column) with one non-conforming value appended,
// checked against the first trained rule (iso_date_0's), so every value is
// flagged and the report pins drift detection. The tokenizer, the index, FMDV and the
// matcher all sit under these bytes, so a change anywhere in that stack that
// alters what is trained or flagged fails here. Re-record only for a change
// that is meant to alter rules or reports, and say so in the PR.
TEST(IndexerTest, SavedRuleSetAndReportMatchGolden) {
  const Corpus corpus = GenerateLake(EnterpriseLakeConfig(60, 7));
  IndexerConfig icfg;
  icfg.num_threads = 2;
  const PatternIndex index = BuildIndex(corpus, icfg);

  AutoValidateOptions opts;
  opts.min_coverage = 3;
  opts.fpr_target = 0.1;
  ValidationService service(&index, opts, 1);
  const Table& table = corpus.tables().front();
  size_t trained = 0;
  for (const Column& col : table.columns) {
    if (col.values.empty()) continue;
    if (service.Train("col" + std::to_string(trained), col.values).ok()) {
      ++trained;
    }
    if (trained == 3) break;
  }
  ASSERT_EQ(trained, 3u);

  auto dir = ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok());
  const std::string rules_path = dir->path() + "/rules.avrs";
  ASSERT_TRUE(service.Save(rules_path).ok());
  auto file = ReadFileToString(rules_path);
  ASSERT_TRUE(file.ok());
  auto payload_len = VerifyTrailer(*file);
  ASSERT_TRUE(payload_len.ok()) << payload_len.status().message();
  const std::string_view payload(file->data(), *payload_len);
  EXPECT_EQ(payload.size(), 447u);
  EXPECT_EQ(PolyHash64(payload), 0xff5c7cee4c45ce7aULL);

  std::vector<std::string> batch = table.columns.front().values;
  batch.push_back("definitely !! not ?? conforming \xc3\xa9");
  auto report = service.Validate("col0", batch);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->total, 411u);
  EXPECT_EQ(report->nonconforming, 411u);
  EXPECT_DOUBLE_EQ(report->p_value, 2.5704046122051283e-246);
  EXPECT_TRUE(report->flagged);
  EXPECT_EQ(report->sample_violations,
            (std::vector<std::string>{"9615 MB", "6916 MB", "9688 MB",
                                      "1182 MB", "4615 MB"}));
}

TEST(IndexerTest, IndexColumnEmitsConsistentImpurity) {
  Column col;
  col.values = {"9:07", "8:30", "7:45", "10:02"};
  PatternIndex idx;
  IndexerConfig cfg;
  cfg.gen.min_cover_values = 1;
  cfg.gen.coverage_frac = 0;
  const size_t emitted = IndexColumn(col, cfg, &idx);
  EXPECT_GT(emitted, 0u);
  // "<digit>+:<digit>{2}" matches all 4 values: impurity 0.
  const auto full = idx.Lookup("<digit>+:<digit>{2}");
  ASSERT_TRUE(full.has_value());
  EXPECT_DOUBLE_EQ(full->fpr, 0.0);
  // "<digit>{1}:<digit>{2}" matches 3 of 4: impurity 0.25.
  const auto partial = idx.Lookup("<digit>{1}:<digit>{2}");
  ASSERT_TRUE(partial.has_value());
  EXPECT_DOUBLE_EQ(partial->fpr, 0.25);
}

TEST(IndexerTest, WideColumnsSkipped) {
  Column col;
  col.values = {"a b c d e f g h i j k l m n o p"};
  PatternIndex idx;
  IndexerConfig cfg;  // default tau = 13 < 31 tokens
  EXPECT_EQ(IndexColumn(col, cfg, &idx), 0u);
  EXPECT_EQ(idx.size(), 0u);
}

TEST(IndexerTest, ParallelBuildMatchesSerial) {
  const Corpus corpus = testutil::SmallLake(120, 7);
  IndexerConfig cfg1;
  cfg1.num_threads = 1;
  IndexerConfig cfg4;
  cfg4.num_threads = 4;
  const PatternIndex serial = BuildIndex(corpus, cfg1);
  const PatternIndex parallel = BuildIndex(corpus, cfg4);
  ASSERT_EQ(serial.size(), parallel.size());
  size_t checked = 0;
  serial.ForEach([&](const std::string& key, const PatternIndex::Entry& e) {
    const auto other = parallel.Lookup(key);
    ASSERT_TRUE(other.has_value()) << key;
    EXPECT_EQ(other->coverage, e.columns);
    ++checked;
  });
  EXPECT_EQ(checked, serial.size());
}

TEST(IndexerTest, ReportCountsColumns) {
  const Corpus corpus = testutil::SmallLake(100, 8);
  IndexerConfig cfg;
  IndexerReport report;
  const PatternIndex idx = BuildIndex(corpus, cfg, &report);
  EXPECT_EQ(report.columns_total, corpus.num_columns());
  EXPECT_GT(report.columns_indexed, report.columns_total / 2);
  EXPECT_GT(report.patterns_emitted, report.columns_indexed);
  EXPECT_GT(idx.size(), 100u);
  EXPECT_GT(idx.ApproxBytes(), 0u);
}

TEST(AnalysisTest, PatternTokenCount) {
  EXPECT_EQ(PatternTokenCount("<digit>+:<digit>{2}"), 3u);
  EXPECT_EQ(PatternTokenCount("Mar <digit>{2} <digit>{4}"), 5u);
  EXPECT_EQ(PatternTokenCount("<alnum>+"), 1u);
}

TEST(AnalysisTest, DistributionsAndHeadPatterns) {
  const Corpus corpus = testutil::SmallLake(200, 9);
  IndexerConfig cfg;
  const PatternIndex idx = BuildIndex(corpus, cfg);
  const IndexDistributions dist = AnalyzeIndex(idx);

  uint64_t total = 0;
  for (uint64_t n : dist.by_token_count) total += n;
  EXPECT_EQ(total, idx.size());
  uint64_t total_cov = 0;
  for (const auto& [bound, n] : dist.by_coverage) total_cov += n;
  EXPECT_EQ(total_cov, idx.size());

  const auto head = HeadPatterns(idx, 10, 0.05);
  ASSERT_FALSE(head.empty());
  for (size_t i = 1; i < head.size(); ++i) {
    EXPECT_GE(head[i - 1].coverage, head[i].coverage);
  }
  for (const auto& hp : head) EXPECT_LE(hp.fpr, 0.05);
}

}  // namespace
}  // namespace av
