// Cross-format persistence robustness: crash-shaped damage (truncation at
// every offset) must always be rejected with kCorruption/kIOError — never a
// crash, never a half-load; the previous untrailed index and rule-set
// formats (AVIDX002, AVRULESET1) stay readable, while spill runs, which
// never outlive one build, accept only AVSPILL02; and a FAILED save must
// leave the previously saved file untouched (the regression behind the old
// ValidationService::Save, which opened the target with std::ios::trunc and
// destroyed the old rule set before writing a byte of the new one).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/temp_file.h"
#include "core/validation_service.h"
#include "corpus/corpus.h"
#include "corpus/csv.h"
#include "index/pattern_index.h"
#include "index/spill.h"
#include "pattern/pattern.h"

namespace av {
namespace {

namespace fs = std::filesystem;

ScopedTempDir MakeTempDir() {
  auto dir = ScopedTempDir::Create();
  EXPECT_TRUE(dir.ok());
  return std::move(dir).value();
}

std::string Slurp(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *std::move(bytes) : std::string();
}

ValidationRule MakeRule(const std::string& pattern, double fpr) {
  ValidationRule rule;
  rule.method = Method::kFmdvVH;
  rule.fpr_estimate = fpr;
  rule.coverage = 1234;
  rule.train_size = 1000;
  rule.train_nonconforming = 3;
  rule.significance = 0.05;
  rule.pattern = *Pattern::Parse(pattern);
  rule.segments = {rule.pattern};
  return rule;
}

/// A small saved AVIDX003 file image.
std::string GoldenIndexBytes() {
  PatternIndex idx;
  idx.Add("<digit>+:<digit>{2}", 0.0);
  idx.Add("<digit>+:<digit>{2}", 0.25);
  idx.Add("Mar <digit>{2} <digit>{4}", 0.5);
  idx.Add("<letter>+", 1.0 / 3.0);
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("idx.avidx");
  EXPECT_TRUE(idx.Save(path).ok());
  return Slurp(path);
}

/// A small saved AVRULESET2 file image.
std::string GoldenRuleSetBytes() {
  ValidationService service(nullptr, {});
  service.Upsert("order_date", MakeRule("Mar <digit>{2} <digit>{4}", 0.01));
  service.Upsert("ticket_id", MakeRule("<digit>+:<digit>{2}", 0.002));
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("rules.avrs");
  EXPECT_TRUE(service.Save(path).ok());
  return Slurp(path);
}

/// A small saved AVSPILL02 run image.
std::string GoldenSpillBytes() {
  PatternIndex chunk;
  chunk.Add("<digit>+", 0.25);
  chunk.Add("<letter>+", 0.5);
  chunk.Add("Mar <digit>{2}", 0.125);
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("run.avspill");
  EXPECT_TRUE(WriteSpillRun(chunk, path).ok());
  return Slurp(path);
}

/// Drives a full spill-cursor walk over an in-memory image.
Status DrainSpill(std::string data) {
  SpillRunCursor cursor;
  Status st = cursor.OpenBuffer(std::move(data));
  while (st.ok() && cursor.valid()) st = cursor.Next();
  return st;
}

/// Asserts that loading every proper prefix of `bytes` through `load` fails
/// with kCorruption or kIOError — the old-or-new guarantee's other half: a
/// file that IS somehow torn (device loss, manual copy) never half-loads.
template <typename LoadFn>
void ExpectEveryTruncationRejected(const std::string& bytes,
                                   const LoadFn& load) {
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const Status st = load(bytes.substr(0, cut));
    EXPECT_FALSE(st.ok()) << "cut " << cut << " of " << bytes.size();
    EXPECT_TRUE(st.code() == StatusCode::kCorruption ||
                st.code() == StatusCode::kIOError)
        << "cut " << cut << ": " << st.ToString();
  }
}

// --------------------------------------------------- truncation property

TEST(PersistenceTest, IndexLoadRejectsTruncationAtEveryOffset) {
  ExpectEveryTruncationRejected(GoldenIndexBytes(), [](std::string data) {
    return PatternIndex::LoadFromBuffer(data).status();
  });
}

TEST(PersistenceTest, RuleSetLoadRejectsTruncationAtEveryOffset) {
  ExpectEveryTruncationRejected(GoldenRuleSetBytes(), [](std::string data) {
    return ValidationService::ParseRuleSetBuffer(data).status();
  });
}

TEST(PersistenceTest, SpillCursorRejectsTruncationAtEveryOffset) {
  ExpectEveryTruncationRejected(GoldenSpillBytes(), [](std::string data) {
    return DrainSpill(std::move(data));
  });
}

// --------------------------------------------------------- read-compat

TEST(PersistenceTest, IndexReadsPreviousUntrailedFormat) {
  const std::string v3 = GoldenIndexBytes();
  // The previous AVIDX002 format is exactly today's payload with the old
  // version byte and no trailer.
  auto payload_len = VerifyTrailer(v3);
  ASSERT_TRUE(payload_len.ok());
  std::string v2 = v3.substr(0, *payload_len);
  v2[7] = '2';
  auto loaded = PatternIndex::LoadFromBuffer(v2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Round-trip proof of equality: re-saving the loaded index reproduces
  // the modern file byte-for-byte.
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("resaved.avidx");
  ASSERT_TRUE(loaded->Save(path).ok());
  EXPECT_EQ(Slurp(path), v3);

  // A modern v3 magic WITHOUT its trailer must be rejected: the leading
  // magic decides whether a trailer is required.
  std::string untrailed_v3 = v3.substr(0, *payload_len);
  auto rejected = PatternIndex::LoadFromBuffer(untrailed_v3);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

TEST(PersistenceTest, RuleSetReadsPreviousUntrailedFormat) {
  const std::string v2 = GoldenRuleSetBytes();
  auto payload_len = VerifyTrailer(v2);
  ASSERT_TRUE(payload_len.ok());
  std::string v1 = v2.substr(0, *payload_len);
  v1.replace(0, 10, "AVRULESET1");
  auto parsed = ValidationService::ParseRuleSetBuffer(v1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rules.size(), 2u);
  EXPECT_TRUE(parsed->rules.count("order_date"));
  EXPECT_TRUE(parsed->rules.count("ticket_id"));

  // Modern magic without its trailer: rejected.
  auto rejected =
      ValidationService::ParseRuleSetBuffer(v2.substr(0, *payload_len));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

// Spill runs are written and read inside one build's temporary directory,
// so the reader knows only AVSPILL02: the previous untrailed AVSPILL01
// layout is corrupt input like any other.
TEST(PersistenceTest, SpillRejectsPreviousUntrailedFormat) {
  const std::string v2 = GoldenSpillBytes();
  auto payload_len = VerifyTrailer(v2);
  ASSERT_TRUE(payload_len.ok());
  // AVSPILL01 layout: magic, u64 count (header), entries — no trailer.
  const std::string payload = v2.substr(0, *payload_len);
  const std::string entries = payload.substr(9, payload.size() - 9 - 8);
  const std::string count = payload.substr(payload.size() - 8);
  const std::string v1 = "AVSPILL01" + count + entries;

  SpillRunCursor cursor;
  EXPECT_EQ(cursor.OpenBuffer(v1).code(), StatusCode::kCorruption);

  // Modern magic without its trailer: rejected.
  EXPECT_EQ(DrainSpill(payload).code(), StatusCode::kCorruption);
}

// ------------------------------------------- failed save keeps old file

TEST(PersistenceTest, FailedRuleSetSaveKeepsPreviousFile) {
  // Regression: the pre-durable Save opened the target with std::ios::trunc,
  // so ANY later failure (or a crash) had already destroyed the previous
  // rule set. The durable writer must leave it byte-identical instead.
  // Failure injection: a ~250-char basename is a legal file name, but the
  // writer's temp suffix pushes past NAME_MAX (root-proof, unlike chmod).
  ScopedTempDir dir = MakeTempDir();
  const std::string long_path = dir.File(std::string(250, 'r'));

  ValidationService service(nullptr, {});
  service.Upsert("order_date", MakeRule("Mar <digit>{2} <digit>{4}", 0.01));
  const std::string staging = dir.File("staging.avrs");
  ASSERT_TRUE(service.Save(staging).ok());
  fs::rename(staging, long_path);  // the "previous generation" on disk
  const std::string before = Slurp(long_path);

  service.Upsert("ticket_id", MakeRule("<digit>+:<digit>{2}", 0.002));
  const Status st = service.Save(long_path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(Slurp(long_path), before);  // untouched, byte-for-byte

  // ...and still perfectly loadable.
  ValidationService reloaded(nullptr, {});
  ASSERT_TRUE(reloaded.Load(long_path).ok());
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_NE(reloaded.Find("order_date"), nullptr);
}

TEST(PersistenceTest, FailedIndexSaveKeepsPreviousFile) {
  ScopedTempDir dir = MakeTempDir();
  const std::string long_path = dir.File(std::string(250, 'i'));

  PatternIndex old_gen;
  old_gen.Add("<digit>+", 0.5);
  const std::string staging = dir.File("staging.avidx");
  ASSERT_TRUE(old_gen.Save(staging).ok());
  fs::rename(staging, long_path);
  const std::string before = Slurp(long_path);

  PatternIndex new_gen;
  new_gen.Add("<digit>+", 0.5);
  new_gen.Add("<letter>+", 0.25);
  const Status st = new_gen.Save(long_path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(Slurp(long_path), before);
  auto loaded = PatternIndex::Load(long_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
}

// ------------------------------------------------------------ CSV writer

TEST(PersistenceTest, SaveCorpusToDirReportsWriteFailures) {
  // The old writer streamed through an unchecked ofstream: a failed write
  // (full disk, bad name) produced a silently truncated or missing table.
  // Now the durable writer surfaces it as a Status and leaves no partial
  // CSV behind.
  Corpus corpus;
  Table t;
  t.name = std::string(250, 'c');  // temp suffix exceeds NAME_MAX
  Column col;
  col.name = "v";
  col.values = {"1", "2"};
  t.columns.push_back(std::move(col));
  corpus.AddTable(std::move(t));

  ScopedTempDir dir = MakeTempDir();
  const Status st = SaveCorpusToDir(corpus, dir.path());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path())) {
    ++files;
  }
  EXPECT_EQ(files, 0u);  // no torn table, no temp debris
}

TEST(PersistenceTest, SaveCorpusToDirStillRoundTrips) {
  const std::vector<std::string> values = {"a1", "b2"};
  Corpus corpus;
  Table t;
  t.name = "orders";
  Column col;
  col.name = "id";
  col.values = values;
  t.columns.push_back(std::move(col));
  corpus.AddTable(std::move(t));
  ScopedTempDir dir = MakeTempDir();
  ASSERT_TRUE(SaveCorpusToDir(corpus, dir.path()).ok());
  auto reloaded = LoadCorpusFromDir(dir.path());
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->num_tables(), 1u);
  EXPECT_EQ(reloaded->tables()[0].columns[0].values, values);
}

}  // namespace
}  // namespace av
