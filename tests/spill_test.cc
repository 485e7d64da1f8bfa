// Out-of-core indexing: AVSPILL02 run round-trips, the k-way merge's
// byte-identity contract against the in-memory reduce, corruption
// rejection (both bit-rot the checksum catches and adversarial rewrites it
// cannot), temp-file hygiene, and the memory-budget residency bound.
#include "index/spill.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/temp_file.h"
#include "corpus/column_reader.h"
#include "corpus/csv.h"
#include "corpus/format.h"
#include "index/indexer.h"
#include "lakegen/lakegen.h"
#include "tests/test_util.h"

namespace av {
namespace {

namespace fs = std::filesystem;

ScopedTempDir MakeTempDir() {
  auto dir = ScopedTempDir::Create();
  EXPECT_TRUE(dir.ok());
  return std::move(dir).value();
}

/// Serialized AVIDX003 bytes of an index (the determinism contract's
/// currency: two indexes are "identical" iff these bytes are equal).
std::string SaveBytes(const PatternIndex& idx) {
  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("idx.bin");
  EXPECT_TRUE(idx.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------- TempDir

TEST(ScopedTempDirTest, CreatesAndRemovesRecursively) {
  std::string path;
  {
    auto dir = ScopedTempDir::Create();
    ASSERT_TRUE(dir.ok());
    path = dir->path();
    EXPECT_TRUE(fs::is_directory(path));
    std::ofstream(dir->File("a.txt")) << "x";
    fs::create_directories(fs::path(path) / "sub");
    std::ofstream((fs::path(path) / "sub" / "b.txt").string()) << "y";
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(ScopedTempDirTest, ReleaseKeepsDirectory) {
  std::string path;
  {
    auto dir = ScopedTempDir::Create();
    ASSERT_TRUE(dir.ok());
    path = dir->Release();
    EXPECT_FALSE(dir->valid());
  }
  EXPECT_TRUE(fs::exists(path));
  fs::remove_all(path);
}

TEST(ScopedTempDirTest, CreateFailsUnderNonDirectory) {
  auto parent = ScopedTempDir::Create();
  ASSERT_TRUE(parent.ok());
  const std::string file = parent->File("plain_file");
  std::ofstream(file) << "not a directory";
  auto dir = ScopedTempDir::Create(file);
  EXPECT_FALSE(dir.ok());
}

// ------------------------------------------------------------- Run format

TEST(SpillRunTest, RoundTripsSortedEntries) {
  PatternIndex chunk;
  chunk.Add("<digit>+", 0.25);
  chunk.Add("<letter>+", 0.0);
  chunk.Add("<letter>+", 0.5);
  chunk.Add("Mar <digit>{2}", 0.125);

  ScopedTempDir dir = MakeTempDir();
  const std::string path = dir.File("run.avspill");
  auto bytes = WriteSpillRun(chunk, path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, fs::file_size(path));

  SpillRunCursor cursor;
  ASSERT_TRUE(cursor.Open(path).ok());
  std::vector<SpillEntry> entries;
  while (cursor.valid()) {
    entries.push_back(cursor.entry());
    ASSERT_TRUE(cursor.Next().ok());
  }
  ASSERT_EQ(entries.size(), 3u);
  // Sorted by canonical string (the AVIDX002 Save order).
  EXPECT_EQ(entries[0].name, "<digit>+");
  EXPECT_EQ(entries[1].name, "<letter>+");
  EXPECT_EQ(entries[2].name, "Mar <digit>{2}");
  EXPECT_DOUBLE_EQ(entries[1].sum_impurity, 0.5);
  EXPECT_EQ(entries[1].columns, 2u);
  for (const SpillEntry& e : entries) EXPECT_EQ(e.key, PolyHash64(e.name));
}

TEST(SpillRunTest, WriterRejectsOutOfOrderAppends) {
  ScopedTempDir dir = MakeTempDir();
  SpillRunWriter writer;
  ASSERT_TRUE(writer.Open(dir.File("run.avspill")).ok());
  SpillEntry b{PolyHash64("b"), "b", 0.1, 1};
  SpillEntry a{PolyHash64("a"), "a", 0.2, 1};
  ASSERT_TRUE(writer.Append(b).ok());
  const Status st = writer.Append(a);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(SpillRunTest, CursorRejectsCorruptAndTruncatedRuns) {
  PatternIndex chunk;
  for (int i = 0; i < 3; ++i) {
    chunk.Add("<digit>{" + std::to_string(10 + i) + "} long pattern name pad",
              0.25);
  }
  ScopedTempDir dir = MakeTempDir();
  const std::string good = dir.File("good.avspill");
  ASSERT_TRUE(WriteSpillRun(chunk, good).ok());
  const auto size = fs::file_size(good);
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_EQ(bytes.size(), size);

  auto write_variant = [&](const std::string& name,
                           const std::string& content) {
    const std::string path = dir.File(name);
    std::ofstream(path, std::ios::binary) << content;
    return path;
  };
  auto expect_corrupt = [](const std::string& path) {
    SpillRunCursor cursor;
    Status st = cursor.Open(path);
    while (st.ok() && cursor.valid()) st = cursor.Next();
    EXPECT_FALSE(st.ok()) << path;
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << path;
  };

  // Rewrites the checksum trailer to match the (tampered) payload — the
  // adversary the checksum cannot catch, so only semantic validation can.
  auto patch_trailer = [](std::string file) {
    file.resize(file.size() - kTrailerBytes);
    const uint64_t len = file.size();
    const uint64_t digest = PolyHash64(file);
    file.append(reinterpret_cast<const char*>(&len), sizeof(len));
    file.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
    file.append(kTrailerMagic, sizeof(kTrailerMagic));
    return file;
  };

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  expect_corrupt(write_variant("bad_magic.avspill", bad_magic));

  // Torn tail (the crash shape): the trailer is gone, so Open rejects.
  expect_corrupt(
      write_variant("truncated.avspill", bytes.substr(0, bytes.size() - 5)));

  // Single-bit rot anywhere in the payload: the whole-payload checksum
  // catches it at Open.
  // File tail layout: name | sum(8) | columns(4) | count(8) | trailer(24),
  // so size-45 lands on the last byte of the last entry's name.
  std::string flipped = bytes;
  flipped[bytes.size() - 45] ^= 0x40;
  expect_corrupt(write_variant("bit_rot.avspill", flipped));

  // --- adversarial variants with a RECOMPUTED (valid) trailer ---

  // Name byte flipped: the key no longer hashes to the name.
  expect_corrupt(write_variant("key_mismatch.avspill", patch_trailer(flipped)));

  // Entry count inflated past what the file can hold: the size clamp.
  std::string inflated = bytes;
  inflated[inflated.size() - kTrailerBytes - 8] =
      static_cast<char>(0xFF);  // count low byte (end of payload)
  expect_corrupt(
      write_variant("inflated_count.avspill", patch_trailer(inflated)));

  // Entry count under-reporting by one: a cursor that trusted it would
  // silently drop the last entry; the exhaustion check must reject.
  std::string deflated = bytes;
  deflated[deflated.size() - kTrailerBytes - 8] -= 1;
  expect_corrupt(
      write_variant("deflated_count.avspill", patch_trailer(deflated)));

  // The intact file still reads fine (the variants above are the problem).
  SpillRunCursor cursor;
  EXPECT_TRUE(cursor.Open(good).ok());
}

// ------------------------------------------------------- Merge determinism

/// One randomized chunk's evidence: (pattern name, impurity) insertions.
using ChunkOps = std::vector<std::pair<std::string, double>>;

PatternIndex BuildChunk(const ChunkOps& ops) {
  PatternIndex idx;
  for (const auto& [name, impurity] : ops) idx.Add(name, impurity);
  return idx;
}

TEST(SpillMergeTest, MergeMatchesInMemoryFoldByteForByte) {
  // Property test: N random chunk indexes over a shared name pool (so keys
  // collide across chunks and the float fold order matters), merged through
  // spill runs at several fan-ins, must reproduce the in-memory
  // MergeFrom fold byte-for-byte.
  Rng rng(20260731);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<ChunkOps> chunks(6 + trial);
    for (ChunkOps& ops : chunks) {
      const size_t n = 5 + rng.Below(40);
      for (size_t i = 0; i < n; ++i) {
        ops.emplace_back("<p" + std::to_string(rng.Below(25)) + ">",
                         rng.NextDouble());
      }
    }

    PatternIndex expected;
    for (const ChunkOps& ops : chunks) expected.MergeFrom(BuildChunk(ops));
    const std::string expected_bytes = SaveBytes(expected);

    for (const size_t fanin : {size_t{0}, size_t{2}, size_t{3}}) {
      ScopedTempDir dir = MakeTempDir();
      std::vector<std::string> paths;
      for (size_t c = 0; c < chunks.size(); ++c) {
        paths.push_back(dir.File("run_" + std::to_string(c) + ".avspill"));
        ASSERT_TRUE(WriteSpillRun(BuildChunk(chunks[c]), paths.back()).ok());
      }
      PatternIndex merged;
      size_t passes = 0;
      ASSERT_TRUE(MergeSpillRunsBounded(
                      paths, fanin == 0 ? paths.size() : fanin, dir.path(),
                      [&merged](SpillEntry&& e) {
                        merged.InsertAggregate(e.key, e.name, e.sum_impurity,
                                               e.columns);
                      },
                      &passes)
                      .ok());
      if (fanin == 2) {
        EXPECT_GT(passes, 0u);
      }
      EXPECT_EQ(SaveBytes(merged), expected_bytes)
          << "trial " << trial << " fanin " << fanin;
    }
  }
}

// ------------------------------------------------- Out-of-core BuildIndex

TEST(SpillBuildTest, CsvStreamedSpillBuildMatchesInMemoryBuild) {
  // End-to-end out-of-core: lake on disk as CSVs, streamed chunk-by-chunk,
  // chunk indexes spilled and k-way merged — saved bytes must equal the
  // all-in-memory build over the identical corpus.
  const Corpus lake = testutil::SmallLake(300, 11);
  ScopedTempDir csv_dir = MakeTempDir();
  ASSERT_TRUE(SaveCorpusToDir(lake, csv_dir.path()).ok());
  auto reloaded = LoadCorpusFromDir(csv_dir.path());
  ASSERT_TRUE(reloaded.ok());

  IndexerConfig cfg;
  cfg.num_threads = 2;
  const std::string in_memory_bytes = SaveBytes(BuildIndex(*reloaded, cfg));

  IndexerConfig spill_cfg = cfg;
  spill_cfg.build.memory_budget_bytes = 4u << 20;
  auto reader = LakeDirColumnReader::Open(csv_dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(reader.ok());
  IndexerReport report;
  auto streamed = BuildIndexStreaming(*reader, spill_cfg, &report);
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(report.used_spill);
  EXPECT_EQ(report.spill_runs, 2u);  // ~300 columns = two 256-column chunks
  EXPECT_EQ(report.columns_total, reloaded->num_columns());
  EXPECT_EQ(SaveBytes(*streamed), in_memory_bytes);
}

TEST(SpillBuildTest, BudgetBoundsPeakChunkIndexResidency) {
  // Acceptance criterion: on an 800-column corpus the budgeted build keeps
  // peak chunk-index residency within the budget, while producing the same
  // bytes as the unbounded path (whose residency is every chunk at once).
  const Corpus corpus = GenerateLake(EnterpriseLakeConfig(800, 7));

  IndexerConfig unbounded;
  unbounded.num_threads = 2;
  CorpusColumnReader baseline_reader(corpus);
  IndexerReport baseline;
  auto in_memory = BuildIndexStreaming(baseline_reader, unbounded, &baseline);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_FALSE(baseline.used_spill);
  ASSERT_GT(baseline.peak_chunk_index_bytes, 0u);

  IndexerConfig budgeted = unbounded;
  budgeted.build.memory_budget_bytes = 36u << 20;
  ASSERT_LT(budgeted.build.memory_budget_bytes,
            baseline.peak_chunk_index_bytes);
  CorpusColumnReader reader(corpus);
  IndexerReport report;
  auto spilled = BuildIndexStreaming(reader, budgeted, &report);
  ASSERT_TRUE(spilled.ok());
  EXPECT_TRUE(report.used_spill);
  EXPECT_EQ(report.spill_runs, 4u);  // ceil(800 / 256)
  EXPECT_GT(report.spill_bytes, 0u);
  EXPECT_LE(report.peak_chunk_index_bytes,
            budgeted.build.memory_budget_bytes);
  EXPECT_EQ(SaveBytes(*spilled), SaveBytes(*in_memory));
}

TEST(SpillBuildTest, TinyBudgetForcesCascadedMergePasses) {
  // A budget far below one chunk index still builds correctly: every chunk
  // spills, the derived fan-in bottoms out, and the left-cascade merge
  // preserves the bytes.
  const Corpus corpus = testutil::SmallLake(600, 13);
  IndexerConfig cfg;
  cfg.num_threads = 2;
  const std::string expected = SaveBytes(BuildIndex(corpus, cfg));

  IndexerConfig tiny = cfg;
  tiny.build.memory_budget_bytes = 1;  // fan-in clamps to 2
  IndexerReport report;
  CorpusColumnReader reader(corpus);
  auto built = BuildIndexStreaming(reader, tiny, &report);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(report.spill_runs, 3u);  // ceil(600 / 256)
  EXPECT_GT(report.merge_passes, 0u);
  EXPECT_EQ(SaveBytes(*built), expected);
}

TEST(SpillBuildTest, SpillDirectoryIsRemovedAfterBuild) {
  const Corpus corpus = testutil::SmallLake(80, 3);
  ScopedTempDir parent = MakeTempDir();
  IndexerConfig cfg;
  cfg.num_threads = 1;
  cfg.build.memory_budget_bytes = 1u << 20;
  cfg.build.spill_dir = parent.path();
  CorpusColumnReader reader(corpus);
  auto built = BuildIndexStreaming(reader, cfg, nullptr);
  ASSERT_TRUE(built.ok());
  // Every run and intermediate file lived under `parent`; all gone now.
  EXPECT_TRUE(fs::is_empty(parent.path()));
}

TEST(SpillBuildTest, UnwritableSpillDirFailsCleanAndBuildIndexFallsBack) {
  const Corpus corpus = testutil::SmallLake(60, 9);
  ScopedTempDir parent = MakeTempDir();
  const std::string not_a_dir = parent.File("file_not_dir");
  std::ofstream(not_a_dir) << "occupied";

  IndexerConfig cfg;
  cfg.num_threads = 1;
  cfg.build.memory_budget_bytes = 1u << 20;
  cfg.build.spill_dir = not_a_dir;

  // The streaming entry point propagates the error (and leaves nothing
  // behind — the only entry under `parent` is still the plain file).
  CorpusColumnReader reader(corpus);
  auto streamed = BuildIndexStreaming(reader, cfg, nullptr);
  EXPECT_FALSE(streamed.ok());
  size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(parent.path()))
    ++entries;
  EXPECT_EQ(entries, 1u);

  // The corpus entry point never fails: it warns and falls back in-memory,
  // producing the exact unbounded bytes.
  IndexerConfig unbounded;
  unbounded.num_threads = 1;
  const std::string expected = SaveBytes(BuildIndex(corpus, unbounded));
  IndexerReport report;
  testing::internal::CaptureStderr();
  const PatternIndex fallback = BuildIndex(corpus, cfg, &report);
  // A caller collecting a report owns the messaging: the structured
  // spill_fallback fields carry the warning and the library stays silent
  // (the stderr line is reserved for report-less calls).
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_FALSE(report.used_spill);
  EXPECT_TRUE(report.spill_fallback);  // ...and the report says so
  EXPECT_FALSE(report.spill_fallback_error.empty());
  EXPECT_EQ(SaveBytes(fallback), expected);

  // strict_spill turns the silent degradation into a hard error (the CLI
  // default: a requested memory budget must be honored or fail).
  IndexerConfig strict = cfg;
  strict.build.strict_spill = true;
  auto strict_build = TryBuildIndex(corpus, strict, nullptr);
  EXPECT_FALSE(strict_build.ok());
}

// --------------------------------------------------------- Column readers

TEST(ColumnReaderTest, CorpusReaderYieldsFullChunksInCorpusOrder) {
  const Corpus corpus = testutil::SmallLake(100, 21);
  const auto all = corpus.AllColumns();
  CorpusColumnReader reader(corpus);
  std::vector<const Column*> seen;
  while (true) {
    auto chunk = reader.NextChunk(7);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    // Full-chunk contract: short only at end of stream.
    if (seen.size() + chunk->size() < all.size()) {
      EXPECT_EQ(chunk->size(), 7u);
    }
    for (const Column* c : chunk->columns) seen.push_back(c);
  }
  ASSERT_EQ(seen.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(seen[i], all[i]);
}

TEST(ColumnReaderTest, CsvDirReaderMatchesLoadCorpusFromDir) {
  const Corpus lake = testutil::SmallLake(90, 17);
  ScopedTempDir dir = MakeTempDir();
  ASSERT_TRUE(SaveCorpusToDir(lake, dir.path()).ok());
  auto loaded = LoadCorpusFromDir(dir.path());
  ASSERT_TRUE(loaded.ok());
  const auto all = loaded->AllColumns();

  auto reader = LakeDirColumnReader::Open(dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(reader.ok());
  size_t i = 0;
  std::vector<ColumnChunk> live;  // keep owners alive across the whole read
  while (true) {
    auto chunk = reader->NextChunk(11);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    if (i + chunk->size() < all.size()) {
      EXPECT_EQ(chunk->size(), 11u);
    }
    live.push_back(std::move(chunk).value());
    for (const Column* c : live.back().columns) {
      ASSERT_LT(i, all.size());
      EXPECT_EQ(c->name, all[i]->name);
      EXPECT_EQ(c->values, all[i]->values);
      ++i;
    }
  }
  EXPECT_EQ(i, all.size());
}

TEST(ColumnReaderTest, ChunkOwnerOutlivesReaderAdvance) {
  const Corpus lake = testutil::SmallLake(40, 29);
  ScopedTempDir dir = MakeTempDir();
  ASSERT_TRUE(SaveCorpusToDir(lake, dir.path()).ok());
  auto reader = LakeDirColumnReader::Open(dir.path(), LakeFormat::kCsv);
  ASSERT_TRUE(reader.ok());
  auto first = reader->NextChunk(5);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  // Drain the reader; the first chunk's tables must stay alive through its
  // owner (ASan turns a violation into a hard failure).
  while (true) {
    auto chunk = reader->NextChunk(64);
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
  }
  for (const Column* c : first->columns) {
    EXPECT_FALSE(c->name.empty());
    EXPECT_FALSE(c->values.empty());
  }
}

TEST(ColumnReaderTest, OpenRejectsMissingDirectory) {
  auto reader =
      LakeDirColumnReader::Open("/definitely/not/here", LakeFormat::kCsv);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace av
