// The offline indexing job (Section 2.4): one full scan of the corpus T,
// enumerating P(D) for every column D with Algorithm-1 coverage pruning and
// aggregating per-pattern impurity/coverage into a PatternIndex.
//
// The paper runs this as a Map-Reduce-like job on a cluster; here the map
// (per-column enumeration) runs on a thread pool over fixed-size column
// chunks and the reduce merges chunk-local accumulators — either in memory
// (key shards in parallel, no global lock) or, when a memory budget is set,
// through AVSPILL02 spill runs on disk with a k-way streaming merge, so
// lakes far larger than RAM index with bounded chunk-index residency. Both
// reduce paths fold per-key statistics in chunk order, so the result — and
// its saved AVIDX003 bytes — is identical for any thread count and for
// either path (docs/ARCHITECTURE.md, "Offline indexing").
#pragma once

#include <cstddef>
#include <string>

#include "corpus/column_reader.h"
#include "corpus/corpus.h"
#include "corpus/format.h"
#include "index/pattern_index.h"
#include "pattern/generalize.h"

namespace av {

/// Memory policy of one offline run.
struct IndexBuildOptions {
  /// 0 (default): every chunk-local index stays in memory until the
  /// parallel shard reduce — fastest, residency grows with the corpus.
  /// >0: out-of-core path — each completed chunk index is serialized to a
  /// sorted AVSPILL02 run and freed, the reduce is a k-way streaming merge,
  /// and the budget bounds both resident chunk-index bytes and the merge
  /// fan-in. The first chunk runs alone to calibrate the per-chunk size,
  /// after which map tasks are admitted only while resident bytes plus one
  /// max-observed chunk per in-flight task fit the budget — peak
  /// chunk-index residency stays within max(one chunk index, this budget),
  /// modulo a chunk larger than any observed so far (sizes are only known
  /// at completion). Saved index bytes are identical either way.
  size_t memory_budget_bytes = 0;
  /// Parent directory for the spill-run directory; empty selects
  /// std::filesystem::temp_directory_path(). The run directory is removed
  /// when the build finishes — including on every error path.
  std::string spill_dir;
  /// Maximum spill runs merged per pass (0 = derived from the budget).
  /// Exceeding it triggers left-cascaded intermediate merge passes (fold
  /// the first k runs, repeat), which preserve byte-identity.
  size_t max_merge_fanin = 0;
  /// When the out-of-core path fails (unwritable spill directory, disk
  /// full, corrupt run), TryBuildIndex falls back to the in-memory build by
  /// default — the lake fit in memory to get here — recording the fallback
  /// in IndexerReport. Set true to make the failure a hard error instead:
  /// a caller that chose a memory budget on purpose (CLI runs, jobs sized
  /// to the machine) must not silently degrade into an unbounded build.
  bool strict_spill = false;
};

/// Configuration for the offline job.
struct IndexerConfig {
  GeneralizeConfig gen;  ///< includes the token limit tau (gen.max_tokens)
  size_t num_threads = 0;
  /// Values scanned per column (the paper caps benchmark columns at 1000).
  size_t max_values_per_column = 1000;
  IndexBuildOptions build;  ///< in-core vs out-of-core reduce
  /// Input format of on-disk lakes (BuildIndexFromDir): kAuto detects per
  /// file through the format registry; a concrete format forces it.
  LakeFormat lake_format = LakeFormat::kAuto;
};

/// Statistics of one offline run (reported by bench_offline_indexing).
struct IndexerReport {
  size_t columns_total = 0;
  size_t columns_indexed = 0;       ///< columns contributing >= 1 pattern
  size_t columns_all_too_wide = 0;  ///< every shape wider than tau
  uint64_t patterns_emitted = 0;    ///< column-pattern pairs
  double seconds = 0;

  // --- out-of-core accounting (zero on the in-memory path) ---
  bool used_spill = false;      ///< the spill reduce actually ran
  size_t spill_runs = 0;        ///< chunk runs written
  uint64_t spill_bytes = 0;     ///< bytes of the initial chunk runs
  size_t merge_passes = 0;      ///< intermediate merge passes (0 = one pass)
  /// Peak bytes of simultaneously-resident completed chunk indexes, sampled
  /// at chunk completion.
  uint64_t peak_chunk_index_bytes = 0;
  /// True when a requested out-of-core build failed and the job silently
  /// fell back to the in-memory path (strict_spill off); the failure that
  /// triggered it is in `spill_fallback_error`. The budget was NOT honored.
  bool spill_fallback = false;
  std::string spill_fallback_error;
};

/// Runs the offline scan over every column of `corpus`: BuildIndexStreaming
/// over a CorpusColumnReader. With `cfg.build.memory_budget_bytes` set,
/// takes the out-of-core path; if that path fails (e.g. no writable spill
/// directory) the behavior depends on `cfg.build.strict_spill`: off
/// (default) warns on stderr, falls back to the in-memory build and records
/// the fallback in the report; on makes the failure a hard error.
Result<PatternIndex> TryBuildIndex(const Corpus& corpus,
                                   const IndexerConfig& cfg,
                                   IndexerReport* report = nullptr);

/// No-fail legacy entry: TryBuildIndex with strict_spill forced off (the
/// in-memory fallback always engages, and is itself infallible). Callers
/// that must hard-fail on a broken spill path use TryBuildIndex.
PatternIndex BuildIndex(const Corpus& corpus, const IndexerConfig& cfg,
                        IndexerReport* report = nullptr);

/// Streaming build over a ColumnReader — the lake is pulled chunk-by-chunk
/// and never required to be resident at once (pair with LakeDirColumnReader
/// for true out-of-core indexing of on-disk lakes). Honors `cfg.build`;
/// with a zero budget the chunk indexes are retained and reduced in memory
/// as usual. Errors (reader IO, spill IO) propagate as Status.
Result<PatternIndex> BuildIndexStreaming(ColumnReader& reader,
                                         const IndexerConfig& cfg,
                                         IndexerReport* report = nullptr);

/// Streaming build straight off a lake directory: opens `dir` through the
/// format registry (cfg.lake_format; mixed-format lakes welcome under
/// kAuto) and runs BuildIndexStreaming. The saved index bytes depend only
/// on the logical lake, never on which format encodes it.
Result<PatternIndex> BuildIndexFromDir(const std::string& dir,
                                       const IndexerConfig& cfg,
                                       IndexerReport* report = nullptr);

/// Enumerates one column's P(D) with weighted match counts and feeds
/// `index`. Exposed for tests and for the no-index online baseline.
/// Returns the number of patterns emitted.
size_t IndexColumn(const Column& column, const IndexerConfig& cfg,
                   PatternIndex* index);

}  // namespace av
