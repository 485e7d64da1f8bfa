// The offline index of Section 2.4: maps every pattern p in P(T) to its
// pre-aggregated corpus statistics, so the online stage can evaluate
// FPR_T(h) and Cov_T(h) with hash lookups instead of corpus scans.
//
// Keying: entries are keyed on the canonical 64-bit interned pattern key
// (PatternKey == PolyHash64 of the canonical string form), so the online
// FMDV inner loop probes with an integer hash instead of materializing
// pattern strings. The readable string form is kept as side data per entry —
// it is only touched on first insertion, by ForEach-based reporting, and by
// the on-disk format. Key collisions (two patterns, one key) would silently
// merge statistics, so the index aborts loudly on mismatch where names are
// cheap to compare: MergeShardFrom checks every duplicate key it merges
// (this covers the chunked BuildIndex reduce), AddKeyed checks a sampled
// subset of repeat insertions, and FMDV re-checks accepted hypotheses.
//
// Sharding: the key space is split into kNumShards shards by the key's top
// bits. Shards are independent, which lets the offline job's reduce phase
// merge different shards concurrently without a global lock (see indexer.cc).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/flat_hash.h"
#include "common/hash.h"
#include "common/status.h"
#include "pattern/pattern.h"

namespace av {

/// Aggregated corpus statistics of one pattern (Definitions 1-3).
struct PatternStats {
  /// FPR_T(p): average impurity over columns where some value matches p.
  double fpr = 0;
  /// Cov_T(p): number of columns where some value matches p.
  uint64_t coverage = 0;
};

/// Accumulating pattern -> statistics map with binary (de)serialization.
class PatternIndex {
 public:
  struct Entry {
    double sum_impurity = 0;
    uint32_t columns = 0;
  };

  static constexpr size_t kNumShards = 16;

  PatternIndex() = default;

  /// Records one column's evidence for the pattern with interned key `key`
  /// (call only when the column has at least one matching value, per
  /// Definition 3). `name_fn` produces the canonical string form and is
  /// invoked only the first time `key` is seen. Statistics live in a dense
  /// key->Entry table (24-byte slots, cache-friendly probes); names live in
  /// a side table touched only on first insertion.
  template <class NameFn>
  void AddKeyed(uint64_t key, double impurity, NameFn&& name_fn) {
    Shard& shard = ShardFor(key);
    auto [entry, inserted] = shard.stats.TryEmplace(key);
    if (inserted) {
      *shard.names.TryEmplace(key).first = name_fn();
    } else if ((entry->columns & 0xFF) == 0xFF) {
      // Sampled collision check (~1/256 repeat insertions): a key whose
      // stored name disagrees with the caller's pattern means two distinct
      // patterns hash to one key — stats would merge silently. Fail loudly.
      const std::string* stored = shard.names.Find(key);
      if (stored != nullptr) CheckNoCollision(key, *stored, name_fn());
    }
    entry->sum_impurity += impurity;
    entry->columns += 1;
  }

  /// String-keyed convenience (tests, small tools). Equivalent to AddKeyed
  /// with the interned key of `pattern_key`.
  void Add(const std::string& pattern_key, double impurity) {
    AddKeyed(PolyHash64(pattern_key), impurity, [&] { return pattern_key; });
  }

  /// Inserts a fully-aggregated entry (a spill-merge result or a loaded
  /// file row): `sum_impurity`/`columns` are added as-is, not treated as a
  /// single column's evidence. Aborts loudly if `key` is already present
  /// under a different name (64-bit key collision between distinct
  /// patterns, same policy as the merge paths).
  void InsertAggregate(uint64_t key, const std::string& name,
                       double sum_impurity, uint32_t columns);

  /// Merges and consumes another index (used by the parallel offline job).
  void MergeFrom(PatternIndex&& other);

  /// Merges (and consumes) one shard of `other` into the same shard of this
  /// index. Distinct shards are independent, so the offline reduce phase may
  /// call this concurrently for different `shard` values. An empty,
  /// unreserved shard adopts `other`'s tables; otherwise the statistics
  /// merge first and the names table is then sized from the merged key
  /// count, so memory follows the distinct keys, not the merge volume.
  /// `other`'s shard storage is released.
  void MergeShardFrom(size_t shard, PatternIndex* other);

  /// Reduce helpers: entry count of one shard, and pre-sizing a shard ahead
  /// of a known merge volume (one rehash instead of many).
  size_t ShardSize(size_t shard) const { return shards_[shard].stats.size(); }
  void ReserveShard(size_t shard, size_t n) {
    shards_[shard].stats.reserve(n);
    shards_[shard].names.reserve(n);
  }

  /// Cache-warms the slot `key` would land in (pair with AddKeyed/Lookup a
  /// few operations later to hide the probe's memory latency).
  void Prefetch(uint64_t key) const { ShardFor(key).stats.Prefetch(key); }

  /// O(1) hash probe by interned key; nullopt if never seen in T.
  std::optional<PatternStats> Lookup(uint64_t key) const;
  /// Probe by pattern (computes the interned key, no string materialized).
  std::optional<PatternStats> Lookup(const Pattern& p) const {
    return Lookup(PatternKey(p));
  }
  /// Probe by canonical string form (compat / reporting path).
  std::optional<PatternStats> Lookup(const std::string& pattern_key) const {
    return Lookup(PolyHash64(pattern_key));
  }

  /// Stored canonical string form for `key`, or nullptr if absent. Lets
  /// callers that act on a lookup (e.g. FMDV accepting a hypothesis)
  /// confirm the entry really belongs to their pattern and not to a 64-bit
  /// key collision.
  const std::string* LookupName(uint64_t key) const {
    return ShardFor(key).names.Find(key);
  }

  size_t size() const;

  /// Iterates over all entries (analysis / serialization). Shard-by-shard;
  /// order within a shard is unspecified.
  void ForEach(
      const std::function<void(const std::string&, const Entry&)>& fn) const;

  /// Entry counts at or above which a multi-threaded ForEachSorted (and
  /// hence Save) sorts in parallel; below it the sort runs on the caller.
  static constexpr size_t kParallelSortMinRows = size_t{1} << 15;

  /// Iterates over all entries sorted by (canonical string form, key) — the
  /// deterministic order of the AVIDX003 file and of AVSPILL02 spill runs.
  /// Names are unique per key, so the order is total and the sequence does
  /// not depend on `num_threads`: 1 sorts on the calling thread, 0 selects
  /// the hardware concurrency, and above kParallelSortMinRows entries more
  /// than one thread range-partitions the rows by sampled splitters and
  /// sorts the ranges concurrently on a local pool.
  void ForEachSorted(
      const std::function<void(uint64_t, std::string_view, const Entry&)>& fn,
      size_t num_threads = 1) const;

  /// Binary serialization (format AVIDX003, docs/FILE_FORMATS.md). Entries
  /// are written sorted by string key, so two indexes with identical
  /// contents produce byte-identical files regardless of build thread
  /// count; the write is crash-safe (temp file + checksum trailer + fsync +
  /// atomic rename — a killed save never leaves a torn file or destroys the
  /// previous index). The on-disk artifact is the "orders of magnitude
  /// smaller than T" summary of Section 2.4.
  Status Save(const std::string& path) const;
  /// Reads AVIDX003 (trailer-verified) and, for compatibility, untrailed
  /// AVIDX002 files. Rejects torn/corrupt input with kCorruption.
  static Result<PatternIndex> Load(const std::string& path);
  /// Load from an in-memory file image (the fuzz-harness entry point; Load
  /// is a file slurp plus this).
  static Result<PatternIndex> LoadFromBuffer(std::string_view data);

  /// Approximate in-memory footprint in bytes (diagnostics).
  uint64_t ApproxBytes() const;

 private:
  /// Aborts with a diagnostic if `stored` and `fresh` differ (64-bit key
  /// collision between distinct patterns — unrecoverable stat corruption).
  static void CheckNoCollision(uint64_t key, const std::string& stored,
                               const std::string& fresh);

  struct Shard {
    U64FlatMap<Entry> stats;        ///< hot accumulate/lookup path
    U64FlatMap<std::string> names;  ///< canonical string forms (cold path)
  };

  static size_t ShardOf(uint64_t key) { return key >> 60; }
  Shard& ShardFor(uint64_t key) { return shards_[ShardOf(key)]; }
  const Shard& ShardFor(uint64_t key) const { return shards_[ShardOf(key)]; }

  std::array<Shard, kNumShards> shards_;
};

}  // namespace av
