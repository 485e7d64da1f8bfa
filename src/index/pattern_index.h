// The offline index of Section 2.4: maps every pattern p in P(T) to its
// pre-aggregated corpus statistics, so the online stage can evaluate
// FPR_T(h) and Cov_T(h) with hash lookups instead of corpus scans.
//
// Keying: entries are keyed on the canonical 64-bit interned pattern key
// (PatternKey == PolyHash64 of the canonical string form), so the online
// FMDV inner loop probes with an integer hash instead of materializing
// pattern strings. The readable string form is stored once per entry, and
// the entry's slot keeps a view of it next to the statistics — one probe
// finds both. A built index writes each name into an append-only per-shard
// arena on first insertion of its key; a loaded index views the names where
// they lie in the file image it holds. Reporting, the on-disk format and
// the collision checks read them back. Key collisions (two patterns, one
// key) would silently merge statistics, so the index aborts loudly on
// mismatch where names are cheap to compare: MergeShardFrom checks every
// duplicate key it merges (this covers the chunked BuildIndex reduce),
// InsertAggregate checks every repeat (spill merges and loads), AddKeyed
// checks a sampled subset of repeat insertions, and FMDV re-checks
// accepted hypotheses.
//
// Sharding: the key space is split into kNumShards shards by the key's top
// bits. Shards are independent, which lets the offline job's reduce phase
// merge different shards concurrently without a global lock (see indexer.cc).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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
/// Move-only: each slot views its name in the index's own arenas or in a
/// loaded file image the index holds, and a move carries both along.
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
  /// Definition 3). `name_fn()` returns the canonical string form (anything
  /// convertible to std::string_view) and is invoked only the first time
  /// `key` is seen, plus on sampled collision checks. One probe of the
  /// shard's key->slot table (32-byte slots) reaches the statistics and the
  /// stored name together.
  template <class NameFn>
  void AddKeyed(uint64_t key, double impurity, NameFn&& name_fn) {
    Shard& shard = ShardFor(key);
    auto [slot, inserted] = shard.stats.TryEmplace(key);
    if (inserted) {
      shard.SetName(slot, name_fn());
    } else if ((slot->columns & 0xFF) == 0xFF) {
      // Sampled collision check (~1/256 repeat insertions): a key whose
      // stored name disagrees with the caller's pattern means two distinct
      // patterns hash to one key — stats would merge silently. Fail loudly.
      CheckNoCollision(key, slot->name(), name_fn());
    }
    slot->sum_impurity += impurity;
    slot->columns += 1;
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
  void InsertAggregate(uint64_t key, std::string_view name,
                       double sum_impurity, uint32_t columns);

  /// Merges and consumes another index (used by the parallel offline job).
  void MergeFrom(PatternIndex&& other);

  /// Merges (and consumes) one shard of `other` into the same shard of this
  /// index. Distinct shards are independent, so the offline reduce phase may
  /// call this concurrently for different `shard` values. An empty,
  /// unreserved shard adopts `other`'s slot table, name arena and file-image
  /// reference; otherwise one pass over `other`'s entries copies each new
  /// key's name into this shard's arena and compares the names of every
  /// duplicate key. `other`'s shard storage is released.
  void MergeShardFrom(size_t shard, PatternIndex* other);

  /// Reduce helpers: entry count of one shard, and pre-sizing a shard's
  /// slot table ahead of a known merge volume (one rehash instead of many).
  size_t ShardSize(size_t shard) const { return shards_[shard].stats.size(); }
  void ReserveShard(size_t shard, size_t n) { shards_[shard].stats.reserve(n); }

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

  /// Stored canonical string form for `key`, or nullopt if absent. Lets
  /// callers that act on a lookup (e.g. FMDV accepting a hypothesis)
  /// confirm the entry really belongs to their pattern and not to a 64-bit
  /// key collision. The view is valid until this index is destroyed or
  /// merged into another.
  std::optional<std::string_view> LookupName(uint64_t key) const {
    const Slot* slot = ShardFor(key).stats.Find(key);
    if (slot == nullptr) return std::nullopt;
    return slot->name();
  }

  size_t size() const;

  /// Iterates over all entries (analysis / serialization). Shard-by-shard;
  /// order within a shard is unspecified. The name reference is a reused
  /// buffer, valid only during the call.
  void ForEach(
      const std::function<void(const std::string&, const Entry&)>& fn) const;

  /// Entry counts at or above which a multi-threaded ForEachSorted (and
  /// hence Save) sorts in parallel and Load verifies and inserts on a local
  /// pool; below it the work runs on the caller.
  static constexpr size_t kParallelMinRows = size_t{1} << 15;

  /// Iterates over all entries sorted by (canonical string form, key) — the
  /// deterministic order of the AVIDX003 file and of AVSPILL02 spill runs.
  /// Names are unique per key, so the order is total and the sequence does
  /// not depend on `num_threads`: 1 sorts on the calling thread, 0 selects
  /// the hardware concurrency, and above kParallelMinRows entries more
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
  /// Reads an AVIDX003 file in place: the file is mapped read-only and
  /// stays mapped for the life of the index (and of any index that adopted
  /// one of its shards), since the slots view their names in the mapping
  /// instead of copying them. The AVTRAIL1 checksum is verified, a serial
  /// bounds-checked pre-pass buckets the entries by shard, and each shard
  /// checks `key == PolyHash64(name)` and inserts its entries in file order
  /// — on a local pool from kParallelMinRows entries. Rejects torn/corrupt
  /// input with kCorruption. Replace a loaded file by rename (as Save does);
  /// truncating it in place while it is mapped can raise SIGBUS.
  static Result<PatternIndex> Load(const std::string& path);
  /// Load from an in-memory file image (the fuzz-harness entry point): the
  /// same loader, over an owned copy of `data` made once the checksum and
  /// the pre-pass have accepted it.
  static Result<PatternIndex> LoadFromBuffer(std::string_view data);

  /// Approximate in-memory footprint in bytes: slots plus name-arena blocks
  /// (diagnostics, and the out-of-core build's chunk residency estimate).
  /// A loaded file image is not counted.
  uint64_t ApproxBytes() const;

 private:
  /// Aborts with a diagnostic if `stored` and `fresh` differ (64-bit key
  /// collision between distinct patterns — unrecoverable stat corruption).
  static void CheckNoCollision(uint64_t key, std::string_view stored,
                               std::string_view fresh);

  /// Append-only byte arena for one shard's names: fixed-size blocks that
  /// never move, so views into them stay valid until the arena is
  /// destroyed, and moving the arena (with its shard) keeps them valid too.
  class NameArena {
   public:
    /// Copies `s` into the arena; returns the stored bytes.
    std::string_view Append(std::string_view s) {
      if (s.empty()) return {};
      Reserve(s.size());
      Block& b = blocks_.back();
      char* dst = b.data.get() + b.used;
      std::memcpy(dst, s.data(), s.size());
      b.used += s.size();
      return {dst, s.size()};
    }
    /// Makes the last block hold at least `bytes` more bytes.
    void Reserve(size_t bytes) {
      if (bytes == 0 || (!blocks_.empty() &&
                         blocks_.back().size - blocks_.back().used >= bytes)) {
        return;
      }
      const size_t size = std::max(kBlockBytes, bytes);
      blocks_.push_back(
          {std::make_unique_for_overwrite<char[]>(size), size, 0});
      allocated_ += size;
    }
    /// Bytes allocated by the arena's blocks.
    uint64_t bytes() const { return allocated_; }

   private:
    static constexpr size_t kBlockBytes = 16 * 1024;
    struct Block {
      std::unique_ptr<char[]> data;
      size_t size = 0;
      size_t used = 0;
    };
    std::vector<Block> blocks_;
    uint64_t allocated_ = 0;
  };

  /// One entry's slot value: the statistics plus a view of the entry's
  /// name in its shard's arena or file image (24 bytes).
  struct Slot {
    const char* name_data = nullptr;
    double sum_impurity = 0;
    uint32_t columns = 0;
    uint32_t name_len = 0;
    std::string_view name() const { return {name_data, name_len}; }
    Entry entry() const { return {sum_impurity, columns}; }
  };
  static_assert(sizeof(Slot) == 24);

  struct Shard {
    U64FlatMap<Slot> stats;  ///< key -> statistics and name view
    NameArena names;         ///< bytes of every name not viewed in `image`
    /// The loaded file whose bytes hold the names of the loaded entries
    /// (null unless loaded); shared by the shards of one load.
    std::shared_ptr<const char> image;
    /// Stores `name` for a freshly inserted slot.
    void SetName(Slot* slot, std::string_view name) {
      const std::string_view stored = names.Append(name);
      slot->name_data = stored.data();
      slot->name_len = static_cast<uint32_t>(stored.size());
    }
    /// Insert-or-add of one aggregated entry (InsertAggregate). A new key's
    /// slot copies `name` into the arena, or with `in_image` views it where
    /// it lies (the bytes are kept alive by `image`).
    void InsertAggregate(uint64_t key, std::string_view name,
                         double sum_impurity, uint32_t columns,
                         bool in_image);
  };

  /// The loader behind Load and LoadFromBuffer. Checks `data` (magic,
  /// trailer, entry count, the pre-pass over every entry header), then
  /// calls `keep()` for the bytes the loaded slots will view — the same
  /// bytes as `data`, held for the index's lifetime — and fills the shards.
  static Result<PatternIndex> LoadImage(
      std::string_view data,
      const std::function<std::shared_ptr<const char>()>& keep);

  static size_t ShardOf(uint64_t key) { return key >> 60; }
  Shard& ShardFor(uint64_t key) { return shards_[ShardOf(key)]; }
  const Shard& ShardFor(uint64_t key) const { return shards_[ShardOf(key)]; }

  std::array<Shard, kNumShards> shards_;
};

}  // namespace av
