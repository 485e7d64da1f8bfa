// AVSPILL02 spill runs: the on-disk form of one chunk-local PatternIndex
// during an out-of-core BuildIndex (docs/FILE_FORMATS.md).
//
// A run is the chunk's entries sorted by canonical pattern string — the same
// entry encoding and sort order as the AVIDX003 index file — so the reduce
// phase becomes a k-way streaming merge over run cursors instead of an
// in-memory shard merge. Determinism contract: the merge pops equal names
// in ascending run (= chunk) order and folds `sum_impurity` one run at a
// time, reproducing exactly the in-memory reduce's left-fold over
// chunk-local partial sums — so the merged index saves byte-identical
// AVIDX003 output. When the fan-in is bounded, intermediate passes cascade
// from the left (fold the first k runs, repeat — balanced run trees would
// re-associate the sums and change the bytes).
//
// Durability: runs are written through DurableFileWriter (temp file +
// checksum trailer + atomic rename; no fsync — runs are ephemeral), so a
// run file is either complete and checksum-verified or absent; the entry
// count rides at the end of the payload so the writer streams without
// seeking back. Cursors verify the whole-payload checksum at Open before
// any entry is parsed, and still validate every entry individually (a
// checksum only proves the file is what the writer wrote, not that the
// writer was ours). Runs live only inside one build's temporary directory,
// so no reader meets a run of an older format; only AVSPILL02 is read.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/status.h"
#include "index/pattern_index.h"

namespace av {

/// One spill-run entry; field-for-field the AVIDX003 entry payload.
struct SpillEntry {
  uint64_t key = 0;          ///< PolyHash64(name), validated on read
  std::string name;          ///< canonical pattern string
  double sum_impurity = 0;   ///< chunk-local impurity partial sum
  uint32_t columns = 0;      ///< chunk-local coverage partial count
};

/// Streaming writer for one run. Entries must arrive in strictly ascending
/// `name` order (the writer enforces this — an unsorted run would silently
/// corrupt the merge). Finish() appends the entry count and the checksum
/// trailer, then atomically renames the temp file onto `path`; it must be
/// called before the file is read.
class SpillRunWriter {
 public:
  Status Open(const std::string& path);
  Status Append(const SpillEntry& entry);
  Status Finish();

  uint64_t entries() const { return count_; }
  /// Total file bytes after Finish (payload + trailer).
  uint64_t bytes_written() const { return bytes_; }

 private:
  DurableFileWriter out_;
  std::string path_;
  std::string last_name_;
  uint64_t count_ = 0;
  uint64_t bytes_ = 0;
  bool open_ = false;
};

/// Spills one chunk-local index as a sorted run. Returns bytes written.
Result<uint64_t> WriteSpillRun(const PatternIndex& chunk,
                               const std::string& path);

/// Sequential cursor over one run. Open verifies the AVSPILL02 checksum
/// trailer over the whole payload (streamed, constant memory) and the
/// size-clamped entry count; Next validates every entry (length cap, key ==
/// PolyHash64(name), strictly ascending names, truncation / region overrun)
/// — a corrupt or truncated run is rejected with kCorruption, never
/// half-read.
class SpillRunCursor {
 public:
  Status Open(const std::string& path);
  /// Opens over an in-memory file image (the fuzz-harness entry point).
  Status OpenBuffer(std::string data);

  /// True while entry() is readable; false once the run is exhausted.
  bool valid() const { return valid_; }
  const SpillEntry& entry() const { return entry_; }

  /// Advances to the next entry (invalidates entry()).
  Status Next();

 private:
  /// Shared tail of Open/OpenBuffer once `in_` points at the stream.
  /// `payload_len` is the trailer-verified payload size.
  Status OpenStream(uint64_t payload_len);

  std::ifstream file_;
  std::istringstream mem_;
  std::istream* in_ = nullptr;
  std::string path_;
  SpillEntry entry_;
  uint64_t remaining_ = 0;
  uint64_t entries_end_ = 0;  ///< file offset one past the entry region
  uint64_t pos_ = 0;          ///< current read offset within the file
  bool valid_ = false;
};

/// K-way streaming merge over the runs at `paths`, which must be in
/// ascending chunk order. Emits fully-merged entries in ascending name
/// order; a key present in several runs has its sums folded in run order
/// (see the determinism contract above). Memory: one cursor per run.
Status MergeSpillRuns(std::span<const std::string> paths,
                      const std::function<void(SpillEntry&&)>& emit);

/// Bounded fan-in merge: while more than `max_fanin` runs remain, the first
/// `max_fanin` runs are folded into one accumulated run under `tmp_dir`
/// (left-cascade — see the determinism note above); the final pass streams
/// into `emit`. `max_fanin` < 2 is clamped to 2. `merge_passes` (optional)
/// reports the number of intermediate passes (0 when one pass sufficed).
Status MergeSpillRunsBounded(std::vector<std::string> paths, size_t max_fanin,
                             const std::string& tmp_dir,
                             const std::function<void(SpillEntry&&)>& emit,
                             size_t* merge_passes = nullptr);

}  // namespace av
