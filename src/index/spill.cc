#include "index/spill.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/hash.h"

namespace av {

namespace {

// Payload: magic (9 bytes) + entries + u64 entry count, then the 24-byte
// checksum trailer (durable_file.h). Entry: u64 key, u32 name length, name
// bytes, f64 sum_impurity, u32 columns — the AVIDX003 entry encoding
// (docs/FILE_FORMATS.md). The count trails the entries so the writer
// streams strictly forward: a seek-back count patch would invalidate the
// incrementally-computed payload checksum.
constexpr char kSpillMagic[9] = {'A', 'V', 'S', 'P', 'I', 'L', 'L', '0', '2'};
constexpr uint64_t kMagicBytes = sizeof(kSpillMagic);
/// Smallest entry: key (8) + length (4) + empty name + f64 (8) + u32 (4).
constexpr uint64_t kMinEntryBytes = 24;
constexpr uint32_t kMaxNameBytes = 1u << 24;  // same cap as PatternIndex

}  // namespace

Status SpillRunWriter::Open(const std::string& path) {
  path_ = path;
  // Checksummed but not fsync'd: runs are ephemeral (a crash loses the
  // whole build), yet the trailer + atomic rename guarantee a run file is
  // never observed half-written.
  AV_RETURN_NOT_OK(out_.Open(path, {.checksum = true, .sync = false}));
  AV_RETURN_NOT_OK(out_.Append(kSpillMagic, sizeof(kSpillMagic)));
  count_ = 0;
  bytes_ = 0;
  last_name_.clear();
  open_ = true;
  return Status::OK();
}

Status SpillRunWriter::Append(const SpillEntry& entry) {
  if (!open_) return Status::Internal("spill writer not open");
  if (count_ > 0 && entry.name <= last_name_) {
    return Status::Internal("spill entries out of order: \"" + entry.name +
                            "\" after \"" + last_name_ + "\"");
  }
  AV_RETURN_NOT_OK(out_.AppendPod(entry.key));
  const uint32_t len = static_cast<uint32_t>(entry.name.size());
  AV_RETURN_NOT_OK(out_.AppendPod(len));
  AV_RETURN_NOT_OK(out_.Append(entry.name.data(), len));
  AV_RETURN_NOT_OK(out_.AppendPod(entry.sum_impurity));
  AV_RETURN_NOT_OK(out_.AppendPod(entry.columns));
  last_name_ = entry.name;
  ++count_;
  return Status::OK();
}

Status SpillRunWriter::Finish() {
  if (!open_) return Status::Internal("spill writer not open");
  open_ = false;
  AV_RETURN_NOT_OK(out_.AppendPod(count_));
  AV_RETURN_NOT_OK(out_.Commit());
  bytes_ = out_.committed_bytes();
  return Status::OK();
}

Result<uint64_t> WriteSpillRun(const PatternIndex& chunk,
                               const std::string& path) {
  SpillRunWriter writer;
  AV_RETURN_NOT_OK(writer.Open(path));
  Status st = Status::OK();
  SpillEntry entry;  // reused: the name buffer is allocated once per run
  chunk.ForEachSorted([&](uint64_t key, std::string_view name,
                          const PatternIndex::Entry& e) {
    if (!st.ok()) return;
    entry.key = key;
    entry.name = name;
    entry.sum_impurity = e.sum_impurity;
    entry.columns = e.columns;
    st = writer.Append(entry);
  });
  AV_RETURN_NOT_OK(st);
  AV_RETURN_NOT_OK(writer.Finish());
  return writer.bytes_written();
}

Status SpillRunCursor::Open(const std::string& path) {
  path_ = path;
  file_.open(path, std::ios::binary);
  if (!file_) return Status::IOError("cannot open spill run: " + path);
  // Whole-payload checksum first (streamed, constant memory): a torn or
  // bit-rotted run is rejected before any entry is parsed.
  auto payload_len = VerifyTrailerFile(path);
  if (!payload_len.ok()) return payload_len.status();
  in_ = &file_;
  return OpenStream(*payload_len);
}

Status SpillRunCursor::OpenBuffer(std::string data) {
  path_ = "<memory>";
  auto payload_len = VerifyTrailer(data);
  if (!payload_len.ok()) return payload_len.status();
  mem_.str(std::move(data));
  mem_.clear();
  in_ = &mem_;
  return OpenStream(*payload_len);
}

Status SpillRunCursor::OpenStream(uint64_t payload_len) {
  if (payload_len < kMagicBytes + sizeof(remaining_)) {
    return Status::Corruption("spill run payload too small: " + path_);
  }
  char magic[kMagicBytes];
  in_->read(magic, sizeof(magic));
  if (!*in_) return Status::Corruption("truncated spill run: " + path_);
  if (std::memcmp(magic, kSpillMagic, sizeof(magic)) != 0) {
    return Status::Corruption("bad spill run magic: " + path_);
  }
  // The count is the last 8 payload bytes.
  entries_end_ = payload_len - sizeof(remaining_);
  in_->seekg(static_cast<std::streamoff>(entries_end_));
  in_->read(reinterpret_cast<char*>(&remaining_), sizeof(remaining_));
  if (!*in_) {
    return Status::Corruption("truncated spill run count: " + path_);
  }
  in_->seekg(static_cast<std::streamoff>(kMagicBytes));
  pos_ = kMagicBytes;
  // Size-clamp the entry count before trusting it (same policy as
  // PatternIndex::Load): every entry takes at least kMinEntryBytes.
  if (entries_end_ < pos_ ||
      remaining_ > (entries_end_ - pos_) / kMinEntryBytes) {
    return Status::Corruption("spill entry count exceeds file size: " + path_);
  }
  valid_ = false;
  entry_.name.clear();
  return Next();
}

Status SpillRunCursor::Next() {
  if (remaining_ == 0) {
    valid_ = false;
    // A fully-read run must land exactly on the end of the entry region:
    // trailing slack means the count under-reports the entries actually
    // written (a checksum only proves the file matches what the writer
    // framed, not that the count was right).
    if (pos_ != entries_end_) {
      return Status::Corruption("spill run count under-reports entries: " +
                                path_);
    }
    return Status::OK();
  }
  --remaining_;
  SpillEntry next;
  uint32_t len = 0;
  if (entries_end_ - pos_ < sizeof(next.key) + sizeof(len)) {
    valid_ = false;
    return Status::Corruption("truncated spill run entry: " + path_);
  }
  in_->read(reinterpret_cast<char*>(&next.key), sizeof(next.key));
  in_->read(reinterpret_cast<char*>(&len), sizeof(len));
  pos_ += sizeof(next.key) + sizeof(len);
  if (!*in_ || len > kMaxNameBytes) {
    valid_ = false;
    return Status::Corruption("bad name length in spill run: " + path_);
  }
  if (entries_end_ - pos_ <
      len + sizeof(next.sum_impurity) + sizeof(next.columns)) {
    valid_ = false;
    return Status::Corruption("truncated spill run entry: " + path_);
  }
  next.name.resize(len);
  in_->read(next.name.data(), len);
  in_->read(reinterpret_cast<char*>(&next.sum_impurity),
            sizeof(next.sum_impurity));
  in_->read(reinterpret_cast<char*>(&next.columns), sizeof(next.columns));
  pos_ += len + sizeof(next.sum_impurity) + sizeof(next.columns);
  if (!*in_) {
    valid_ = false;
    return Status::Corruption("truncated spill run entry: " + path_);
  }
  if (next.key != PolyHash64(next.name)) {
    valid_ = false;
    return Status::Corruption("key/name mismatch in spill run: " + path_);
  }
  if (valid_ && next.name <= entry_.name) {
    valid_ = false;
    return Status::Corruption("unsorted spill run: " + path_);
  }
  entry_ = std::move(next);
  valid_ = true;
  return Status::OK();
}

Status MergeSpillRuns(std::span<const std::string> paths,
                      const std::function<void(SpillEntry&&)>& emit) {
  std::vector<SpillRunCursor> cursors(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    AV_RETURN_NOT_OK(cursors[i].Open(paths[i]));
  }

  // Min-heap of cursor indexes ordered by (name, run index). Ties on name
  // pop in ascending run index — the fold order the determinism contract
  // requires. std::make_heap is a max-heap, so the comparator is reversed.
  auto greater = [&cursors](size_t a, size_t b) {
    const int cmp = cursors[a].entry().name.compare(cursors[b].entry().name);
    if (cmp != 0) return cmp > 0;
    return a > b;
  };
  std::vector<size_t> heap;
  heap.reserve(cursors.size());
  for (size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].valid()) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), greater);

  auto pop = [&]() -> size_t {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const size_t i = heap.back();
    heap.pop_back();
    return i;
  };
  auto reinsert = [&](size_t i) -> Status {
    AV_RETURN_NOT_OK(cursors[i].Next());
    if (cursors[i].valid()) {
      heap.push_back(i);
      std::push_heap(heap.begin(), heap.end(), greater);
    }
    return Status::OK();
  };

  while (!heap.empty()) {
    const size_t first = pop();
    SpillEntry merged = cursors[first].entry();
    AV_RETURN_NOT_OK(reinsert(first));
    // Fold every other run's entry for this name, in run order (the heap
    // yields equal names by ascending run index; a strictly-sorted run
    // contributes at most one entry per name).
    while (!heap.empty() && cursors[heap.front()].entry().name == merged.name) {
      const size_t next = pop();
      const SpillEntry& e = cursors[next].entry();
      if (e.key != merged.key) {
        // Same name hashing to two keys is impossible for intact runs
        // (cursors validate key == PolyHash64(name)); belt and braces.
        return Status::Corruption("key mismatch across spill runs for \"" +
                                  merged.name + "\"");
      }
      merged.sum_impurity += e.sum_impurity;
      merged.columns += e.columns;
      AV_RETURN_NOT_OK(reinsert(next));
    }
    emit(std::move(merged));
  }
  return Status::OK();
}

Status MergeSpillRunsBounded(std::vector<std::string> paths, size_t max_fanin,
                             const std::string& tmp_dir,
                             const std::function<void(SpillEntry&&)>& emit,
                             size_t* merge_passes) {
  max_fanin = std::max<size_t>(2, max_fanin);
  size_t passes = 0;
  while (paths.size() > max_fanin) {
    // Left-cascade: fold the FIRST max_fanin runs into one accumulated run
    // and put it back at the head of the list. Grouping anywhere else
    // (e.g. pairing (r2,r3) while (r0,r1) merges) would change the
    // floating-point fold shape — the in-memory reduce is a strict left
    // fold ((P0+P1)+P2)+P3 over chunk partials, and only a left-cascade
    // reproduces it exactly: fold(fold(P0..Pk), Pk+1, ...) IS the full
    // fold. The accumulated prefix is re-read once per pass; with fan-in
    // derived from any realistic budget a single pass covers every run, so
    // the cascade is a tiny-budget fallback, not the common case.
    ++passes;
    const std::string out_path =
        (std::filesystem::path(tmp_dir) /
         ("merge_" + std::to_string(passes) + ".avspill"))
            .string();
    SpillRunWriter writer;
    AV_RETURN_NOT_OK(writer.Open(out_path));
    Status append = Status::OK();
    AV_RETURN_NOT_OK(MergeSpillRuns(
        std::span<const std::string>(paths.data(), max_fanin),
        [&](SpillEntry&& e) {
          if (append.ok()) append = writer.Append(e);
        }));
    AV_RETURN_NOT_OK(append);
    AV_RETURN_NOT_OK(writer.Finish());
    // The merged inputs are dead; reclaim the disk space now instead of at
    // end-of-build (bounds peak spill footprint on deep cascades).
    for (size_t i = 0; i < max_fanin; ++i) {
      std::error_code ec;
      std::filesystem::remove(paths[i], ec);
    }
    paths.erase(paths.begin() + 1, paths.begin() + max_fanin);
    paths.front() = out_path;
  }
  if (merge_passes != nullptr) *merge_passes = passes;
  return MergeSpillRuns(paths, emit);
}

}  // namespace av
