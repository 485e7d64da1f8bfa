#include "index/pattern_index.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "common/durable_file.h"
#include "common/thread_pool.h"

namespace av {

void PatternIndex::CheckNoCollision(uint64_t key, std::string_view stored,
                                    std::string_view fresh) {
  if (stored == fresh) return;
  std::fprintf(stderr,
               "PatternIndex: 64-bit key collision %016llx between \"%.*s\" "
               "and \"%.*s\"; statistics would merge silently\n",
               static_cast<unsigned long long>(key),
               static_cast<int>(stored.size()), stored.data(),
               static_cast<int>(fresh.size()), fresh.data());
  std::abort();
}

namespace {
/// The format: checksum-trailed, crash-safe writes (docs/FILE_FORMATS.md).
constexpr char kMagic[8] = {'A', 'V', 'I', 'D', 'X', '0', '0', '3'};
/// Smallest possible on-disk entry: key (8) + length (4) + empty string (0)
/// + sum_impurity (8) + columns (4).
constexpr uint64_t kMinEntryBytes = 24;
/// Longest name a loader accepts (a corrupt length must not drive an
/// allocation).
constexpr uint32_t kMaxNameBytes = 1u << 24;
/// Bytes after an entry's name: sum_impurity (8) + columns (4).
constexpr size_t kEntryTailBytes = sizeof(double) + sizeof(uint32_t);

/// Reads the key and name length of the entry at `*p` after checking that
/// the whole entry (header, name, tail) lies before `end`; advances `*p`
/// past the header.
Status ReadEntryHeader(const char** p, const char* end, uint64_t* key,
                       uint32_t* len) {
  if (static_cast<size_t>(end - *p) < sizeof(*key) + sizeof(*len)) {
    return Status::Corruption("truncated index entry");
  }
  std::memcpy(key, *p, sizeof(*key));
  std::memcpy(len, *p + sizeof(*key), sizeof(*len));
  *p += sizeof(*key) + sizeof(*len);
  if (*len > kMaxNameBytes) {
    return Status::Corruption("bad key length in index");
  }
  if (static_cast<size_t>(end - *p) < *len + kEntryTailBytes) {
    return Status::Corruption("truncated index entry");
  }
  return Status::OK();
}
}  // namespace

void PatternIndex::Shard::InsertAggregate(uint64_t key, std::string_view name,
                                          double sum_impurity,
                                          uint32_t columns, bool in_image) {
  auto [slot, inserted] = stats.TryEmplace(key);
  if (!inserted) {
    CheckNoCollision(key, slot->name(), name);
  } else if (in_image) {
    slot->name_data = name.data();
    slot->name_len = static_cast<uint32_t>(name.size());
  } else {
    SetName(slot, name);
  }
  slot->sum_impurity += sum_impurity;
  slot->columns += columns;
}

void PatternIndex::InsertAggregate(uint64_t key, std::string_view name,
                                   double sum_impurity, uint32_t columns) {
  ShardFor(key).InsertAggregate(key, name, sum_impurity, columns,
                                /*in_image=*/false);
}

void PatternIndex::MergeFrom(PatternIndex&& other) {
  for (size_t s = 0; s < kNumShards; ++s) MergeShardFrom(s, &other);
}

void PatternIndex::MergeShardFrom(size_t shard, PatternIndex* other) {
  Shard& dst = shards_[shard];
  Shard& src = other->shards_[shard];
  if (dst.stats.empty() && dst.stats.capacity() == 0) {
    // Not pre-reserved: adopt the source table, arena and image reference
    // wholesale (the bytes they hold do not move, so the slots' name views
    // stay valid).
    dst = std::move(src);
    src = Shard{};
    return;
  }
  // The table grows only as new keys arrive (no reservation for the merge
  // volume: most of a chunk's keys are already present). A new key's name
  // is copied into this shard's arena; a duplicate key's names must agree,
  // or two distinct patterns collided on one 64-bit key. This is the check
  // that covers the production chunked BuildIndex path (chunk-local column
  // counts are too small for AddKeyed's sampled check).
  src.stats.ConsumePipelined(
      [&dst](uint64_t key) { dst.stats.Prefetch(key); },
      [&dst](uint64_t key, Slot&& s) {
        auto [d, inserted] = dst.stats.TryEmplace(key);
        if (inserted) {
          dst.SetName(d, s.name());
        } else {
          CheckNoCollision(key, d->name(), s.name());
        }
        d->sum_impurity += s.sum_impurity;
        d->columns += s.columns;
      });
  src = Shard{};  // release the consumed table, arena and image reference
}

std::optional<PatternStats> PatternIndex::Lookup(uint64_t key) const {
  const Slot* slot = ShardFor(key).stats.Find(key);
  if (slot == nullptr) return std::nullopt;
  PatternStats s;
  s.coverage = slot->columns;
  s.fpr = slot->columns > 0 ? slot->sum_impurity / slot->columns : 1.0;
  return s;
}

size_t PatternIndex::size() const {
  size_t n = 0;
  for (const Shard& s : shards_) n += s.stats.size();
  return n;
}

void PatternIndex::ForEach(
    const std::function<void(const std::string&, const Entry&)>& fn) const {
  std::string name;
  for (const Shard& s : shards_) {
    s.stats.ForEach([&](uint64_t, const Slot& slot) {
      name.assign(slot.name());
      fn(name, slot.entry());
    });
  }
}

namespace {

/// One entry of a sorted iteration, copied out of its slot (32 bytes, the
/// statistics inline so emitting a row touches no table). Rows order on
/// (name, key): names are unique per key, so the order is total and any
/// correct sort of the same rows yields the same sequence.
struct SortRow {
  const char* name_data;
  uint32_t name_len;
  uint32_t columns;
  uint64_t key;
  double sum_impurity;
  std::string_view name() const { return {name_data, name_len}; }
};

bool RowLess(const SortRow& a, const SortRow& b) {
  const int c = a.name().compare(b.name());
  return c != 0 ? c < 0 : a.key < b.key;
}

/// Sample sort over `pool`, in place: sampled splitters cut the rows into
/// key ranges, a parallel pass classifies every row, a cycle-walking
/// permutation moves each row into its range (no second row array — the
/// save's peak memory matters), and the ranges sort concurrently.
/// Concatenating the sorted ranges is the sorted sequence — no merge step.
void ParallelSort(std::vector<SortRow>& rows, ThreadPool& pool) {
  const size_t n = rows.size();
  const size_t ranges = std::min<size_t>(4 * (pool.num_threads() + 1), 256);
  constexpr size_t kOversample = 32;

  std::vector<SortRow> sample;
  sample.reserve(ranges * kOversample);
  for (size_t i = 0; i < ranges * kOversample; ++i) {
    sample.push_back(rows[i * n / (ranges * kOversample)]);
  }
  std::sort(sample.begin(), sample.end(), RowLess);
  std::vector<SortRow> splitters;  // ranges - 1 ascending cut points
  for (size_t r = 1; r < ranges; ++r) {
    splitters.push_back(sample[r * kOversample]);
  }

  // Rows are classified in `ranges` contiguous blocks; counts[b][r] is the
  // number of block b's rows that fall in range r.
  const size_t blocks = ranges;
  std::vector<uint8_t> range_of(n);
  std::vector<size_t> counts(blocks * ranges, 0);
  pool.ParallelFor(blocks, [&](size_t b) {
    size_t* count = &counts[b * ranges];
    for (size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      const size_t r = std::upper_bound(splitters.begin(), splitters.end(),
                                        rows[i], RowLess) -
                       splitters.begin();
      range_of[i] = static_cast<uint8_t>(r);
      ++count[r];
    }
  });
  std::vector<size_t> range_begin(ranges + 1, 0);
  for (size_t r = 0; r < ranges; ++r) {
    size_t total = 0;
    for (size_t b = 0; b < blocks; ++b) total += counts[b * ranges + r];
    range_begin[r + 1] = range_begin[r] + total;
  }
  // Every swap lands one row in its final range, so this is at most n
  // swaps; next[r] is the first slot of range r not yet holding its own.
  std::vector<size_t> next(range_begin.begin(), range_begin.end() - 1);
  for (size_t r = 0; r < ranges; ++r) {
    while (next[r] < range_begin[r + 1]) {
      const size_t i = next[r];
      const size_t t = range_of[i];
      if (t == r) {
        ++next[r];
        continue;
      }
      std::swap(rows[i], rows[next[t]]);
      std::swap(range_of[i], range_of[next[t]]);
      ++next[t];
    }
  }
  pool.ParallelFor(ranges, [&](size_t r) {
    std::sort(rows.begin() + range_begin[r], rows.begin() + range_begin[r + 1],
              RowLess);
  });
}

}  // namespace

void PatternIndex::ForEachSorted(
    const std::function<void(uint64_t, std::string_view, const Entry&)>& fn,
    size_t num_threads) const {
  std::vector<SortRow> rows;
  rows.reserve(size());
  for (const Shard& s : shards_) {
    s.stats.ForEach([&](uint64_t key, const Slot& slot) {
      rows.push_back({slot.name_data, slot.name_len, slot.columns, key,
                      slot.sum_impurity});
    });
  }
  if (num_threads != 1 && rows.size() >= kParallelMinRows) {
    ThreadPool pool(num_threads);
    ParallelSort(rows, pool);
  } else {
    std::sort(rows.begin(), rows.end(), RowLess);
  }
  for (const SortRow& row : rows) {
    fn(row.key, row.name(), Entry{row.sum_impurity, row.columns});
  }
}

Status PatternIndex::Save(const std::string& path) const {
  // Deterministic output: entries sorted by string key, so the file bytes
  // do not depend on hash-map iteration order (and hence on how many
  // threads built the index). Durable output: the payload streams into a
  // temp file and lands via checksum trailer + fsync + atomic rename, so a
  // crashed save never leaves a torn file (or clobbers the previous index).
  DurableFileWriter out;
  AV_RETURN_NOT_OK(out.Open(path));
  AV_RETURN_NOT_OK(out.Append(kMagic, sizeof(kMagic)));
  const uint64_t n = size();
  AV_RETURN_NOT_OK(out.AppendPod(n));
  Status st = Status::OK();
  ForEachSorted(
      [&](uint64_t key, std::string_view name, const Entry& e) {
        if (!st.ok()) return;
        const uint32_t len = static_cast<uint32_t>(name.size());
        st = out.AppendPod(key);
        if (st.ok()) st = out.AppendPod(len);
        if (st.ok()) st = out.Append(name.data(), len);
        if (st.ok()) st = out.AppendPod(e.sum_impurity);
        if (st.ok()) st = out.AppendPod(e.columns);
      },
      /*num_threads=*/0);
  AV_RETURN_NOT_OK(st);
  return out.Commit();
}

Result<PatternIndex> PatternIndex::Load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("not a readable regular file: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  std::shared_ptr<const char> image;
  if (size > 0) {  // an empty file cannot be mapped; it fails the magic check
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      return Status::IOError("cannot map " + path);
    }
    image.reset(static_cast<const char*>(addr), [size](const char* p) {
      ::munmap(const_cast<char*>(p), size);
    });
  }
  ::close(fd);
  auto idx = LoadImage(std::string_view(image.get(), size),
                       [&image] { return image; });
  if (!idx.ok()) {
    return Status(idx.status().code(), idx.status().message() + ": " + path);
  }
  return idx;
}

Result<PatternIndex> PatternIndex::LoadFromBuffer(std::string_view data) {
  return LoadImage(data, [data] {
    auto copy = std::make_shared_for_overwrite<char[]>(data.size());
    std::memcpy(copy.get(), data.data(), data.size());
    return std::shared_ptr<const char>(copy, copy.get());
  });
}

Result<PatternIndex> PatternIndex::LoadImage(
    std::string_view data,
    const std::function<std::shared_ptr<const char>()>& keep) {
  constexpr size_t kHeaderBytes = sizeof(kMagic) + sizeof(uint64_t);
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad index magic");
  }
  // The entry count picks inline or pooled work before the checksum has
  // vouched for it, so only a count that the file's size allows starts a
  // pool; the checksum and the size bound below then check it.
  uint64_t n = 0;
  if (data.size() >= kHeaderBytes) {
    std::memcpy(&n, data.data() + sizeof(kMagic), sizeof(n));
  }
  std::optional<ThreadPool> pool;
  if (n >= kParallelMinRows && data.size() >= kHeaderBytes + kTrailerBytes &&
      n <= (data.size() - kHeaderBytes - kTrailerBytes) / kMinEntryBytes) {
    pool.emplace(0);
  }
  // The trailer is mandatory and covers the whole payload, so a torn or
  // bit-rotted file fails here before any entry is parsed.
  auto payload_len = VerifyTrailer(data, pool ? &*pool : nullptr);
  if (!payload_len.ok()) return payload_len.status();
  const size_t payload = static_cast<size_t>(*payload_len);
  if (payload < kHeaderBytes) {
    return Status::Corruption("truncated index header");
  }
  // A corrupt header cannot trigger an unbounded allocation: every entry
  // occupies at least kMinEntryBytes, so n is bounded by the payload size.
  if (n > (payload - kHeaderBytes) / kMinEntryBytes) {
    return Status::Corruption("entry count exceeds file size");
  }
  // Serial pre-pass over the entry headers: bounds-check every entry and
  // bucket its offset by shard, so each shard can size its table once and
  // insert its entries in file order, and a malformed file is rejected
  // before any table is allocated.
  std::array<std::vector<size_t>, kNumShards> shard_entries;
  const char* const end = data.data() + payload;
  const char* p = data.data() + kHeaderBytes;
  for (uint64_t i = 0; i < n; ++i) {
    const size_t offset = static_cast<size_t>(p - data.data());
    uint64_t key = 0;
    uint32_t len = 0;
    AV_RETURN_NOT_OK(ReadEntryHeader(&p, end, &key, &len));
    p += len + kEntryTailBytes;
    shard_entries[ShardOf(key)].push_back(offset);
  }

  std::shared_ptr<const char> image = keep();
  PatternIndex idx;
  std::array<Status, kNumShards> shard_status;
  const auto load_shard = [&](size_t s) {
    Shard& shard = idx.shards_[s];
    shard.stats.reserve(shard_entries[s].size());
    const char* const image_end = image.get() + payload;
    for (const size_t offset : shard_entries[s]) {
      // The header is read again, with its bounds, from the kept bytes:
      // those are what the slots will view.
      const char* q = image.get() + offset;
      uint64_t key = 0;
      uint32_t len = 0;
      Status st = ReadEntryHeader(&q, image_end, &key, &len);
      if (st.ok() && key != PolyHash64(std::string_view(q, len))) {
        st = Status::Corruption("key/string mismatch in index");
      }
      if (!st.ok()) {
        shard_status[s] = std::move(st);
        return;
      }
      const std::string_view name(q, len);
      Entry e;
      std::memcpy(&e.sum_impurity, q + len, sizeof(e.sum_impurity));
      std::memcpy(&e.columns, q + len + sizeof(e.sum_impurity),
                  sizeof(e.columns));
      shard.InsertAggregate(key, name, e.sum_impurity, e.columns,
                            /*in_image=*/true);
    }
    if (!shard_entries[s].empty()) shard.image = image;
  };
  if (pool) {
    pool->ParallelFor(kNumShards, load_shard);
  } else {
    for (size_t s = 0; s < kNumShards; ++s) load_shard(s);
  }
  for (Status& st : shard_status) {
    if (!st.ok()) return std::move(st);
  }
  return idx;
}

uint64_t PatternIndex::ApproxBytes() const {
  uint64_t bytes = 0;
  for (const Shard& s : shards_) {
    // Flat slots (key + slot value), with the 8/5 factor approximating
    // open-addressing slack, plus the name arena's blocks.
    bytes += s.stats.size() * (sizeof(uint64_t) + sizeof(Slot)) * 8 / 5 +
             s.names.bytes();
  }
  return bytes;
}

}  // namespace av
