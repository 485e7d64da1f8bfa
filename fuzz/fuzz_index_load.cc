// Fuzz target for PatternIndex deserialization: arbitrary bytes through
// LoadFromBuffer (the exact code path behind PatternIndex::Load minus the
// file slurp) must return kCorruption/kIOError or a fully-valid index —
// never crash, hang, over-read, or half-load.
//
// Build with -DAV_FUZZ=ON; under clang this is a libFuzzer binary, under
// gcc it links fuzz/standalone_driver.cc and replays files given as args.
//
// Under libFuzzer (AV_FUZZ_LIBFUZZER) the harness also installs a
// structure-aware mutator: AVIDX003 covers its whole payload with an
// AVTRAIL1 checksum, so byte-level mutation almost never gets past the
// trailer to the entry-header pre-pass and the entry parser. The custom
// mutator strips a valid trailer, parses the entries it can, mutates at
// ENTRY granularity — duplicate / drop / swap / byte-mutate one name (half
// the time re-keyed so the key check passes), lie about the entry count or
// one name length, or cut the payload short — and re-stamps a correct
// trailer, keeping the corpus deep inside the loader.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/rng.h"
#include "index/pattern_index.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto loaded = av::PatternIndex::LoadFromBuffer(bytes);
  if (loaded.ok()) {
    // Walk the accepted index: every surviving entry must be internally
    // consistent (names resolvable, lookups well-defined).
    loaded->ForEach([&](const std::string& name,
                        const av::PatternIndex::Entry&) {
      (void)loaded->Lookup(name);
    });
  } else {
    (void)loaded.status().ToString();
  }
  return 0;
}

#if defined(AV_FUZZ_LIBFUZZER)

// Provided by the libFuzzer runtime (only linked in the libFuzzer build;
// the gcc standalone driver has no mutator entry points at all).
extern "C" size_t LLVMFuzzerMutate(uint8_t* data, size_t size,
                                   size_t max_size);

namespace {

constexpr char kIndexMagic[8] = {'A', 'V', 'I', 'D', 'X', '0', '0', '3'};
constexpr size_t kHeaderBytes = sizeof(kIndexMagic) + sizeof(uint64_t);

/// One AVIDX003 entry as laid out on disk.
struct RawEntry {
  uint64_t key = 0;
  std::string name;
  double sum_impurity = 0;
  uint32_t columns = 0;
};

template <typename T>
bool Take(std::string_view* in, T* v) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(v, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

/// Parses every complete entry after an index header (either magic; the
/// count is ignored — the mutator writes its own). Stops at the first entry
/// that does not fit.
std::vector<RawEntry> ParseEntries(std::string_view payload) {
  std::vector<RawEntry> entries;
  if (payload.size() < kHeaderBytes) return entries;
  payload.remove_prefix(kHeaderBytes);
  while (true) {
    RawEntry e;
    uint32_t len = 0;
    if (!Take(&payload, &e.key) || !Take(&payload, &len) ||
        payload.size() < len) {
      break;
    }
    e.name.assign(payload.data(), len);
    payload.remove_prefix(len);
    if (!Take(&payload, &e.sum_impurity) || !Take(&payload, &e.columns)) break;
    entries.push_back(std::move(e));
  }
  return entries;
}

template <typename T>
void Put(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Appends a correct AVTRAIL1 trailer (len | PolyHash64 | magic).
void StampTrailer(std::string& bytes) {
  const uint64_t len = bytes.size();
  const uint64_t digest = av::PolyHash64(bytes);
  Put(&bytes, len);
  Put(&bytes, digest);
  bytes.append(av::kTrailerMagic, sizeof(av::kTrailerMagic));
}

}  // namespace

extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned int seed) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  av::Rng rng(seed);

  // Work on the payload: strip a valid trailer, or take the bytes as-is
  // (the mutator must also grow inputs that never had one).
  std::string_view payload = input;
  if (av::VerifyTrailer(input).ok()) {
    payload = input.substr(0, input.size() - av::kTrailerBytes);
  }
  std::vector<RawEntry> entries = ParseEntries(payload);
  if (entries.empty()) {
    RawEntry e;
    e.name = "<digit>{4}";
    e.key = av::PolyHash64(e.name);
    e.columns = 1;
    entries.push_back(std::move(e));
  }

  uint64_t count = entries.size();
  size_t lie_at = entries.size();  // entry whose name length field lies
  uint32_t lie_len = 0;
  size_t cut = 0;                  // payload bytes dropped from the end
  switch (rng.Below(7)) {
    case 0: {  // duplicate an entry (the duplicate-key merge path)
      const size_t i = rng.Below(entries.size());
      entries.insert(entries.begin() + static_cast<ptrdiff_t>(i), entries[i]);
      count = entries.size();
      break;
    }
    case 1:  // drop an entry
      entries.erase(entries.begin() +
                    static_cast<ptrdiff_t>(rng.Below(entries.size())));
      count = entries.size();
      break;
    case 2:  // swap two entries (unsorted files must still load or fail)
      std::swap(entries[rng.Below(entries.size())],
                entries[rng.Below(entries.size())]);
      break;
    case 3:  // the header count lies
      count = rng.Below(2) ? entries.size() + 1 + rng.Below(4)
                           : rng.Next();
      break;
    case 4:  // one name length lies: past the end, or above the loader cap
      lie_at = rng.Below(entries.size());
      lie_len = rng.Below(2) ? (1u << 24) + 1 + static_cast<uint32_t>(
                                                    rng.Below(1u << 20))
                             : static_cast<uint32_t>(rng.Below(1u << 16));
      break;
    case 5:  // truncate inside the entry region (pre-pass truncation paths)
      cut = 1 + rng.Below(24);
      break;
    default: {  // byte-level mutation of one name, framing intact
      RawEntry& e = entries[rng.Below(entries.size())];
      std::vector<uint8_t> buf(e.name.begin(), e.name.end());
      buf.resize(e.name.size() + 16);
      const size_t n = LLVMFuzzerMutate(buf.data(), e.name.size(), buf.size());
      e.name.assign(reinterpret_cast<const char*>(buf.data()), n);
      if (rng.Below(2)) e.key = av::PolyHash64(e.name);
      break;
    }
  }

  std::string out(kIndexMagic, sizeof(kIndexMagic));
  Put(&out, count);
  for (size_t i = 0; i < entries.size(); ++i) {
    const RawEntry& e = entries[i];
    Put(&out, e.key);
    Put(&out, i == lie_at ? lie_len : static_cast<uint32_t>(e.name.size()));
    out += e.name;
    Put(&out, e.sum_impurity);
    Put(&out, e.columns);
  }
  out.resize(out.size() - std::min(cut, out.size() - kHeaderBytes));
  StampTrailer(out);
  if (out.size() > max_size) {
    // Too big for the engine's budget: fall back to plain byte mutation.
    return LLVMFuzzerMutate(data, size, max_size);
  }
  std::memcpy(data, out.data(), out.size());
  return out.size();
}

#endif  // AV_FUZZ_LIBFUZZER
