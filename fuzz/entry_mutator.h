// Structure-aware mutation shared by the fuzz harnesses whose inputs carry
// AVIDX003-encoded entries (u64 key, u32 name length, name, f64
// sum_impurity, u32 columns) under an AVTRAIL1 checksum trailer: AVIDX003
// index files and AVSPILL02 spill runs. The trailer covers the whole
// payload, so byte-level mutation almost never gets past the checksum to
// the entry parsers. A harness's LLVMFuzzerCustomMutator strips a valid
// trailer, parses the entries, applies one entry-level mutation from here,
// re-encodes its own framing around them and re-stamps a correct trailer.
//
// Only for harnesses built against the libFuzzer runtime (AV_FUZZ_LIBFUZZER),
// which provides LLVMFuzzerMutate.
#pragma once

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

extern "C" size_t LLVMFuzzerMutate(uint8_t* data, size_t size,
                                   size_t max_size);

namespace avfuzz {

/// One entry as laid out on disk.
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

template <typename T>
void Put(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// `input` without its trailer if the trailer verifies, else `input` as-is
/// (the mutator must also grow inputs that never had one).
inline std::string_view StripTrailer(std::string_view input) {
  if (av::VerifyTrailer(input).ok()) {
    return input.substr(0, input.size() - av::kTrailerBytes);
  }
  return input;
}

/// Parses every complete entry at the start of `region`; stops at the first
/// entry that does not fit. Never returns an empty list: an input with no
/// parseable entry yields one well-formed seed entry.
inline std::vector<RawEntry> ParseEntries(std::string_view region) {
  std::vector<RawEntry> entries;
  while (true) {
    RawEntry e;
    uint32_t len = 0;
    if (!Take(&region, &e.key) || !Take(&region, &len) ||
        region.size() < len) {
      break;
    }
    e.name.assign(region.data(), len);
    region.remove_prefix(len);
    if (!Take(&region, &e.sum_impurity) || !Take(&region, &e.columns)) break;
    entries.push_back(std::move(e));
  }
  if (entries.empty()) {
    RawEntry e;
    e.name = "<digit>{4}";
    e.key = av::PolyHash64(e.name);
    e.columns = 1;
    entries.push_back(std::move(e));
  }
  return entries;
}

/// How the re-encoded framing lies, if at all.
struct Framing {
  uint64_t count = 0;        ///< entry count the file claims
  size_t lie_at = SIZE_MAX;  ///< entry whose name length field lies
  uint32_t lie_len = 0;
  size_t cut = 0;  ///< bytes dropped from the end of the entry region
};

/// Applies one random entry-level mutation to `entries` (non-empty):
/// duplicate (the duplicate-key merge paths) / drop / swap two entries,
/// lie about the count or one name length, cut the entry region short, or
/// byte-mutate one name (half the time re-keyed so the key check passes).
inline Framing MutateEntries(std::vector<RawEntry>& entries, av::Rng& rng) {
  Framing f;
  switch (rng.Below(7)) {
    case 0: {
      const size_t i = rng.Below(entries.size());
      entries.insert(entries.begin() + static_cast<ptrdiff_t>(i), entries[i]);
      break;
    }
    case 1:
      entries.erase(entries.begin() +
                    static_cast<ptrdiff_t>(rng.Below(entries.size())));
      break;
    case 2:
      std::swap(entries[rng.Below(entries.size())],
                entries[rng.Below(entries.size())]);
      break;
    case 3:
      f.count = rng.Below(2) ? entries.size() + 1 + rng.Below(4) : rng.Next();
      return f;
    case 4:  // past the end, or above the 2^24 loader cap
      f.lie_at = rng.Below(entries.size());
      f.lie_len = rng.Below(2) ? (1u << 24) + 1 +
                                     static_cast<uint32_t>(rng.Below(1u << 20))
                               : static_cast<uint32_t>(rng.Below(1u << 16));
      break;
    case 5:
      f.cut = 1 + rng.Below(24);
      break;
    default: {
      RawEntry& e = entries[rng.Below(entries.size())];
      std::vector<uint8_t> buf(e.name.begin(), e.name.end());
      buf.resize(e.name.size() + 16);
      const size_t n = LLVMFuzzerMutate(buf.data(), e.name.size(), buf.size());
      e.name.assign(reinterpret_cast<const char*>(buf.data()), n);
      if (rng.Below(2)) e.key = av::PolyHash64(e.name);
      break;
    }
  }
  f.count = entries.size();
  return f;
}

/// Appends `entries` encoded as `framing` says (all but the count, whose
/// place depends on the format).
inline void AppendEntries(std::string* out,
                          const std::vector<RawEntry>& entries,
                          const Framing& framing) {
  const size_t begin = out->size();
  for (size_t i = 0; i < entries.size(); ++i) {
    const RawEntry& e = entries[i];
    Put(out, e.key);
    Put(out, i == framing.lie_at ? framing.lie_len
                                 : static_cast<uint32_t>(e.name.size()));
    *out += e.name;
    Put(out, e.sum_impurity);
    Put(out, e.columns);
  }
  out->resize(out->size() - std::min(framing.cut, out->size() - begin));
}

/// Appends a correct AVTRAIL1 trailer (len | PolyHash64 | magic).
inline void StampTrailer(std::string& bytes) {
  const uint64_t len = bytes.size();
  const uint64_t digest = av::PolyHash64(bytes);
  Put(&bytes, len);
  Put(&bytes, digest);
  bytes.append(av::kTrailerMagic, sizeof(av::kTrailerMagic));
}

/// Copies `out` into the engine's buffer, or falls back to plain byte
/// mutation if it exceeds `max_size`.
inline size_t Emit(const std::string& out, uint8_t* data, size_t size,
                   size_t max_size) {
  if (out.size() > max_size) return LLVMFuzzerMutate(data, size, max_size);
  std::memcpy(data, out.data(), out.size());
  return out.size();
}

}  // namespace avfuzz
