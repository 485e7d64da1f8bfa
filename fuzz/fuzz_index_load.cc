// Fuzz target for PatternIndex deserialization: arbitrary bytes through
// LoadFromBuffer (the loader behind PatternIndex::Load, over a copy of the
// bytes instead of the file mapping) must return kCorruption/kIOError or a
// fully-valid index — never crash, hang, over-read, or half-load.
//
// Build with -DAV_FUZZ=ON; under clang this is a libFuzzer binary, under
// gcc it links fuzz/standalone_driver.cc and replays files given as args.
//
// Under libFuzzer (AV_FUZZ_LIBFUZZER) the harness also installs a
// structure-aware mutator (entry_mutator.h, shared with the spill-run
// harness): AVIDX003 covers its whole payload with an AVTRAIL1 checksum, so
// byte-level mutation almost never gets past the trailer to the
// entry-header pre-pass and the entry parser. The custom mutator strips a
// valid trailer, parses the entries it can, mutates at ENTRY granularity —
// duplicate / drop / swap / byte-mutate one name (half the time re-keyed so
// the key check passes), lie about the entry count or one name length, or
// cut the payload short — and re-stamps a correct trailer, keeping the
// corpus deep inside the loader.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

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

#include "entry_mutator.h"

namespace {

constexpr char kIndexMagic[8] = {'A', 'V', 'I', 'D', 'X', '0', '0', '3'};
constexpr size_t kHeaderBytes = sizeof(kIndexMagic) + sizeof(uint64_t);

}  // namespace

extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned int seed) {
  av::Rng rng(seed);
  // Entries follow the header (the count is ignored — the mutation writes
  // its own).
  const std::string_view payload = avfuzz::StripTrailer(
      std::string_view(reinterpret_cast<const char*>(data), size));
  std::vector<avfuzz::RawEntry> entries = avfuzz::ParseEntries(
      payload.size() < kHeaderBytes ? std::string_view()
                                    : payload.substr(kHeaderBytes));
  const avfuzz::Framing framing = avfuzz::MutateEntries(entries, rng);

  std::string out(kIndexMagic, sizeof(kIndexMagic));
  avfuzz::Put(&out, framing.count);
  avfuzz::AppendEntries(&out, entries, framing);
  avfuzz::StampTrailer(out);
  return avfuzz::Emit(out, data, size, max_size);
}

#endif  // AV_FUZZ_LIBFUZZER
