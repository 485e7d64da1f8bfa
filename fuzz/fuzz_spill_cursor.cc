// Fuzz target for spill-run reading: arbitrary bytes through
// SpillRunCursor::OpenBuffer and a full cursor walk must either yield a
// clean entry stream or stop with kCorruption — never crash, hang, or
// emit an entry that violates the run invariants (sorted, key-consistent).
// Every accepted entry then goes where a spill merge sends it, into
// PatternIndex::InsertAggregate, and its name must read back intact.
//
// Build with -DAV_FUZZ=ON; under clang this is a libFuzzer binary, under
// gcc it links fuzz/standalone_driver.cc and replays files given as args.
//
// Under libFuzzer (AV_FUZZ_LIBFUZZER) the harness also installs a
// structure-aware mutator (entry_mutator.h): AVSPILL02 covers its whole
// payload with an AVTRAIL1 checksum, so the mutator strips a valid trailer,
// mutates at entry granularity, half the time restores the strict name
// order the cursor demands (so mutated entries reach the index), and
// re-stamps the trailing count and a correct trailer.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "index/pattern_index.h"
#include "index/spill.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  av::SpillRunCursor cursor;
  av::Status st =
      cursor.OpenBuffer(std::string(reinterpret_cast<const char*>(data), size));
  av::PatternIndex merged;
  std::vector<std::string> accepted;
  while (st.ok() && cursor.valid()) {
    const av::SpillEntry& e = cursor.entry();
    // The cursor promises strictly ascending names; a violation here means
    // validation let a malformed run through.
    if (!accepted.empty() && e.name <= accepted.back()) __builtin_trap();
    merged.InsertAggregate(e.key, e.name, e.sum_impurity, e.columns);
    accepted.push_back(e.name);
    st = cursor.Next();
  }
  for (const std::string& name : accepted) {
    const auto stored = merged.LookupName(av::PolyHash64(name));
    if (!stored || *stored != name) __builtin_trap();
  }
  (void)st.ToString();
  return 0;
}

#if defined(AV_FUZZ_LIBFUZZER)

#include "entry_mutator.h"

namespace {

constexpr char kSpillMagic[9] = {'A', 'V', 'S', 'P', 'I', 'L', 'L', '0', '2'};

}  // namespace

extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned int seed) {
  av::Rng rng(seed);
  // AVSPILL02 payload: magic, entries, then the u64 entry count.
  const std::string_view payload = avfuzz::StripTrailer(
      std::string_view(reinterpret_cast<const char*>(data), size));
  constexpr size_t kFramingBytes = sizeof(kSpillMagic) + sizeof(uint64_t);
  std::vector<avfuzz::RawEntry> entries = avfuzz::ParseEntries(
      payload.size() < kFramingBytes
          ? std::string_view()
          : payload.substr(sizeof(kSpillMagic),
                           payload.size() - kFramingBytes));
  const avfuzz::Framing framing = avfuzz::MutateEntries(entries, rng);
  if (rng.Below(2)) {
    std::sort(entries.begin(), entries.end(),
              [](const avfuzz::RawEntry& a, const avfuzz::RawEntry& b) {
                return a.name < b.name;
              });
  }

  std::string out(kSpillMagic, sizeof(kSpillMagic));
  avfuzz::AppendEntries(&out, entries, framing);
  avfuzz::Put(&out, framing.count);
  avfuzz::StampTrailer(out);
  return avfuzz::Emit(out, data, size, max_size);
}

#endif  // AV_FUZZ_LIBFUZZER
