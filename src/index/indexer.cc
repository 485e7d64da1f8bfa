#include "index/indexer.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/temp_file.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "index/spill.h"

namespace av {

namespace {

/// Map-phase chunk size. Fixed (independent of thread count and of how the
/// reader lays out columns) because the reduce folds per-key statistics
/// over chunk-local partial sums in chunk order: the chunk structure is
/// part of the saved-bytes determinism contract (docs/ARCHITECTURE.md).
constexpr size_t kColumnsPerChunk = 256;

/// Per-run-cursor memory estimate (stream buffer + current entry + heap
/// slot) used to derive the merge fan-in from the memory budget.
constexpr size_t kSpillCursorBytes = 64 * 1024;

/// Cheap tau pre-check: true when every value of the span exceeds the token
/// limit, i.e. the column cannot contribute a single enumerable shape group
/// and profiling it would be wasted work. Runs the counting-only scanner
/// (TokenCount, no allocation) and bails at the first narrow-enough value,
/// so ordinary columns pay for one count and all-wide columns skip the
/// whole profile build.
bool AllValuesOverTokenLimit(std::span<const std::string> values,
                             size_t max_tokens) {
  for (const std::string& v : values) {
    if (!v.empty() && TokenCount(v) <= max_tokens) return false;
  }
  return true;
}

/// Enumerates P(D) for one column into `index`, returns pattern count.
/// Operates on a deterministic prefix span of the column's values (like the
/// paper's benchmarks) without copying them. `scratch` amortizes the
/// ShapeOptions gathering tables across the caller's columns.
size_t EnumerateColumn(const Column& column, const IndexerConfig& cfg,
                       PatternIndex* index, ShapeScratch* scratch) {
  const std::span<const std::string> values(
      column.values.data(),
      std::min(column.values.size(), cfg.max_values_per_column));
  if (values.empty()) return 0;
  if (AllValuesOverTokenLimit(values, cfg.gen.max_tokens)) return 0;

  const ColumnProfile profile = ColumnProfile::Build(values, cfg.gen);
  const uint64_t total = profile.total_weight();
  if (total == 0) return 0;
  const uint64_t min_weight = std::max<uint64_t>(
      cfg.gen.min_cover_values,
      static_cast<uint64_t>(cfg.gen.coverage_frac *
                            static_cast<double>(total)));

  size_t emitted = 0;
  for (const ShapeGroup& group : profile.shapes()) {
    if (group.over_token_limit) continue;  // tau cut (Section 2.4)
    if (emitted >= cfg.gen.max_patterns_per_column) break;
    const size_t remaining = cfg.gen.max_patterns_per_column - emitted;
    ShapeOptions options(profile, group, cfg.gen, scratch);
    options.EnumerateUnionKeyed(
        min_weight, remaining,
        [index](uint64_t key) { index->Prefetch(key); },
        [&](uint64_t key, uint64_t weight, const auto& name) {
          const double impurity =
              1.0 - static_cast<double>(weight) / static_cast<double>(total);
          // Keyed insert: the string form is rendered only the first time
          // this key is seen by this index (and for sampled checks).
          index->AddKeyed(key, impurity, name);
          ++emitted;
        });
  }
  return emitted;
}

/// Runs the map phase over one chunk: a chunk-local index plus counters.
IndexerReport MapChunk(const ColumnChunk& chunk, const IndexerConfig& cfg,
                       PatternIndex* index) {
  IndexerReport rep;
  ShapeScratch scratch;  // reused across the chunk's columns
  for (const Column* column : chunk.columns) {
    const size_t emitted = EnumerateColumn(*column, cfg, index, &scratch);
    rep.patterns_emitted += emitted;
    if (emitted > 0) {
      ++rep.columns_indexed;
    } else {
      ++rep.columns_all_too_wide;
    }
  }
  return rep;
}

/// Merge fan-in for the spill reduce: explicit override, else derived from
/// the budget at kSpillCursorBytes per open run.
size_t MergeFanin(const IndexBuildOptions& build) {
  if (build.max_merge_fanin > 0) return std::max<size_t>(2, build.max_merge_fanin);
  return std::max<size_t>(2, build.memory_budget_bytes / kSpillCursorBytes);
}

}  // namespace

size_t IndexColumn(const Column& column, const IndexerConfig& cfg,
                   PatternIndex* index) {
  ShapeScratch scratch;
  return EnumerateColumn(column, cfg, index, &scratch);
}

Result<PatternIndex> BuildIndexStreaming(ColumnReader& reader,
                                         const IndexerConfig& cfg,
                                         IndexerReport* report) {
  Stopwatch timer;
  const bool spill = cfg.build.memory_budget_bytes > 0;

  ScopedTempDir spill_dir;
  if (spill) {
    auto dir = ScopedTempDir::Create(cfg.build.spill_dir, "av_spill_");
    if (!dir.ok()) return dir.status();
    spill_dir = std::move(dir).value();
  }
  const auto run_path = [&spill_dir](size_t chunk) {
    return spill_dir.File("run_" + std::to_string(chunk) + ".avspill");
  };

  ThreadPool pool(cfg.num_threads);
  const size_t workers = std::max<size_t>(1, pool.num_threads());

  // Shared map-phase state. Chunk tasks run on the pool while the calling
  // thread keeps reading; the condition variable throttles dispatch so
  // resident chunk indexes stay within the budget: the first chunk runs
  // alone to calibrate the per-chunk size, then up to
  // budget / max-observed-chunk-bytes chunks (capped at the worker count)
  // may be in flight.
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;
  uint64_t live_bytes = 0;        ///< completed chunk indexes not yet freed
  uint64_t peak_bytes = 0;
  uint64_t max_chunk_bytes = 0;   ///< calibration for the in-flight cap
  Status error = Status::OK();
  std::vector<std::unique_ptr<PatternIndex>> retained;  // by chunk, !spill
  std::vector<IndexerReport> chunk_reports;
  uint64_t spill_bytes_total = 0;

  IndexerReport local;
  size_t num_chunks = 0;
  while (true) {
    auto chunk_or = reader.NextChunk(kColumnsPerChunk);
    if (!chunk_or.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (error.ok()) error = chunk_or.status();
      break;
    }
    if (chunk_or->empty()) break;

    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        if (!error.ok()) return true;
        if (in_flight == 0) return true;  // one chunk always makes progress
        if (in_flight >= workers) return false;
        if (!spill) return true;
        if (max_chunk_bytes == 0) return false;  // first chunk runs alone
        // Admit while the residency estimate fits the budget:
        // completed-but-unspilled bytes plus one max-observed chunk per
        // in-flight task (including the one being admitted). Consulting
        // live_bytes and re-evaluating against the running max keeps early
        // small chunks from inflating the admission rate for later large
        // ones; a chunk bigger than anything yet observed can still
        // transiently overshoot — sizes are only known at completion.
        return live_bytes + (in_flight + 1) * max_chunk_bytes <=
               cfg.build.memory_budget_bytes;
      });
      if (!error.ok()) break;
      ++in_flight;
      retained.resize(num_chunks + 1);
      chunk_reports.resize(num_chunks + 1);
    }

    const size_t c = num_chunks++;
    local.columns_total += chunk_or->size();
    pool.Submit([&, c, chunk = std::move(chunk_or).value()]() {
      auto index = std::make_unique<PatternIndex>();
      const IndexerReport rep = MapChunk(chunk, cfg, index.get());
      const uint64_t bytes = index->ApproxBytes();
      {
        std::lock_guard<std::mutex> lock(mu);
        live_bytes += bytes;
        peak_bytes = std::max(peak_bytes, live_bytes);
        max_chunk_bytes = std::max(max_chunk_bytes, bytes);
        chunk_reports[c] = rep;
      }
      Status st = Status::OK();
      uint64_t written = 0;
      if (spill) {
        auto w = WriteSpillRun(*index, run_path(c));
        if (w.ok()) {
          written = *w;
        } else {
          st = w.status();
        }
        index.reset();  // the run now carries this chunk's contribution
      }
      std::lock_guard<std::mutex> lock(mu);
      if (spill) {
        live_bytes -= bytes;
        spill_bytes_total += written;
      } else {
        retained[c] = std::move(index);
      }
      if (!st.ok() && error.ok()) error = st;
      --in_flight;
      cv.notify_all();
    });
  }
  pool.Wait();
  if (!error.ok()) return error;

  for (const IndexerReport& r : chunk_reports) {
    local.patterns_emitted += r.patterns_emitted;
    local.columns_indexed += r.columns_indexed;
    local.columns_all_too_wide += r.columns_all_too_wide;
  }
  local.peak_chunk_index_bytes = peak_bytes;

  PatternIndex global;
  if (spill) {
    std::vector<std::string> paths;
    paths.reserve(num_chunks);
    for (size_t c = 0; c < num_chunks; ++c) paths.push_back(run_path(c));
    local.used_spill = true;
    local.spill_runs = num_chunks;
    local.spill_bytes = spill_bytes_total;
    AV_RETURN_NOT_OK(MergeSpillRunsBounded(
        std::move(paths), MergeFanin(cfg.build), spill_dir.path(),
        [&global](SpillEntry&& e) {
          global.InsertAggregate(e.key, e.name, e.sum_impurity, e.columns);
        },
        &local.merge_passes));
  } else {
    // In-memory reduce, shard-parallel: each of the kNumShards key shards
    // walks the chunk indexes in chunk order, so per-key accumulation order
    // is a function of the column order alone and the result is identical
    // for any thread count. Each global shard adopts chunk 0's tables and
    // grows only with the keys later chunks add, so it is sized by distinct
    // keys, not merge volume.
    pool.ParallelFor(PatternIndex::kNumShards, [&](size_t s) {
      for (const auto& chunk : retained) global.MergeShardFrom(s, chunk.get());
    });
  }

  local.seconds = timer.ElapsedSeconds();
  if (report != nullptr) *report = local;
  return global;
}

Result<PatternIndex> TryBuildIndex(const Corpus& corpus,
                                   const IndexerConfig& cfg,
                                   IndexerReport* report) {
  CorpusColumnReader reader(corpus);
  auto built = BuildIndexStreaming(reader, cfg, report);
  if (built.ok() || cfg.build.memory_budget_bytes == 0 ||
      cfg.build.strict_spill) {
    return built;
  }
  // Spill-path IO failure (e.g. unwritable spill directory): the lake fit
  // in memory to get here, so fall back to the in-memory build rather
  // than failing the whole job — but say so (the memory budget was not
  // honored). Callers that pass a report get the structured
  // spill_fallback fields and own the messaging; only a caller with no
  // report sink at all gets the stderr line, so a server or test that
  // collects reports never has a library printing on its stderr.
  if (report == nullptr) {
    std::fprintf(stderr,
                 "BuildIndex: out-of-core path failed (%s); "
                 "falling back to in-memory build\n",
                 built.status().ToString().c_str());
  }
  IndexerConfig in_core = cfg;
  in_core.build.memory_budget_bytes = 0;
  IndexerReport fallback_report;
  auto index = TryBuildIndex(corpus, in_core, &fallback_report);
  fallback_report.spill_fallback = true;
  fallback_report.spill_fallback_error = built.status().ToString();
  if (report != nullptr) *report = std::move(fallback_report);
  return index;
}

PatternIndex BuildIndex(const Corpus& corpus, const IndexerConfig& cfg,
                        IndexerReport* report) {
  IndexerConfig lenient = cfg;
  lenient.build.strict_spill = false;
  auto built = TryBuildIndex(corpus, lenient, report);
  // Infallible: with strict_spill off, spill failures fall back to the
  // in-memory path, which cannot fail over a CorpusColumnReader.
  return std::move(built).value();
}

Result<PatternIndex> BuildIndexFromDir(const std::string& dir,
                                       const IndexerConfig& cfg,
                                       IndexerReport* report) {
  auto reader = LakeDirColumnReader::Open(dir, cfg.lake_format);
  if (!reader.ok()) return reader.status();
  return BuildIndexStreaming(*reader, cfg, report);
}

}  // namespace av
