// The four workloads of the repo benchmark (README.md in this directory
// says why each one exists and which metrics it moves).
//
// Every workload has a prep phase (seeded inputs, written into the work
// directory by a separate process so that the measuring process's peak
// RSS covers only the program's own work) and a run phase. A run measures
// the workload's end-to-end operation with tracing off for --seconds
// (trace 0), or, with --trace 1, runs the end-to-end operation untraced for
// a third of --seconds and then, for the rest, a replay of that operation
// through the public per-layer entry points, alternately untraced and
// traced. The per-layer metrics come from the traced replay's spans; the
// untraced operation and replay give the replay gap and the tracing
// overhead.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "avbench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/auto_validate.h"
#include "core/fmdv.h"
#include "core/validation_service.h"
#include "corpus/csv.h"
#include "corpus/format.h"
#include "eval/benchmark_gen.h"
#include "eval/evaluator.h"
#include "index/indexer.h"
#include "index/spill.h"
#include "lakegen/domains.h"
#include "lakegen/lakegen.h"
#include "pattern/generalize.h"
#include "pattern/matcher.h"
#include "pattern/simd/token_simd.h"
#include "pattern/token.h"
#include "pattern/tokenized_column.h"
#include "server/client.h"
#include "server/protocol.h"
#include "trace.h"

extern char** environ;

namespace avbench {

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ input sizes

/// Columns of the lake every workload starts from (the builds index it;
/// rule-train and validate-serve train against its index), and its §5.1
/// query columns per domain (trained, served, and evaluated for precision
/// and recall).
constexpr size_t kLakeColumns = 2000;
constexpr size_t kCasesPerDomain = 16;
/// Setup repetitions (setup_s is their median).
constexpr int kSetupReps = 7;
/// Replay chunking mirrors the offline job's fixed map-phase chunk size.
constexpr size_t kChunkColumns = 256;
/// The offline job's per-run-cursor estimate that sets the merge fan-in.
constexpr size_t kSpillCursorBytes = 64 * 1024;

/// Online-stage knobs of the figure benches (bench/bench_util.h) for the
/// in-process engine; avserved fixes min_coverage = 5 for its own engine.
av::AutoValidateOptions TrainOptions() {
  av::AutoValidateOptions opts;
  opts.min_coverage = 8;
  return opts;
}
av::AutoValidateOptions ServeOptions() {
  av::AutoValidateOptions opts;
  opts.min_coverage = 5;
  return opts;
}

/// The seeded enterprise lake every workload starts from, drawn from the
/// lake generator's enterprise domain library (lakegen/domains.h) with
/// stratified sampling: every run of 53 consecutive columns holds each
/// domain once, in a seeded order, and every table has 8 columns of 250 to
/// 400 rows. One column in eight gets 0.5-5% ad-hoc nulls or foreign-domain
/// values, as GenerateLake injects them. Stratifying keeps two seeds' lakes
/// the same mix and size: GenerateLake samples each column's domain and each
/// table's height independently, and at this lake size that alone moves
/// build time and memory by 15-25% from seed to seed.
///
/// Peak memory is a step function of the pattern count: the index's hash
/// shards double at 5/8 load. With 100-200 rows a 256-column chunk index
/// sits right at a doubling step (about 10k keys per shard), so its size,
/// and the spill build's peak RSS, flipped by 25% between seeds. At 250-400
/// rows chunk and global shards sit mid-way between steps (about 7k and
/// 16k keys); a change that moves them across one shows as a jump.
av::Corpus MakeLake(size_t columns, uint64_t seed) {
  const std::vector<av::DomainSpec>& domains = av::EnterpriseDomains();
  av::Rng rng(seed);
  std::vector<size_t> order(domains.size());
  av::Corpus corpus;
  size_t made = 0;
  for (size_t t = 0; made < columns; ++t) {
    av::Table table;
    table.name = "table_" + std::to_string(t);
    const size_t rows = 250 + rng.Below(151);
    for (size_t c = 0; c < 8 && made < columns; ++c, ++made) {
      const size_t slot = made % domains.size();
      if (slot == 0) {
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.Below(i)]);
        }
      }
      const av::DomainSpec& dom = domains[order[slot]];
      av::Column col;
      col.table_name = table.name;
      col.name = dom.name + "_" + std::to_string(made);
      col.domain_id = static_cast<int32_t>(order[slot]);
      col.domain_name = dom.name;
      col.has_syntactic_pattern = dom.syntactic && !dom.ground_truth.empty();
      const av::RowGen gen = dom.make_column(rng);
      for (size_t r = 0; r < rows; ++r) col.values.push_back(gen(rng));
      if (made % 8 == 3) {
        const double noise = 0.005 + rng.NextDouble() * 0.045;
        const av::RowGen foreign =
            domains[rng.Below(domains.size())].make_column(rng);
        for (size_t r = 0; r < rows; ++r) {
          if (!rng.Chance(noise)) continue;
          col.values[r] = rng.Chance(0.7) ? rng.Choice(av::SpecialNullValues())
                                          : foreign(rng);
          col.noise_rows.push_back(static_cast<uint32_t>(r));
        }
      }
      table.columns.push_back(std::move(col));
    }
    corpus.AddTable(std::move(table));
  }
  return corpus;
}

/// The §5.1 query columns of a lake, stratified like the lake: the first
/// `per_domain` eligible MakeBenchmark columns of every domain. Training
/// cost differs by domain by two orders of magnitude, so sampling cases at
/// random would let the seed set throughput and tail latency.
av::Benchmark StratifiedCases(const av::Corpus& corpus, uint64_t seed,
                              size_t per_domain) {
  av::BenchmarkConfig bc;
  bc.num_cases = corpus.num_columns();
  bc.seed = seed;
  const av::Benchmark all = av::MakeBenchmark(
      corpus, bc, av::DomainsForProfile(av::LakeConfig::Profile::kEnterprise));
  av::Benchmark out;
  std::map<std::string, size_t> taken;
  for (const av::BenchmarkCase& c : all.cases) {
    if (taken[c.domain_name]++ < per_domain) out.cases.push_back(c);
  }
  return out;
}

std::string Join(const std::vector<double>& v) {
  std::ostringstream s;
  s.precision(17);
  for (size_t i = 0; i < v.size(); ++i) s << (i ? "," : "") << v[i];
  return s.str();
}

std::vector<double> Split(const std::string& text) {
  std::vector<double> v;
  std::stringstream s(text);
  std::string item;
  while (std::getline(s, item, ',')) v.push_back(std::strtod(item.c_str(), nullptr));
  return v;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

bool Fail(const std::string& what, const av::Status& st) {
  std::fprintf(stderr, "avbench: %s: %s\n", what.c_str(), st.ToString().c_str());
  return false;
}

/// Op latencies of a run, by request key: the one build (builds), a column
/// (rule-train), a column, a table or a training slice (validate-serve).
/// Requests of one key do the same work; requests of different keys do not:
/// training cost differs by two orders of magnitude between domains, and a
/// table request validates several columns. The median of the pooled sample
/// would sit wherever two kinds of request meet and ignore a change to
/// either, so the op figure is the mean of the per-key medians, each
/// weighted by how often the run issued its key. Every key moves it in
/// proportion to its share of the run, and a key's median drops the host's
/// scheduling stalls.
class Latencies {
 public:
  void Add(uint64_t key, double ms) {
    by_key_[key].push_back(ms);
    all_.push_back(ms);
  }
  const std::vector<double>& all() const { return all_; }
  size_t size() const { return all_.size(); }
  double MixWeightedMedian() const {
    double sum = 0;
    for (const auto& [key, ms] : by_key_) {
      sum += Median(ms) * static_cast<double>(ms.size());
    }
    return all_.empty() ? 0 : sum / static_cast<double>(all_.size());
  }

 private:
  std::map<uint64_t, std::vector<double>> by_key_;
  std::vector<double> all_;
};

/// FMDV-VH precision and recall under the §5.1 protocol (EvaluateMethod on
/// the syntactic query columns), computed untimed on the index a workload
/// built or serves.
struct Quality {
  double precision = 0;
  double recall = 0;
  size_t cases = 0;
};

Quality EvaluateQuality(const av::PatternIndex& index, const av::Benchmark& bench,
                        const av::AutoValidateOptions& opts, size_t threads) {
  const av::AutoValidate engine(&index, opts);
  av::EvalConfig ec;
  ec.num_threads = threads;
  const av::MethodEvaluation ev = av::EvaluateMethod(
      bench, "FMDV-VH", av::MakeAutoValidateLearner(&engine, av::Method::kFmdvVH), ec);
  return {ev.precision, ev.recall, ev.cases_evaluated};
}

void WriteQuality(const Quality& q, std::map<std::string, std::string>* kv) {
  (*kv)["precision"] = Join({q.precision});
  (*kv)["recall"] = Join({q.recall});
  (*kv)["quality_cases"] = std::to_string(q.cases);
}

Quality ReadQuality(std::map<std::string, std::string>& kv) {
  return {std::strtod(kv["precision"].c_str(), nullptr),
          std::strtod(kv["recall"].c_str(), nullptr),
          static_cast<size_t>(std::strtoull(kv["quality_cases"].c_str(), nullptr, 10))};
}

/// The end-to-end metrics every workload reports (trace 0). Latency tails
/// and throughput are printed by the workloads but not reported here: on a
/// shared 4-vCPU machine the serving p90/p99 moved by 2-5x, and closed-loop
/// serving throughput by 2x, between runs of one seed (host scheduling
/// stalls), which no bound of at most 25% absorbs; medians moved by a few
/// percent.
void AddEndToEnd(Outcome* out, const std::vector<double>& setup_s,
                 const Latencies& op_ms, double peak_rss_mb, uint64_t ops,
                 uint64_t bad_ops, const Quality& quality) {
  out->Ops(ops, bad_ops);
  out->Check(quality.cases > 0, "no query column was evaluated for precision and recall");
  std::printf("precision %.6f, recall %.6f (FMDV-VH, n=%zu cases)\n",
              quality.precision, quality.recall, quality.cases);
  out->Add("setup_s", "s", Median(setup_s), setup_s.size());
  out->Add("op_ms", "ms", op_ms.MixWeightedMedian(), op_ms.size());
  out->Add("peak_rss_mb", "MB", peak_rss_mb, 1);
  const double attempted = static_cast<double>(out->attempted);
  out->Add("success_frac", "ratio",
           attempted == 0 ? 0 : 1.0 - static_cast<double>(out->failed) / attempted,
           out->attempted);
  out->Add("precision", "ratio", quality.precision, quality.cases);
  out->Add("recall", "ratio", quality.recall, quality.cases);
}

/// Prints a latency sample as p50, p90 and p99 with its sample count.
void PrintLatency(const char* what, const std::vector<double>& ms) {
  std::printf("%-26s p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  (n=%zu)\n", what,
              Percentile(ms, 0.5), Percentile(ms, 0.9), Percentile(ms, 0.99),
              ms.size());
}

/// Span totals of a traced phase, with per-operation helpers.
struct TraceSummary {
  std::map<std::string, SpanTotals> by_name;
  double ops = 1;

  double Total(const char* name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.total_s;
  }
  double PerOp(const char* name) const { return Total(name) / ops; }
  /// Sum of self times of layer spans over the thread time the traced
  /// phase had: its wall-clock times the threads that make layer calls.
  /// Time in no layer span (the benchmark's own code, lock waits, idle
  /// workers, closed-loop overhead) lowers it.
  double Coverage(double thread_seconds) const {
    double layer = 0;
    for (const auto& [name, t] : by_name) {
      if (name.rfind("bench.", 0) != 0) layer += t.self_s;
    }
    return thread_seconds <= 0 ? 0 : layer / thread_seconds;
  }
};

/// Summarizes the spans recorded so far and writes them to
/// `<trace_dir>/<file>.jsonl` (`file` defaults to the workload's name).
TraceSummary Summarize(const Args& args, size_t ops, const std::string& file = "") {
  const std::vector<SpanRecord> spans = CollectSpans();
  TraceSummary s;
  s.by_name = SummarizeSpans(spans);
  s.ops = std::max<size_t>(1, ops);
  const std::string path =
      args.trace_dir + "/" + (file.empty() ? args.workload : file) + ".jsonl";
  // The file keeps the first kMaxWrittenSpans spans (the summary below
  // covers all of them); a serving run records about 100k spans a second.
  constexpr size_t kMaxWrittenSpans = 100000;
  const std::vector<SpanRecord> head(
      spans.begin(), spans.begin() + std::min(spans.size(), kMaxWrittenSpans));
  std::error_code ec;
  fs::create_directories(args.trace_dir, ec);
  if (WriteSpans(head, path)) {
    std::printf("trace: %zu of %zu spans written to %s\n", head.size(),
                spans.size(), path.c_str());
  }
  std::printf("\n%-28s %12s %12s %8s\n", "span", "total_s", "self_s", "count");
  for (const auto& [name, t] : s.by_name) {
    std::printf("%-28s %12.6f %12.6f %8llu\n", name.c_str(), t.total_s,
                t.self_s, static_cast<unsigned long long>(t.count));
  }
  return s;
}

/// The tracing comparison every traced run reports. Means, like the
/// per-layer times, so that the layers add up to the replay.
void AddTraceMetrics(Outcome* out, const TraceSummary& s,
                     const std::vector<double>& op_ms,
                     const std::vector<double>& probe_ms,
                     const std::vector<double>& traced_ms,
                     double traced_thread_seconds) {
  const double untraced = Mean(probe_ms);
  const double traced = Mean(traced_ms);
  out->Add("trace.op_ms", "ms", Mean(op_ms), op_ms.size());
  out->Add("trace.replay_ms", "ms", untraced, probe_ms.size());
  out->Add("trace.traced_replay_ms", "ms", traced, traced_ms.size());
  out->Add("trace.overhead_frac", "ratio",
           untraced == 0 ? 0 : traced / untraced - 1.0, traced_ms.size());
  out->Add("trace.coverage", "ratio", s.Coverage(traced_thread_seconds),
           traced_ms.size());
}

/// Every per-layer metric, in BENCHMARK.json order; a run fills the ones its
/// workload moves and reports the rest as zero.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kAll = {
      {"corpus.parse_s", "s"},          {"corpus.bytes_read", "bytes"},
      {"corpus.columns", "count"},      {"pattern.tokenize_s", "s"},
      {"pattern.profile_s", "s"},       {"pattern.match_s", "s"},
      {"index.enumerate_s", "s"},       {"index.patterns_emitted", "count"},
      {"index.distinct_patterns", "count"},
      {"index.distinct_per_emitted", "ratio"},
      {"index.reduce_s", "s"},          {"index.spill_write_s", "s"},
      {"index.merge_s", "s"},           {"index.spill_runs", "count"},
      {"index.spill_bytes", "bytes"},   {"index.merge_passes", "count"},
      {"index.peak_chunk_index_mb", "MB"},
      {"index.save_s", "s"},            {"index.bytes", "bytes"},
      {"index.load_s", "s"},            {"core.train_s", "s"},
      {"core.solve_fmdv_s", "s"},       {"core.learned_frac", "ratio"},
      {"core.validate_s", "s"},         {"core.upsert_s", "s"},
      {"server.codec_s", "s"},          {"server.transport_s", "s"},
      {"server.retrain_p50_ms", "ms"},  {"server.frames_validate", "count"},
      {"server.frames_validate_table", "count"},
      {"server.frames_train", "count"}, {"server.replies_error", "count"},
      {"server.protocol_errors", "count"},
      {"server.connections_evicted", "count"},
      {"trace.op_ms", "ms"},            {"trace.replay_ms", "ms"},
      {"trace.traced_replay_ms", "ms"}, {"trace.overhead_frac", "ratio"},
      {"trace.coverage", "ratio"},
  };
  return kAll;
}

/// Orders `out->metrics` like LayerMetrics(), adding zeros for the metrics
/// this workload does not move.
void CompleteLayerMetrics(Outcome* out) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : LayerMetrics()) {
    const auto it = std::find_if(out->metrics.begin(), out->metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != out->metrics.end() ? *it : Metric{name, unit, 0, 0});
  }
  out->metrics = std::move(ordered);
}

/// Runs `op` back to back until `seconds` have passed (at least once).
template <class Op>
void RunFor(double seconds, Op&& op) {
  const double deadline = NowSeconds() + seconds;
  do {
    op();
  } while (NowSeconds() < deadline);
}

/// Runs `slice(traced)` for `seconds` in ten alternating slices, tracing
/// off and on, so that drift in machine speed hits the untraced and the
/// traced replay alike. Spans are recorded only in the traced slices.
/// `slice` returns the wall-clock it took; returns that of the traced ones.
template <class Slice>
double AlternateTracing(double seconds, Slice&& slice) {
  ClearSpans();
  double traced = 0;
  for (int i = 0; i < 10; ++i) {
    SetTracing(i % 2 == 1);
    const double wall = slice(i % 2 == 1, seconds / 10);
    if (i % 2 == 1) traced += wall;
  }
  SetTracing(false);
  return traced;
}

/// Runs `op(thread)` in a closed loop on `threads` threads for `seconds`.
/// Returns the wall-clock the loop took.
double ClosedLoop(size_t threads, double seconds,
                  const std::function<void(size_t)>& op) {
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (NowSeconds() < deadline) op(t);
    });
  }
  for (std::thread& th : pool) th.join();
  return NowSeconds() - start;
}

// ============================================================ lake builds

av::IndexerConfig BuildConfig(const Args& args, uint64_t budget) {
  av::IndexerConfig cfg;
  cfg.num_threads = args.threads;
  cfg.build.memory_budget_bytes = budget;
  cfg.build.spill_dir = args.work_dir;
  cfg.build.strict_spill = true;
  return cfg;
}

/// lake dir -> BuildIndexFromDir -> Save: the end-to-end build operation.
bool BuildOnce(const std::string& lake, const av::IndexerConfig& cfg,
               const std::string& path, av::IndexerReport* report) {
  auto built = av::BuildIndexFromDir(lake, cfg, report);
  if (!built.ok()) return Fail("BuildIndexFromDir", built.status());
  const av::Status st = built->Save(path);
  return st.ok() || Fail("PatternIndex::Save", st);
}

/// A memory budget below the in-memory build's peak chunk-index bytes makes
/// every chunk spill; 7/8 of it leaves room for one chunk per worker, so the
/// map phase runs at full width on every run instead of at a width that
/// depends on when chunks happen to finish.
uint64_t SpillBudget(const av::IndexerReport& in_memory) {
  return std::max<uint64_t>(in_memory.peak_chunk_index_bytes / 8 * 7, 1);
}

int PrepBuild(const Args& args) {
  // Set-up: generate the lake and write it as a CSV lake directory, one
  // `<table>.csv` per table as SaveLakeToDir names them. The files go
  // through the page cache without fsync: the durable per-file commit of
  // SaveLakeToDir made set-up time follow the host's disk (0.3 s to 1 s
  // from run to run), and durable writes are measured by index.save_s.
  const std::string lake = args.work_dir + "/lake";
  fs::create_directories(lake);
  std::map<std::string, std::string> kv;
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = NowSeconds();
    const av::Corpus corpus = MakeLake(kLakeColumns, args.seed);
    for (const av::Table& table : corpus.tables()) {
      std::ofstream out(lake + "/" + table.name + ".csv", std::ios::binary);
      out << av::TableToCsv(table);
      if (!out) {
        std::fprintf(stderr, "avbench: cannot write the lake in %s\n", lake.c_str());
        return 1;
      }
    }
    setup.push_back(NowSeconds() - t0);
  }
  kv["setup_s"] = Join(setup);
  if (args.workload == "lake-build-spill") {
    // The in-memory build fixes the spill budget and the bytes the spill
    // build must save.
    av::IndexerReport rep;
    const std::string path = args.work_dir + "/inmem.avidx";
    if (!BuildOnce(lake, BuildConfig(args, 0), path, &rep)) return 1;
    uint64_t hash = 0, bytes = 0;
    HashFile(path, &hash, &bytes);
    kv["inmem_hash"] = Hex(hash);
    kv["budget"] = std::to_string(SpillBudget(rep));
    fs::remove(path);
  }
  return WriteKv(args.work_dir + "/prep.txt", kv) ? 0 : 1;
}

struct ReplayStats {
  uint64_t bytes_read = 0;
  uint64_t columns = 0;
  uint64_t emitted = 0;
  uint64_t distinct = 0;
  size_t merge_passes = 0;
};

bool AllValuesOverTokenLimit(std::span<const std::string> values,
                             size_t max_tokens) {
  for (const std::string& v : values) {
    if (!v.empty() && av::TokenCount(v) <= max_tokens) return false;
  }
  return true;
}

/// The build, stage by stage through the public per-layer entry points:
/// list + parse (corpus), tokenize + profile (pattern), enumerate into a
/// chunk index (index), then the shard reduce or spill + k-way merge, and
/// the save. Chunking and reduce order mirror the offline job, so the saved
/// bytes must equal the real build's.
bool ReplayBuild(const std::string& lake, const av::IndexerConfig& cfg,
                 const std::string& scratch, const std::string& path,
                 uint64_t request, ReplayStats* stats) {
  Span op("bench.build", 0, request);
  const uint64_t root = CurrentSpan();
  const bool spill = cfg.build.memory_budget_bytes > 0;
  *stats = ReplayStats{};

  av::Result<std::vector<av::LakeFileInfo>> files = av::Status::OK();
  {
    Span s("corpus.parse");
    files = av::ListLakeFiles(lake, cfg.lake_format);
  }
  if (!files.ok()) return Fail("ListLakeFiles", files.status());
  if (spill) fs::create_directories(scratch);

  av::ThreadPool pool(cfg.num_threads);
  std::mutex mu;
  av::Status error = av::Status::OK();
  std::vector<std::unique_ptr<av::PatternIndex>> chunks;
  std::vector<std::string> runs;
  std::vector<std::shared_ptr<const av::Table>> tables;
  std::vector<const av::Column*> pending;

  // Tasks write `chunks[c]` under `mu` while this thread appends, so the
  // append takes `mu` too; a task gets its run path by value.
  auto submit = [&](std::vector<const av::Column*> cols) {
    size_t c = 0;
    std::string run;
    {
      std::lock_guard<std::mutex> lock(mu);
      c = chunks.size();
      chunks.emplace_back();
      if (spill) {
        run = scratch + "/run_" + std::to_string(c);
        runs.push_back(run);
      }
    }
    pool.Submit([&, c, run, cols = std::move(cols)] {
      Span task("bench.chunk", root, request);
      auto index = std::make_unique<av::PatternIndex>();
      uint64_t emitted = 0;
      for (const av::Column* col : cols) {
        const std::span<const std::string> values(
            col->values.data(),
            std::min(col->values.size(), cfg.max_values_per_column));
        if (!values.empty() &&
            !AllValuesOverTokenLimit(values, cfg.gen.max_tokens)) {
          {
            Span s("pattern.tokenize");
            av::TokenizedColumn::Build(values);
          }
          Span s("pattern.profile");
          av::ColumnProfile::Build(values, cfg.gen);
        }
        Span s("index.enumerate");
        emitted += av::IndexColumn(*col, cfg, index.get());
      }
      av::Status st = av::Status::OK();
      if (spill) {
        Span s("index.spill_write");
        auto w = av::WriteSpillRun(*index, run);
        if (!w.ok()) st = w.status();
        index.reset();
      }
      std::lock_guard<std::mutex> lock(mu);
      stats->emitted += emitted;
      chunks[c] = std::move(index);
      if (!st.ok() && error.ok()) error = st;
    });
  };

  for (const av::LakeFileInfo& info : *files) {
    av::Result<av::Table> table = av::Status::OK();
    {
      Span s("corpus.parse");
      table = av::LoadLakeTable(info);
    }
    if (!table.ok()) return Fail("LoadLakeTable", table.status());
    std::error_code ec;
    stats->bytes_read += fs::file_size(info.path, ec);
    tables.push_back(std::make_shared<const av::Table>(std::move(table).value()));
    for (const av::Column& col : tables.back()->columns) {
      pending.push_back(&col);
      if (pending.size() == kChunkColumns) submit(std::exchange(pending, {}));
    }
    stats->columns += tables.back()->columns.size();
  }
  if (!pending.empty()) submit(std::move(pending));
  pool.Wait();
  if (!error.ok()) return Fail("replay map", error);

  av::PatternIndex global;
  if (spill) {
    Span s("index.merge");
    const size_t fanin = std::max<size_t>(
        2, cfg.build.memory_budget_bytes / kSpillCursorBytes);
    const av::Status st = av::MergeSpillRunsBounded(
        runs, fanin, scratch,
        [&global](av::SpillEntry&& e) {
          global.InsertAggregate(e.key, e.name, e.sum_impurity, e.columns);
        },
        &stats->merge_passes);
    if (!st.ok()) return Fail("MergeSpillRunsBounded", st);
  } else {
    pool.ParallelFor(av::PatternIndex::kNumShards, [&](size_t shard) {
      Span s("index.reduce", root, request);
      size_t upper = 0;
      for (const auto& chunk : chunks) upper += chunk->ShardSize(shard);
      global.ReserveShard(shard, upper);
      for (const auto& chunk : chunks) global.MergeShardFrom(shard, chunk.get());
    });
  }
  stats->distinct = global.size();
  Span s("index.save");
  const av::Status st = global.Save(path);
  if (spill) fs::remove_all(scratch);
  return st.ok() || Fail("replay save", st);
}

int RunBuild(const Args& args, Outcome* out) {
  const bool spill = args.workload == "lake-build-spill";
  auto kv = ReadKv(args.work_dir + "/prep.txt");
  const std::vector<double> setup = Split(kv["setup_s"]);
  const uint64_t budget = spill ? std::stoull(kv["budget"]) : 0;
  const av::IndexerConfig cfg = BuildConfig(args, budget);
  const std::string lake = args.work_dir + "/lake";
  const std::string path = args.work_dir + "/index.avidx";

  Latencies op_ms;
  std::vector<av::IndexerReport> reports;
  uint64_t ops = 0, bad = 0;
  uint64_t first_hash = 0, index_bytes = 0;
  auto build = [&](bool timed) {
    av::IndexerReport rep;
    const double t0 = NowSeconds();
    const bool ok = BuildOnce(lake, cfg, path, &rep);
    const double ms = (NowSeconds() - t0) * 1e3;
    uint64_t hash = 0;
    if (ok) HashFile(path, &hash, &index_bytes);
    if (!timed) {
      first_hash = hash;
      return ok;
    }
    ++ops;
    if (!ok || hash != first_hash || (spill && rep.spill_fallback)) {
      ++bad;
      std::printf("build %llu: saved index %s differs from the first build's %s\n",
                  static_cast<unsigned long long>(ops), Hex(hash).c_str(),
                  Hex(first_hash).c_str());
    }
    op_ms.Add(0, ms);
    reports.push_back(rep);
    return ok;
  };

  // Warm-up build: fills the page cache and fixes the reference bytes.
  if (!build(false)) return 1;
  CheckGolden(args, "index-c" + std::to_string(kLakeColumns) + "-seed" +
                        std::to_string(args.seed),
              Hex(first_hash), out);
  if (spill) {
    out->Check(Hex(first_hash) == kv["inmem_hash"],
               "spill build saved " + Hex(first_hash) +
                   ", in-memory build saved " + kv["inmem_hash"]);
  }

  if (!args.trace) {
    RunFor(args.seconds, [&] { build(true); });
    const double rss = SelfPeakRssMb();
    PrintLatency("build (build_s x 1000)", op_ms.all());
    std::printf("index %s, %llu bytes\n", Hex(first_hash).c_str(),
                static_cast<unsigned long long>(index_bytes));
    // Quality of the saved index, after the timed builds: the §5.1 query
    // columns of the same lake, trained against what the build saved.
    auto saved = av::PatternIndex::Load(path);
    if (!saved.ok()) {
      Fail("PatternIndex::Load", saved.status());
      return 1;
    }
    const Quality quality = EvaluateQuality(
        *saved, StratifiedCases(MakeLake(kLakeColumns, args.seed), args.seed, kCasesPerDomain),
        TrainOptions(), args.threads);
    AddEndToEnd(out, setup, op_ms, rss, ops, bad, quality);
    return 0;
  }

  // Traced run: the real build, the replay untraced, the replay traced.
  // lake-build runs them in quarters and spends the last quarter on the
  // spill path (one real spill build, then its replay): lake-build-spill is
  // not among the workloads BENCHMARK.json runs (README.md says why), so the
  // index/spill metrics come from here.
  const double phase = args.seconds / (spill ? 3 : 4);
  RunFor(phase, [&] { build(true); });
  uint64_t request = 0;
  const std::string replay_path = args.work_dir + "/replay.avidx";
  // Replays the build with `replay_cfg` for `seconds`, alternately untraced
  // and traced (a build replay outlasts a slice, so they alternate per
  // replay), and checks each replay saves the build's bytes.
  auto replay_for = [&](const av::IndexerConfig& replay_cfg, double seconds,
                        std::vector<double>* probe_ms,
                        std::vector<double>* traced_ms, ReplayStats* rs) {
    size_t n = 0;
    ClearSpans();
    RunFor(seconds, [&] {
      SetTracing(n % 2 == 1);
      const double t0 = NowSeconds();
      const bool ok = ReplayBuild(lake, replay_cfg, args.work_dir + "/replay_spill",
                                  replay_path, ++request, rs);
      (n++ % 2 == 1 ? traced_ms : probe_ms)->push_back((NowSeconds() - t0) * 1e3);
      uint64_t hash = 0, bytes = 0;
      if (ok) HashFile(replay_path, &hash, &bytes);
      out->Check(ok && hash == first_hash,
                 "replayed build saved " + Hex(hash) + ", the build saved " +
                     Hex(first_hash));
    });
    SetTracing(false);
  };
  std::vector<double> probe_ms, traced_ms;
  ReplayStats rs;
  replay_for(cfg, 2 * phase, &probe_ms, &traced_ms, &rs);
  out->Ops(ops, bad);

  const TraceSummary s = Summarize(args, traced_ms.size());
  const av::IndexerReport& rep = reports.back();
  auto add_spill_metrics = [&](const TraceSummary& t, const av::IndexerReport& r,
                               size_t traced) {
    out->Add("index.spill_write_s", "s", t.PerOp("index.spill_write"), traced);
    out->Add("index.merge_s", "s", t.PerOp("index.merge"), traced);
    out->Add("index.spill_runs", "count", static_cast<double>(r.spill_runs), 1);
    out->Add("index.spill_bytes", "bytes", static_cast<double>(r.spill_bytes), 1);
    out->Add("index.merge_passes", "count", static_cast<double>(r.merge_passes), 1);
    out->Add("index.peak_chunk_index_mb", "MB",
             static_cast<double>(r.peak_chunk_index_bytes) / (1 << 20), 1);
  };
  const double tokenize = s.PerOp("pattern.tokenize");
  const double profile = s.PerOp("pattern.profile");
  out->Add("corpus.parse_s", "s", s.PerOp("corpus.parse"), traced_ms.size());
  out->Add("corpus.bytes_read", "bytes", static_cast<double>(rs.bytes_read), 1);
  out->Add("corpus.columns", "count", static_cast<double>(rs.columns), 1);
  out->Add("pattern.tokenize_s", "s", tokenize, traced_ms.size());
  out->Add("pattern.profile_s", "s", std::max(0.0, profile - tokenize),
           traced_ms.size());
  out->Add("index.enumerate_s", "s", s.PerOp("index.enumerate") - profile,
           traced_ms.size());
  out->Add("index.patterns_emitted", "count",
           static_cast<double>(rep.patterns_emitted), 1);
  out->Add("index.distinct_patterns", "count", static_cast<double>(rs.distinct), 1);
  out->Add("index.distinct_per_emitted", "ratio",
           static_cast<double>(rs.distinct) /
               static_cast<double>(std::max<uint64_t>(1, rep.patterns_emitted)),
           1);
  out->Add("index.reduce_s", "s", s.PerOp("index.reduce"), traced_ms.size());
  if (spill) add_spill_metrics(s, rep, traced_ms.size());
  out->Add("index.save_s", "s", s.PerOp("index.save"), traced_ms.size());
  out->Add("index.bytes", "bytes", static_cast<double>(index_bytes), 1);
  out->Check(rs.emitted == rep.patterns_emitted,
             "replay emitted " + std::to_string(rs.emitted) +
                 " patterns, the build " + std::to_string(rep.patterns_emitted));
  // Layer calls run on the pool's threads and on this one (parse, merge).
  AddTraceMetrics(out, s, op_ms.all(), probe_ms, traced_ms,
                  Mean(traced_ms) / 1e3 * static_cast<double>(traced_ms.size()) *
                      static_cast<double>(cfg.num_threads + 1));
  std::printf("build_s mean %.4f s beside replay %.4f s (traced %.4f s)\n",
              Mean(op_ms.all()) / 1e3, Mean(probe_ms) / 1e3, Mean(traced_ms) / 1e3);
  if (spill) return 0;

  // The spill path: one real build under the spill budget (its report gives
  // the spill counters, and it must save the same bytes), then its replay.
  const av::IndexerConfig spill_cfg = BuildConfig(args, SpillBudget(rep));
  av::IndexerReport spill_rep;
  uint64_t spill_hash = 0, spill_bytes = 0;
  const double t0 = NowSeconds();
  const bool ok = BuildOnce(lake, spill_cfg, path, &spill_rep);
  const double spill_build_s = NowSeconds() - t0;
  if (ok) HashFile(path, &spill_hash, &spill_bytes);
  out->Check(ok && spill_hash == first_hash && !spill_rep.spill_fallback,
             "spill build saved " + Hex(spill_hash) + ", in-memory build saved " +
                 Hex(first_hash));
  std::vector<double> spill_probe_ms, spill_traced_ms;
  ReplayStats spill_rs;
  replay_for(spill_cfg, phase, &spill_probe_ms, &spill_traced_ms, &spill_rs);
  const TraceSummary spill_s =
      Summarize(args, spill_traced_ms.size(), args.workload + ".spill");
  add_spill_metrics(spill_s, spill_rep, spill_traced_ms.size());
  out->Check(spill_rs.emitted == spill_rep.patterns_emitted,
             "spill replay emitted " + std::to_string(spill_rs.emitted) +
                 " patterns, the spill build " +
                 std::to_string(spill_rep.patterns_emitted));
  std::printf("spill build_s %.4f s beside replay %.4f s (traced %.4f s)\n",
              spill_build_s, Mean(spill_probe_ms) / 1e3, Mean(spill_traced_ms) / 1e3);
  return 0;
}

// ============================================================ rule-train

/// The lake's index and its §5.1 query columns (also written to
/// columns.bin for the run phase).
struct OnlineInputs {
  av::PatternIndex index;
  av::Benchmark bench;
};

bool PrepOnline(const Args& args, OnlineInputs* in) {
  const av::Corpus corpus = MakeLake(kLakeColumns, args.seed);
  av::IndexerConfig cfg;
  cfg.num_threads = args.threads;
  auto built = av::TryBuildIndex(corpus, cfg);
  if (!built.ok()) return Fail("TryBuildIndex", built.status());
  in->index = std::move(built).value();
  const av::Status st = in->index.Save(args.work_dir + "/index.avidx");
  if (!st.ok()) return Fail("PatternIndex::Save", st);
  in->bench = StratifiedCases(corpus, args.seed, kCasesPerDomain);
  const std::vector<const av::Column*> lake_cols = corpus.AllColumns();
  std::vector<QueryColumn> cols;
  for (size_t i = 0; i < in->bench.cases.size(); ++i) {
    const av::BenchmarkCase& c = in->bench.cases[i];
    cols.push_back({"q" + std::to_string(i), lake_cols[c.corpus_column_id]->table_name,
                    c.train, c.test});
  }
  return WriteColumns(args.work_dir + "/columns.bin", cols);
}

int PrepTrain(const Args& args) {
  OnlineInputs in;
  if (!PrepOnline(args, &in)) return 1;
  // Quality, once and untimed, of the rules the timed loop trains.
  std::map<std::string, std::string> kv;
  WriteQuality(EvaluateQuality(in.index, in.bench, TrainOptions(), args.threads), &kv);
  return WriteKv(args.work_dir + "/prep.txt", kv) ? 0 : 1;
}

std::string RuleText(const av::Result<av::ValidationRule>& r) {
  return r.ok() ? r->Serialize() : "abstain:" + r.status().ToString();
}

int RunTrain(const Args& args, Outcome* out) {
  auto kv = ReadKv(args.work_dir + "/prep.txt");
  std::vector<QueryColumn> cols;
  if (!ReadColumns(args.work_dir + "/columns.bin", &cols) || cols.empty()) {
    std::fprintf(stderr, "avbench: no query columns\n");
    return 1;
  }
  const std::string path = args.work_dir + "/index.avidx";
  std::vector<double> setup;
  std::unique_ptr<av::PatternIndex> index;
  for (int i = 0; i < kSetupReps; ++i) {
    index.reset();
    const double t0 = NowSeconds();
    auto loaded = av::PatternIndex::Load(path);
    if (!loaded.ok()) {
      Fail("PatternIndex::Load", loaded.status());
      return 1;
    }
    index = std::make_unique<av::PatternIndex>(std::move(loaded).value());
    setup.push_back(NowSeconds() - t0);
  }
  const av::AutoValidateOptions opts = TrainOptions();
  const av::AutoValidate engine(index.get(), opts);

  // Warm-up pass: one rule per column, serialized; every later training of
  // a column must reproduce it exactly, in this run and in later runs.
  std::vector<std::string> rules(cols.size());
  std::string rule_set;
  for (size_t i = 0; i < cols.size(); ++i) {
    rules[i] = RuleText(engine.Train(cols[i].train, av::Method::kFmdvVH));
    rule_set += rules[i] + "\n";
  }
  CheckGolden(args, "rules-c" + std::to_string(kLakeColumns) + "-seed" +
                        std::to_string(args.seed),
              Hex(av::Fnv1a64(rule_set)), out);

  std::mutex mu;
  Latencies op_ms;
  uint64_t ops = 0, bad = 0, learned = 0;
  std::atomic<size_t> next{0};
  auto train = [&](size_t) {
    const size_t i = next.fetch_add(1) % cols.size();
    const double t0 = NowSeconds();
    const auto rule = engine.Train(cols[i].train, av::Method::kFmdvVH);
    const double ms = (NowSeconds() - t0) * 1e3;
    const bool same = RuleText(rule) == rules[i];
    std::lock_guard<std::mutex> lock(mu);
    op_ms.Add(i, ms);
    ++ops;
    learned += rule.ok() ? 1 : 0;
    if (!same) {
      ++bad;
      std::printf("column %s trained to a different rule\n", cols[i].name.c_str());
    }
  };

  if (!args.trace) {
    const double wall = ClosedLoop(args.threads, args.seconds, train);
    PrintLatency("train", op_ms.all());
    std::printf("train_cols_per_s %.1f\n", static_cast<double>(ops) / wall);
    AddEndToEnd(out, setup, op_ms, SelfPeakRssMb(), ops, bad, ReadQuality(kv));
    return 0;
  }

  const double phase = args.seconds / 3;
  ClosedLoop(args.threads, phase, train);
  std::atomic<uint64_t> request{0};
  std::vector<double> probe_ms, traced_ms;
  auto probe = [&](std::vector<double>* sink) {
    return [&, sink](size_t) {
      const size_t i = next.fetch_add(1) % cols.size();
      const std::vector<std::string>& values = cols[i].train;
      const double t0 = NowSeconds();
      {
        Span op("bench.train", 0, request.fetch_add(1) + 1);
        {
          Span s("pattern.tokenize");
          av::TokenizedColumn::Build(values);
        }
        {
          Span s("pattern.profile");
          av::ColumnProfile::Build(values, opts.gen);
        }
        {
          Span s("core.solve_fmdv");
          av::SolveFmdv(values, *index, opts);
        }
        Span s("core.train");
        engine.Train(values, av::Method::kFmdvVH);
      }
      const double ms = (NowSeconds() - t0) * 1e3;
      std::lock_guard<std::mutex> lock(mu);
      sink->push_back(ms);
    };
  };
  const double traced_s = AlternateTracing(2 * phase, [&](bool traced, double secs) {
    return ClosedLoop(args.threads, secs, probe(traced ? &traced_ms : &probe_ms));
  });
  out->Ops(ops, bad);

  const TraceSummary s = Summarize(args, traced_ms.size());
  const double tokenize = s.PerOp("pattern.tokenize");
  out->Add("pattern.tokenize_s", "s", tokenize, traced_ms.size());
  out->Add("pattern.profile_s", "s", std::max(0.0, s.PerOp("pattern.profile") - tokenize),
           traced_ms.size());
  out->Add("index.load_s", "s", Median(setup), setup.size());
  out->Add("core.train_s", "s", s.PerOp("core.train"), traced_ms.size());
  out->Add("core.solve_fmdv_s", "s", s.PerOp("core.solve_fmdv"), traced_ms.size());
  out->Add("core.learned_frac", "ratio",
           static_cast<double>(learned) / static_cast<double>(std::max<uint64_t>(1, ops)),
           ops);
  AddTraceMetrics(out, s, op_ms.all(), probe_ms, traced_ms,
                  traced_s * static_cast<double>(args.threads));
  return 0;
}

// ========================================================= validate-serve

int PrepServe(const Args& args) {
  OnlineInputs in;
  if (!PrepOnline(args, &in)) return 1;
  av::ValidationService service(&in.index, ServeOptions(), args.threads);
  std::vector<av::NamedColumn> named;
  for (size_t i = 0; i < in.bench.cases.size(); ++i) {
    named.push_back({"q" + std::to_string(i), in.bench.cases[i].train});
  }
  service.TrainAll(named, av::Method::kFmdvVH);
  const av::Status st = service.Save(args.work_dir + "/rules.avrs");
  if (!st.ok()) {
    Fail("ValidationService::Save", st);
    return 1;
  }
  // Quality, once and untimed, of the training that made the served rules.
  std::map<std::string, std::string> kv = {{"rules", std::to_string(service.size())}};
  WriteQuality(EvaluateQuality(in.index, in.bench, ServeOptions(), args.threads), &kv);
  return WriteKv(args.work_dir + "/prep.txt", kv) ? 0 : 1;
}

/// avserved as a child process; the destructor stops it and waits.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns avserved and waits for its `listening on <addr>:<port>` line.
  bool Start(const Args& args) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    const std::string workers = std::to_string(std::max<size_t>(1, args.threads / 2));
    std::vector<std::string> argv_s = {
        args.avserved,
        "--rules=" + args.work_dir + "/rules.avrs",
        "--index=" + args.work_dir + "/index.avidx",
        "--port=0",
        "--workers=" + workers,
        // No timer-driven work while measuring: one lifecycle scan an hour.
        "--scan-interval-ms=3600000",
        "--quiet"};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, args.avserved.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      close(fds[0]);
      return false;
    }
    std::string line;
    pollfd pfd{fds[0], POLLIN, 0};
    const double deadline = NowSeconds() + 60;
    while (line.find('\n') == std::string::npos && NowSeconds() < deadline) {
      if (poll(&pfd, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    const size_t colon = line.rfind(':');
    if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
      std::fprintf(stderr, "avbench: avserved did not start: %s\n", line.c_str());
      return false;
    }
    port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + colon + 1, nullptr, 10));
    return true;
  }

  uint16_t port() const { return port_; }

  /// SIGTERM (graceful drain), then waits; returns the child's peak RSS in
  /// MB (0 when it had to be killed).
  double Stop() {
    if (pid_ <= 0) return 0;
    kill(pid_, SIGTERM);
    rusage ru{};
    int status = 0;
    const double deadline = NowSeconds() + 20;
    while (wait4(pid_, &status, WNOHANG, &ru) == 0) {
      if (NowSeconds() > deadline) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &ru);
        pid_ = -1;
        return 0;
      }
      usleep(2000);
    }
    pid_ = -1;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

bool SameReport(const av::ValidationReport& a, const av::ValidationReport& b) {
  return a.total == b.total && a.nonconforming == b.nonconforming &&
         a.theta_test == b.theta_test && a.p_value == b.p_value &&
         a.flagged == b.flagged && a.sample_violations == b.sample_violations;
}

/// One request of the serving mix; `item` indexes the request kind's
/// inputs (a served column, a table, a TRAIN payload).
struct Request {
  enum Kind { kValidate, kTable, kTrain } kind;
  size_t item = 0;

  uint64_t Key() const { return static_cast<uint64_t>(kind) << 32 | item; }
};

/// The served columns and the inputs of the requests. A VALIDATE batch is a
/// served column's §5.1 test slice: the recurring batch that the paper
/// validates with the rule trained on the slice before it. A VALIDATE_TABLE
/// request sends the test slices of one lake table's served columns. The
/// slices are the lake's own values, so their sizes and distinct counts, and
/// with them the side of the adaptive dedup sniff each one takes, come from
/// the domains rather than from the benchmark.
struct ServeInputs {
  std::vector<QueryColumn> cols;            ///< columns with a stored rule
  std::vector<std::vector<size_t>> tables;  ///< served columns per lake table
  std::vector<QueryColumn> train;           ///< TRAIN payloads (names retrain_<k>)
};

bool MakeServeInputs(const Args& args, const av::ValidationService& local,
                     ServeInputs* in) {
  std::vector<QueryColumn> all;
  if (!ReadColumns(args.work_dir + "/columns.bin", &all)) return false;
  std::map<std::string, size_t> table_of;
  for (const QueryColumn& c : all) {
    if (local.Find(c.name) == nullptr || c.test.empty()) continue;
    // TRAIN publishes new generations under four names the reads never
    // use, cycling over the training slices of every served column.
    in->train.push_back({"retrain_" + std::to_string(in->train.size() % 4), "", c.train, {}});
    const auto [it, added] = table_of.emplace(c.table, in->tables.size());
    if (added) in->tables.emplace_back();
    in->tables[it->second].push_back(in->cols.size());
    in->cols.push_back(c);
  }
  std::printf("served columns %zu in %zu tables, TRAIN payloads %zu\n",
              in->cols.size(), in->tables.size(), in->train.size());
  return !in->cols.empty() && !in->train.empty();
}

/// The seeded request mix: 90% VALIDATE of one served column, 8%
/// VALIDATE_TABLE of one lake table, 2% TRAIN. The shares are an assumption,
/// not a measurement: the paper publishes no request trace. They make
/// single-column validation of recurring batches the bulk of the load and
/// keep the table path and rule writes in every run. op_ms weighs each
/// request by its share, so a share scales its kind's part of the figure
/// linearly.
Request NextRequest(std::mt19937_64& rng, const ServeInputs& in) {
  const uint64_t roll = rng() % 100;
  if (roll < 90) return {Request::kValidate, rng() % in.cols.size()};
  if (roll < 98) return {Request::kTable, rng() % in.tables.size()};
  return {Request::kTrain, rng() % in.train.size()};
}

using TableBatch = std::vector<std::pair<std::string, std::vector<std::string>>>;

TableBatch MakeTable(const ServeInputs& in, size_t table) {
  TableBatch t;
  for (size_t i : in.tables[table]) t.emplace_back(in.cols[i].name, in.cols[i].test);
  return t;
}

/// STATS replies are `key=value` lines.
std::map<std::string, double> ParseStats(const std::string& text) {
  std::map<std::string, double> m;
  std::stringstream s(text);
  std::string line;
  while (std::getline(s, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      m[line.substr(0, eq)] = std::strtod(line.c_str() + eq + 1, nullptr);
    }
  }
  return m;
}

/// Remote VALIDATE of a sample of batches must equal in-process
/// ValidationService::Validate; with `version` set, also at that version.
void CheckRemoteReports(av::net::Client& client, const ServeInputs& in,
                        const av::ValidationService& local,
                        std::optional<uint64_t> version, Outcome* out) {
  const size_t n = std::min<size_t>(in.cols.size(), 32);
  for (size_t i = 0; i < n; ++i) {
    const auto remote = client.Validate(in.cols[i].name, in.cols[i].test);
    const auto mine = local.Validate(in.cols[i].name, in.cols[i].test);
    out->Check(remote.ok() && mine.ok() && SameReport(remote->report, *mine) &&
                   (!version || remote->store_version == *version),
               "remote VALIDATE of " + in.cols[i].name +
                   " differs from the in-process report");
  }
}

int RunServe(const Args& args, Outcome* out) {
  auto kv = ReadKv(args.work_dir + "/prep.txt");
  const av::AutoValidateOptions opts = ServeOptions();
  // In-process twin of the server's rule store (no index: validate-only).
  av::ValidationService local(nullptr, opts, 1);
  const std::string rules_path = args.work_dir + "/rules.avrs";
  const av::Status loaded = local.Load(rules_path);
  if (!loaded.ok()) {
    Fail("ValidationService::Load", loaded);
    return 1;
  }
  uint64_t rules_hash = 0, rules_bytes = 0;
  HashFile(rules_path, &rules_hash, &rules_bytes);
  CheckGolden(args, "serve-rules-c" + std::to_string(kLakeColumns) + "-seed" +
                        std::to_string(args.seed),
              Hex(rules_hash), out);
  ServeInputs in;
  if (!MakeServeInputs(args, local, &in)) {
    std::fprintf(stderr, "avbench: no served columns\n");
    return 1;
  }
  // Both sides of the adaptive dedup sniff must run: ValidateColumnAdaptive
  // (core/validator.cc) streams batches whose sniffed distinct ratio is at
  // least 0.875 and tokenizes the rest once per distinct value.
  size_t dedup_side = 0;
  for (const QueryColumn& c : in.cols) dedup_side += av::EstimateDistinctRatio(c.test) < 0.875;
  std::printf("test slices: %zu on the dedup side of the sniff, %zu streamed\n",
              dedup_side, in.cols.size() - dedup_side);
  out->Check(dedup_side > 0 && dedup_side < in.cols.size(),
             "the batches do not split between the two sides of the dedup sniff");

  std::vector<double> setup;
  ServerProcess server;
  for (int i = 0; i < kSetupReps; ++i) {
    server.Stop();
    const double t0 = NowSeconds();
    if (!server.Start(args)) return 1;
    setup.push_back(NowSeconds() - t0);
  }
  const size_t clients = std::max<size_t>(1, args.threads - args.threads / 2);
  std::vector<av::net::Client> conns(clients);
  for (auto& c : conns) {
    const av::Status st = c.Connect("127.0.0.1", server.port());
    if (!st.ok()) {
      Fail("Client::Connect", st);
      return 1;
    }
  }
  CheckRemoteReports(conns[0], in, local, local.version(), out);

  std::mutex mu;
  Latencies op_ms;
  std::vector<double> validate_ms, train_ms;
  std::vector<double> by_kind[3];
  uint64_t ops = 0, bad = 0;
  std::vector<std::mt19937_64> rngs;
  for (size_t t = 0; t < clients; ++t) rngs.emplace_back(args.seed * 1000003 + t);

  auto serve = [&](size_t t) {
    const Request req = NextRequest(rngs[t], in);
    av::net::Client& c = conns[t];
    const double t0 = NowSeconds();
    bool ok = false;
    switch (req.kind) {
      case Request::kValidate:
        ok = c.Validate(in.cols[req.item].name, in.cols[req.item].test).ok();
        break;
      case Request::kTable:
        ok = c.ValidateTable(MakeTable(in, req.item)).ok();
        break;
      case Request::kTrain: {
        const QueryColumn& q = in.train[req.item];
        ok = c.Train(q.name, q.train).ok();
        break;
      }
    }
    const double ms = (NowSeconds() - t0) * 1e3;
    std::lock_guard<std::mutex> lock(mu);
    op_ms.Add(req.Key(), ms);
    (req.kind == Request::kTrain ? train_ms : validate_ms).push_back(ms);
    by_kind[req.kind].push_back(ms);
    ++ops;
    bad += ok ? 0 : 1;
  };

  auto finish = [&](std::map<std::string, double>* stats) {
    CheckRemoteReports(conns[0], in, local, std::nullopt, out);
    const auto text = conns[0].Stats();
    out->Check(text.ok(), "STATS request failed");
    if (text.ok()) *stats = ParseStats(*text);
    out->Check((*stats)["replies_error"] == 0 && (*stats)["protocol_errors"] == 0 &&
                   (*stats)["connections_evicted"] == 0,
               "server reported errors: " + (text.ok() ? *text : std::string()));
    for (auto& c : conns) c.Close();
    return server.Stop();
  };

  if (!args.trace) {
    const double wall = ClosedLoop(clients, args.seconds, serve);
    std::map<std::string, double> stats;
    const double rss = finish(&stats);
    static const char* kKinds[] = {"validate", "validate_table", "train (retrain_*)"};
    for (int k = 0; k < 3; ++k) PrintLatency(kKinds[k], by_kind[k]);
    PrintLatency("validate (validate_*)", validate_ms);
    std::printf("validate_rps %.1f\n", static_cast<double>(validate_ms.size()) / wall);
    AddEndToEnd(out, setup, op_ms, rss, ops, bad, ReadQuality(kv));
    return 0;
  }

  // Traced run. The replay issues the same mix; around each round trip it
  // runs the request's codec and its server-side work in-process on the
  // same inputs, so the round trip splits into codec, core and transport.
  const double phase = args.seconds / 3;
  ClosedLoop(clients, phase, serve);
  const double load_t0 = NowSeconds();
  auto idx = av::PatternIndex::Load(args.work_dir + "/index.avidx");
  const double load_s = NowSeconds() - load_t0;
  if (!idx.ok()) {
    Fail("PatternIndex::Load", idx.status());
    return 1;
  }
  const av::AutoValidate engine(&*idx, opts);
  std::atomic<uint64_t> request{0}, trainings{0}, learned{0};
  std::vector<double> probe_ms, traced_ms;

  auto probe = [&](std::vector<double>* sink) {
    return [&, sink](size_t t) {
      const Request req = NextRequest(rngs[t], in);
      av::net::Client& c = conns[t];
      const double t0 = NowSeconds();
      bool ok = false;
      {
        Span op("bench.request", 0, request.fetch_add(1) + 1);
        av::net::WireWriter w;
        av::net::Opcode opcode = av::net::Opcode::kValidate;
        TableBatch table;
        const QueryColumn& col =
            req.kind == Request::kTrain ? in.train[req.item] : in.cols[req.item % in.cols.size()];
        {
          Span s("server.codec_client");
          switch (req.kind) {
            case Request::kValidate:
              w.PutStr(col.name);
              w.PutValues(col.test);
              break;
            case Request::kTable:
              opcode = av::net::Opcode::kValidateTable;
              table = MakeTable(in, req.item);
              w.PutU32(static_cast<uint32_t>(table.size()));
              for (const auto& [name, values] : table) {
                w.PutStr(name);
                w.PutValues(values);
              }
              break;
            case Request::kTrain:
              opcode = av::net::Opcode::kTrain;
              w.PutU8(static_cast<uint8_t>(av::Method::kFmdvVH));
              w.PutU64(0);
              w.PutStr(col.name);
              w.PutValues(col.train);
              break;
          }
        }
        const std::string frame = av::net::EncodeFrame(static_cast<uint8_t>(opcode), w.str());
        {
          // Server side of the codec, replayed: reassemble and parse the
          // request frame.
          Span s("server.codec_server");
          av::net::FrameDecoder dec(/*expect_hello=*/true);
          dec.Feed(std::string_view(av::net::kHello, av::net::kHelloSize));
          dec.Feed(frame);
          av::net::Frame f;
          dec.Next(&f);
          av::net::WireReader r(f.payload);
          if (req.kind == Request::kTrain) {
            r.GetU8();
            r.GetU64();
          }
          if (req.kind == Request::kTable) {
            for (uint32_t k = r.GetU32(); k > 0 && r.ok(); --k) {
              r.GetStr();
              r.GetValues();
            }
          } else {
            r.GetStr();
            r.GetValues();
          }
        }
        av::net::WireWriter reply;
        switch (req.kind) {
          case Request::kValidate: {
            av::Result<av::ValidationReport> rep = av::Status::OK();
            {
              Span s("core.validate");
              rep = local.Validate(col.name, col.test);
            }
            const auto rule = local.Find(col.name);
            av::TokenizedColumn tc;
            {
              Span s("pattern.tokenize");
              tc = av::TokenizedColumn::Build(col.test);
            }
            {
              Span s("pattern.match");
              av::PatternMatcher(rule->pattern).CountRows(tc);
            }
            Span s("server.codec_server");
            reply.PutU64(local.version());
            if (rep.ok()) {
              reply.PutU64(rep->total);
              reply.PutU64(rep->nonconforming);
              reply.PutF64(rep->theta_test);
              reply.PutF64(rep->p_value);
              reply.PutU8(rep->flagged ? 1 : 0);
              reply.PutU32(static_cast<uint32_t>(rep->sample_violations.size()));
              for (const std::string& v : rep->sample_violations) reply.PutStr(v);
            }
            av::net::EncodeFrame(static_cast<uint8_t>(av::net::Opcode::kReplyOk), reply.str());
            break;
          }
          case Request::kTable: {
            std::vector<av::NamedColumn> named;
            for (const auto& [name, values] : table) named.push_back({name, values});
            Span s("core.validate");
            local.ValidateAll(named);
            break;
          }
          case Request::kTrain: {
            {
              Span s("core.solve_fmdv");
              av::SolveFmdv(col.train, *idx, opts);
            }
            av::Result<av::ValidationRule> rule = av::Status::OK();
            {
              Span s("core.train");
              rule = engine.Train(col.train, av::Method::kFmdvVH);
            }
            trainings.fetch_add(1);
            learned.fetch_add(rule.ok() ? 1 : 0);
            Span s("core.upsert");
            if (rule.ok()) local.Upsert(col.name, *rule);
            break;
          }
        }
        av::Result<av::net::Frame> got = av::Status::OK();
        {
          Span s("server.roundtrip");
          got = c.Call(static_cast<uint8_t>(opcode), w.str());
        }
        Span s("server.codec_client");
        ok = got.ok() && got->opcode == static_cast<uint8_t>(av::net::Opcode::kReplyOk);
        if (ok) {
          av::net::WireReader r(got->payload);
          r.GetU64();
          ok = r.ok();
        }
      }
      const double ms = (NowSeconds() - t0) * 1e3;
      std::lock_guard<std::mutex> lock(mu);
      sink->push_back(ms);
      ++ops;
      bad += ok ? 0 : 1;
    };
  };
  const double traced_s = AlternateTracing(2 * phase, [&](bool traced, double secs) {
    return ClosedLoop(clients, secs, probe(traced ? &traced_ms : &probe_ms));
  });
  std::map<std::string, double> stats;
  finish(&stats);
  out->Ops(ops, bad);

  const TraceSummary s = Summarize(args, traced_ms.size());
  const double codec_server = s.PerOp("server.codec_server");
  const double codec = codec_server + s.PerOp("server.codec_client");
  const double core = s.PerOp("core.validate") + s.PerOp("core.train") +
                      s.PerOp("core.upsert");
  out->Add("pattern.tokenize_s", "s", s.PerOp("pattern.tokenize"), traced_ms.size());
  out->Add("pattern.match_s", "s", s.PerOp("pattern.match"), traced_ms.size());
  out->Add("index.load_s", "s", load_s, 1);
  out->Add("core.train_s", "s", s.PerOp("core.train"), traced_ms.size());
  out->Add("core.solve_fmdv_s", "s", s.PerOp("core.solve_fmdv"), traced_ms.size());
  out->Add("core.learned_frac", "ratio",
           static_cast<double>(learned) /
               static_cast<double>(std::max<uint64_t>(1, trainings)),
           trainings);
  out->Add("core.validate_s", "s", s.PerOp("core.validate"), traced_ms.size());
  out->Add("core.upsert_s", "s", s.PerOp("core.upsert"), traced_ms.size());
  out->Add("server.codec_s", "s", codec, traced_ms.size());
  out->Add("server.transport_s", "s",
           s.PerOp("server.roundtrip") - core - codec_server, traced_ms.size());
  out->Add("server.retrain_p50_ms", "ms", Percentile(train_ms, 0.5), train_ms.size());
  out->Add("server.frames_validate", "count", stats["frames_validate"], 1);
  out->Add("server.frames_validate_table", "count", stats["frames_validate_table"], 1);
  out->Add("server.frames_train", "count", stats["frames_train"], 1);
  out->Add("server.replies_error", "count", stats["replies_error"], 1);
  out->Add("server.protocol_errors", "count", stats["protocol_errors"], 1);
  out->Add("server.connections_evicted", "count", stats["connections_evicted"], 1);
  AddTraceMetrics(out, s, op_ms.all(), probe_ms, traced_ms,
                  traced_s * static_cast<double>(clients));
  return 0;
}

}  // namespace

int Prep(const Args& args) {
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  if (args.workload == "lake-build" || args.workload == "lake-build-spill") {
    return PrepBuild(args);
  }
  if (args.workload == "rule-train") return PrepTrain(args);
  if (args.workload == "validate-serve") return PrepServe(args);
  std::fprintf(stderr, "avbench: unknown workload %s\n", args.workload.c_str());
  return 2;
}

int Run(const Args& args, Outcome* out) {
  std::printf("tokenizer_arm %s\n",
              av::simd::TokenizerArmName(av::simd::TokenizerDispatch()));
  int rc = 2;
  if (args.workload == "lake-build" || args.workload == "lake-build-spill") {
    rc = RunBuild(args, out);
  } else if (args.workload == "rule-train") {
    rc = RunTrain(args, out);
  } else if (args.workload == "validate-serve") {
    if (args.avserved.empty()) {
      std::fprintf(stderr, "avbench: validate-serve needs --avserved\n");
      return 2;
    }
    rc = RunServe(args, out);
  } else {
    std::fprintf(stderr, "avbench: unknown workload %s\n", args.workload.c_str());
  }
  if (rc == 0 && args.trace) CompleteLayerMetrics(out);
  return rc;
}

}  // namespace avbench
