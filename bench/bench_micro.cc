// google-benchmark microbenchmarks for the performance-critical primitives:
// tokenizer, matcher, P(v) enumeration, hypothesis enumeration, index
// lookups, Fisher's exact test and end-to-end FMDV training.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "common/rng.h"
#include "common/temp_file.h"
#include "core/auto_validate.h"
#include "corpus/format.h"
#include "core/stat_tests.h"
#include "core/validation_service.h"
#include "index/indexer.h"
#include "lakegen/lakegen.h"
#include "pattern/generalize.h"
#include "pattern/hierarchy.h"
#include "pattern/matcher.h"
#include "server/client.h"
#include "server/server.h"

namespace av {
namespace {

const char* kDateValue = "9/12/2019 12:01:32 PM";

void BM_Tokenize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(kDateValue));
  }
}
BENCHMARK(BM_Tokenize);

/// The zero-allocation hot path every batched layer uses (buffer reused).
void BM_TokenizeInto(benchmark::State& state) {
  std::vector<Token> buf;
  for (auto _ : state) {
    TokenizeInto(kDateValue, &buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_TokenizeInto);

/// Counting-only scan (tau pre-checks): no token materialization at all.
void BM_TokenCount(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TokenCount(kDateValue));
  }
}
BENCHMARK(BM_TokenCount);

/// A value mix with long alphanumeric runs (GUIDs, hex ids, words) next to
/// short date fields; items/sec counts values tokenized.
std::vector<std::string> TokenizeBenchColumn() {
  Rng rng(7);
  std::vector<std::string> values;
  for (int i = 0; i < 64; ++i) {
    switch (i % 4) {
      case 0:
        values.push_back(rng.HexString(8) + "-" + rng.HexString(4) + "-" +
                         rng.HexString(4) + "-" + rng.HexString(12));
        break;
      case 1:
        values.push_back(kDateValue);
        break;
      case 2:
        values.push_back("serving-endpoint-" + std::to_string(i) +
                         ".prod.example.com");
        break;
      default:
        values.push_back("0x" + rng.HexString(16));
        break;
    }
  }
  return values;
}

void BM_TokenizeMixedColumn(benchmark::State& state) {
  const std::vector<std::string> values = TokenizeBenchColumn();
  std::vector<Token> buf;
  for (auto _ : state) {
    for (const auto& v : values) {
      TokenizeInto(v, &buf);
      benchmark::DoNotOptimize(buf.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_TokenizeMixedColumn);

void BM_TokenCountMixedColumn(benchmark::State& state) {
  const std::vector<std::string> values = TokenizeBenchColumn();
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& v : values) total += TokenCount(v);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_TokenCountMixedColumn);

void BM_Match(benchmark::State& state) {
  const Pattern p = *Pattern::Parse(
      "<digit>+/<digit>+/<digit>{4} <digit>+:<digit>{2}:<digit>{2} "
      "<letter>{2}");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matches(p, kDateValue));
  }
}
BENCHMARK(BM_Match);

void BM_MatchRejectEarly(benchmark::State& state) {
  const Pattern p = *Pattern::Parse("<digit>{4}-<digit>{2}-<digit>{2}");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matches(p, kDateValue));
  }
}
BENCHMARK(BM_MatchRejectEarly);

void BM_EnumerateValuePatterns(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateValuePatterns("9:07:32", 100000));
  }
}
BENCHMARK(BM_EnumerateValuePatterns);

void BM_ColumnProfileBuild(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::string> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(std::to_string(rng.Range(1, 12)) + "/" +
                     std::to_string(rng.Range(1, 28)) + "/2019");
  }
  GeneralizeConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColumnProfile::Build(values, cfg));
  }
}
BENCHMARK(BM_ColumnProfileBuild);

void BM_FisherExact(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(FisherExactTwoTailedP(3, 97, 45, 855));
  }
}
BENCHMARK(BM_FisherExact);

/// A 200-value date-like column used by the match-throughput benchmarks.
std::vector<std::string> MatchBenchColumn() {
  Rng rng(11);
  std::vector<std::string> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(std::to_string(rng.Range(1, 12)) + "/" +
                     std::to_string(rng.Range(1, 28)) + "/2019 " +
                     std::to_string(rng.Range(0, 23)) + ":" +
                     std::to_string(rng.Range(10, 59)) + ":" +
                     std::to_string(rng.Range(10, 59)));
  }
  return values;
}

const char* kMatchBenchPattern =
    "<digit>+/<digit>+/<digit>{4} <digit>+:<digit>{2}:<digit>{2}";

/// Pattern-match throughput, scalar path: tokenizes every value per call.
/// Note this scalar path was itself sped up by the batching PR (thread-local
/// scratch, memo skip for deterministic patterns), so the in-tree
/// scalar-vs-batched delta UNDERSTATES the PR's speedup; the recorded
/// baseline in BENCH_micro.json (280 ns/value) comes from the seed binary.
/// Per-value time = total / 200.
void BM_MatchColumnScalar(benchmark::State& state) {
  const Pattern p = *Pattern::Parse(kMatchBenchPattern);
  const std::vector<std::string> values = MatchBenchColumn();
  for (auto _ : state) {
    size_t n = 0;
    for (const auto& v : values) n += Matches(p, v) ? 1 : 0;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_MatchColumnScalar);

/// Pattern-match throughput, batched path: the column is tokenized once and
/// every match reuses its spans and one memo buffer.
void BM_MatchColumnBatched(benchmark::State& state) {
  const Pattern p = *Pattern::Parse(kMatchBenchPattern);
  const std::vector<std::string> values = MatchBenchColumn();
  const TokenizedColumn column = TokenizedColumn::Build(values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMatches(p, column));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_MatchColumnBatched);

void BM_TokenizedColumnBuild(benchmark::State& state) {
  const std::vector<std::string> values = MatchBenchColumn();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TokenizedColumn::Build(values));
  }
}
BENCHMARK(BM_TokenizedColumnBuild);

void BM_PatternKey(benchmark::State& state) {
  const Pattern p = *Pattern::Parse(kMatchBenchPattern);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PatternKey(p));
  }
}
BENCHMARK(BM_PatternKey);

/// Index-build microbenchmark, per-column kernel: P(D) enumeration and
/// keyed accumulation for one 200-value column.
void BM_IndexColumn(benchmark::State& state) {
  Column col;
  col.values = MatchBenchColumn();
  IndexerConfig cfg;
  for (auto _ : state) {
    PatternIndex idx;
    benchmark::DoNotOptimize(IndexColumn(col, cfg, &idx));
  }
}
BENCHMARK(BM_IndexColumn);

/// Index-build microbenchmark, whole job: offline scan of a small lake.
void BM_BuildIndexSmall(benchmark::State& state) {
  const Corpus corpus = GenerateLake(EnterpriseLakeConfig(150, 7));
  IndexerConfig cfg;
  cfg.num_threads = 1;
  uint64_t patterns = 0;
  for (auto _ : state) {
    IndexerReport report;
    const PatternIndex idx = BuildIndex(corpus, cfg, &report);
    benchmark::DoNotOptimize(idx.size());
    patterns = report.patterns_emitted;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(patterns));
}
BENCHMARK(BM_BuildIndexSmall)->UseRealTime();

/// The same 150-column offline job on the out-of-core path: every chunk
/// index spills to an AVSPILL02 run and the reduce is the k-way streaming
/// merge. The delta vs BM_BuildIndexSmall is the spill tax (serialize +
/// merge I/O) paid for bounded memory; output bytes are identical.
void BM_BuildIndexSpill(benchmark::State& state) {
  const Corpus corpus = GenerateLake(EnterpriseLakeConfig(150, 7));
  IndexerConfig cfg;
  cfg.num_threads = 1;
  cfg.build.memory_budget_bytes = 4ull << 20;  // below one chunk: all spill
  uint64_t patterns = 0;
  for (auto _ : state) {
    IndexerReport report;
    CorpusColumnReader reader(corpus);
    auto idx = BuildIndexStreaming(reader, cfg, &report);
    benchmark::DoNotOptimize(idx->size());
    patterns = report.patterns_emitted;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(patterns));
}
BENCHMARK(BM_BuildIndexSpill)->UseRealTime();

/// The same 150-column lake materialized on disk in `format`, indexed
/// through the format registry (listing + detection + parse + chunking).
/// The delta vs BM_BuildIndexSmall is the end-to-end cost of that input
/// format's read path.
void BuildIndexFromFormat(benchmark::State& state, LakeFormat format) {
  static const ScopedTempDir* jsonl_dir = nullptr;
  static const ScopedTempDir* avcol_dir = nullptr;
  const ScopedTempDir*& dir =
      format == LakeFormat::kJsonl ? jsonl_dir : avcol_dir;
  if (dir == nullptr) {
    auto created = ScopedTempDir::Create();
    if (!created.ok() ||
        !SaveLakeToDir(GenerateLake(EnterpriseLakeConfig(150, 7)),
                       created->path(), format)
             .ok()) {
      state.SkipWithError("cannot materialize bench lake");
      return;
    }
    dir = new ScopedTempDir(std::move(*created));  // lives for the run
  }
  IndexerConfig cfg;
  cfg.num_threads = 1;
  uint64_t patterns = 0;
  for (auto _ : state) {
    IndexerReport report;
    auto reader = LakeDirColumnReader::Open(dir->path(), format);
    auto idx = BuildIndexStreaming(*reader, cfg, &report);
    benchmark::DoNotOptimize(idx->size());
    patterns = report.patterns_emitted;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(patterns));
}

void BM_BuildIndexJsonl(benchmark::State& state) {
  BuildIndexFromFormat(state, LakeFormat::kJsonl);
}
BENCHMARK(BM_BuildIndexJsonl)->UseRealTime();

void BM_BuildIndexAvcol(benchmark::State& state) {
  BuildIndexFromFormat(state, LakeFormat::kAvcol);
}
BENCHMARK(BM_BuildIndexAvcol)->UseRealTime();

/// Shared fixture: a small lake and its index, built once.
struct TrainFixture {
  Corpus corpus;
  PatternIndex index;
  std::vector<std::string> query;

  TrainFixture() {
    corpus = GenerateLake(EnterpriseLakeConfig(600, 7));
    IndexerConfig cfg;
    index = BuildIndex(corpus, cfg);
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
      query.push_back("10.0." + std::to_string(rng.Range(0, 255)) + "." +
                      std::to_string(rng.Range(1, 254)));
    }
  }
  static const TrainFixture& Get() {
    static TrainFixture* fixture = new TrainFixture();
    return *fixture;
  }
};

void BM_IndexLookup(benchmark::State& state) {
  const auto& fx = TrainFixture::Get();
  const std::string key = "<digit>+.<digit>+.<digit>+.<digit>+";
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.index.Lookup(key));
  }
}
BENCHMARK(BM_IndexLookup);

/// The FMDV hot path: probe by precomputed interned key (no string hashing).
void BM_IndexLookupByKey(benchmark::State& state) {
  const auto& fx = TrainFixture::Get();
  const Pattern p = *Pattern::Parse("<digit>+.<digit>+.<digit>+.<digit>+");
  const uint64_t key = PatternKey(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.index.Lookup(key));
  }
}
BENCHMARK(BM_IndexLookupByKey);

void BM_TrainFmdv(benchmark::State& state) {
  const auto& fx = TrainFixture::Get();
  AutoValidateOptions opts;
  opts.min_coverage = 3;
  AutoValidate engine(&fx.index, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Train(fx.query, Method::kFmdv));
  }
}
BENCHMARK(BM_TrainFmdv);

void BM_TrainFmdvVH(benchmark::State& state) {
  const auto& fx = TrainFixture::Get();
  AutoValidateOptions opts;
  opts.min_coverage = 3;
  AutoValidate engine(&fx.index, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Train(fx.query, Method::kFmdvVH));
  }
}
BENCHMARK(BM_TrainFmdvVH);

void BM_ValidateColumn(benchmark::State& state) {
  const auto& fx = TrainFixture::Get();
  AutoValidateOptions opts;
  opts.min_coverage = 3;
  AutoValidate engine(&fx.index, opts);
  auto rule = engine.Train(fx.query, Method::kFmdv);
  if (!rule.ok()) {
    state.SkipWithError("rule not learnable");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateColumn(*rule, fx.query));
  }
}
BENCHMARK(BM_ValidateColumn);

/// The zero-copy steady-state path: values arrive as string_views (e.g. an
/// arrow arena) and stream through a ValidationSession. No per-value string
/// copies; compare against BM_ValidateColumn for the ColumnView overhead.
void BM_ValidateColumnView(benchmark::State& state) {
  const auto& fx = TrainFixture::Get();
  AutoValidateOptions opts;
  opts.min_coverage = 3;
  AutoValidate engine(&fx.index, opts);
  auto trained = engine.Train(fx.query, Method::kFmdv);
  if (!trained.ok()) {
    state.SkipWithError("rule not learnable");
    return;
  }
  const auto rule =
      std::make_shared<const ValidationRule>(std::move(trained).value());
  std::vector<std::string_view> views(fx.query.begin(), fx.query.end());
  for (auto _ : state) {
    ValidationSession session(rule);
    session.Feed(views);
    benchmark::DoNotOptimize(session.Finish());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(views.size()));
}
BENCHMARK(BM_ValidateColumnView);

/// Shared fixture for the serving layer: a ValidationService with trained
/// rules for several named columns plus per-column query batches.
struct ServiceFixture {
  const TrainFixture& train = TrainFixture::Get();
  AutoValidateOptions opts;
  ValidationService service;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> batches;

  ServiceFixture()
      : opts([] {
          AutoValidateOptions o;
          o.min_coverage = 3;
          return o;
        }()),
        service(&TrainFixture::Get().index, opts) {
    Rng rng(11);
    const auto make = [&rng](int domain, size_t rows) {
      std::vector<std::string> values;
      for (size_t i = 0; i < rows; ++i) {
        switch (domain) {
          case 0:
            values.push_back("10.0." + std::to_string(rng.Range(0, 255)) +
                             "." + std::to_string(rng.Range(1, 254)));
            break;
          case 1:
            values.push_back("2019-" + std::string(rng.Range(0, 1) ? "0" : "1") +
                             std::to_string(rng.Range(0, 2)) + "-" +
                             std::to_string(rng.Range(10, 28)));
            break;
          default:
            values.push_back("JOB-" + rng.DigitString(6));
            break;
        }
      }
      return values;
    };
    std::vector<ValidationService::NamedColumn> columns;
    std::vector<std::vector<std::string>> train_cols;
    for (int d = 0; d < 3; ++d) train_cols.push_back(make(d, 100));
    for (int d = 0; d < 3; ++d) {
      names.push_back("col_" + std::to_string(d));
      columns.push_back({names.back(), train_cols[d]});
      batches.push_back(make(d, 100));
    }
    service.TrainAll(columns, Method::kFmdv);
  }
  static const ServiceFixture& Get() {
    static ServiceFixture* fixture = new ServiceFixture();
    return *fixture;
  }
};

/// End-to-end serving throughput: concurrent threads validating named
/// columns against the shared rule store (wait-free snapshot reads). Run
/// with --benchmark_filter=BM_ServiceValidateThroughput; items/sec is
/// columns validated per second across all threads.
void BM_ServiceValidateThroughput(benchmark::State& state) {
  const auto& fx = ServiceFixture::Get();
  const size_t which = static_cast<size_t>(state.thread_index()) % 3;
  for (auto _ : state) {
    auto report = fx.service.Validate(fx.names[which], fx.batches[which]);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceValidateThroughput)->Threads(8)->UseRealTime();

/// Table-serving fixture: a wide "shared-values" table — the recurring-
/// pipeline shape where low-cardinality columns repeat a small set of
/// distinct values across thousands of rows, which is exactly where the
/// tokenize-once (dedup) path pays off.
struct TableFixture {
  const ServiceFixture& base = ServiceFixture::Get();
  std::vector<std::vector<std::string>> columns;
  std::vector<ValidationService::NamedColumn> table;
  uint64_t rows = 0;

  TableFixture() {
    Rng rng(23);
    constexpr size_t kRows = 2000;
    constexpr size_t kDistinct = 64;
    // Only domains 0 and 1 reliably train a rule in ServiceFixture (the
    // JOB-id column abstains under the fixture's index), so the bench table
    // is built from those two.
    for (int d = 0; d < 2; ++d) {
      // Three low-cardinality columns per trained rule: 2000 rows drawn
      // from 64 distinct values each.
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<std::string> pool;
        {
          Rng pool_rng(100 + d * 10 + rep);
          const auto& batch = base.batches[static_cast<size_t>(d)];
          for (size_t i = 0; i < kDistinct; ++i) {
            pool.push_back(batch[pool_rng.Below(batch.size())]);
          }
        }
        std::vector<std::string> values;
        values.reserve(kRows);
        for (size_t r = 0; r < kRows; ++r) {
          values.push_back(pool[rng.Below(kDistinct)]);
        }
        columns.push_back(std::move(values));
      }
    }
    for (size_t c = 0; c < columns.size(); ++c) {
      table.push_back({base.names[c / 3], columns[c]});
      rows += columns[c].size();
    }
  }
  static const TableFixture& Get() {
    static TableFixture* fixture = new TableFixture();
    return *fixture;
  }
};

/// Whole-table serving: ONE snapshot, one tokenization per column, columns
/// fanned out over the service pool. Compare against BM_ServiceValidateNLoop
/// (same tokenize-once path, N independent calls) and
/// BM_ServiceValidateStreamLoop (the pre-table-API per-row path).
void BM_ServiceValidateAll(benchmark::State& state) {
  const auto& fx = TableFixture::Get();
  for (auto _ : state) {
    TableReport report = fx.base.service.ValidateAll(fx.table);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.rows));
}
BENCHMARK(BM_ServiceValidateAll)->UseRealTime();

/// The same table as N independent single-column Validate calls (one
/// snapshot lookup + tokenization each). ValidateAll must be no slower.
void BM_ServiceValidateNLoop(benchmark::State& state) {
  const auto& fx = TableFixture::Get();
  for (auto _ : state) {
    for (const auto& column : fx.table) {
      auto report = fx.base.service.Validate(column.name, column.values);
      benchmark::DoNotOptimize(report);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.rows));
}
BENCHMARK(BM_ServiceValidateNLoop);

/// Baseline: the pre-ValidateAll serving path — per-column streaming
/// sessions tokenizing every row independently (no dedup). On a shared-
/// values table the tokenize-once paths above beat this by ~distinct/rows.
void BM_ServiceValidateStreamLoop(benchmark::State& state) {
  const auto& fx = TableFixture::Get();
  for (auto _ : state) {
    for (const auto& column : fx.table) {
      auto session = fx.base.service.OpenSession(column.name);
      if (!session.ok()) {
        state.SkipWithError("no rule for bench column");
        return;
      }
      session->Feed(column.values);
      benchmark::DoNotOptimize(session->Finish());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.rows));
}
BENCHMARK(BM_ServiceValidateStreamLoop);

/// Serving-over-loopback fixture: an avserved-style epoll Server on an
/// ephemeral 127.0.0.1 port, backed by its own trained ServiceFixture store.
/// Built once; the process exit reaps the server threads.
struct ServerFixture {
  ServiceFixture svc;
  net::Server server;
  uint16_t port = 0;

  ServerFixture()
      : server(&svc.service, [] {
          net::ServerConfig cfg;
          cfg.num_workers = 2;
          return cfg;
        }()) {
    if (!server.Start().ok()) std::abort();
    port = server.port();
  }
  static ServerFixture& Get() {
    static ServerFixture* fixture = new ServerFixture();
    return *fixture;
  }
};

/// Remote round-trip latency: one blocking client, one VALIDATE of a
/// 100-value column per iteration, over loopback TCP. The delta vs
/// BM_ServiceValidateThroughput at one thread is the full AVNET001 tax:
/// framing, syscalls, loop-thread dispatch and the reply path.
void BM_ServerRoundTrip(benchmark::State& state) {
  auto& fx = ServerFixture::Get();
  net::Client client;
  if (!client.Connect("127.0.0.1", fx.port).ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  const std::string& name = fx.svc.names[0];
  const std::vector<std::string>& batch = fx.svc.batches[0];
  for (auto _ : state) {
    auto report = client.Validate(name, batch);
    if (!report.ok()) {
      state.SkipWithError("remote validate failed");
      return;
    }
    benchmark::DoNotOptimize(report->store_version);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerRoundTrip)->UseRealTime();

/// Saturation: N concurrent clients (one connection each) hammering the
/// server with VALIDATE calls; items/sec is validated columns per second
/// across all clients — the single-loop dispatch ceiling on this host.
void BM_ServerSaturation(benchmark::State& state) {
  auto& fx = ServerFixture::Get();
  net::Client client;
  if (!client.Connect("127.0.0.1", fx.port).ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  // Only domains 0 and 1 reliably train a rule (see TableFixture).
  const size_t which = static_cast<size_t>(state.thread_index()) % 2;
  const std::string& name = fx.svc.names[which];
  const std::vector<std::string>& batch = fx.svc.batches[which];
  for (auto _ : state) {
    auto report = client.Validate(name, batch);
    if (!report.ok()) {
      state.SkipWithError("remote validate failed");
      return;
    }
    benchmark::DoNotOptimize(report->store_version);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerSaturation)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace av

BENCHMARK_MAIN();
