// Shared declarations of the avbench binary: arguments, the result every
// run prints, and the small file helpers the prep and run phases share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace avbench {

struct Args {
  std::string mode;      ///< "prep" (make inputs) or "run" (measure)
  std::string workload;  ///< lake-build | lake-build-spill | rule-train | validate-serve
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t threads = 4;
  std::string work_dir;    ///< inputs and scratch files of this run
  std::string golden_dir;  ///< output hashes kept across runs of one seed
  std::string avserved;    ///< path of the avserved binary
  std::string trace_dir;   ///< where a traced run writes its spans
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;
};

/// What one run reports: the metrics plus every operation and output check
/// it attempted. A failed check makes the run incorrect.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, const std::string& unit, double value,
           size_t samples) {
    metrics.push_back({name, unit, value, samples});
  }
  /// Counts one output check; prints and records a mismatch.
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations of which `bad` failed.
  void Ops(uint64_t n, uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double NowSeconds();

/// FNV-1a 64 over a file's bytes; `bytes` receives the file size.
bool HashFile(const std::string& path, uint64_t* hash, uint64_t* bytes);
std::string Hex(uint64_t v);

/// key=value text files (prep hands its results to the run phase).
bool WriteKv(const std::string& path,
             const std::map<std::string, std::string>& kv);
std::map<std::string, std::string> ReadKv(const std::string& path);

/// A query column of the §5.1 benchmark: its lake table, its training
/// slice and the rest.
struct QueryColumn {
  std::string name;
  std::string table;
  std::vector<std::string> train;
  std::vector<std::string> test;
};
bool WriteColumns(const std::string& path,
                  const std::vector<QueryColumn>& cols);
bool ReadColumns(const std::string& path, std::vector<QueryColumn>* cols);

/// Compares `value` with the value recorded for `key` by an earlier run in
/// the same checkout (records it when absent). Prints `key value`.
void CheckGolden(const Args& args, const std::string& key,
                 const std::string& value, Outcome* out);

/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

/// Workload entry points (workloads.cc).
int Prep(const Args& args);
int Run(const Args& args, Outcome* out);

}  // namespace avbench
