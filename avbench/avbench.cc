// avbench: the repository benchmark binary (see README.md here).
//
//   avbench prep --workload W --seed N --work DIR [--threads T]
//   avbench run  --workload W --seed N --work DIR --seconds S --trace 0|1
//                [--threads T] [--golden DIR] [--avserved PATH]
//                [--trace-dir DIR]
//
// `prep` generates the seeded inputs of a workload into DIR; `run` measures
// the workload and prints, as its last stdout line, one JSON object with
// the keys correct, attempted, failed and metrics. run.py drives both.
#include "avbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/hash.h"

namespace avbench {

void Outcome::Check(bool ok, const std::string& what) {
  attempted += 1;
  if (!ok) {
    failed += 1;
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool HashFile(const std::string& path, uint64_t* hash, uint64_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  *hash = av::Fnv1a64(data);
  *bytes = data.size();
  return true;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool WriteKv(const std::string& path,
             const std::map<std::string, std::string>& kv) {
  std::ofstream out(path);
  for (const auto& [k, v] : kv) out << k << '=' << v << '\n';
  return static_cast<bool>(out);
}

std::map<std::string, std::string> ReadKv(const std::string& path) {
  std::map<std::string, std::string> kv;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

namespace {

void PutStr(std::ofstream& out, const std::string& s) {
  const uint32_t n = static_cast<uint32_t>(s.size());
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(s.data(), n);
}

bool GetStr(std::ifstream& in, std::string* s) {
  uint32_t n = 0;
  if (!in.read(reinterpret_cast<char*>(&n), sizeof(n))) return false;
  s->resize(n);
  return n == 0 || static_cast<bool>(in.read(s->data(), n));
}

void PutList(std::ofstream& out, const std::vector<std::string>& v) {
  PutStr(out, std::to_string(v.size()));
  for (const std::string& s : v) PutStr(out, s);
}

bool GetList(std::ifstream& in, std::vector<std::string>* v) {
  std::string count;
  if (!GetStr(in, &count)) return false;
  v->resize(std::strtoull(count.c_str(), nullptr, 10));
  for (std::string& s : *v) {
    if (!GetStr(in, &s)) return false;
  }
  return true;
}

}  // namespace

bool WriteColumns(const std::string& path,
                  const std::vector<QueryColumn>& cols) {
  std::ofstream out(path, std::ios::binary);
  PutStr(out, std::to_string(cols.size()));
  for (const QueryColumn& c : cols) {
    PutStr(out, c.name);
    PutStr(out, c.table);
    PutList(out, c.train);
    PutList(out, c.test);
  }
  return static_cast<bool>(out);
}

bool ReadColumns(const std::string& path, std::vector<QueryColumn>* cols) {
  std::ifstream in(path, std::ios::binary);
  std::string count;
  if (!GetStr(in, &count)) return false;
  cols->resize(std::strtoull(count.c_str(), nullptr, 10));
  for (QueryColumn& c : *cols) {
    if (!GetStr(in, &c.name) || !GetStr(in, &c.table) || !GetList(in, &c.train) ||
        !GetList(in, &c.test)) {
      return false;
    }
  }
  return true;
}

void CheckGolden(const Args& args, const std::string& key,
                 const std::string& value, Outcome* out) {
  std::printf("hash %s %s\n", key.c_str(), value.c_str());
  if (args.golden_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(args.golden_dir, ec);
  const std::string path = args.golden_dir + "/" + key;
  std::ifstream in(path);
  std::string recorded;
  if (in && std::getline(in, recorded)) {
    out->Check(recorded == value, key + ": " + value + " differs from " +
                                      recorded + " recorded by an earlier run");
    return;
  }
  std::ofstream(path) << value << '\n';
}

double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace avbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: avbench prep|run --workload W --seed N --work DIR\n"
               "       [--seconds S] [--trace 0|1] [--threads T]\n"
               "       [--golden DIR] [--avserved PATH] [--trace-dir DIR]\n");
  return 2;
}

void PrintResult(const avbench::Outcome& out) {
  std::printf("\n%-34s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const avbench::Metric& m : out.metrics) {
    std::printf("%-34s %16.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.correct ? "true" : "false");
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const avbench::Metric& m = out.metrics[i];
    json << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
         << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  avbench::Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") args.workload = v;
    else if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") args.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--threads") args.threads = std::strtoull(v, nullptr, 10);
    else if (flag == "--work") args.work_dir = v;
    else if (flag == "--golden") args.golden_dir = v;
    else if (flag == "--avserved") args.avserved = v;
    else if (flag == "--trace-dir") args.trace_dir = v;
    else return Usage();
  }
  if (args.workload.empty() || args.work_dir.empty() || args.threads == 0) {
    return Usage();
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (args.mode == "prep") return avbench::Prep(args);
  if (args.mode != "run") return Usage();
  avbench::Outcome out;
  const int rc = avbench::Run(args, &out);
  if (rc != 0) return rc;
  PrintResult(out);
  return out.correct ? 0 : 1;
}
