#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace avbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{1};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

// Buffers outlive their threads (pool workers exit before the run is
// summarized), so the registry owns them.
std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_registry;

thread_local std::shared_ptr<ThreadBuffer> t_buffer;
thread_local uint64_t t_current = 0;
thread_local uint64_t t_request = 0;

ThreadBuffer& Buffer() {
  if (!t_buffer) {
    t_buffer = std::make_shared<ThreadBuffer>();
    t_buffer->thread = g_next_thread.fetch_add(1);
    t_buffer->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(t_buffer);
  }
  return *t_buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
uint64_t CurrentSpan() { return t_current; }

Span::Span(const char* name) {
  if (g_enabled.load(std::memory_order_relaxed)) Open(name, t_current, t_request);
}

Span::Span(const char* name, uint64_t parent, uint64_t request) {
  if (g_enabled.load(std::memory_order_relaxed)) Open(name, parent, request);
}

void Span::Open(const char* name, uint64_t parent, uint64_t request) {
  active_ = true;
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = parent;
  rec_.request = request;
  saved_current_ = t_current;
  saved_request_ = t_request;
  t_current = rec_.id;
  t_request = request;
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = NowNs();
  ThreadBuffer& buf = Buffer();
  rec_.thread = buf.thread;
  buf.spans.push_back(rec_);
  t_current = saved_current_;
  t_request = saved_request_;
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> out;
  for (const auto& buf : g_registry) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buf : g_registry) buf->spans.clear();
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, SpanTotals> out;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const SpanRecord& s : spans) {
    const int64_t dur = s.end_ns - s.start_ns;
    int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Children may run concurrently on other threads: take the union of
      // their intervals, clipped to the parent's.
      iv.clear();
      for (size_t c : it->second) {
        const int64_t b = std::max(spans[c].start_ns, s.start_ns);
        const int64_t e = std::min(spans[c].end_ns, s.end_ns);
        if (e > b) iv.emplace_back(b, e);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_b = 0, cur_e = -1;
      for (const auto& [b, e] : iv) {
        if (cur_e < b) {
          if (cur_e > cur_b) covered += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_b) covered += cur_e - cur_b;
    }
    SpanTotals& t = out[s.name];
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
    t.count += 1;
  }
  return out;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"thread\":%u}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace avbench
