// Shared pieces of the Gleambook benchmark driver: run options, the result
// report, latency statistics and the in-memory span recorder.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace gb {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;        // scratch directory for instance files
  std::string trace_out;  // spans are written here at exit ("" = nowhere)
  bool guard_authors = true;  // point_mix: see AuthorGuard in point_mix.cpp
};

inline uint64_t NowNs() { return asterix::metrics::NowNs(); }
inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// ---- statistics -------------------------------------------------------------

/// Nearest-rank percentile, p in (0, 100], of an unsorted sample (0 if empty).
double Percentile(std::vector<double> v, double p);
/// Median of a small sample: the mean of the two middle values when the
/// count is even (0 if empty).
double Median(std::vector<double> v);
/// Mean of the values between the first and third quartiles.
double InterquartileMean(std::vector<double> v);

// ---- tracing ----------------------------------------------------------------

/// One timed call into a layer. `parent` is 0 for a request's root span;
/// spans of one client request share `request`.
struct Span {
  const char* name;  // "<layer>.<op>", a string literal
  uint64_t start_ns, end_ns;
  uint64_t id, parent, request;
};

/// A per-thread span buffer (no locking on the hot path). Ids carry the
/// buffer's thread number in their high bits so merged spans stay unique.
class TraceLog {
 public:
  explicit TraceLog(uint32_t thread) : thread_(thread) {}
  uint64_t Begin(const char* name, uint64_t request, uint64_t parent) {
    spans_.push_back(Span{name, NowNs(), 0, NextId(), parent, request});
    return spans_.back().id;
  }
  void End(uint64_t id) { spans_[Index(id)].end_ns = NowNs(); }
  /// A span whose interval was measured by the program, not by this log.
  void Add(const char* name, uint64_t request, uint64_t parent,
           uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{name, start_ns, end_ns, NextId(), parent, request});
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint32_t thread() const { return thread_; }

 private:
  uint64_t NextId() const {
    return (static_cast<uint64_t>(thread_) << 40) | (spans_.size() + 1);
  }
  static size_t Index(uint64_t id) { return (id & ((1ull << 40) - 1)) - 1; }
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `log` is null (tracing off for this call).
class SpanScope {
 public:
  SpanScope(TraceLog* log, const char* name, uint64_t request,
            uint64_t parent)
      : log_(log), id_(log ? log->Begin(name, request, parent) : 0) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return id_; }

 private:
  TraceLog* log_;
  uint64_t id_;
};

/// Per span name: count, mean duration and mean self time (duration minus
/// the part of its interval covered by its children).
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  double mean_us = 0;
  double mean_self_us = 0;
};
std::vector<SpanSummary> Summarize(const std::vector<Span>& spans);

/// Merges the logs and writes the spans as Chrome trace_event JSON.
std::vector<Span> MergeLogs(
    const std::vector<std::unique_ptr<TraceLog>>& logs);
bool WriteTrace(const std::string& path,
                const std::vector<std::unique_ptr<TraceLog>>& logs);

/// A traced run switches tracing on in odd time slices of this length and
/// off in even ones, so it measures the same workload with and without
/// spans.
constexpr uint64_t kTraceSliceNs = 200'000'000;
inline uint64_t SliceOf(uint64_t origin_ns) {
  return (NowNs() - origin_ns) / kTraceSliceNs;
}
inline bool Traced(uint64_t slice) { return slice % 2 == 1; }

/// One request latency and the slice it started in.
struct SliceSample {
  uint64_t slice;
  double us;
};

// ---- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;
};

/// What one run measured and checked. Gated metrics are the ones
/// BENCHMARK.json declares (end-to-end without tracing, per-layer with);
/// `extra` holds the workload-specific figures that are printed and kept
/// in the full report but are not gated.
class Report {
 public:
  void Gated(std::string name, std::string unit, double value,
             uint64_t samples) {
    gated_.push_back({std::move(name), std::move(unit), value, samples});
  }
  void Extra(std::string name, std::string unit, double value,
             uint64_t samples) {
    extra_.push_back({std::move(name), std::move(unit), value, samples});
  }
  void Note(std::string line) { notes_.push_back(std::move(line)); }
  /// Thread-safe.
  void Attempt(uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// A failed statement or a wrong answer. Thread-safe.
  void Wrong(const std::string& what);
  void SetSpans(std::vector<SpanSummary> s) { spans_ = std::move(s); }

  uint64_t attempted() const { return attempted_.load(); }
  bool correct() const { return failed_ == 0; }

  /// Human-readable lines, then one "GB_REPORT {...}" JSON line.
  void Print(const RunOptions& opts) const;

 private:
  std::vector<Metric> gated_, extra_;
  std::vector<std::string> notes_, wrong_;
  std::vector<SpanSummary> spans_;
  std::atomic<uint64_t> attempted_{0};
  std::mutex wrong_mu_;  // clients report wrong answers concurrently
  uint64_t failed_ = 0;
};

}  // namespace gb
