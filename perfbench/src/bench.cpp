#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace gb {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; i++) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

std::vector<Span> MergeLogs(
    const std::vector<std::unique_ptr<TraceLog>>& logs) {
  std::vector<Span> all;
  for (const auto& log : logs) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  return all;
}

std::vector<SpanSummary> Summarize(const std::vector<Span>& spans) {
  // Children's intervals, clipped to the parent and merged, are the part
  // of the parent's time some other layer owns.
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Acc {
    uint64_t count = 0;
    double total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Acc> acc;
  for (const auto& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += static_cast<double>(cur_hi - cur_lo);
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += static_cast<double>(cur_hi - cur_lo);
    }
    Acc& a = acc[s.name];
    a.count++;
    a.total_ns += dur;
    a.self_ns += dur - covered;
  }
  std::vector<SpanSummary> out;
  for (const auto& [name, a] : acc) {
    out.push_back({name, a.count, a.total_ns / 1e3 / a.count,
                   a.self_ns / 1e3 / a.count});
  }
  return out;
}

bool WriteTrace(const std::string& path,
                const std::vector<std::unique_ptr<TraceLog>>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto& log : logs) {
    for (const auto& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& log : logs) {
    for (const auto& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                   ",\"parent\":%" PRIu64 ",\"request\":%" PRIu64 "}}",
                   first ? "" : ",", s.name, log->thread(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent, s.request);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Report::Wrong(const std::string& what) {
  std::lock_guard<std::mutex> lock(wrong_mu_);
  failed_++;
  if (wrong_.size() < 20) wrong_.push_back(what);  // the first few, as examples
}

namespace {
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); i++) {
    if (i) out += ",";
    out += JsonString(ms[i].name) + ":{\"value\":" + JsonNumber(ms[i].value) +
           ",\"unit\":" + JsonString(ms[i].unit) +
           ",\"samples\":" + std::to_string(ms[i].samples) + "}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    std::printf("  %-42s %14.4f %-8s (n=%" PRIu64 ")\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
}
}  // namespace

void Report::Print(const RunOptions& opts) const {
  std::printf("workload %s  seed %" PRIu64 "  seconds %.0f  trace %d\n",
              opts.workload.c_str(), opts.seed, opts.seconds,
              opts.trace ? 1 : 0);
  for (const auto& n : notes_) std::printf("  %s\n", n.c_str());
  PrintMetrics(opts.trace ? "per-layer metrics:" : "end-to-end metrics:",
               gated_);
  PrintMetrics("workload metrics:", extra_);
  if (!spans_.empty()) {
    std::printf("spans (mean duration / mean self time):\n");
    for (const auto& s : spans_) {
      std::printf("  %-34s n=%-9" PRIu64 " %12.2f us %12.2f us\n",
                  s.name.c_str(), s.count, s.mean_us, s.mean_self_us);
    }
  }
  const double error_rate =
      attempted() == 0 ? 1.0
                       : static_cast<double>(failed_) /
                             static_cast<double>(attempted());
  std::printf("error_rate %.6f (%" PRIu64 " failed of %" PRIu64
              " attempted)\n",
              error_rate, failed_, attempted());
  for (const auto& w : wrong_) std::printf("  WRONG: %s\n", w.c_str());

  std::string spans = "[";
  for (size_t i = 0; i < spans_.size(); i++) {
    if (i) spans += ",";
    spans += "{\"name\":" + JsonString(spans_[i].name) +
             ",\"count\":" + std::to_string(spans_[i].count) +
             ",\"mean_us\":" + JsonNumber(spans_[i].mean_us) +
             ",\"mean_self_us\":" + JsonNumber(spans_[i].mean_self_us) + "}";
  }
  spans += "]";
  auto strings = [](const std::vector<std::string>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); i++) {
      if (i) out += ",";
      out += JsonString(v[i]);
    }
    return out + "]";
  };
  std::printf(
      "GB_REPORT {\"workload\":%s,\"seed\":%" PRIu64
      ",\"seconds\":%s,\"trace\":%d,\"correct\":%s,\"attempted\":%" PRIu64
      ",\"failed\":%" PRIu64
      ",\"error_rate\":%s,\"compiler\":%s,\"build_type\":%s,"
      "\"metrics\":%s,\"extra\":%s,\"spans\":%s,\"notes\":%s,"
      "\"wrong\":%s}\n",
      JsonString(opts.workload).c_str(), opts.seed,
      JsonNumber(opts.seconds).c_str(), opts.trace ? 1 : 0,
      correct() ? "true" : "false", attempted(), failed_,
      JsonNumber(error_rate).c_str(), JsonString(GB_COMPILER).c_str(),
      JsonString(GB_BUILD_TYPE).c_str(), MetricsJson(gated_).c_str(),
      MetricsJson(extra_).c_str(), spans.c_str(), strings(notes_).c_str(),
      strings(wrong_).c_str());
}

}  // namespace gb
