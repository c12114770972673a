// scan_analytics: one closed-loop client running rounds of four analytic
// statements over the whole store with a buffer cache far smaller than the
// data, so ADM decode, Hyracks operators and exchanges, and storage scans
// dominate while per-statement compile cost is negligible.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>

#include "common/rng.h"
#include "layers.h"
#include "workloads.h"

namespace gb {

using asterix::adm::Value;

namespace {

constexpr int64_t kUsers = 6000;
constexpr int64_t kMessages = 30000;
constexpr size_t kCachePages = 1024;  // 4 MiB
constexpr int kProbesPerRound = 16;   // GetByKey probes, traced run only

struct Statement {
  const char* name;
  const char* sql;
};

// The fig1 aggregate and join, a friend-count histogram, and a filtered
// top-10 group-by.
const Statement kRound[] = {
    {"op.agg_by_bucket",
     "SELECT g AS bucket, COUNT(m.messageId) AS n, "
     "MAX(string_length(m.message)) AS longest "
     "FROM GleambookMessages m GROUP BY m.authorId % 128 AS g"},
    {"op.join_count",
     "SELECT COUNT(*) AS n FROM GleambookUsers u "
     "JOIN GleambookMessages m ON m.authorId = u.id "
     "WHERE COLL_COUNT(u.friendIds) > 5"},
    {"op.friend_histogram",
     "SELECT c AS friends, COUNT(*) AS users FROM GleambookUsers u "
     "GROUP BY COLL_COUNT(u.friendIds) AS c ORDER BY c"},
    {"op.top_authors",
     "SELECT a AS author, COUNT(*) AS n FROM GleambookMessages m "
     "WHERE m.messageId % 4 = 0 GROUP BY m.authorId AS a "
     "ORDER BY n DESC, a LIMIT 10"},
};
constexpr size_t kStatements = sizeof(kRound) / sizeof(kRound[0]);

/// The round's answers, computed from the generated records.
struct Truth {
  std::map<int64_t, std::pair<int64_t, int64_t>> buckets;  // g -> (n, longest)
  int64_t join_count = 0;
  std::vector<std::pair<int64_t, int64_t>> friends;  // (c, users), by c
  std::vector<std::pair<int64_t, int64_t>> top;      // (author, n)
};

Truth ComputeTruth(const GleambookData& data) {
  Truth t;
  std::vector<int64_t> filtered(static_cast<size_t>(data.users()), 0);
  for (const auto& m : data.message_records()) {
    const int64_t id = m.GetField("messageId").AsInt();
    const int64_t a = m.GetField("authorId").AsInt();
    const int64_t len =
        static_cast<int64_t>(m.GetField("message").AsString().size());
    auto& b = t.buckets[a % 128];
    b.first++;
    b.second = std::max(b.second, len);
    if (data.FriendCount(a) > 5) t.join_count++;
    if (id % 4 == 0) filtered[static_cast<size_t>(a)]++;
  }
  std::map<int64_t, int64_t> hist;
  for (int64_t u = 0; u < data.users(); u++) hist[data.FriendCount(u)]++;
  t.friends.assign(hist.begin(), hist.end());
  std::vector<std::pair<int64_t, int64_t>> by_count;  // (-n, author)
  for (int64_t a = 0; a < data.users(); a++) {
    if (filtered[static_cast<size_t>(a)] > 0) {
      by_count.push_back({-filtered[static_cast<size_t>(a)], a});
    }
  }
  std::sort(by_count.begin(), by_count.end());
  for (size_t i = 0; i < by_count.size() && i < 10; i++) {
    t.top.push_back({by_count[i].second, -by_count[i].first});
  }
  return t;
}

int64_t Int(const Value& row, const char* field) {
  const Value& v = row.GetField(field);
  return v.is_int() ? v.AsInt() : INT64_MIN;
}

bool Check(size_t stmt, const std::vector<Value>& rows, const Truth& t) {
  switch (stmt) {
    case 0: {
      if (rows.size() != t.buckets.size()) return false;
      for (const auto& r : rows) {
        auto it = t.buckets.find(Int(r, "bucket"));
        if (it == t.buckets.end() || Int(r, "n") != it->second.first ||
            Int(r, "longest") != it->second.second) {
          return false;
        }
      }
      return true;
    }
    case 1:
      return rows.size() == 1 && Int(rows[0], "n") == t.join_count;
    case 2: {
      if (rows.size() != t.friends.size()) return false;
      for (size_t i = 0; i < rows.size(); i++) {
        if (Int(rows[i], "friends") != t.friends[i].first ||
            Int(rows[i], "users") != t.friends[i].second) {
          return false;
        }
      }
      return true;
    }
    default: {
      if (rows.size() != t.top.size()) return false;
      for (size_t i = 0; i < rows.size(); i++) {
        if (Int(rows[i], "author") != t.top[i].first ||
            Int(rows[i], "n") != t.top[i].second) {
          return false;
        }
      }
      return true;
    }
  }
}

}  // namespace

void RunScanAnalytics(const RunOptions& opts, Report* report) {
  GleambookData data(opts.seed, kUsers, kMessages);
  const Truth truth = ComputeTruth(data);
  InstanceShape shape;
  shape.buffer_cache_pages = kCachePages;
  LoadedStore store = LoadStore(&data, shape, opts.dir + "/store");
  asterix::Instance* inst = store.instance.get();

  auto log = std::make_unique<TraceLog>(1);
  asterix::Rng rng(opts.seed * 7919);
  uint64_t requests = 0;
  std::vector<double> stmt_us, round_ms;
  std::vector<SliceSample> slices;
  std::vector<std::vector<double>> per_stmt_ms(kStatements);

  // One round; `origin` != 0 marks a measured round.
  auto round = [&](uint64_t origin) {
    const uint64_t slice = SliceOf(origin);
    const bool traced = opts.trace && origin != 0 && Traced(slice);
    TraceLog* tl = traced ? log.get() : nullptr;
    double total_us = 0;
    for (size_t s = 0; s < kStatements; s++) {
      const uint64_t request = ++requests;
      SpanScope root(tl, kRound[s].name, request, 0);
      double us = 0;
      report->Attempt();
      auto r = RunStatement(inst, kRound[s].sql, true, tl, request, root.id(),
                            &us);
      if (!r.ok() || !Check(s, r.value().rows, truth)) {
        report->Wrong(std::string(kRound[s].name) +
                      (r.ok() ? "" : ": " + r.status().ToString()));
      }
      total_us += us;
      if (origin != 0) {
        stmt_us.push_back(us);
        per_stmt_ms[s].push_back(us / 1e3);
      }
    }
    if (tl != nullptr) {
      const uint64_t request = ++requests;
      SpanScope root(tl, "op.get_probes", request, 0);
      for (int i = 0; i < kProbesPerRound; i++) {
        const int64_t k = static_cast<int64_t>(
            rng.Skewed(static_cast<uint64_t>(kUsers)));
        Value rec;
        report->Attempt();
        auto got =
            TracedGet(inst, "GleambookUsers", k, &rec, tl, request, root.id());
        if (!got.ok() || !got.value() || !(rec == data.User(k))) {
          report->Wrong("GetByKey user " + std::to_string(k));
        }
      }
    }
    if (origin != 0) {
      round_ms.push_back(total_us / 1e3);
      if (opts.trace) slices.push_back({slice, total_us});
    }
  };

  round(0);  // warm-up: not measured
  const auto before = asterix::metrics::Registry::Global().Snapshot();
  const uint64_t t0 = NowNs();
  const uint64_t until = t0 + static_cast<uint64_t>(opts.seconds * 1e9);
  while (NowNs() < until) round(t0);
  const double elapsed = SecondsSince(t0);
  const auto after = asterix::metrics::Registry::Global().Snapshot();

  report->Note(SetupNote(store));
  report->Note("store: " + std::to_string(kUsers) + " users, " +
               std::to_string(kMessages) + " messages, " +
               std::to_string(store.disk_bytes) + " bytes on disk; buffer " +
               "cache " + std::to_string(kCachePages * 4096) + " bytes");
  report->Note("closed loop, 1 client; " + std::to_string(round_ms.size()) +
               " rounds of " + std::to_string(kStatements) +
               " statements in " + std::to_string(elapsed) + " s");

  if (opts.trace) {
    LayerInputs in;
    in.instance = inst;
    in.data = &data;
    in.measured = after.DeltaSince(before);
    in.written = after.DeltaSince(store.before_setup);
    in.statements = stmt_us.size();
    in.records_written = store.records_loaded;
    in.user_bytes_written = store.user_bytes_loaded;
    in.overhead_pct = OverheadPct(slices);
    std::vector<std::unique_ptr<TraceLog>> logs;
    logs.push_back(std::move(log));
    ReportLayers(in, std::move(logs), opts, report);
    return;
  }
  const double stmts_per_s = static_cast<double>(stmt_us.size()) / elapsed;
  report->Gated("setup_s", "s", store.setup_s, store.setups_s.size());
  report->Gated("throughput_per_s", "1/s", stmts_per_s, stmt_us.size());
  report->Gated("read_p50_us", "us", Percentile(round_ms, 50) * 1e3,
                round_ms.size());
  report->Extra("ops_per_s", "1/s", stmts_per_s, stmt_us.size());
  report->Extra("round_p50_ms", "ms", Percentile(round_ms, 50),
                round_ms.size());
  report->Extra("round_p90_ms", "ms", Percentile(round_ms, 90),
                round_ms.size());
  for (size_t s = 0; s < kStatements; s++) {
    report->Extra(std::string(kRound[s].name + 3) + "_p50_ms", "ms",
                  Percentile(per_stmt_ms[s], 50), per_stmt_ms[s].size());
  }
  report->Extra("data_bytes", "B", static_cast<double>(store.disk_bytes), 1);
  report->Extra("cache_bytes", "B", static_cast<double>(kCachePages * 4096),
                1);
}

}  // namespace gb
