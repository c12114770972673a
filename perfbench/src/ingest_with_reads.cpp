// ingest_with_reads: continuous feed ingest beside a reader. Users are
// loaded at set-up; during the run, generated messages flow through a
// ChannelAdapter (BASIC policy, parsed records) into the indexed
// GleambookMessages while one closed-loop reader runs authorId
// secondary-index lookups on the same trees. Exercises the storage and txn
// write path, LSM flush and merge, and feeds, with reads of fresh data.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "adm/serde.h"
#include "common/rng.h"
#include "feeds/adapter.h"
#include "feeds/runtime.h"
#include "layers.h"
#include "workloads.h"

namespace gb {

using asterix::adm::Value;

namespace {

constexpr int64_t kUsers = 20000;
constexpr size_t kCachePages = 4096;  // 16 MiB, the instance default
/// The channel is pre-filled with this many records and topped up so the
/// intake never waits for the producer; it also bounds the drain after the
/// measured time ends.
constexpr uint64_t kBacklog = 2048;
constexpr uint64_t kChunk = 512;

/// One reader lookup, checked after the run (the reader thread must not
/// touch the generator's records while the producer appends to them).
struct Lookup {
  int64_t author = 0;
  uint64_t watermark_before = 0;  // every seqno <= this must be visible
  uint64_t pushed_after = 0;      // no id at or above this can be visible
  std::vector<int64_t> ids;
  bool ok = true;
  std::string error;
};

struct Reader {
  std::unique_ptr<TraceLog> log = std::make_unique<TraceLog>(1);
  std::vector<Lookup> lookups;
  std::vector<double> us;
  std::vector<SliceSample> slices;
  uint64_t last_end_ns = 0;
};

void RunReader(asterix::Instance* inst, const GleambookData* data,
               asterix::feeds::ChannelAdapter* chan,
               asterix::feeds::FeedRuntime* rt, const RunOptions& opts,
               uint64_t origin, const std::atomic<bool>* stop, Reader* r,
               Report* report) {
  asterix::Rng rng(opts.seed * 7919);
  uint64_t request = 0;
  while (!stop->load(std::memory_order_acquire)) {
    const uint64_t slice = SliceOf(origin);
    const bool traced = opts.trace && Traced(slice);
    TraceLog* log = traced ? r->log.get() : nullptr;
    Lookup l;
    l.author = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(kUsers)));
    l.watermark_before = rt->watermark();
    ++request;
    double us = 0;
    {
      SpanScope root(log, "op.author_lookup", request, 0);
      auto res = RunStatement(inst,
                              "SELECT VALUE m.messageId FROM "
                              "GleambookMessages m WHERE m.authorId = " +
                                  std::to_string(l.author),
                              true, log, request, root.id(), &us);
      l.pushed_after = chan->pushed();
      if (!res.ok()) {
        l.ok = false;
        l.error = res.status().ToString();
      } else {
        for (const auto& v : res.value().rows) {
          if (!v.is_int()) l.ok = false;
          l.ids.push_back(v.is_int() ? v.AsInt() : -1);
        }
      }
      if (log != nullptr) {
        const int64_t k =
            static_cast<int64_t>(rng.Skewed(static_cast<uint64_t>(kUsers)));
        Value rec;
        auto got =
            TracedGet(inst, "GleambookUsers", k, &rec, log, request, root.id());
        report->Attempt();
        if (!got.ok() || !got.value() || !(rec == data->User(k))) {
          report->Wrong("GetByKey user " + std::to_string(k));
        }
      }
    }
    r->last_end_ns = NowNs();
    r->lookups.push_back(std::move(l));
    r->us.push_back(us);
    if (opts.trace) r->slices.push_back({slice, us});
  }
}

/// Checks one lookup against the records pushed so far.
bool CheckLookup(const Lookup& l, GleambookData* data, std::string* why) {
  if (!l.ok) {
    *why = l.error;
    return false;
  }
  std::vector<int64_t> ids = l.ids;
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    *why = "duplicate ids";
    return false;
  }
  for (int64_t id : ids) {
    if (id < 0 || static_cast<uint64_t>(id) >= l.pushed_after ||
        data->AuthorOf(id) != l.author) {
      *why = "unexpected id " + std::to_string(id);
      return false;
    }
  }
  for (int64_t id : data->MessagesBy(l.author)) {
    if (static_cast<uint64_t>(id) + 1 > l.watermark_before) break;
    if (!std::binary_search(ids.begin(), ids.end(), id)) {
      *why = "missing applied id " + std::to_string(id);
      return false;
    }
  }
  return true;
}

/// Mean duration of the `name` spans in each quarter of [t0, t1).
std::string ByQuarter(const std::vector<Span>& spans, const char* name,
                      uint64_t t0, uint64_t t1) {
  double sum[4] = {0, 0, 0, 0};
  int n[4] = {0, 0, 0, 0};
  const double width = static_cast<double>(t1 - t0) / 4;
  for (const auto& s : spans) {
    if (std::string_view(s.name) != name || s.start_ns < t0) continue;
    const int q = std::min(3, static_cast<int>((s.start_ns - t0) / width));
    sum[q] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    n[q]++;
  }
  std::string out = std::string(name) + " mean us by quarter of the ingest:";
  for (int q = 0; q < 4; q++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.1f", n[q] ? sum[q] / n[q] : 0.0);
    out += buf;
  }
  return out;
}

}  // namespace

void RunIngestWithReads(const RunOptions& opts, Report* report) {
  namespace feeds = asterix::feeds;
  GleambookData data(opts.seed, kUsers, 0);
  InstanceShape shape;
  shape.buffer_cache_pages = kCachePages;
  shape.load_messages = false;
  LoadedStore store = LoadStore(&data, shape, opts.dir + "/store");
  asterix::Instance* inst = store.instance.get();

  auto adapter = std::make_unique<feeds::ChannelAdapter>();
  feeds::ChannelAdapter* chan = adapter.get();
  uint64_t pushed = 0, pushed_bytes = 0;
  auto push_until = [&](uint64_t target) {
    for (; pushed < target; pushed++) {
      const Value& m = data.Message(static_cast<int64_t>(pushed));
      pushed_bytes += asterix::adm::Serialize(m).size();
      (void)chan->Push(m);
    }
  };
  push_until(kBacklog);

  feeds::FeedRuntimeOptions fo;
  fo.feed_name = "gleambench";
  fo.dataset = "GleambookMessages";
  fo.policy.kind = feeds::PolicyKind::kBasic;
  fo.parse.format = feeds::ParseSpec::Format::kParsed;
  feeds::FeedRuntime rt(inst, std::move(adapter), fo);

  auto main_log = std::make_unique<TraceLog>(2);
  Reader reader;
  std::atomic<bool> stop{false};
  const auto before = asterix::metrics::Registry::Global().Snapshot();
  const auto depth_before = QueueDepthBuckets();
  const uint64_t t0 = NowNs();
  const uint64_t feed_span =
      opts.trace ? main_log->Begin("feeds.run", 0, 0) : 0;
  asterix::Status st = rt.Start();
  if (!st.ok()) {
    report->Attempt();
    report->Wrong("feed start: " + st.ToString());
    return;
  }
  std::thread reader_thread(RunReader, inst, &data, chan, &rt,
                            std::cref(opts), t0, &stop, &reader, report);
  const uint64_t until = t0 + static_cast<uint64_t>(opts.seconds * 1e9);
  while (NowNs() < until) {
    if (pushed - rt.watermark() < kBacklog) {
      push_until(pushed + kChunk);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  chan->CloseChannel();
  st = rt.WaitForCompletion(/*timeout_ms=*/120000);
  const uint64_t t_done = NowNs();
  if (opts.trace) main_log->End(feed_span);
  stop.store(true, std::memory_order_release);
  reader_thread.join();
  if (st.ok()) st = rt.Stop();
  const double ingest_s = static_cast<double>(t_done - t0) / 1e9;
  const double read_s =
      static_cast<double>(std::max(reader.last_end_ns, t_done) - t0) / 1e9;
  const auto after = asterix::metrics::Registry::Global().Snapshot();
  const auto depth_after = QueueDepthBuckets();

  // Every pushed record must be applied, counted and retired exactly once.
  report->Attempt(pushed);
  if (!st.ok()) report->Wrong("feed: " + st.ToString());
  if (rt.watermark() != pushed || rt.records_applied() != pushed) {
    report->Wrong("watermark " + std::to_string(rt.watermark()) +
                  ", applied " + std::to_string(rt.records_applied()) +
                  ", pushed " + std::to_string(pushed));
  }
  report->Attempt();
  auto count = inst->Execute("SELECT VALUE COUNT(*) FROM GleambookMessages m");
  if (!count.ok() || count.value().rows.size() != 1 ||
      !count.value().rows[0].is_int() ||
      count.value().rows[0].AsInt() != static_cast<int64_t>(pushed)) {
    report->Wrong("COUNT(*) after ingest differs from " +
                  std::to_string(pushed) + " pushed");
  }
  report->Attempt(reader.lookups.size());
  for (const auto& l : reader.lookups) {
    std::string why;
    if (!CheckLookup(l, &data, &why)) {
      report->Wrong("author lookup " + std::to_string(l.author) + ": " + why);
    }
  }

  report->Note(SetupNote(store));
  report->Note("store: " + std::to_string(kUsers) + " users loaded, " +
               std::to_string(pushed) + " messages ingested (" +
               std::to_string(pushed_bytes) + " bytes), " +
               std::to_string(DirBytes(opts.dir + "/store")) +
               " bytes on disk after; buffer cache " +
               std::to_string(kCachePages * 4096) + " bytes");
  report->Note("feed: ChannelAdapter, BASIC policy, parsed records; closed "
               "loop, 1 reader; ingest took " +
               std::to_string(ingest_s) + " s");

  if (opts.trace) {
    LayerInputs in;
    in.instance = inst;
    in.data = &data;
    in.measured = after.DeltaSince(before);
    in.written = after.DeltaSince(store.before_setup);
    in.statements = reader.us.size();
    in.records_written = store.records_loaded + pushed;
    in.user_bytes_written = store.user_bytes_loaded + pushed_bytes;
    in.measured_writes = pushed;
    for (size_t i = 0; i < depth_after.size(); i++) {
      in.queue_depth.push_back(depth_after[i] - depth_before[i]);
    }
    in.overhead_pct = OverheadPct(reader.slices);
    for (const char* name : {"asterix.execute", "sqlpp.parse",
                             "algebricks.optimize"}) {
      report->Note(ByQuarter(reader.log->spans(), name, t0, t_done));
    }
    std::vector<std::unique_ptr<TraceLog>> logs;
    logs.push_back(std::move(reader.log));
    logs.push_back(std::move(main_log));
    ReportLayers(in, std::move(logs), opts, report);
    return;
  }
  const std::vector<double>& read_us = reader.us;
  const double ingest_rec_per_s = static_cast<double>(pushed) / ingest_s;
  report->Gated("setup_s", "s", store.setup_s, store.setups_s.size());
  report->Gated("throughput_per_s", "1/s", ingest_rec_per_s, pushed);
  report->Gated("read_p50_us", "us", Percentile(read_us, 50), read_us.size());
  report->Extra("ingest_rec_per_s", "1/s", ingest_rec_per_s, pushed);
  report->Extra("ops_per_s", "1/s",
                static_cast<double>(read_us.size()) / read_s, read_us.size());
  report->Extra("read_p99_us", "us", Percentile(read_us, 99), read_us.size());
  report->Extra("data_bytes", "B",
                static_cast<double>(DirBytes(opts.dir + "/store")), 1);
  report->Extra("cache_bytes", "B", static_cast<double>(kCachePages * 4096),
                1);
}

}  // namespace gb
