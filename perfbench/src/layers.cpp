#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <unordered_map>

#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "algebricks/functions.h"
#include "algebricks/optimizer.h"
#include "sqlpp/parser.h"
#include "sqlpp/translator.h"
#include "storage/buffer_cache.h"
#include "storage/lsm_btree.h"

namespace gb {

using asterix::Result;
using asterix::Status;
using asterix::adm::Value;
namespace metrics = asterix::metrics;

Result<asterix::QueryResult> RunStatement(asterix::Instance* inst,
                                          const std::string& sql, bool query,
                                          TraceLog* log, uint64_t request,
                                          uint64_t parent, double* wall_us) {
  if (log != nullptr) {
    std::optional<Result<asterix::sqlpp::ast::Statement>> parsed;
    {
      SpanScope s(log, "sqlpp.parse", request, parent);
      parsed.emplace(asterix::sqlpp::ParseStatement(sql));
    }
    if (!parsed->ok()) return parsed->status();
    if (query) {
      SpanScope s(log, "algebricks.optimize", request, parent);
      asterix::sqlpp::Translator translator(inst->metadata());
      auto translated = translator.TranslateQuery(*parsed->value().query);
      if (!translated.ok()) return translated.status();
      auto optimized = asterix::algebricks::Optimize(
          translated.value().plan, *inst->metadata(),
          asterix::algebricks::OptimizerOptions{},
          asterix::algebricks::FunctionRegistry::Instance());
      if (!optimized.ok()) return optimized.status();
    }
  }
  SpanScope stmt(log, "asterix.statement", request, parent);
  const uint64_t t0 = NowNs();
  auto result = inst->Execute(sql);
  const uint64_t t1 = NowNs();
  *wall_us = static_cast<double>(t1 - t0) / 1e3;
  if (log != nullptr && query && result.ok()) {
    const uint64_t exec_ns =
        std::min<uint64_t>(t1 - t0, static_cast<uint64_t>(
                                        result.value().elapsed_ms * 1e6));
    log->Add("asterix.execute", request, stmt.id(), t1 - exec_ns, t1);
  }
  return result;
}

Result<bool> TracedGet(asterix::Instance* inst, const char* dataset,
                       int64_t key, Value* record, TraceLog* log,
                       uint64_t request, uint64_t parent) {
  SpanScope s(log, "storage.get", request, parent);
  return inst->GetByKey(dataset, Value::Int(key), record);
}

std::vector<uint64_t> QueueDepthBuckets() {
  auto& reg = metrics::Registry::Global();
  std::vector<uint64_t> out(metrics::Histogram::kBuckets, 0);
  for (const char* scope : {"intake", "storage"}) {
    metrics::Histogram* h = reg.GetHistogram("feeds.queue_depth", scope);
    for (int i = 0; i < metrics::Histogram::kBuckets; i++) {
      out[i] += h->bucket(i);
    }
  }
  return out;
}

double OverheadPct(const std::vector<SliceSample>& samples) {
  std::map<uint64_t, std::pair<double, uint64_t>> slices;  // sum, count
  for (const auto& s : samples) {
    auto& acc = slices[s.slice];
    acc.first += s.us;
    acc.second++;
  }
  auto mean = [&](uint64_t slice, double* out) {
    auto it = slices.find(slice);
    if (it == slices.end()) return false;
    *out = it->second.first / static_cast<double>(it->second.second);
    return true;
  };
  std::vector<double> ratios;
  for (const auto& [slice, acc] : slices) {
    double traced = 0, before = 0, after = 0;
    if (!Traced(slice) || !mean(slice, &traced) || !mean(slice - 1, &before) ||
        !mean(slice + 1, &after)) {
      continue;
    }
    ratios.push_back(traced / ((before + after) / 2));
  }
  return ratios.empty() ? 0 : (Median(ratios) - 1) * 100;
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Upper bound of the power-of-two bucket holding the median sample.
double BucketMedian(const std::vector<uint64_t>& buckets, uint64_t* samples) {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  *samples = total;
  if (total == 0) return 0;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); i++) {
    seen += buckets[i];
    if (2 * seen >= total) return i == 0 ? 1 : static_cast<double>(1ull << i);
  }
  return 0;
}

/// Mean of (statement wall - parse - optimize - execute) over the traced
/// queries: the statement time no measured layer owns.
double UnownedUs(const std::vector<Span>& spans, uint64_t* samples) {
  struct Parts {
    double parse = 0, optimize = 0, statement = 0, execute = 0;
    bool query = false;
  };
  std::unordered_map<uint64_t, Parts> by_request;
  for (const auto& s : spans) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const std::string_view name(s.name);
    Parts& p = by_request[s.request];
    if (name == "sqlpp.parse") {
      p.parse += us;
    } else if (name == "algebricks.optimize") {
      p.optimize += us;
      p.query = true;
    } else if (name == "asterix.statement") {
      p.statement += us;
    } else if (name == "asterix.execute") {
      p.execute += us;
    }
  }
  double total = 0;
  uint64_t n = 0;
  for (const auto& [req, p] : by_request) {
    if (!p.query || p.statement == 0) continue;
    total += p.statement - p.parse - p.optimize - p.execute;
    n++;
  }
  *samples = n;
  return n == 0 ? 0 : total / static_cast<double>(n);
}

struct CodecCosts {
  double decode_ns = 0, encode_ns = 0, key_ns = 0;
  uint64_t records = 0;
};

/// ADM encode/decode and key encoding over the workload's records, nine
/// passes each; the median pass is reported per record. Decoded records
/// must equal the originals.
CodecCosts MeasureCodec(GleambookData* data, TraceLog* log, Report* report) {
  std::vector<const Value*> sample;
  const auto& users = data->user_records();
  const auto& msgs = data->message_records();
  for (size_t i = 0; i < users.size() && i < 2000; i++) {
    sample.push_back(&users[i]);
  }
  for (size_t i = 0; i < msgs.size() && i < 4000; i++) {
    sample.push_back(&msgs[i]);
  }
  std::vector<std::string> bytes(sample.size());
  std::vector<Result<Value>> decoded;
  decoded.reserve(sample.size());
  std::vector<double> enc, dec, key;
  constexpr int kPasses = 9;
  size_t key_bytes = 0;
  for (int pass = 0; pass < kPasses; pass++) {
    decoded.clear();
    const uint64_t t0 = NowNs();
    {
      SpanScope s(log, "adm.encode", 0, 0);
      for (size_t i = 0; i < sample.size(); i++) {
        bytes[i].clear();
        asterix::adm::SerializeValue(*sample[i], &bytes[i]);
      }
    }
    const uint64_t t1 = NowNs();
    {
      SpanScope s(log, "adm.decode", 0, 0);
      for (const auto& b : bytes) {
        decoded.push_back(asterix::adm::Deserialize(b));
      }
    }
    const uint64_t t2 = NowNs();
    {
      SpanScope s(log, "adm.key_encode", 0, 0);
      for (size_t i = 0; i < sample.size(); i++) {
        auto k = asterix::adm::EncodeKey(Value::Int(static_cast<int64_t>(i)));
        if (k.ok()) key_bytes += k.value().size();
      }
    }
    const uint64_t t3 = NowNs();
    const double n = static_cast<double>(sample.size());
    enc.push_back(static_cast<double>(t1 - t0) / n);
    dec.push_back(static_cast<double>(t2 - t1) / n);
    key.push_back(static_cast<double>(t3 - t2) / n);
  }
  report->Attempt(sample.size());
  for (size_t i = 0; i < sample.size(); i++) {
    if (!decoded[i].ok() || !(decoded[i].value() == *sample[i])) {
      report->Wrong("ADM round trip of record " + std::to_string(i));
    }
  }
  if (key_bytes == 0 && !sample.empty()) report->Wrong("EncodeKey failed");
  return {Median(dec), Median(enc), Median(key), sample.size()};
}

/// LsmBTree::Open, Put of `entries` secondary-index-shaped entries
/// ((authorId, messageId) keys, empty values) into the memory component,
/// then NewIterator + Seek repeatedly. Returns the interquartile mean of
/// the NewIterator + Seek times in microseconds.
double MeasureIterOpen(GleambookData* data, uint64_t entries,
                       const std::string& dir, TraceLog* log, Report* report,
                       uint64_t* samples) {
  *samples = 0;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  asterix::storage::BufferCache cache(256);
  asterix::storage::LsmOptions o;
  o.dir = dir;
  o.name = "iterprobe";
  o.cache = &cache;
  o.mem_budget_bytes = size_t{1} << 40;  // never rotates: one component
  o.auto_flush = false;
  std::optional<Result<std::unique_ptr<asterix::storage::LsmBTree>>> opened;
  {
    SpanScope s(log, "storage.lsm.open", 0, 0);
    opened.emplace(asterix::storage::LsmBTree::Open(o));
  }
  report->Attempt();
  if (!opened->ok()) {
    report->Wrong("LsmBTree::Open: " + opened->status().ToString());
    return 0;
  }
  std::unique_ptr<asterix::storage::LsmBTree> tree =
      std::move(*opened).value();
  const int64_t users = std::max<int64_t>(1, data->users());
  {
    SpanScope s(log, "storage.lsm.put", 0, 0);
    for (uint64_t i = 0; i < entries; i++) {
      const int64_t id = static_cast<int64_t>(i);
      const int64_t author = id < data->messages() ? data->AuthorOf(id)
                                                   : id % users;
      std::string key;
      asterix::Status st =
          asterix::adm::EncodeKeyPart(Value::Int(author), &key);
      if (st.ok()) st = asterix::adm::EncodeKeyPart(Value::Int(id), &key);
      if (st.ok()) st = tree->Put(key, "");
      if (!st.ok()) {
        report->Wrong("LsmBTree::Put: " + st.ToString());
        return 0;
      }
    }
  }
  std::vector<double> us;
  const uint64_t deadline = NowNs() + 300'000'000;
  for (int i = 0; i < 2000 && (i < 20 || NowNs() < deadline); i++) {
    std::string seek;
    (void)asterix::adm::EncodeKeyPart(Value::Int(i % users), &seek);
    const uint64_t t0 = NowNs();
    auto it = tree->NewIterator();
    asterix::Status st = it.ok() ? it.value().Seek(seek) : it.status();
    const uint64_t t1 = NowNs();
    if (log != nullptr) log->Add("storage.lsm.iter_open", 0, 0, t0, t1);
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
    report->Attempt();
    if (!st.ok()) report->Wrong("NewIterator + Seek: " + st.ToString());
  }
  tree.reset();
  std::filesystem::remove_all(dir);
  *samples = us.size();
  return InterquartileMean(us);
}

}  // namespace

void ReportLayers(const LayerInputs& in,
                  std::vector<std::unique_ptr<TraceLog>> logs,
                  const RunOptions& opts, Report* report) {
  const std::vector<Span> spans = MergeLogs(logs);
  auto micro = std::make_unique<TraceLog>(0);
  TraceLog* micro_log = micro.get();
  logs.push_back(std::move(micro));
  const auto& m = in.measured;
  const auto& w = in.written;
  const double stmts = static_cast<double>(in.statements);
  std::map<std::string, SpanSummary> by_name;
  for (auto& s : Summarize(spans)) by_name[s.name] = s;
  auto span_mean = [&](const char* metric, const char* span) {
    const SpanSummary& s = by_name[span];
    report->Gated(metric, "us", s.mean_us, s.count);
  };

  span_mean("sqlpp.parse_us", "sqlpp.parse");
  span_mean("algebricks.optimize_us", "algebricks.optimize");
  span_mean("asterix.execute_us", "asterix.execute");
  uint64_t unowned_n = 0;
  const double unowned = UnownedUs(spans, &unowned_n);
  report->Gated("asterix.unowned_us", "us", unowned, unowned_n);
  span_mean("storage.get_us", "storage.get");

  const double probes = static_cast<double>(m.value("storage.bloom.probes"));
  report->Gated("storage.bloom.negative_ratio", "ratio",
                Ratio(static_cast<double>(m.value("storage.bloom.negatives")),
                      probes),
                m.value("storage.bloom.probes"));

  const uint64_t entries = in.measured_writes / kPartitions;
  uint64_t iter_n = 0;
  const double iter_us =
      MeasureIterOpen(in.data, entries, opts.dir + "/iterprobe", micro_log,
                      report, &iter_n);
  report->Gated("storage.lsm.iter_open_us", "us", iter_us, iter_n);
  report->Note("storage.lsm.iter_open_us: memory component of " +
               std::to_string(entries) +
               " secondary-index entries (measured writes / partitions)");

  const double hits = static_cast<double>(m.value("storage.buffer_cache.hits"));
  const double misses =
      static_cast<double>(m.value("storage.buffer_cache.misses"));
  report->Gated("storage.buffer_cache.hit_ratio", "ratio",
                Ratio(hits, hits + misses),
                static_cast<uint64_t>(hits + misses));
  report->Gated("storage.buffer_cache.misses_per_op", "count",
                Ratio(misses, stmts), in.statements);

  const double lsm_bytes =
      static_cast<double>(w.value("storage.lsm.flush_bytes") +
                          w.value("storage.lsm.merge_bytes"));
  report->Gated("storage.lsm.write_amp", "ratio",
                Ratio(lsm_bytes, static_cast<double>(in.user_bytes_written)),
                in.records_written);
  // Stalls and exchange waits are often exactly zero (no backpressure, no
  // exchange in the plan), so their times are reported ungated and the
  // stall count is the gated figure.
  const uint64_t stalls = w.value("storage.lsm.write_stalls") +
                          w.value("storage.lsm_rtree.write_stalls");
  report->Gated("storage.lsm.write_stalls", "count",
                static_cast<double>(stalls), in.records_written);
  report->Extra("storage.lsm.write_stall_ms", "ms",
                static_cast<double>(w.value("storage.lsm.write_stall_ns") +
                                    w.value("storage.lsm_rtree.write_stall_ns")) /
                    1e6,
                stalls);
  uint64_t components = 0;
  for (const char* ds : {"GleambookUsers", "GleambookMessages"}) {
    auto st = in.instance->DatasetStats(ds);
    if (st.ok()) components += st.value().disk_components;
  }
  report->Gated("storage.lsm.disk_components", "count",
                static_cast<double>(components), 2);
  report->Gated("storage.maintenance.tasks", "count",
                static_cast<double>(w.value("storage.maintenance.tasks_run")),
                1);

  const CodecCosts codec = MeasureCodec(in.data, micro_log, report);
  report->Gated("adm.decode_ns_per_rec", "ns", codec.decode_ns,
                codec.records);
  report->Gated("adm.encode_ns_per_rec", "ns", codec.encode_ns,
                codec.records);
  report->Gated("adm.key_encode_ns", "ns", codec.key_ns, codec.records);

  const double recs = static_cast<double>(in.records_written);
  report->Gated("txn.wal.bytes_per_rec", "B",
                Ratio(static_cast<double>(w.value("txn.wal.bytes")), recs),
                in.records_written);
  report->Gated("txn.wal.appends_per_op", "count",
                Ratio(static_cast<double>(w.value("txn.wal.appends")), recs),
                in.records_written);

  report->Gated(
      "hyracks.exchange.tuples_per_op", "count",
      Ratio(static_cast<double>(m.value("hyracks.exchange.tuples_sent")),
            stmts),
      in.statements);
  report->Extra(
      "hyracks.exchange.consumer_wait_ms_per_op", "ms",
      Ratio(static_cast<double>(m.value("hyracks.exchange.consumer_wait_ns")) /
                1e6,
            stmts),
      in.statements);
  report->Gated(
      "hyracks.spill.bytes_per_op", "B",
      Ratio(static_cast<double>(m.value("hyracks.spill.bytes_written")),
            stmts),
      in.statements);
  report->Gated(
      "hyracks.batch.fallback_share", "ratio",
      Ratio(static_cast<double>(m.value("hyracks.batch.fallback_batches")),
            static_cast<double>(m.value("hyracks.batch.batches_emitted"))),
      m.value("hyracks.batch.batches_emitted"));

  report->Gated("feeds.intake_blocked", "count",
                static_cast<double>(m.value("feeds.intake_blocked")), 1);
  uint64_t depth_n = 0;
  const double depth = BucketMedian(in.queue_depth, &depth_n);
  report->Gated("feeds.queue_depth_p50", "frames", depth, depth_n);
  report->Gated("trace.overhead_pct", "%", in.overhead_pct, in.statements);

  report->SetSpans(Summarize(MergeLogs(logs)));
  if (!opts.trace_out.empty() && !WriteTrace(opts.trace_out, logs)) {
    report->Note("could not write " + opts.trace_out);
  }
}

}  // namespace gb
