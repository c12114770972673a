// Calls into the layers, timed from outside the program, and the per-layer
// metrics every workload reports from its traced run. Nothing here reaches
// into the program: timings come from spans around public calls, counts
// from metrics::Registry snapshot deltas.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asterix/instance.h"
#include "bench.h"
#include "data.h"

namespace gb {

/// Runs one SQL++ statement through Instance::Execute and returns its wall
/// time in `*wall_us`. With a trace log, the same text is first parsed
/// (sqlpp.parse span) and, for a query, translated and optimized
/// (algebricks.optimize span) from outside; the instance repeats both
/// internally. The Execute call gets an asterix.statement span, and a query
/// adds a child asterix.execute span of QueryResult::elapsed_ms, ending
/// where the statement ends (its duration is the program's; its position
/// is not measured).
asterix::Result<asterix::QueryResult> RunStatement(asterix::Instance* inst,
                                                   const std::string& sql,
                                                   bool query, TraceLog* log,
                                                   uint64_t request,
                                                   uint64_t parent,
                                                   double* wall_us);

/// Instance::GetByKey on an integer key, under a storage.get span.
asterix::Result<bool> TracedGet(asterix::Instance* inst, const char* dataset,
                                int64_t key, asterix::adm::Value* record,
                                TraceLog* log, uint64_t request,
                                uint64_t parent);

/// Registry histogram buckets of feeds.queue_depth (both scopes summed).
std::vector<uint64_t> QueueDepthBuckets();

/// Tracing overhead in percent: the median over traced slices of the
/// slice's mean latency against the mean of its two untraced neighbours,
/// which cancels a latency trend over the run (ingest grows the trees).
double OverheadPct(const std::vector<SliceSample>& samples);

/// What a workload hands over for the per-layer metrics.
struct LayerInputs {
  asterix::Instance* instance = nullptr;
  GleambookData* data = nullptr;
  /// Registry deltas over the measured phase, and over the kept set-up
  /// plus the measured phase (the write path's counters).
  asterix::metrics::MetricsSnapshot measured, written;
  uint64_t statements = 0;          // foreground statements measured
  uint64_t records_written = 0;     // set-up plus measured phase
  uint64_t user_bytes_written = 0;  // serialized ADM bytes of those
  uint64_t measured_writes = 0;     // records written in the measured phase
  /// feeds.queue_depth bucket deltas (empty when no feed ran).
  std::vector<uint64_t> queue_depth;
  double overhead_pct = 0;
};

/// Runs the micro-ops (ADM codec, LSM iterator open), adds every per-layer
/// metric and the span summary to the report, and writes the clients' and
/// micro-ops' spans to RunOptions::trace_out.
void ReportLayers(const LayerInputs& in,
                  std::vector<std::unique_ptr<TraceLog>> logs,
                  const RunOptions& opts, Report* report);

}  // namespace gb
