// The three workloads. Each loads its own seeded store, drives it closed
// loop for RunOptions::seconds, checks every answer against ground truth
// computed from the generator's records, and fills the report: end-to-end
// metrics without tracing, per-layer metrics with it.
#pragma once

#include "bench.h"

namespace gb {

void RunPointMix(const RunOptions& opts, Report* report);
void RunScanAnalytics(const RunOptions& opts, Report* report);
void RunIngestWithReads(const RunOptions& opts, Report* report);

}  // namespace gb
