// gleambench: the Gleambook end-to-end benchmark driver.
//
//   gleambench --workload point_mix|scan_analytics|ingest_with_reads
//              --seed N --seconds S --trace 0|1 --dir DIR [--trace-out FILE]
//              [--guard-authors 0|1]
//
// Loads a seeded Gleambook store under DIR, runs the workload for S
// seconds, checks every answer, and prints a human-readable report followed
// by one "GB_REPORT {...}" JSON line. Exit status 0 only when every answer
// was right. perfbench/run.py builds this program and wraps its report.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gleambench: %s\nusage: gleambench --workload W --seed N "
               "--seconds S --trace 0|1 --dir DIR [--trace-out FILE] "
               "[--guard-authors 0|1]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  gb::RunOptions opts;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--dir") {
      opts.dir = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--guard-authors") {
      opts.guard_authors = value != "0";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.dir.empty()) Usage("--dir is required");
  if (!(opts.seconds > 0)) Usage("--seconds must be positive");
  void (*run)(const gb::RunOptions&, gb::Report*) = nullptr;
  if (opts.workload == "point_mix") {
    run = gb::RunPointMix;
  } else if (opts.workload == "scan_analytics") {
    run = gb::RunScanAnalytics;
  } else if (opts.workload == "ingest_with_reads") {
    run = gb::RunIngestWithReads;
  } else {
    Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  std::filesystem::remove_all(opts.dir);
  std::filesystem::create_directories(opts.dir);
  gb::Report report;
  run(opts, &report);
  report.Print(opts);
  std::filesystem::remove_all(opts.dir);
  return report.correct() && report.attempted() > 0 ? 0 : 1;
}
