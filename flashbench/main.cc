// flashbench entry point.
//
//   flashbench --workload <pdl-update|pdl-read-mostly|opu-tpcc> --seed <n>
//              --seconds <s> --trace <0|1> [--tiny] [--inject-fault]
//   flashbench --stamp
//
// Prints an `info` line (sample counts, warmup stop reason, the
// deterministic vt_* figures) and, last, one JSON object with the keys
// correct / attempted / failed / metrics. With --trace 0 the metrics are the
// end-to-end set, with --trace 1 the per-layer set. Exits 1 when any
// correctness check failed, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

#ifndef FLASHBENCH_SOURCE_DIGEST
#define FLASHBENCH_SOURCE_DIGEST "unknown"
#endif
#ifndef FLASHBENCH_BUILD_TYPE
#define FLASHBENCH_BUILD_TYPE "unknown"
#endif

namespace flashbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The two metric sets of BENCHMARK.json, in print order. Every workload
// reports every metric; a layer a workload does not use reads 0 (for
// example pool.* on the pdl workloads, which run without a DBMS buffer).
// Units "vus" and "1/vs" are microseconds and per-second rates of the
// device model's virtual clock; "s", "us", "ns" and "1/s" are host time.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"host_ops_per_s", "1/s"},
    {"vt_us_per_op", "vus"},
    {"vt_read_us_per_op", "vus"},
    {"vt_write_us_per_op", "vus"},
    {"vt_ops_per_s", "1/vs"},
    {"vt_p50_us", "vus"},
    {"vt_p999_us", "vus"},
    {"erases_per_kop", "count"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"setup.load_s", "s"},
    {"setup.warmup_s", "s"},
    {"setup.warmup_ops", "count"},
    {"setup.warmup_erases_per_block", "count"},
    {"setup.warmup_hit_cap", "bool"},
    {"workload.cpu_us_per_op", "us"},
    {"store.read_us", "us"},
    {"store.read_calls_per_op", "count"},
    {"store.writeback_us", "us"},
    {"store.writeback_calls_per_op", "count"},
    {"store.flush_us", "us"},
    {"store.wall_share", "ratio"},
    {"flash.reads_per_op", "count"},
    {"flash.programs_per_op", "count"},
    {"flash.erases_per_op", "count"},
    {"flash.read_page_ns", "ns"},
    {"flash.program_page_ns", "ns"},
    {"flash.verified_read_ns", "ns"},
    {"crc.page_ns", "ns"},
    {"pdl.compute_diff_ns", "ns"},
    {"pdl.apply_diff_ns", "ns"},
    {"pdl.programs_per_writeback", "count"},
    {"gc.vt_us_per_op", "vus"},
    {"gc.copies_per_op", "count"},
    {"gc.erases_per_op", "count"},
    {"gc.worst_op_gc_us", "vus"},
    {"meta.vt_us_per_op", "vus"},
    {"executor.parallelism", "ratio"},
    {"executor.worker_cpu_imbalance", "ratio"},
    {"executor.credit_wait_share", "ratio"},
    {"pool.hit_rate", "ratio"},
    {"pool.misses_per_txn", "count"},
    {"pool.evictions_per_txn", "count"},
    {"pool.dirty_writebacks_per_txn", "count"},
    {"storage.self_cpu_us_per_txn", "us"},
    {"trace.overhead", "ratio"},
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "flashbench: %s\nusage: flashbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--inject-fault]\n"
               "       flashbench --stamp\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace flashbench

int main(int argc, char** argv) {
  using namespace flashbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flashbench: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--stamp") {
      std::printf("{\"source_digest\": \"%s\", \"build_type\": \"%s\"}\n",
                  FLASHBENCH_SOURCE_DIGEST, FLASHBENCH_BUILD_TYPE);
      return 0;
    } else if (a == "--workload") {
      opts.workload = value("--workload");
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value("--seed"), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(value("--seconds"));
    } else if (a == "--trace") {
      opts.trace = std::atoi(value("--trace")) != 0;
    } else if (a == "--tiny") {
      opts.tiny = true;
    } else if (a == "--inject-fault") {
      opts.inject_fault = true;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");

  Report report;
  if (opts.workload == "pdl-update") {
    report = RunPdlWorkload(opts, /*pct_update_ops=*/100.0);
  } else if (opts.workload == "pdl-read-mostly") {
    report = RunPdlWorkload(opts, /*pct_update_ops=*/10.0);
  } else if (opts.workload == "opu-tpcc") {
    report = RunTpccWorkload(opts);
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }

  // A metric the workload forgot, one outside the tables, or one that is not
  // a finite number is a benchmark defect: fail the run rather than print a
  // partial object.
  const std::vector<MetricSpec>& set = opts.trace ? kPerLayer : kEndToEnd;
  for (const MetricSpec& m : set) {
    auto it = report.metrics.find(m.name);
    if (it == report.metrics.end() || !std::isfinite(it->second)) {
      report.Fail(std::string("metric not measured: ") + m.name);
    }
  }
  for (const auto& [name, value] : report.metrics) {
    bool known = false;
    for (const std::vector<MetricSpec>* s : {&kEndToEnd, &kPerLayer}) {
      for (const MetricSpec& m : *s) known = known || name == m.name;
    }
    if (!known) report.Fail("metric outside the tables: " + name);
  }
  if (report.attempted == 0) report.Fail("no operation attempted");

  const uint64_t failed = report.failed + report.unverifiable;
  std::string info = "{\"workload\": \"" + opts.workload +
                     "\", \"seed\": " + std::to_string(opts.seed) +
                     ", \"source_digest\": \"" FLASHBENCH_SOURCE_DIGEST
                     "\", \"build_type\": \"" FLASHBENCH_BUILD_TYPE
                     "\", \"failed_op_share\": " +
                     Num(report.attempted == 0
                             ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(report.attempted));
  for (const auto& [key, json] : report.info) {
    info += ", \"" + key + "\": " + json;
  }
  info += "}";
  std::printf("info %s\n", info.c_str());
  if (!report.correct) {
    std::fprintf(stderr, "flashbench: correctness check failed: %s\n",
                 report.error.c_str());
  }

  std::string out = std::string("{\"correct\": ") +
                    (report.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : set) {
    auto it = report.metrics.find(m.name);
    const double v = it == report.metrics.end() ? 0.0 : it->second;
    out += std::string(first ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " + (std::isfinite(v) ? Num(v) : "0") +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return report.correct && failed == 0 ? 0 : 1;
}
