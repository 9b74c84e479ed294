// Experiment 10 (beyond the paper): continuous cross-shard pipelining under
// skew -- UpdateDriver::Execute's round-robin submission with bounded
// per-shard credits, against the inline execution of the same schedule.
//
// The workload deliberately skews the pid distribution: --hot percent of the
// operations target shard 0's residue class (pid % S == 0), making chip 0 a
// hotspot the way a hot relation pins one flash channel. The inline row runs
// every shard's windows on the calling thread, so its wall-clock is the *sum*
// of the shard workloads. The pipelined rows stream windows round-robin to
// one executor worker per shard with at most K in flight per shard, so the
// cold chips overlap the hot one and wall-clock tracks the *max*.
//
// For PDL(256B) and OPU the bench reports, per mode (inline, pipelined with
// K in --depth):
//   * wall_ms / kops_s -- host wall-clock over the measured ops, minimum over
//     --reps identically prepared executions;
//   * speedup          -- inline wall-clock over this mode (1.00x for the
//     inline row itself; > 1 means the threads paid off);
//   * lag_ms           -- shard clock spread max-min (virtual time) at the
//     end of the run: how far the hot chip ran ahead, the skew observable;
//   * par us/op        -- elapsed virtual time (max of the chip clocks);
//   * p50/p99/p999     -- per-op virtual-time latency percentiles
//     (deterministic; identical whether or not --pin is set);
//   * determinism      -- every rep's per-chip virtual clocks and latency
//     histogram must match the inline row's bit-for-bit (ok/FAIL); on the
//     inline row, the reps must match each other.
//
// Expected shape: pipelined K>=2 beats inline by up to (total work)/(hot
// shard work); K=1 leaves the workers briefly idle between windows;
// determinism always ok.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/cpu_affinity.h"
#include "ftl/shard_executor.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

struct PipelinePoint {
  double wall_ms = 0;
  double kops_per_sec = 0;
  double parallel_us_per_op = 0;
  double lag_ms = 0;
  // Stall attribution: gc/meta are induced virtual-time device traffic
  // (deterministic); wait_ms is the wall-clock the producer spent waiting
  // for per-shard credits (pipelined rows only, min over reps, noisy --
  // reported, never gated).
  double gc_us_per_op = 0;
  double meta_us_per_op = 0;
  double wait_ms = 0;
  // Per-op virtual-time latency percentiles (deterministic, gateable).
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
  // The determinism oracle's inputs: every rep must reproduce them.
  std::vector<uint64_t> clocks;
  workload::LatencyHistogram latency;
  bool reps_agree = true;
};

/// One measured point. `depth` == 0 runs the schedule inline; > 0 runs it
/// threaded with that in-flight depth per shard. Wall-clock is the minimum
/// over `reps` identically prepared executions (min, not mean: scheduler and
/// frequency noise only ever adds time); virtual-time metrics must be
/// identical across reps.
Result<PipelinePoint> RunPoint(const harness::ExperimentEnv& env,
                               const methods::MethodSpec& spec,
                               uint32_t num_shards, uint32_t batch_size,
                               uint32_t depth, uint32_t reps,
                               const workload::WorkloadParams& params,
                               bool pin, obs::MetricsRegistry* metrics) {
  PipelinePoint point;
  // Pinning is a wall-clock-only knob.
  const std::vector<int> pin_cores =
      pin ? RoundRobinWorkerCores(num_shards) : std::vector<int>{};
  for (uint32_t rep = 0; rep < reps; ++rep) {
    FLASHDB_ASSIGN_OR_RETURN(harness::Rig run,
                             harness::Rig::Sharded(env, spec, num_shards));
    FLASHDB_RETURN_IF_ERROR(run.LoadAndWarm(params));
    const workload::Schedule schedule =
        run.driver()->MakeSchedule(env.measure_ops);
    ftl::ShardedStore* store = run.sharded();
    const uint64_t parallel0 = store->parallel_time_us();

    // Workers spawn outside the timed region; the measured span is pure
    // submit/execute/complete. The inline row leaves them idle, so its
    // executor counters read 0.
    ftl::ShardExecutor executor(num_shards, /*queue_capacity=*/1024,
                                pin_cores);
    workload::RunStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    FLASHDB_RETURN_IF_ERROR(run.driver()->Execute(
        schedule, batch_size, depth, depth == 0 ? nullptr : &executor,
        &stats));
    const auto t1 = std::chrono::steady_clock::now();

    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || wall_ms < point.wall_ms) point.wall_ms = wall_ms;
    const double wait_ms = static_cast<double>(stats.credit_wait_ns) / 1e6;
    if (rep == 0 || wait_ms < point.wait_ms) point.wait_ms = wait_ms;
    if (rep == 0) {
      point.clocks = run.clocks();
      point.latency = stats.latency;
    } else if (run.clocks() != point.clocks ||
               !(stats.latency == point.latency)) {
      point.reps_agree = false;
    }
    point.parallel_us_per_op =
        static_cast<double>(store->parallel_time_us() - parallel0) /
        static_cast<double>(env.measure_ops);
    point.lag_ms = static_cast<double>(store->shard_lag_us()) / 1000.0;
    const double ops = static_cast<double>(env.measure_ops);
    point.gc_us_per_op = static_cast<double>(stats.gc.total_us()) / ops;
    point.meta_us_per_op = static_cast<double>(stats.meta.total_us()) / ops;
    point.p50_us = stats.latency.p50();
    point.p99_us = stats.latency.p99();
    point.p999_us = stats.latency.p999();
    // Uniform metrics object: run breakdown + the executor's per-worker
    // counters (final: Execute drained the workers) and the store's clock
    // skew.
    if (rep == reps - 1) {
      obs::ImportRunStats(metrics, "run", stats);
      obs::ImportExecutorStats(metrics, "executor", executor);
      obs::ImportShardedStoreStats(metrics, "store", *store);
    }
  }
  point.kops_per_sec =
      point.wall_ms > 0
          ? static_cast<double>(env.measure_ops) / point.wall_ms
          : 0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  if (env.measure_ops == 0) {
    std::cerr << "--ops must be > 0\n";
    return 1;
  }
  const uint32_t num_shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  const uint32_t batch_size = static_cast<uint32_t>(flags.GetInt("batch", 8));
  const uint32_t reps =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("reps", 1)));
  const bool pin = flags.GetBool("pin", false);

  workload::WorkloadParams params;
  params.pct_changed_by_one_op = flags.GetDouble("changed", 2.0);
  params.updates_till_write =
      static_cast<uint32_t>(flags.GetInt("updates", 1));
  params.hot_shard_pct = flags.GetDouble("hot", 60.0);
  // Tail percentiles are virtual-time deltas: recording them never perturbs
  // the clocks (LatencyHistogramTest.RecordingNeverChangesVirtualTime).
  params.record_latency = true;

  std::vector<uint32_t> depths;
  if (flags.Has("depth")) {
    depths.push_back(static_cast<uint32_t>(flags.GetInt("depth", 2)));
  } else {
    depths = {1, 2, 4, 8};
  }

  std::printf(
      "Experiment 10: cross-shard pipelining under skew, %u shards, "
      "%u blocks total, %llu ops\n(%.0f%% of ops pinned to shard 0; "
      "batch %u;\n speedup = inline wall-clock over this mode)\n\n",
      num_shards, env.flash_cfg.geometry.num_blocks,
      static_cast<unsigned long long>(env.measure_ops), params.hot_shard_pct,
      batch_size);

  const std::vector<std::string> method_names = {"PDL(256B)", "OPU"};
  TablePrinter tbl({"Method", "Mode", "K", "wall_ms", "kops/s", "speedup",
                    "lag_ms", "par us/op", "gc us/op", "meta us/op",
                    "wait_ms", "p50 us", "p99 us", "p999 us",
                    "determinism"});
  obs::MetricsRegistry metrics;
  uint64_t point_index = 0;
  int failures = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    // depth 0 = the inline reference row, then the pipelined sweep.
    std::vector<uint32_t> points;
    points.push_back(0);
    points.insert(points.end(), depths.begin(), depths.end());
    PipelinePoint inline_point;
    for (uint32_t depth : points) {
      auto point = RunPoint(env, *spec, num_shards, batch_size, depth, reps,
                            params, pin, &metrics);
      metrics.SnapshotEpoch(point_index++);
      if (!point.ok()) {
        std::cerr << name << " depth " << depth << ": "
                  << point.status().ToString() << "\n";
        return 1;
      }
      if (depth == 0) inline_point = *point;
      const bool deterministic =
          point->reps_agree && point->clocks == inline_point.clocks &&
          point->latency == inline_point.latency;
      if (!deterministic) failures++;
      const double speedup =
          point->wall_ms > 0 ? inline_point.wall_ms / point->wall_ms : 0;
      tbl.AddRow({name, depth == 0 ? "inline" : "pipelined",
                  depth == 0 ? "-" : std::to_string(depth),
                  TablePrinter::Num(point->wall_ms, 2),
                  TablePrinter::Num(point->kops_per_sec),
                  TablePrinter::Num(speedup, 2) + "x",
                  TablePrinter::Num(point->lag_ms, 1),
                  TablePrinter::Num(point->parallel_us_per_op),
                  TablePrinter::Num(point->gc_us_per_op),
                  TablePrinter::Num(point->meta_us_per_op),
                  TablePrinter::Num(point->wait_ms, 2),
                  std::to_string(point->p50_us),
                  std::to_string(point->p99_us),
                  std::to_string(point->p999_us),
                  deterministic ? "ok" : "FAIL"});
    }
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("exp10_pipeline", tbl);
  json.AddRaw("metrics", metrics.ToJson());
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke virtual-time determinism\n";
    return 1;
  }
  return 0;
}
