// Experiment 15 (beyond the paper): per-operation latency tails.
//
// The paper (and exp1-exp14) reports mean cost per update; a serving system
// lives and dies by its tail, where GC, wear-leveling migration, journal
// writes, and scrub stalls concentrate. This bench sweeps method x run mode
// x pipeline depth x core pinning x background work and reports the
// virtual-time latency distribution recorded by the driver
// (WorkloadParams::record_latency): p50/p99/p999/mean/max in microseconds,
// plus the worst single operation and where its time went (gc/meta).
//
// Row layout per method ({OPU, PDL(256B)}):
//   * seq   shards=1          -- the plain sequential Run() loop;
//   * pipe  shards=1 K=1,4    -- the same ops through the single-worker
//     pipelined mode (window size 1). These three rows' virtual columns are
//     identical by construction: single-op windows read every page from
//     flash and flush immediately, so scheduled execution degenerates to
//     the sequential sequence. The table shows that equality directly.
//   * pipe  shards=4 K=4      -- multi-chip pipelining (batch --batch);
//   * ... pin=on              -- same point with workers pinned to cores
//     (wall-clock knob only: virtual columns must equal the unpinned row);
//   * ... extra=wear          -- wear-leveling rebalancer on (epoch --epoch),
//     migrations at epoch boundaries;
//   * ... extra=scrub         -- bit-error injector (--ber) plus background
//     scrub at epoch boundaries.
//
// Every row carries a determinism cross-check: an identically prepared rig
// replays the same operations through a *different* run mode (sequential
// rows via a single-worker threaded Execute; pipelined rows via an inline
// Execute) and
// the whole latency histogram, the worst-op sample, and the per-chip
// virtual clocks must match bit-for-bit. The perf gate requires `ok` in
// every row and bands the p50/p99/p999 columns tightly against the
// baseline; wall_ms is machine-relative and stays warn-only.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cpu_affinity.h"
#include "flash/fault_injector.h"
#include "ftl/shard_executor.h"
#include "ftl/shard_router.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "obs/metrics_import.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

/// One swept cell.
struct Config {
  const char* mode;   // "seq" or "pipe"
  uint32_t shards;
  uint32_t depth;     // pipelined in-flight windows (0 = sequential)
  bool pin;
  const char* extra;  // "-", "wear", "scrub"
};

struct LatencyPoint {
  workload::RunStats stats;
  double wall_ms = 0;
  bool deterministic = true;
  bool checked = false;
  /// Replay's deterministic event stream byte-identical to the primary's.
  bool trace_ok = true;
};

/// Runs one cell in its own mode, then (with `check`) replays the identical
/// operations through a different mode on an identically prepared rig and
/// compares chip clocks, the full histogram, the worst-op sample, and the
/// canonical event trace. With a --trace path, exports the primary run's
/// timeline as Chrome trace JSON.
Result<LatencyPoint> RunPoint(const harness::ExperimentEnv& env,
                              const methods::MethodSpec& spec,
                              const Config& cfg, uint32_t batch_size,
                              size_t queue_capacity, uint64_t epoch_ops,
                              double hot_pct, uint32_t disturb_limit,
                              double ber, bool check, uint64_t point_index,
                              obs::MetricsRegistry* metrics) {
  const bool scrubbing = std::string(cfg.extra) == "scrub";
  const bool leveling = std::string(cfg.extra) == "wear";
  harness::ExperimentEnv rig_env = env;
  if (scrubbing) rig_env.flash_cfg.read_disturb_limit = disturb_limit;
  workload::WorkloadParams params;
  params.record_latency = true;
  if (leveling) {
    params.rebalance_epoch_ops = epoch_ops;
    params.hot_shard_pct = hot_pct;  // gives the rebalancer something to level
  }
  if (scrubbing) {
    params.rebalance_epoch_ops = epoch_ops;
    params.scrub = true;
  }
  // Identical calls yield identical steady-state rigs: flat at one shard
  // (the "no ShardedStore required" pipelined path), sharded otherwise. The
  // injector is attached after warmup, so every point measures the same
  // warmed flash image.
  auto warm_rig = [&](flash::FaultInjector* injector) -> Result<harness::Rig> {
    Result<harness::Rig> built =
        cfg.shards == 1 ? harness::Rig::Flat(rig_env, spec)
                        : harness::Rig::Sharded(rig_env, spec, cfg.shards);
    FLASHDB_ASSIGN_OR_RETURN(harness::Rig rig, std::move(built));
    if (leveling) {
      if (rig.sharded() == nullptr) {
        return Status::InvalidArgument("extra=wear needs --shards > 1");
      }
      FLASHDB_RETURN_IF_ERROR(
          rig.sharded()->router()->EnableRebalancing(ftl::WearLevelConfig{}));
    }
    FLASHDB_RETURN_IF_ERROR(rig.LoadAndWarm(params));
    if (scrubbing) {
      for (flash::FlashDevice* dev : rig.devices()) {
        dev->set_fault_injector(injector);
      }
    }
    return rig;
  };

  // Each rig gets its own injector so retry-attenuation RNG state never
  // leaks between the primary run and the replay.
  flash::BitErrorInjector::Params inj_params;
  inj_params.page_error_rate = ber;
  flash::BitErrorInjector primary_injector(inj_params);
  flash::BitErrorInjector replay_injector(inj_params);

  // Single-op windows make the shards=1 rows bit-identical to the
  // sequential Run() loop; multi-chip rows use the windowed batch size.
  const uint32_t batch = cfg.shards == 1 ? 1 : batch_size;

  LatencyPoint point;
  FLASHDB_ASSIGN_OR_RETURN(harness::Rig run, warm_rig(&primary_injector));
  // Post-warmup attach: the timeline covers exactly the measured ops.
  obs::TraceRecorder recorder(cfg.shards);
  run.AttachTrace(&recorder);
  if (cfg.depth == 0) {
    const auto t0 = std::chrono::steady_clock::now();
    FLASHDB_RETURN_IF_ERROR(
        run.driver()->Run(env.measure_ops, &point.stats));
    point.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  } else {
    // The schedule is drawn here, not in the rig: the sequential rows draw
    // their ops inside Run(), and a scheduled rig must draw at this exact
    // RNG point to execute the very same operations.
    const workload::Schedule schedule =
        run.driver()->MakeSchedule(env.measure_ops);
    // Workers spawn (and pin) outside the timed region; the measured span
    // is pure submit/execute/complete.
    ftl::ShardExecutor executor(
        cfg.shards, queue_capacity,
        cfg.pin ? RoundRobinWorkerCores(cfg.shards) : std::vector<int>{});
    const auto t0 = std::chrono::steady_clock::now();
    FLASHDB_RETURN_IF_ERROR(run.driver()->Execute(
        schedule, batch, cfg.depth, &executor, &point.stats));
    point.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  }

  // The primary run's figures for the metrics object; trace.emitted counts
  // the deterministic lanes only (credit waits report as trace.wall_*).
  obs::ImportRunStats(metrics, "run", point.stats);
  obs::ImportTraceStats(metrics, "trace", recorder);
  if (!env.trace_path.empty()) {
    FLASHDB_RETURN_IF_ERROR(recorder.WriteChromeTraceFile(
        harness::PointTracePath(env.trace_path, point_index)));
  }

  if (check) {
    FLASHDB_ASSIGN_OR_RETURN(harness::Rig ref, warm_rig(&replay_injector));
    obs::TraceRecorder ref_recorder(cfg.shards);
    ref.AttachTrace(&ref_recorder);
    workload::RunStats ref_stats;
    const workload::Schedule ref_schedule =
        ref.driver()->MakeSchedule(env.measure_ops);
    if (cfg.depth == 0) {
      // Sequential rows replay through a single-worker threaded Execute --
      // the cross-mode proof the flat path exists for.
      ftl::ShardExecutor executor(1, queue_capacity);
      FLASHDB_RETURN_IF_ERROR(
          ref.driver()->Execute(ref_schedule, 1, 4, &executor, &ref_stats));
    } else {
      FLASHDB_RETURN_IF_ERROR(
          ref.driver()->Execute(ref_schedule, batch, 0, nullptr, &ref_stats));
    }
    point.checked = true;
    point.deterministic = ref.clocks() == run.clocks() &&
                          ref_stats.latency == point.stats.latency &&
                          ref_stats.worst_op == point.stats.worst_op;
    // The trace-determinism contract: the two modes' deterministic event
    // streams must agree byte-for-byte (wall-domain events excluded).
    point.trace_ok =
        ref_recorder.CanonicalBytes() == recorder.CanonicalBytes();
  }
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
  const uint32_t depth = static_cast<uint32_t>(flags.GetInt("depth", 4));
  const size_t queue_capacity = static_cast<size_t>(flags.GetInt("queue", 8));
  const uint64_t epoch_ops =
      static_cast<uint64_t>(flags.GetInt("epoch", 500));
  const double hot_pct = flags.GetDouble("hot", 60.0);
  const double ber = flags.GetDouble("ber", 0.01);
  const uint32_t disturb_limit =
      static_cast<uint32_t>(flags.GetInt("disturb-limit", 48));
  const bool check = flags.GetBool("check", true);

  std::printf(
      "Experiment 15: per-operation latency tails, %u blocks total, "
      "%llu ops\n(virtual-time percentiles in us; seq and shards=1 pipe "
      "rows are bit-identical by\n construction; pin rows may only move "
      "wall_ms; extra=wear/scrub add epoch work\n every %llu ops)\n\n",
      env.flash_cfg.geometry.num_blocks,
      static_cast<unsigned long long>(env.measure_ops),
      static_cast<unsigned long long>(epoch_ops));

  const std::vector<Config> configs = {
      {"seq", 1, 0, false, "-"},
      {"pipe", 1, 1, false, "-"},
      {"pipe", 1, 4, false, "-"},
      {"pipe", num_shards, depth, false, "-"},
      {"pipe", num_shards, depth, true, "-"},
      {"pipe", num_shards, depth, false, "wear"},
      {"pipe", num_shards, depth, false, "scrub"},
  };

  const std::vector<std::string> method_names = {"OPU", "PDL(256B)"};
  TablePrinter tbl({"Method", "mode", "shards", "K", "pin", "extra",
                    "p50 us", "p99 us", "p999 us", "mean us", "max us",
                    "worst us", "w_gc us", "w_meta us", "wall_ms",
                    "determinism", "trace"});
  obs::MetricsRegistry metrics;
  int failures = 0;
  uint64_t point_index = 0;
  for (const std::string& name : method_names) {
    auto spec = methods::ParseMethodSpec(name);
    if (!spec.ok()) {
      std::cerr << spec.status().ToString() << "\n";
      return 1;
    }
    for (const Config& cfg : configs) {
      auto point = RunPoint(env, *spec, cfg, batch_size, queue_capacity,
                            epoch_ops, hot_pct, disturb_limit, ber, check,
                            point_index, &metrics);
      if (!point.ok()) {
        std::cerr << name << " " << cfg.mode << " shards=" << cfg.shards
                  << " K=" << cfg.depth << " extra=" << cfg.extra << ": "
                  << point.status().ToString() << "\n";
        return 1;
      }
      if (point->checked && (!point->deterministic || !point->trace_ok)) {
        failures++;
      }
      const workload::LatencyHistogram& h = point->stats.latency;
      tbl.AddRow({name, cfg.mode, std::to_string(cfg.shards),
                  cfg.depth == 0 ? "-" : std::to_string(cfg.depth),
                  cfg.pin ? "on" : "off", cfg.extra,
                  std::to_string(h.p50()), std::to_string(h.p99()),
                  std::to_string(h.p999()), TablePrinter::Num(h.mean(), 1),
                  std::to_string(h.max()),
                  std::to_string(point->stats.worst_op.total_us),
                  std::to_string(point->stats.worst_op.gc_us),
                  std::to_string(point->stats.worst_op.meta_us),
                  TablePrinter::Num(point->wall_ms, 2),
                  point->checked ? (point->deterministic ? "ok" : "FAIL")
                                 : "-",
                  point->checked ? (point->trace_ok ? "ok" : "FAIL") : "-"});
      // One epoch per measured row: the registry's time series doubles as a
      // machine-readable form of the whole sweep.
      metrics.SnapshotEpoch(point_index);
      ++point_index;
    }
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("exp15_latency", tbl);
  json.AddRaw("metrics", metrics.ToJson());
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " configuration(s) broke latency or trace determinism\n";
    return 1;
  }
  return 0;
}
