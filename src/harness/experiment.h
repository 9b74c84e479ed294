// Shared experiment plumbing: builds a device + store + driver for a method,
// loads the database, reaches steady state, and measures a workload point.
//
// Scale note: the paper runs a 1 GB database on a 2 GB chip and warms up
// until every block was garbage-collected >= 10 times. Virtual-time results
// per operation are scale-invariant once steady state is reached, so benches
// default to a smaller chip with the same 50% utilization; pass
// --blocks=32768 --warmup-epb=10 (and a large --warmup-max) for paper scale.

#ifndef FLASHDB_HARNESS_EXPERIMENT_H_
#define FLASHDB_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "methods/method_factory.h"
#include "obs/trace_recorder.h"
#include "workload/update_driver.h"

namespace flashdb::harness {

/// Environment shared by every workload point of an experiment.
struct ExperimentEnv {
  flash::FlashConfig flash_cfg;
  /// Fraction of flash data capacity occupied by the database (paper: 0.5).
  double utilization = 0.5;
  /// Steady-state warm-up: average erases per block before measuring.
  double warmup_erases_per_block = 10.0;
  /// Warm-up operation cap; 0 = "20 update operations per database page",
  /// which matches the depth the paper's 10-erases-per-block protocol
  /// reaches at its scale (~10.5M ops over 512K pages). The cap matters for
  /// PDL(2KB): differentials grow cumulatively with the number of updates a
  /// page has absorbed since its last base-page write, so the operating
  /// point depends on update depth, not just on GC steady state (see
  /// bench/ablation_warmup_depth).
  uint64_t warmup_max_ops = 0;
  uint64_t measure_ops = 4000;
  uint64_t seed = 42;
  /// Measured-run execution mode (--pipeline=K). 0 runs the plain
  /// sequential Run() loop. K > 0 pre-draws the schedule and streams it
  /// depth-K to a one-worker ShardExecutor via UpdateDriver::Execute with
  /// window size 1 -- the single-chip threaded mode, bit-identical to
  /// sequential (single-op windows read every page from flash and flush
  /// immediately, so scheduled execution degenerates to exactly the Run()
  /// sequence).
  uint32_t pipeline_depth = 0;
  /// When non-empty (--trace=out.json), every measured point records a
  /// deterministic event timeline (flash command spans, GC/scrub/meta/
  /// buffer-pool traffic, op spans) and exports it as Chrome trace-event
  /// JSON: the first point to `trace_path`, point k to `<stem>.k.<ext>`.
  /// Recording never changes virtual-time results (null-sink contract,
  /// pinned by tests/trace_test.cc).
  std::string trace_path;

  /// Database pages for a single chip of `flash_cfg` (Rig::db_pages() of a
  /// flat rig).
  uint32_t num_db_pages() const;

  /// Common bench flags: --blocks, --page-size, --util, --warmup-epb,
  /// --warmup-max, --ops, --seed, --tread, --twrite, --terase, --dies,
  /// --planes, --pipeline, --trace.
  static ExperimentEnv FromFlags(const Flags& flags);
};

/// A store at the paper's measurement state (section 5.1): one method on one
/// chip or on several, loaded at `env.utilization` and warmed up to
/// `env.warmup_erases_per_block`. Every bench that measures an update
/// workload builds it the same way, in two steps:
///
///   FLASHDB_ASSIGN_OR_RETURN(Rig rig, Rig::Sharded(env, spec, shards));
///   // optional: rig.sharded()->router()->EnableRebalancing(...)
///   FLASHDB_RETURN_IF_ERROR(rig.LoadAndWarm(params));
///   // optional: fault injectors / trace lanes through devices()
///   const workload::Schedule s = rig.driver()->MakeSchedule(env.measure_ops);
///
/// Two rigs built and warmed from identical arguments hold identical flash
/// images and clocks; every bench's determinism replay relies on that. The
/// rig does not pre-draw the schedule: a sequential Run() draws its ops
/// itself, so a scheduled replay must call MakeSchedule at the same point.
class Rig {
 public:
  /// One device of `env.flash_cfg` and one `spec` store over it.
  static Rig Flat(const ExperimentEnv& env, const methods::MethodSpec& spec);
  /// `shards` chips sharing `env.flash_cfg.geometry.num_blocks` evenly.
  /// InvalidArgument below 8 blocks per chip: the reserve alone would eat
  /// most of such a chip, and GC at 50% utilization thrashes.
  static Result<Rig> Sharded(const ExperimentEnv& env,
                             const methods::MethodSpec& spec,
                             uint32_t shards);

  /// Creates the driver (with `params.seed = env.seed`), loads db_pages()
  /// pages and warms up to `env.warmup_erases_per_block`, capped at
  /// `env.warmup_max_ops` (0 = 20 update operations per database page).
  Status LoadAndWarm(workload::WorkloadParams params);

  PageStore* store() const;
  /// The multi-chip store; null on a flat rig.
  ftl::ShardedStore* sharded() const { return sharded_.get(); }
  /// Null until LoadAndWarm.
  workload::UpdateDriver* driver() const { return driver_.get(); }
  /// Every chip, in shard order (one on a flat rig).
  std::vector<flash::FlashDevice*> devices() const;
  /// Per-chip virtual clocks, in shard order.
  std::vector<uint64_t> clocks() const;
  /// util x (per-chip pages - 2 blocks) x chips, rounded down once. Two
  /// blocks of headroom per chip keep IPL(64KB) feasible at 50% utilization:
  /// its per-block log region (half the block) means the database occupies
  /// the whole chip, and merging still needs one spare block.
  uint32_t db_pages() const { return db_pages_; }

  /// Attaches lane i of `rec` to chip i and its wall lane to the driver;
  /// attach after LoadAndWarm so the timeline covers the measured run only.
  /// Recording never perturbs virtual time (null-sink contract).
  void AttachTrace(obs::TraceRecorder* rec) const;

 private:
  Rig(const ExperimentEnv& env, const flash::FlashGeometry& chip,
      uint32_t chips);

  ExperimentEnv env_;
  uint32_t db_pages_ = 0;
  std::unique_ptr<flash::FlashDevice> flat_dev_;
  std::unique_ptr<PageStore> flat_store_;
  std::unique_ptr<ftl::ShardedStore> sharded_;
  std::unique_ptr<workload::UpdateDriver> driver_;
};

/// One measured point: a method under a workload.
struct PointResult {
  std::string method;
  workload::RunStats stats;
};

/// Measures `env.measure_ops` operations on a warmed flat rig for `spec`.
Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params);

/// Per-point trace file naming under --trace: index 0 keeps `base`, index k
/// becomes `<stem>.k.<ext>` (benches measure several points per run, each
/// with its own timeline).
std::string PointTracePath(const std::string& base, uint64_t index);

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_EXPERIMENT_H_
