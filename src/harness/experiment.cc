#include "harness/experiment.h"

#include <cstdio>

#include "ftl/shard_executor.h"

namespace flashdb::harness {

std::string PointTracePath(const std::string& base, uint64_t index) {
  if (index == 0) return base;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%llu",
                static_cast<unsigned long long>(index));
  const size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

ExperimentEnv ExperimentEnv::FromFlags(const Flags& flags) {
  ExperimentEnv env;
  env.flash_cfg = flash::FlashConfig::Small(
      static_cast<uint32_t>(flags.GetInt("blocks", 128)));
  env.flash_cfg.geometry.data_size =
      static_cast<uint32_t>(flags.GetInt("page-size", 2048));
  env.flash_cfg.timing.read_us =
      static_cast<uint32_t>(flags.GetInt("tread", 110));
  env.flash_cfg.timing.write_us =
      static_cast<uint32_t>(flags.GetInt("twrite", 1010));
  env.flash_cfg.timing.erase_us =
      static_cast<uint32_t>(flags.GetInt("terase", 1500));
  env.flash_cfg.geometry.dies_per_chip =
      static_cast<uint32_t>(flags.GetInt("dies", 1));
  env.flash_cfg.geometry.planes_per_die =
      static_cast<uint32_t>(flags.GetInt("planes", 1));
  env.utilization = flags.GetDouble("util", 0.5);
  env.warmup_erases_per_block = flags.GetDouble("warmup-epb", 10.0);
  env.warmup_max_ops =
      static_cast<uint64_t>(flags.GetInt("warmup-max", 0));
  env.measure_ops = static_cast<uint64_t>(flags.GetInt("ops", 4000));
  env.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  env.pipeline_depth =
      static_cast<uint32_t>(flags.GetInt("pipeline", 0));
  env.trace_path = flags.GetString("trace", "");
  return env;
}

namespace {

/// The one database-size formula: per-chip usable pages scaled by the
/// utilization, times the chip count, rounded down once.
uint32_t DbPages(double utilization, const flash::FlashGeometry& chip,
                 uint32_t chips) {
  const uint32_t pages_per_chip =
      chip.total_pages() - 2 * chip.pages_per_block;
  return static_cast<uint32_t>(
      utilization * static_cast<double>(pages_per_chip) * chips);
}

}  // namespace

uint32_t ExperimentEnv::num_db_pages() const {
  return DbPages(utilization, flash_cfg.geometry, 1);
}

Rig::Rig(const ExperimentEnv& env, const flash::FlashGeometry& chip,
         uint32_t chips)
    : env_(env), db_pages_(DbPages(env.utilization, chip, chips)) {}

Rig Rig::Flat(const ExperimentEnv& env, const methods::MethodSpec& spec) {
  Rig rig(env, env.flash_cfg.geometry, 1);
  rig.flat_dev_ = std::make_unique<flash::FlashDevice>(env.flash_cfg);
  rig.flat_store_ = methods::CreateStore(rig.flat_dev_.get(), spec);
  return rig;
}

Result<Rig> Rig::Sharded(const ExperimentEnv& env,
                         const methods::MethodSpec& spec, uint32_t shards) {
  flash::FlashConfig chip_cfg = env.flash_cfg;
  chip_cfg.geometry.num_blocks =
      shards == 0 ? 0 : env.flash_cfg.geometry.num_blocks / shards;
  if (chip_cfg.geometry.num_blocks < 8) {
    return Status::InvalidArgument(
        "too many shards for --blocks: " +
        std::to_string(chip_cfg.geometry.num_blocks) +
        " blocks/shard, need >= 8");
  }
  Rig rig(env, chip_cfg.geometry, shards);
  rig.sharded_ = methods::CreateShardedStore(chip_cfg, shards, spec);
  return rig;
}

Status Rig::LoadAndWarm(workload::WorkloadParams params) {
  params.seed = env_.seed;
  driver_ = std::make_unique<workload::UpdateDriver>(store(), params);
  FLASHDB_RETURN_IF_ERROR(driver_->LoadDatabase(db_pages_));
  const uint64_t warmup_cap =
      env_.warmup_max_ops != 0 ? env_.warmup_max_ops : 20ULL * db_pages_;
  return driver_->Warmup(env_.warmup_erases_per_block, warmup_cap);
}

PageStore* Rig::store() const {
  if (sharded_ != nullptr) return sharded_.get();
  return flat_store_.get();
}

std::vector<flash::FlashDevice*> Rig::devices() const {
  if (sharded_ == nullptr) return {flat_dev_.get()};
  std::vector<flash::FlashDevice*> devs(sharded_->num_shards());
  for (uint32_t i = 0; i < devs.size(); ++i) {
    devs[i] = sharded_->shard_device(i);
  }
  return devs;
}

std::vector<uint64_t> Rig::clocks() const {
  if (sharded_ != nullptr) return sharded_->shard_clocks();
  return {flat_dev_->clock().now_us()};
}

void Rig::AttachTrace(obs::TraceRecorder* rec) const {
  const std::vector<flash::FlashDevice*> devs = devices();
  for (uint32_t i = 0; i < devs.size(); ++i) devs[i]->set_trace(rec->shard(i));
  driver_->set_wall_trace(rec->wall_lane());
}

Result<PointResult> RunWorkloadPoint(const ExperimentEnv& env,
                                     const methods::MethodSpec& spec,
                                     const workload::WorkloadParams& params) {
  Rig rig = Rig::Flat(env, spec);
  FLASHDB_RETURN_IF_ERROR(rig.LoadAndWarm(params));
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!env.trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>(1);
    rig.AttachTrace(recorder.get());
  }
  PointResult result;
  result.method = std::string(rig.store()->name());
  workload::UpdateDriver* driver = rig.driver();
  if (env.pipeline_depth == 0) {
    FLASHDB_RETURN_IF_ERROR(driver->Run(env.measure_ops, &result.stats));
  } else {
    // Threaded single-chip mode: window size 1 makes scheduled execution
    // degenerate to the sequential op sequence (every read from flash,
    // every write-back flushed immediately), so the measured virtual time
    // is bit-identical to the Run() path above for the same flags.
    const workload::Schedule schedule = driver->MakeSchedule(env.measure_ops);
    ftl::ShardExecutor executor(1);
    FLASHDB_RETURN_IF_ERROR(driver->Execute(schedule, /*batch=*/1,
                                            env.pipeline_depth, &executor,
                                            &result.stats));
  }
  if (recorder != nullptr) {
    static uint64_t point_index = 0;
    FLASHDB_RETURN_IF_ERROR(recorder->WriteChromeTraceFile(
        PointTracePath(env.trace_path, point_index++)));
  }
  return result;
}

}  // namespace flashdb::harness
