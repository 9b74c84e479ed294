#include "workload/update_driver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <string>

#include "flash/flash_device.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"

namespace flashdb::workload {

namespace {
/// Deterministic initial content so reloads are reproducible.
void InitialImage(PageId pid, MutBytes page, void* arg) {
  const uint64_t seed = *static_cast<const uint64_t*>(arg);
  Random r(seed ^ (0x517CC1B727220A95ULL * (pid + 1)));
  r.Fill(page);
}
}  // namespace

UpdateDriver::UpdateDriver(PageStore* store, const WorkloadParams& params)
    : store_(store),
      params_(params),
      rng_(params.seed),
      data_size_(store->device()->geometry().data_size) {
  scratch_.resize(data_size_);
  if (params_.hot_shard_pct > 0) {
    auto* sharded = dynamic_cast<ftl::ShardedStore*>(store_);
    if (sharded != nullptr && sharded->num_shards() > 1) {
      hot_pid_stride_ = sharded->num_shards();
    }
  }
}

PageId UpdateDriver::DrawPid() {
  if (hot_pid_stride_ != 0 &&
      rng_.NextDouble() * 100.0 < params_.hot_shard_pct) {
    // Pids congruent to 0 mod the shard count all land on shard 0: the
    // number of such pids in [0, num_pages_) is ceil(num_pages_ / stride).
    const uint32_t count = (num_pages_ + hot_pid_stride_ - 1) / hot_pid_stride_;
    return hot_pid_stride_ * static_cast<PageId>(rng_.Uniform(count));
  }
  return static_cast<PageId>(rng_.Uniform(num_pages_));
}

Status UpdateDriver::LoadDatabase(uint32_t num_pages) {
  num_pages_ = num_pages;
  uint64_t seed = params_.seed;
  FLASHDB_RETURN_IF_ERROR(store_->Format(num_pages, &InitialImage, &seed));
  if (params_.verify) {
    shadow_.assign(num_pages, ByteBuffer(data_size_));
    for (PageId pid = 0; pid < num_pages; ++pid) {
      InitialImage(pid, shadow_[pid], &seed);
    }
  }
  return Status::OK();
}

void UpdateDriver::DrawUpdateCmd(uint32_t* offset, ByteBuffer* data) {
  // One update command changes a random contiguous region covering
  // %ChangedByOneU_Op percent of the page.
  uint32_t len = static_cast<uint32_t>(std::lround(
      params_.pct_changed_by_one_op / 100.0 * static_cast<double>(data_size_)));
  len = std::clamp<uint32_t>(len, 1, data_size_);
  *offset = static_cast<uint32_t>(rng_.Uniform(data_size_ - len + 1));
  data->resize(len);
  rng_.Fill(*data);
}

Status UpdateDriver::ApplyOneUpdate(PageId pid, MutBytes page) {
  UpdateLog log;
  DrawUpdateCmd(&log.offset, &log.data);
  std::memcpy(page.data() + log.offset, log.data.data(), log.data.size());
  // Tightly-coupled methods capture the update log here; loosely-coupled
  // methods ignore the notification.
  return store_->OnUpdate(pid, page, log);
}

Status UpdateDriver::UpdateOperation(PageId pid) {
  // Step (1): the reading step recreates the logical page from flash.
  {
    StoreCategoryScope cat(store_, flash::OpCategory::kReadStep);
    FLASHDB_RETURN_IF_ERROR(store_->ReadPage(pid, scratch_));
  }
  if (params_.verify && !BytesEqual(scratch_, shadow_[pid])) {
    return Status::Corruption("shadow mismatch on read of pid " +
                              std::to_string(pid));
  }
  // Step (2): N_updates_till_write in-memory update commands. Log-based
  // methods may spill their log buffers to flash here; that traffic belongs
  // to the writing step in the paper's accounting.
  {
    StoreCategoryScope cat(store_, flash::OpCategory::kWriteStep);
    for (uint32_t u = 0; u < params_.updates_till_write; ++u) {
      FLASHDB_RETURN_IF_ERROR(ApplyOneUpdate(pid, scratch_));
    }
  }
  if (params_.verify) shadow_[pid] = scratch_;
  // Step (3): the writing step reflects the page into flash.
  {
    StoreCategoryScope cat(store_, flash::OpCategory::kWriteStep);
    FLASHDB_RETURN_IF_ERROR(store_->WriteBack(pid, scratch_));
  }
  return Status::OK();
}

Status UpdateDriver::ReadOperation(PageId pid) {
  StoreCategoryScope cat(store_, flash::OpCategory::kReadStep);
  FLASHDB_RETURN_IF_ERROR(store_->ReadPage(pid, scratch_));
  if (params_.verify && !BytesEqual(scratch_, shadow_[pid])) {
    return Status::Corruption("shadow mismatch on read of pid " +
                              std::to_string(pid));
  }
  return Status::OK();
}

Status UpdateDriver::Warmup(double erases_per_block, uint64_t max_ops) {
  // Per-chip steady state: for a sharded store the erase target scales with
  // the block count of every shard (stats() sums them).
  uint64_t num_blocks = store_->stats().block_erase_counts.size();
  if (num_blocks == 0) num_blocks = store_->device()->geometry().num_blocks;
  const uint64_t target = static_cast<uint64_t>(
      erases_per_block * static_cast<double>(num_blocks));
  const uint64_t start = store_->total_erases();
  uint64_t ops = 0;
  while (store_->total_erases() - start < target && ops < max_ops) {
    FLASHDB_RETURN_IF_ERROR(UpdateOperation(DrawPid()));
    ++ops;
  }
  return Status::OK();
}

Status UpdateDriver::Run(uint64_t num_ops, RunStats* out) {
  pending_latency_.Reset();
  pending_worst_ = WorstOpSample{};
  const flash::FlashStats stats0 = store_->stats();
  const uint64_t clock0 = StoreClockUs();
  auto* sharded = dynamic_cast<ftl::ShardedStore*>(store_);
  uint64_t update_ops = 0;

  for (uint64_t i = 0; i < num_ops; ++i) {
    const PageId pid = DrawPid();
    // Hoisting the kind draw off the branch keeps RNG consumption (pid,
    // then kind) identical to older versions and to MakeSchedule.
    const bool is_update = rng_.NextDouble() * 100.0 < params_.pct_update_ops;
    flash::FlashDevice* dev = nullptr;
    CostSnap snap;
    if (params_.record_latency) {
      // The op's latency is its own chip's clock advance, so on a sharded
      // store the sample brackets the owning shard's device.
      dev = sharded != nullptr
                ? sharded->shard_device(sharded->shard_of(pid))
                : store_->device();
      snap = SnapCost(dev);
    }
    if (is_update) {
      FLASHDB_RETURN_IF_ERROR(UpdateOperation(pid));
      update_ops++;
    } else {
      FLASHDB_RETURN_IF_ERROR(ReadOperation(pid));
    }
    if (params_.record_latency) {
      const WorstOpSample sample = CostSince(snap, dev, pid);
      pending_latency_.Record(sample.total_us);
      pending_worst_.Offer(sample);
      if (dev->trace() != nullptr) {
        dev->trace()->Emit(obs::TraceCat::kOpSpan, snap.clock_us,
                           sample.total_us, pid, is_update ? 1 : 0);
      }
    }
  }

  AccumulateRunStats(stats0, clock0, num_ops, update_ops, out);
  return Status::OK();
}

Schedule UpdateDriver::MakeSchedule(uint64_t num_ops) {
  // Draw-for-draw identical to Run(): pid, operation kind, then per update
  // command the DrawUpdateCmd draws, in the order Run() consumes them.
  Schedule schedule;
  schedule.reserve(num_ops);
  for (uint64_t i = 0; i < num_ops; ++i) {
    PlannedOp op;
    op.pid = DrawPid();
    op.is_update = rng_.NextDouble() * 100.0 < params_.pct_update_ops;
    if (op.is_update) {
      op.updates.resize(params_.updates_till_write);
      for (PlannedUpdate& u : op.updates) {
        DrawUpdateCmd(&u.offset, &u.data);
      }
    }
    schedule.push_back(std::move(op));
  }
  return schedule;
}

std::vector<UpdateDriver::ShardStream> UpdateDriver::PartitionSchedule(
    ChunkSpan chunk) {
  auto* sharded = dynamic_cast<ftl::ShardedStore*>(store_);
  const uint32_t n = sharded != nullptr ? sharded->num_shards() : 1;
  std::vector<ShardStream> streams(n);
  for (uint32_t i = 0; i < n; ++i) {
    ShardStream& s = streams[i];
    s.store = sharded != nullptr ? sharded->shard(i) : store_;
    s.scratch.resize(data_size_);
  }
  for (const PlannedOp& op : chunk) {
    const uint32_t shard = sharded != nullptr ? sharded->shard_of(op.pid) : 0;
    ShardStream& s = streams[shard];
    s.ops.push_back(&op);
    s.inner_pids.push_back(sharded != nullptr ? sharded->inner_pid(op.pid)
                                              : op.pid);
    s.global_pids.push_back(op.pid);
  }
  return streams;
}

Status UpdateDriver::FlushShardWindow(ShardStream* s) {
  if (s->queued_n == 0) return Status::OK();
  if (params_.record_latency) {
    // Per-write flush so each queued op gets its own clock delta. The
    // batched-write equivalence (WriteBatch == same writes via WriteBack,
    // pinned by tests/batched_write_test.cc) makes this path produce the
    // exact device state and virtual clocks of the WriteBatch path below --
    // recording changes attribution, never the gated numbers.
    flash::FlashDevice* dev = s->store->device();
    StoreCategoryScope cat(s->store, flash::OpCategory::kWriteStep);
    for (size_t i = 0; i < s->queued_n; ++i) {
      ShardStream::QueuedWrite& q = s->queued[i];
      const CostSnap snap = SnapCost(dev);
      FLASHDB_RETURN_IF_ERROR(s->store->WriteBack(q.inner_pid, q.image));
      const WorstOpSample wb = CostSince(snap, dev, q.cost.pid);
      q.cost.total_us += wb.total_us;
      q.cost.read_us += wb.read_us;
      q.cost.write_us += wb.write_us;
      q.cost.gc_us += wb.gc_us;
      q.cost.meta_us += wb.meta_us;
      s->hist.Record(q.cost.total_us);
      s->worst.Offer(q.cost);
      if (dev->trace() != nullptr) {
        // The op's span opened at its inline start; its duration is the
        // accumulated latency (inline + this write-back) -- identical in
        // every run mode sharing the schedule and batch size.
        dev->trace()->Emit(obs::TraceCat::kOpSpan, q.start_us,
                           q.cost.total_us, q.cost.pid, 1);
      }
    }
    s->queued_n = 0;
    s->latest.clear();
    return Status::OK();
  }
  std::vector<PageWrite> writes;
  writes.reserve(s->queued_n);
  for (size_t i = 0; i < s->queued_n; ++i) {
    writes.push_back(PageWrite{s->queued[i].inner_pid, s->queued[i].image});
  }
  StoreCategoryScope cat(s->store, flash::OpCategory::kWriteStep);
  FLASHDB_RETURN_IF_ERROR(s->store->WriteBatch(writes));
  s->queued_n = 0;  // images keep their capacity for the next window
  s->latest.clear();
  return Status::OK();
}

Status UpdateDriver::RunShardWindow(ShardStream* s, size_t begin, size_t end) {
  const bool record = params_.record_latency;
  flash::FlashDevice* dev = record ? s->store->device() : nullptr;
  for (size_t k = begin; k < end; ++k) {
    const PlannedOp& op = *s->ops[k];
    const PageId ipid = s->inner_pids[k];
    const PageId gpid = s->global_pids[k];
    CostSnap snap;
    if (record) snap = SnapCost(dev);
    // Reading step. A page whose write-back is still queued in this window
    // is served from the queued image (its on-flash copy is stale).
    const auto it = s->latest.find(ipid);
    if (it != s->latest.end()) {
      CopyBytes(s->scratch, s->queued[it->second].image);
    } else {
      StoreCategoryScope cat(s->store, flash::OpCategory::kReadStep);
      FLASHDB_RETURN_IF_ERROR(s->store->ReadPage(ipid, s->scratch));
    }
    if (params_.verify && !BytesEqual(s->scratch, shadow_[gpid])) {
      return Status::Corruption("shadow mismatch on read of pid " +
                                std::to_string(gpid));
    }
    if (!op.is_update) {
      // A read-only op completes here; one served from a queued image cost
      // no device time and records a 0 -- the same 0 in every run mode,
      // since window composition is fixed by the schedule.
      if (record) {
        const WorstOpSample sample = CostSince(snap, dev, gpid);
        s->hist.Record(sample.total_us);
        s->worst.Offer(sample);
        if (dev->trace() != nullptr) {
          dev->trace()->Emit(obs::TraceCat::kOpSpan, snap.clock_us,
                             sample.total_us, gpid, 0);
        }
      }
      continue;
    }
    // Updating step: apply the planned commands, notifying the store.
    {
      StoreCategoryScope cat(s->store, flash::OpCategory::kWriteStep);
      for (const PlannedUpdate& u : op.updates) {
        std::memcpy(s->scratch.data() + u.offset, u.data.data(),
                    u.data.size());
        s->log_scratch.offset = u.offset;
        s->log_scratch.data.assign(u.data.begin(), u.data.end());
        FLASHDB_RETURN_IF_ERROR(
            s->store->OnUpdate(ipid, s->scratch, s->log_scratch));
      }
    }
    if (params_.verify) shadow_[gpid] = s->scratch;
    // Queue the write-back for the window's batched flush.
    if (s->queued_n == s->queued.size()) s->queued.emplace_back();
    ShardStream::QueuedWrite& q = s->queued[s->queued_n];
    q.inner_pid = ipid;
    q.image.assign(s->scratch.begin(), s->scratch.end());
    // An update op's sample stays open until its write-back flushes: stash
    // the inline cost (reading step + log spills) with the queued write.
    q.cost = record ? CostSince(snap, dev, gpid) : WorstOpSample{};
    q.start_us = record ? snap.clock_us : 0;
    s->latest[ipid] = s->queued_n;
    ++s->queued_n;
  }
  return FlushShardWindow(s);
}

CostSnap SnapCost(flash::FlashDevice* dev) {
  // stats() returns a reference, so this is five counter loads -- cheap
  // enough to bracket every operation when recording is on.
  const flash::FlashStats& st = dev->stats();
  CostSnap snap;
  snap.clock_us = dev->clock().now_us();
  snap.read_us =
      st.by_category[static_cast<int>(flash::OpCategory::kReadStep)].total_us();
  snap.write_us =
      st.by_category[static_cast<int>(flash::OpCategory::kWriteStep)]
          .total_us();
  snap.gc_us =
      st.by_category[static_cast<int>(flash::OpCategory::kGc)].total_us();
  snap.meta_us =
      st.by_category[static_cast<int>(flash::OpCategory::kMeta)].total_us();
  return snap;
}

WorstOpSample CostSince(const CostSnap& before, flash::FlashDevice* dev,
                        PageId pid) {
  const CostSnap after = SnapCost(dev);
  WorstOpSample s;
  s.total_us = after.clock_us - before.clock_us;
  s.read_us = after.read_us - before.read_us;
  s.write_us = after.write_us - before.write_us;
  s.gc_us = after.gc_us - before.gc_us;
  s.meta_us = after.meta_us - before.meta_us;
  s.pid = pid;
  s.valid = true;
  return s;
}

void UpdateDriver::FoldStreamLatency(std::vector<ShardStream>* streams) {
  if (!params_.record_latency) return;
  for (ShardStream& s : *streams) {
    pending_latency_.Merge(s.hist);
    pending_worst_.Offer(s.worst);
  }
}

uint64_t UpdateDriver::StoreClockUs() const {
  if (const auto* sharded = dynamic_cast<const ftl::ShardedStore*>(store_)) {
    return sharded->parallel_time_us();
  }
  // device() is non-const on PageStore; the clock read itself is const.
  return const_cast<UpdateDriver*>(this)->store_->device()->clock().now_us();
}

void UpdateDriver::AccumulateRunStats(const flash::FlashStats& before,
                                      uint64_t clock0_us, uint64_t ops,
                                      uint64_t update_ops, RunStats* out) {
  out->operations += ops;
  out->update_ops += update_ops;
  const flash::FlashStats after = store_->stats();
  out->read_step +=
      after.by_category[static_cast<int>(flash::OpCategory::kReadStep)] -
      before.by_category[static_cast<int>(flash::OpCategory::kReadStep)];
  out->write_step +=
      after.by_category[static_cast<int>(flash::OpCategory::kWriteStep)] -
      before.by_category[static_cast<int>(flash::OpCategory::kWriteStep)];
  out->gc += after.by_category[static_cast<int>(flash::OpCategory::kGc)] -
             before.by_category[static_cast<int>(flash::OpCategory::kGc)];
  out->migrate +=
      after.by_category[static_cast<int>(flash::OpCategory::kMigrate)] -
      before.by_category[static_cast<int>(flash::OpCategory::kMigrate)];
  out->meta += after.by_category[static_cast<int>(flash::OpCategory::kMeta)] -
               before.by_category[static_cast<int>(flash::OpCategory::kMeta)];
  out->scrub +=
      after.by_category[static_cast<int>(flash::OpCategory::kScrub)] -
      before.by_category[static_cast<int>(flash::OpCategory::kScrub)];
  out->erases += after.total.erases - before.total.erases;
  const flash::IntegrityCounters integrity =
      after.integrity - before.integrity;
  out->read_retries += integrity.read_retries;
  out->retry_us += integrity.retry_us;
  out->reads_corrected += integrity.reads_corrected;
  out->reads_uncorrectable += integrity.reads_uncorrectable;
  out->plane_stall_us += after.plane_stall_us() - before.plane_stall_us();
  out->elapsed_vt_us += StoreClockUs() - clock0_us;
  out->latency.Merge(pending_latency_);
  out->worst_op.Offer(pending_worst_);
}

Status UpdateDriver::RunEpochs(const Schedule& schedule, uint32_t batch,
                               uint32_t depth, ftl::ShardExecutor* executor,
                               RunStats* out) {
  pending_latency_.Reset();
  pending_worst_ = WorstOpSample{};
  const flash::FlashStats stats0 = store_->stats();
  const uint64_t clock0 = StoreClockUs();
  auto* sharded = dynamic_cast<ftl::ShardedStore*>(store_);
  const uint64_t epoch = params_.rebalance_epoch_ops;
  const bool leveling =
      sharded != nullptr && sharded->router()->rebalancing_enabled();
  const bool scrubbing = params_.scrub && sharded != nullptr;
  const ChunkSpan all(schedule);
  if (epoch == 0) {
    FLASHDB_RETURN_IF_ERROR(ExecuteChunk(all, batch, depth, executor));
  } else {
    // Epoch splitting applies whenever it is configured -- even with the
    // router disabled -- so a leveling-off reference run sees the exact same
    // window boundaries (and therefore virtual clocks) as a leveling-on run
    // that happens to plan zero migrations.
    uint64_t epoch_index = 0;
    for (size_t begin = 0; begin < all.size(); begin += epoch) {
      const ChunkSpan chunk =
          all.subspan(begin, std::min<size_t>(epoch, all.size() - begin));
      FLASHDB_RETURN_IF_ERROR(ExecuteChunk(chunk, batch, depth, executor));
      // Rebalance / scrub between epochs only: a trailing migration or
      // relocation could not benefit any operation of this run.
      if (leveling && begin + epoch < all.size()) {
        FLASHDB_RETURN_IF_ERROR(RebalanceEpoch(chunk, executor, out));
      }
      if (scrubbing && begin + epoch < all.size()) {
        FLASHDB_RETURN_IF_ERROR(ScrubEpoch(out));
      }
      if (params_.metrics != nullptr) {
        // Epoch time series: cumulative values at the quiescent boundary;
        // per-epoch deltas are differences of consecutive snapshots.
        obs::MetricsRegistry* m = params_.metrics;
        const flash::FlashStats st = store_->stats();
        m->Set("epoch.ops", static_cast<double>(begin + chunk.size()));
        m->Set("epoch.erases", static_cast<double>(st.total.erases));
        m->Set("epoch.clock_us", static_cast<double>(StoreClockUs()));
        m->Set("epoch.gc_us",
               static_cast<double>(
                   st.by_category[static_cast<int>(flash::OpCategory::kGc)]
                       .total_us()));
        m->Set("epoch.migrations", static_cast<double>(out->migrations));
        m->Set("epoch.scrub_relocations",
               static_cast<double>(out->scrub_relocations));
        m->SnapshotEpoch(epoch_index);
      }
      ++epoch_index;
    }
  }
  uint64_t update_ops = 0;
  for (const PlannedOp& op : schedule) update_ops += op.is_update ? 1 : 0;
  AccumulateRunStats(stats0, clock0, schedule.size(), update_ops, out);
  return Status::OK();
}

Status UpdateDriver::RebalanceEpoch(ChunkSpan chunk,
                                    ftl::ShardExecutor* executor,
                                    RunStats* out) {
  auto* sharded = static_cast<ftl::ShardedStore*>(store_);
  ftl::ShardRouter* router = sharded->router();
  // The epoch's write heat comes from the executed schedule itself, not from
  // device counters: it is the same in every execution mode by construction.
  std::vector<uint64_t> heat(router->num_buckets(), 0);
  for (const PlannedOp& op : chunk) {
    if (op.is_update) heat[router->bucket_of(op.pid)]++;
  }
  router->AddEpochHeat(heat);
  const std::vector<ftl::ShardRouter::Swap> plan =
      router->PlanRebalance(sharded->shard_erases());
  if (plan.empty()) return Status::OK();
  FLASHDB_RETURN_IF_ERROR(sharded->MigrateBuckets(plan, executor));
  out->migrations += plan.size();
  return Status::OK();
}

Status UpdateDriver::ScrubEpoch(RunStats* out) {
  auto* sharded = static_cast<ftl::ShardedStore*>(store_);
  ftl::ShardedStore::ScrubResult res;
  FLASHDB_RETURN_IF_ERROR(sharded->ScrubShards(&res));
  out->scrub_candidates += res.candidates;
  out->scrub_relocations += res.relocated;
  return Status::OK();
}

Status UpdateDriver::Execute(const Schedule& schedule, uint32_t batch,
                             uint32_t depth, ftl::ShardExecutor* executor,
                             RunStats* out) {
  if (batch == 0) return Status::InvalidArgument("batch must be > 0");
  if (executor != nullptr) {
    if (depth == 0) return Status::InvalidArgument("depth must be > 0");
    // A flat store is one stream on worker 0: the threaded run mode of the
    // single-chip experiments.
    auto* sharded = dynamic_cast<ftl::ShardedStore*>(store_);
    const uint32_t workers_needed =
        sharded != nullptr ? sharded->num_shards() : 1;
    if (executor->num_workers() < workers_needed) {
      return Status::InvalidArgument("executor must have one worker per shard");
    }
  }
  const uint64_t wait0 = credit_wait_ns_;
  const Status st = RunEpochs(schedule, batch, depth, executor, out);
  out->credit_wait_ns += credit_wait_ns_ - wait0;
  return st;
}

Status UpdateDriver::ExecuteChunk(ChunkSpan chunk, uint32_t batch,
                                  uint32_t depth,
                                  ftl::ShardExecutor* executor) {
  std::vector<ShardStream> streams = PartitionSchedule(chunk);
  const uint32_t n = static_cast<uint32_t>(streams.size());
  // First-error capture. Inline, only this thread writes it; threaded, the
  // workers' completion callbacks do, and `failed` lets the submission loop
  // and its credit wait see an error without taking the mutex.
  std::mutex error_mu;
  Status first_error;
  std::atomic<bool> failed{false};
  auto record_error = [&](const Status& st) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = st;
    failed.store(true, std::memory_order_release);
  };
  auto has_credit = [&](uint32_t i) {
    return executor == nullptr || executor->in_flight(i) < depth;
  };

  std::vector<size_t> next_begin(n, 0);  // submission cursor per shard
  while (!failed.load(std::memory_order_acquire)) {
    // Round-robin pass: give every shard with a credit its next window.
    // Interleaving across shards (instead of finishing one shard first) is
    // what keeps every chip fed when one of them is hot. Shards are
    // independent chips, so inline the order changes no device state.
    bool work_left = false;
    bool submitted_any = false;
    for (uint32_t i = 0; i < n && !failed.load(std::memory_order_acquire);
         ++i) {
      ShardStream* s = &streams[i];
      if (next_begin[i] >= s->ops.size()) continue;
      work_left = true;
      if (!has_credit(i)) continue;
      const size_t begin = next_begin[i];
      const size_t end = std::min(s->ops.size(), begin + batch);
      next_begin[i] = end;
      submitted_any = true;
      if (executor == nullptr) {
        const Status st = RunShardWindow(s, begin, end);
        if (!st.ok()) record_error(st);
        continue;
      }
      const Status submitted = executor->SubmitWithCallback(
          i, [this, s, begin, end] { return RunShardWindow(s, begin, end); },
          [&record_error](const Status& st) {
            if (!st.ok()) record_error(st);
          });
      // Rejected: nothing was enqueued and the callback never runs.
      if (!submitted.ok()) record_error(submitted);
    }
    if (!work_left) break;
    if (submitted_any) continue;
    // Every shard with work left is at its credit limit: wait until a
    // completion returns a credit somewhere (or a window fails). This is the
    // per-shard backpressure point -- no barrier, just "some credit came
    // back". The waited wall time is the run's credit-wait attribution.
    const uint64_t waited_ns = executor->WaitUntil([&] {
      if (failed.load(std::memory_order_acquire)) return true;
      for (uint32_t i = 0; i < n; ++i) {
        if (next_begin[i] < streams[i].ops.size() && has_credit(i)) {
          return true;
        }
      }
      return false;
    });
    if (waited_ns == 0) continue;  // a credit was back before waiting
    credit_wait_ns_ += waited_ns;
    if (wall_trace_ != nullptr) {
      // Wall-clock domain: stamped with the producer's cumulative waited
      // time, excluded from the canonical (deterministic) stream.
      wall_trace_->Emit(obs::TraceCat::kCreditWait,
                        (credit_wait_ns_ - waited_ns) / 1000,
                        waited_ns / 1000, ~0ull, waited_ns);
    }
  }
  // The in-flight windows reference `streams` and the error state on this
  // stack frame, so everything finishes before we return -- error or not.
  // Drain() also publishes the workers' device mutations to this thread
  // before the caller's stats snapshot (and before any epoch-boundary
  // rebalancing touches the chips).
  if (executor != nullptr) executor->Drain();
  FoldStreamLatency(&streams);
  return first_error;
}

}  // namespace flashdb::workload
