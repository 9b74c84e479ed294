#include "workload/tpcc_driver.h"

#include <atomic>
#include <cassert>
#include <mutex>

#include "flash/flash_device.h"
#include "obs/trace_recorder.h"

namespace flashdb::workload {

namespace {
/// Per-shard workload seed stride (shard 0 keeps the base seed, which is
/// what makes legacy_single_stream draw-for-draw exp7-compatible); clients
/// use a different odd constant so their streams never collide with a
/// shard's.
constexpr uint64_t kShardSeedStride = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kClientSeedStride = 0xd1b54a32d192ed03ULL;
}  // namespace

TpccDriver::TpccDriver(ftl::ShardedStore* store, const TpccDriverOptions& opts)
    : store_(store), opts_(opts) {
  const uint32_t num_shards = store_->num_shards();
  assert(num_shards >= 1 && num_shards <= opts_.scale.warehouses);
  shards_.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<uint32_t> hosted;
    for (uint32_t w = s + 1; w <= opts_.scale.warehouses; w += num_shards) {
      hosted.push_back(w);
    }
    ShardState& sh = shards_[s];
    sh.pool = std::make_unique<storage::BufferPool>(store_->shard(s),
                                                    opts_.frames_per_shard);
    sh.workload = std::make_unique<TpccWorkload>(
        sh.pool.get(), opts_.scale, std::move(hosted),
        opts_.seed + kShardSeedStride * s);
  }
  client_rngs_.reserve(opts_.num_clients);
  for (uint32_t c = 0; c < opts_.num_clients; ++c) {
    client_rngs_.emplace_back(opts_.seed + kClientSeedStride * (c + 1));
  }
}

uint32_t TpccDriver::PagesPerShard(const TpccScale& scale, uint32_t page_size,
                                   uint32_t num_shards) {
  const uint32_t fullest =
      (scale.warehouses + num_shards - 1) / num_shards;
  return TpccWorkload::RequiredPagesHosted(scale, page_size, fullest);
}

Status TpccDriver::Load(ftl::ShardExecutor* executor) {
  if (executor == nullptr) {
    for (ShardState& sh : shards_) {
      FLASHDB_RETURN_IF_ERROR(sh.workload->Load());
    }
    return Status::OK();
  }
  std::vector<std::future<Status>> futures;
  futures.reserve(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    futures.push_back(
        executor->Submit(s, [this, s] { return shards_[s].workload->Load(); }));
  }
  Status first;
  for (auto& f : futures) {
    Status st = f.get();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status TpccDriver::ExecuteTxn(uint32_t s, TpccTxnType type, uint32_t w,
                              uint32_t client) {
  ShardState& sh = shards_[s];
  flash::FlashDevice* dev = store_->shard_device(s);
  const CostSnap before = SnapCost(dev);
  Status st = sh.workload->RunTransactionOfType(type, w);
  if (st.ok() && opts_.flush_every_txn) st = sh.pool->FlushAll();
  if (!st.ok()) return st;
  const WorstOpSample cost = CostSince(before, dev, w);
  if (dev->trace() != nullptr) {
    dev->trace()->Emit(obs::TraceCat::kTxnSpan, before.clock_us, cost.total_us,
                       w, static_cast<uint64_t>(type), client);
  }
  TpccTypeStats& acc = sh.acc[static_cast<size_t>(type)];
  acc.count++;
  acc.latency.Record(cost.total_us);
  acc.worst_op.Offer(cost);
  return Status::OK();
}

TpccDriver::Draw TpccDriver::DrawNext(uint64_t txn_index) {
  Draw d;
  d.client = static_cast<uint32_t>(txn_index % opts_.num_clients);
  Random& rng = client_rngs_[d.client];
  const uint32_t route = static_cast<uint32_t>(rng.Uniform(100));
  if (static_cast<double>(route) < opts_.hot_warehouse_pct) {
    d.warehouse = 1;  // the hotspot, hosted on shard 0
  } else if (static_cast<double>(route) <
             opts_.hot_warehouse_pct + opts_.remote_pct) {
    d.warehouse =
        1 + static_cast<uint32_t>(rng.Uniform(opts_.scale.warehouses));
  } else {
    d.warehouse = home_warehouse(d.client);
  }
  d.type = TpccWorkload::PickTxnType(&rng);
  return d;
}

void TpccDriver::ResetAccumulators() {
  for (ShardState& sh : shards_) {
    for (TpccTypeStats& acc : sh.acc) {
      acc.count = 0;
      acc.latency.Reset();
      acc.worst_op = WorstOpSample{};
    }
  }
  credit_wait_ns_ = 0;
}

void TpccDriver::FoldStats(const std::vector<uint64_t>& clocks_before,
                           TpccRunStats* out) {
  if (out == nullptr) return;
  const std::vector<uint64_t> clocks_after = store_->shard_clocks();
  uint64_t elapsed = 0;
  uint64_t work = 0;
  for (size_t s = 0; s < clocks_after.size(); ++s) {
    const uint64_t delta = clocks_after[s] - clocks_before[s];
    elapsed = std::max(elapsed, delta);
    work += delta;
  }
  out->elapsed_vt_us += elapsed;
  out->total_work_us += work;
  out->credit_wait_ns += credit_wait_ns_;
  // Shard-index fold order: Merge is commutative and Offer order-stable, so
  // this equals the sequential replay's fold no matter how the concurrent
  // run interleaved.
  for (ShardState& sh : shards_) {
    for (uint32_t t = 0; t < kNumTpccTxnTypes; ++t) {
      const TpccTypeStats& acc = sh.acc[t];
      out->by_type[t].count += acc.count;
      out->by_type[t].latency.Merge(acc.latency);
      out->by_type[t].worst_op.Offer(acc.worst_op);
      out->latency.Merge(acc.latency);
      out->worst_op.Offer(acc.worst_op);
      out->transactions += acc.count;
    }
  }
}

Status TpccDriver::ServeInline(uint64_t num_txns) {
  if (opts_.legacy_single_stream) {
    if (store_->num_shards() != 1 || opts_.num_clients != 1) {
      return Status::InvalidArgument(
          "legacy_single_stream requires 1 shard and 1 client");
    }
    ShardState& sh = shards_[0];
    flash::FlashDevice* dev = store_->shard_device(0);
    for (uint64_t i = 0; i < num_txns; ++i) {
      const CostSnap before = SnapCost(dev);
      TpccTxnType type;
      uint32_t w;
      Status st = sh.workload->RunTransactionDrawing(&type, &w);
      if (st.ok() && opts_.flush_every_txn) st = sh.pool->FlushAll();
      FLASHDB_RETURN_IF_ERROR(st);
      const WorstOpSample cost = CostSince(before, dev, w);
      if (dev->trace() != nullptr) {
        dev->trace()->Emit(obs::TraceCat::kTxnSpan, before.clock_us,
                           cost.total_us, w, static_cast<uint64_t>(type), 0);
      }
      TpccTypeStats& acc = sh.acc[static_cast<size_t>(type)];
      acc.count++;
      acc.latency.Record(cost.total_us);
      acc.worst_op.Offer(cost);
      commit_log_.push_back(TpccCommit{0, w, type});
    }
    return Status::OK();
  }
  for (uint64_t i = 0; i < num_txns; ++i) {
    const Draw d = DrawNext(i);
    FLASHDB_RETURN_IF_ERROR(ExecuteTxn(shard_of_warehouse(d.warehouse), d.type,
                                       d.warehouse, d.client));
    commit_log_.push_back(TpccCommit{d.client, d.warehouse, d.type});
  }
  return Status::OK();
}

Status TpccDriver::ServeConcurrent(uint64_t num_txns,
                                   ftl::ShardExecutor* executor) {
  const uint32_t max_inflight = std::max(1u, opts_.max_inflight_per_shard);
  // First-error capture and the commit-log append share one mutex: the
  // completion callbacks run on the shard workers, and the log *is* the
  // commit order.
  std::mutex mu;
  Status first_error;
  std::atomic<bool> failed{false};
  auto complete = [&](const TpccCommit& commit, const Status& st) {
    std::lock_guard<std::mutex> lock(mu);
    if (st.ok()) {
      commit_log_.push_back(commit);
    } else {
      if (first_error.ok()) first_error = st;
      failed.store(true, std::memory_order_release);
    }
  };

  for (uint64_t i = 0; i < num_txns; ++i) {
    if (failed.load(std::memory_order_acquire)) break;
    // Transactions must submit in global draw order -- per-shard submission
    // order is what the determinism contract pins down -- so when the
    // target shard is out of credits the producer waits rather than
    // reordering around it.
    const Draw d = DrawNext(i);
    const uint32_t s = shard_of_warehouse(d.warehouse);
    const uint64_t waited_ns = executor->WaitUntil([&] {
      return failed.load(std::memory_order_acquire) ||
             executor->in_flight(s) < max_inflight;
    });
    if (waited_ns != 0) {
      credit_wait_ns_ += waited_ns;
      if (wall_trace_ != nullptr) {
        wall_trace_->Emit(obs::TraceCat::kCreditWait,
                          (credit_wait_ns_ - waited_ns) / 1000,
                          waited_ns / 1000, s, waited_ns);
      }
    }
    if (failed.load(std::memory_order_acquire)) break;
    const TpccCommit commit{d.client, d.warehouse, d.type};
    const Status submitted = executor->SubmitWithCallback(
        s, [this, s, d] { return ExecuteTxn(s, d.type, d.warehouse, d.client); },
        [&complete, commit](const Status& st) { complete(commit, st); });
    if (!submitted.ok()) {
      // Nothing enqueued, the callback never runs.
      complete(commit, submitted);
      break;
    }
  }
  // The callbacks reference this frame's state, so every one must finish
  // before we return; Drain() also publishes the workers' device mutations
  // to this thread before FoldStats snapshots the clocks.
  executor->Drain();
  return first_error;
}

Status TpccDriver::Serve(uint64_t num_txns, ftl::ShardExecutor* executor,
                         TpccRunStats* out) {
  commit_log_.clear();
  commit_log_.reserve(num_txns);
  ResetAccumulators();
  const std::vector<uint64_t> clocks_before = store_->shard_clocks();
  Status st;
  if (executor == nullptr || opts_.legacy_single_stream) {
    st = ServeInline(num_txns);
  } else {
    if (executor->num_workers() < store_->num_shards()) {
      return Status::InvalidArgument("executor has fewer workers than shards");
    }
    st = ServeConcurrent(num_txns, executor);
  }
  FoldStats(clocks_before, out);
  return st;
}

Status TpccDriver::Replay(const TpccCommitLog& log, TpccRunStats* out) {
  ResetAccumulators();
  const std::vector<uint64_t> clocks_before = store_->shard_clocks();
  Status st;
  for (const TpccCommit& c : log) {
    st = ExecuteTxn(shard_of_warehouse(c.warehouse), c.type, c.warehouse,
                    c.client);
    if (!st.ok()) break;
  }
  FoldStats(clocks_before, out);
  return st;
}

Status TpccDriver::FlushAll() {
  for (ShardState& sh : shards_) {
    FLASHDB_RETURN_IF_ERROR(sh.pool->FlushAll());
  }
  return Status::OK();
}

}  // namespace flashdb::workload
