// The opu-tpcc workload: TPC-C served by TpccDriver on OPU over a 3-shard
// ShardedStore, with 3 ShardExecutor workers, 6 logical clients on 6
// warehouses, the default hot-warehouse and remote shares, write-through
// commits and per-shard credits (3 workers plus the producer: 4 threads).
// Each shard's OPU store sits inside a TimedStore, so the store boundary is
// timed on the worker that owns it.
//
// Shape of one run:
//   set-up (repeated opts.setups() times; setup_s is the median): format the
//     shards, load the tables, and serve warmup transactions until the
//     erase target or the transaction cap;
//   measured region: rounds of round_txns transactions until opts.seconds
//     have passed or the tables' growth budget is used up. The first
//     window_txns form the fixed window every vt_* figure comes from;
//     host_ops_per_s is the median round rate;
//   correctness: the recorded commit-order logs (warmup, then each round)
//     are replayed single-threaded with TpccDriver::Replay on a fresh rig,
//     which must reproduce the per-shard clocks, the latency histograms and
//     the worst op of every measured round.

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "workload/tpcc_driver.h"

namespace flashbench {
namespace {

using flashdb::Status;
using flashdb::flash::FlashStats;
using flashdb::flash::OpCategory;
using flashdb::workload::TpccCommitLog;
using flashdb::workload::TpccRunStats;

constexpr uint32_t kShards = 3;
constexpr uint32_t kPageSize = 2048;  // FlashConfig::Small geometry

struct Sizing {
  flashdb::workload::TpccScale scale;
  uint64_t warmup_chunk;   ///< Warmup transactions between erase checks.
  uint64_t warmup_cap;     ///< Warmup stops here short of the erase target.
  double warmup_epb;       ///< Erase target: erases per block, every chip.
  uint64_t window_txns;    ///< Transactions behind every vt_* figure.
  uint64_t round_txns;     ///< Transactions per timed round.
  uint64_t max_measured;   ///< The tables' growth budget after warmup.
};

Sizing SizingFor(const Options& opts) {
  Sizing sz;
  // exp16's table scale, at 6 warehouses.
  sz.scale.warehouses = 6;
  sz.scale.districts_per_warehouse = 4;
  sz.scale.customers_per_district = 40;
  sz.scale.items = 400;
  sz.scale.init_orders_per_district = 15;
  if (opts.tiny) {
    sz.scale.districts_per_warehouse = 2;
    sz.scale.customers_per_district = 20;
    sz.scale.items = 200;
    sz.scale.init_orders_per_district = 5;
    sz.warmup_chunk = 100;
    sz.warmup_cap = 200;
    sz.warmup_epb = 1.0;
    sz.window_txns = 600;
    sz.round_txns = 200;
    sz.max_measured = 1200;
  } else {
    sz.warmup_chunk = 1000;
    sz.warmup_cap = 6000;
    sz.warmup_epb = 1.0;
    // About 51% of the standard mix are read-only and Payment
    // transactions, which are much faster than NewOrder, so the latency
    // distribution has a step right above p50; 40000 transactions keep p50
    // clear of it for every seed.
    sz.window_txns = 40000;
    sz.round_txns = 500;
    sz.max_measured = 60000;
  }
  // Every shard's tables are sized for `transaction_headroom` orders and
  // payments, and the formatted database grows with it. Shard 0 hosts the
  // hot warehouse and takes about 37% of the transactions, of which under
  // half insert an order (NewOrder) or a history row (Payment), so a
  // headroom of 40% of all transactions leaves it a margin of about 2x.
  sz.scale.transaction_headroom = static_cast<uint32_t>(
      0.4 * static_cast<double>(sz.warmup_cap + sz.max_measured) + 500);
  return sz;
}

flashdb::workload::TpccDriverOptions DriverOptions(const Options& opts,
                                                   const Sizing& sz) {
  flashdb::workload::TpccDriverOptions o;
  o.scale = sz.scale;
  o.num_clients = 6;
  o.seed = opts.seed;
  o.frames_per_shard = 128;
  o.flush_every_txn = true;
  return o;  // default hot_warehouse_pct, remote_pct and credits
}

struct Rig {
  std::unique_ptr<flashdb::ftl::ShardedStore> store;
  std::vector<TimedStore*> timed;  ///< One per shard, owned by `store`.
  std::unique_ptr<flashdb::workload::TpccDriver> driver;
  uint32_t blocks_per_shard = 0;

  TimedStore::Totals totals() const {
    TimedStore::Totals t;
    for (const TimedStore* s : timed) t += s->totals();
    return t;
  }
  void set_timing(bool on) {
    for (TimedStore* s : timed) s->set_timing(on);
  }
  flashdb::storage::BufferPoolStats pool_stats() const {
    flashdb::storage::BufferPoolStats sum;
    for (uint32_t s = 0; s < kShards; ++s) {
      const auto& p = driver->shard_pool(s)->stats();
      sum.hits += p.hits;
      sum.misses += p.misses;
      sum.evictions += p.evictions;
      sum.dirty_writebacks += p.dirty_writebacks;
    }
    return sum;
  }
};

/// A formatted sharded store plus driver. Identical arguments give
/// bit-identical rigs, which the replay check relies on.
Status BuildRig(const Options& opts, const Sizing& sz, Rig* rig) {
  const auto spec = flashdb::methods::ParseMethodSpec("OPU");
  const uint32_t pages_per_shard =
      flashdb::workload::TpccDriver::PagesPerShard(sz.scale, kPageSize,
                                                   kShards);
  rig->blocks_per_shard = (pages_per_shard * 2) / 64 + 8;  // ~50% utilization
  std::vector<flashdb::ftl::ShardedStore::Shard> shards(kShards);
  for (auto& shard : shards) {
    shard.owned_device = std::make_unique<flashdb::flash::FlashDevice>(
        flashdb::flash::FlashConfig::Small(rig->blocks_per_shard));
    shard.device = shard.owned_device.get();
    auto timed = std::make_unique<TimedStore>(
        flashdb::methods::CreateStore(shard.device, *spec));
    rig->timed.push_back(timed.get());
    shard.store = std::move(timed);
  }
  rig->store = std::make_unique<flashdb::ftl::ShardedStore>(std::move(shards));
  FLASHDB_RETURN_IF_ERROR(
      rig->store->Format(kShards * pages_per_shard, nullptr, nullptr));
  rig->driver = std::make_unique<flashdb::workload::TpccDriver>(
      rig->store.get(), DriverOptions(opts, sz));
  return Status::OK();
}

/// Thread CPU time of every executor worker, read on the worker itself.
std::vector<uint64_t> WorkerCpuNs(flashdb::ftl::ShardExecutor* executor) {
  std::vector<uint64_t> cpu(executor->num_workers());
  std::vector<std::future<Status>> done;
  for (uint32_t w = 0; w < cpu.size(); ++w) {
    done.push_back(executor->Submit(w, [&cpu, w] {
      cpu[w] = ThreadCpuNs();
      return Status::OK();
    }));
  }
  for (auto& f : done) f.get();
  return cpu;
}

void AddTpccStats(const TpccRunStats& r, TpccRunStats* acc) {
  acc->transactions += r.transactions;
  acc->latency.Merge(r.latency);
  acc->worst_op.Offer(r.worst_op);
  acc->credit_wait_ns += r.credit_wait_ns;
}

}  // namespace

Report RunTpccWorkload(const Options& opts) {
  Report report;
  const Sizing sz = SizingFor(opts);
  flashdb::ftl::ShardExecutor executor(kShards);

  // --- Set-up, repeated; the last rig is the one measured. ---------------
  std::unique_ptr<Rig> rig_owner;
  std::vector<double> setup_s, load_s, warmup_s;
  TpccCommitLog warmup_log;
  uint64_t warmup_txns = 0;
  for (int i = 0; i < opts.setups(); ++i) {
    rig_owner.reset();  // release the previous rig before building the next
    rig_owner = std::make_unique<Rig>();
    Rig& r = *rig_owner;
    warmup_log.clear();
    const double t0 = NowSeconds();
    Status st = BuildRig(opts, sz, &r);
    if (st.ok()) st = r.driver->Load(&executor);
    const double t1 = NowSeconds();
    const double target =
        sz.warmup_epb * static_cast<double>(r.blocks_per_shard);
    auto min_erases = [&r] {
      const std::vector<uint64_t> e = r.store->shard_erases();
      return static_cast<double>(*std::min_element(e.begin(), e.end()));
    };
    warmup_txns = 0;
    while (st.ok() && warmup_txns < sz.warmup_cap && min_erases() < target) {
      st = r.driver->Serve(sz.warmup_chunk, &executor, nullptr);
      const TpccCommitLog& log = r.driver->commit_log();
      warmup_log.insert(warmup_log.end(), log.begin(), log.end());
      warmup_txns += sz.warmup_chunk;
    }
    if (!st.ok()) {
      report.attempted = 1;
      report.failed = 1;
      report.Fail("set-up: " + st.ToString());
      return report;
    }
    setup_s.push_back(NowSeconds() - t0);
    load_s.push_back(t1 - t0);
    warmup_s.push_back(NowSeconds() - t1);
  }
  Rig& rig = *rig_owner;
  const double total_blocks =
      static_cast<double>(rig.blocks_per_shard) * kShards;
  const std::vector<uint64_t> shard_erases = rig.store->shard_erases();
  const bool hit_cap =
      static_cast<double>(
          *std::min_element(shard_erases.begin(), shard_erases.end())) <
      sz.warmup_epb * rig.blocks_per_shard;
  report.Set("setup_s", Median(setup_s));
  report.Set("setup.load_s", Median(load_s));
  report.Set("setup.warmup_s", Median(warmup_s));
  report.Set("setup.warmup_ops", static_cast<double>(warmup_txns));
  report.Set("setup.warmup_erases_per_block",
             static_cast<double>(rig.store->total_erases()) / total_blocks);
  report.Set("setup.warmup_hit_cap", hit_cap ? 1 : 0);
  report.Info("warmup_stop", hit_cap ? "\"cap\"" : "\"target\"");

  // --- Measured region. ---------------------------------------------------
  TpccRunStats window;
  TpccRunStats rest;
  std::vector<TpccCommitLog> round_logs;
  const FlashStats f0 = rig.store->stats();
  FlashStats f1 = f0;
  const std::vector<uint64_t> clocks0 = rig.store->shard_clocks();
  std::vector<uint64_t> clocks1 = clocks0;
  const TimedStore::Totals calls0 = rig.totals();
  TimedStore::Totals window_calls;
  TimedStore::Totals timed_calls;
  const auto pool0 = rig.pool_stats();
  double timed_wall = 0;
  uint64_t timed_txns = 0;
  uint64_t timed_worker_cpu = 0;
  std::vector<uint64_t> worker_cpu(kShards, 0);
  std::vector<double> plain_rates, timed_rates;
  uint64_t txns = 0;
  const double t_start = NowSeconds();
  const uint64_t cpu0 = ProcessCpuNs();
  for (uint64_t round = 0; txns < sz.max_measured; ++round) {
    const bool in_window = txns < sz.window_txns;
    if (!in_window && NowSeconds() - t_start >= opts.seconds) break;
    const bool timed = opts.trace && round % 2 == 1;
    rig.set_timing(timed);
    const TimedStore::Totals before = rig.totals();
    const std::vector<uint64_t> wcpu0 = WorkerCpuNs(&executor);
    TpccRunStats round_stats;
    const double r0 = NowSeconds();
    const Status st =
        rig.driver->Serve(sz.round_txns, &executor, &round_stats);
    const double dt = NowSeconds() - r0;
    const std::vector<uint64_t> wcpu1 = WorkerCpuNs(&executor);
    round_logs.push_back(rig.driver->commit_log());
    if (!st.ok()) {
      report.attempted += round_logs.back().size() + 1;
      report.failed++;
      report.Fail("measured transaction: " + st.ToString());
      break;
    }
    txns += sz.round_txns;
    report.attempted += sz.round_txns;
    (timed ? timed_rates : plain_rates).push_back(sz.round_txns / dt);
    for (uint32_t w = 0; w < kShards; ++w) {
      worker_cpu[w] += wcpu1[w] - wcpu0[w];
      if (timed) timed_worker_cpu += wcpu1[w] - wcpu0[w];
    }
    if (timed) {
      timed_calls += rig.totals() - before;
      timed_wall += dt;
      timed_txns += sz.round_txns;
    }
    AddTpccStats(round_stats, in_window ? &window : &rest);
    if (in_window && txns >= sz.window_txns) {
      f1 = rig.store->stats();
      clocks1 = rig.store->shard_clocks();
      window_calls = rig.totals() - calls0;
    }
  }
  const double wall = NowSeconds() - t_start;
  const uint64_t cpu_ns = ProcessCpuNs() - cpu0;
  rig.set_timing(false);
  const auto pool1 = rig.pool_stats();
  const std::vector<uint64_t> final_clocks = rig.store->shard_clocks();

  // --- Correctness: single-threaded replay of the commit-order logs. -----
  if (report.correct) {
    if (opts.inject_fault && !round_logs.back().empty()) {
      round_logs.back().pop_back();  // smoke self-test: lose one commit
    }
    rig_owner.reset();  // only one full-size rig in memory at a time
    Rig ref;
    Status st = BuildRig(opts, sz, &ref);
    if (st.ok()) st = ref.driver->Load(nullptr);
    if (st.ok()) st = ref.driver->Replay(warmup_log, nullptr);
    TpccRunStats ref_window;
    TpccRunStats ref_rest;
    uint64_t replayed = 0;
    for (const TpccCommitLog& log : round_logs) {
      if (!st.ok()) break;
      TpccRunStats r;
      st = ref.driver->Replay(log, &r);
      AddTpccStats(r, replayed < sz.window_txns ? &ref_window : &ref_rest);
      replayed += sz.round_txns;
    }
    const bool same =
        st.ok() && ref.store->shard_clocks() == final_clocks &&
        ref_window.transactions == window.transactions &&
        ref_window.latency == window.latency &&
        ref_window.worst_op == window.worst_op &&
        ref_rest.transactions == rest.transactions &&
        ref_rest.latency == rest.latency && ref_rest.worst_op == rest.worst_op;
    if (!same) {
      report.unverifiable += txns;
      report.Fail(st.ok() ? "commit-order replay diverged from the served run"
                          : "replay: " + st.ToString());
    }
  }

  // --- End-to-end metrics (vt_* from the fixed window). ------------------
  const double w_txns = static_cast<double>(window.transactions);
  const flashdb::flash::OpCounters dev = f1.total - f0.total;
  uint64_t elapsed_vt = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    elapsed_vt = std::max(elapsed_vt, clocks1[s] - clocks0[s]);
  }
  const double write_us = static_cast<double>(dev.write_us + dev.erase_us);
  report.Set("host_ops_per_s", Median(plain_rates));
  report.Set("vt_us_per_op", Per(dev.total_us(), w_txns));
  report.Set("vt_read_us_per_op", Per(dev.read_us, w_txns));
  report.Set("vt_write_us_per_op", Per(write_us, w_txns));
  report.Set("vt_ops_per_s",
             Per(w_txns * 1e6, static_cast<double>(elapsed_vt)));
  report.Set("vt_p50_us", static_cast<double>(window.latency.p50()));
  report.Set("vt_p999_us", static_cast<double>(window.latency.p999()));
  report.Set("erases_per_kop", Per(dev.erases * 1000.0, w_txns));
  report.Set("peak_rss_mb", PeakRssMb());

  // --- Per-layer metrics. -------------------------------------------------
  auto cat = [&](OpCategory c) {
    return f1.by_category[static_cast<int>(c)] -
           f0.by_category[static_cast<int>(c)];
  };
  const flashdb::flash::OpCounters gc = cat(OpCategory::kGc);
  const double all_txns = static_cast<double>(txns);
  report.Set("workload.cpu_us_per_op", Per(cpu_ns * 1e-3, all_txns));
  AddStoreLayerMetrics(timed_calls, timed_txns, timed_wall, kShards, &report);
  report.Set("flash.reads_per_op", Per(dev.reads, w_txns));
  report.Set("flash.programs_per_op", Per(dev.writes, w_txns));
  report.Set("flash.erases_per_op", Per(dev.erases, w_txns));
  report.Set("pdl.programs_per_writeback",
             Per(dev.writes, window_calls.writeback_calls));
  report.Set("gc.vt_us_per_op", Per(gc.total_us(), w_txns));
  report.Set("gc.copies_per_op", Per(gc.writes, w_txns));
  report.Set("gc.erases_per_op", Per(gc.erases, w_txns));
  report.Set("gc.worst_op_gc_us", static_cast<double>(window.worst_op.gc_us));
  report.Set("meta.vt_us_per_op",
             Per(cat(OpCategory::kMeta).total_us(), w_txns));
  uint64_t cpu_sum = 0, cpu_max = 0;
  for (uint64_t c : worker_cpu) {
    cpu_sum += c;
    cpu_max = std::max(cpu_max, c);
  }
  report.Set("executor.parallelism", Per(cpu_sum * 1e-9, wall));
  report.Set("executor.worker_cpu_imbalance",
             Per(static_cast<double>(cpu_max) * kShards, cpu_sum));
  report.Set("executor.credit_wait_share",
             Per((window.credit_wait_ns + rest.credit_wait_ns) * 1e-9, wall));
  const uint64_t hits = pool1.hits - pool0.hits;
  const uint64_t misses = pool1.misses - pool0.misses;
  report.Set("pool.hit_rate", Per(hits, hits + misses));
  report.Set("pool.misses_per_txn", Per(misses, all_txns));
  report.Set("pool.evictions_per_txn",
             Per(pool1.evictions - pool0.evictions, all_txns));
  report.Set("pool.dirty_writebacks_per_txn",
             Per(pool1.dirty_writebacks - pool0.dirty_writebacks, all_txns));
  report.Set("storage.self_cpu_us_per_txn",
             Per((static_cast<double>(timed_worker_cpu) -
                  static_cast<double>(timed_calls.total_ns())) * 1e-3,
                 timed_txns));
  report.Set("trace.overhead",
             timed_rates.empty()
                 ? 0.0
                 : 1.0 - Median(timed_rates) / Median(plain_rates));
  if (opts.trace) {
    RunKernelProbes({opts.seed, kPageSize, 2.0, opts.tiny}, &report);
  }

  report.Info("vt_samples", std::to_string(window.latency.count()));
  report.Info("vt_samples_beyond_p999",
              std::to_string(window.latency.count() / 1000));
  report.Info("measured_ops", std::to_string(txns));
  report.Info("measured_s", std::to_string(wall));
  report.Info("warmup_txns", std::to_string(warmup_txns));
  AddVtInfo(&report);
  return report;
}

}  // namespace flashbench
