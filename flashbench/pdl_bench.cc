// The pdl-update and pdl-read-mostly workloads: PDL(256B) on one
// FlashConfig::Small chip at 50% utilization, paper Table 3 parameters (2%
// changed per update, N_updates_till_write = 1), one client driving the
// sequential UpdateDriver::Run with no DBMS buffer, so every op reaches
// flash. The two differ only in %UpdateOps (100 vs the Exp. 4 mix of 10).
//
// Shape of one run:
//   set-up (repeated opts.setups() times; setup_s is the median): format,
//     load and warm up to 10 erases per block or the op cap;
//   measured region: rounds of round_ops ops until opts.seconds have passed.
//     The first window_ops ops form the fixed "vt window" every virtual-time
//     figure comes from, so those repeat exactly for a seed no matter how
//     fast the host is; host_ops_per_s is the median round rate;
//   correctness: every read is checked against UpdateDriver's shadow copy
//     (WorkloadParams::verify); afterwards the store is flushed, a fresh
//     store is remounted on the same chip with Recover(), and every page is
//     read back through it and compared with the shadow.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "flash/flash_device.h"
#include "methods/method_factory.h"
#include "workload/update_driver.h"

namespace flashbench {
namespace {

using flashdb::Status;
using flashdb::flash::FlashDevice;
using flashdb::flash::FlashStats;
using flashdb::workload::RunStats;

constexpr double kWarmupErasesPerBlock = 10.0;  // the paper's steady state
constexpr double kUtilization = 0.5;

struct Sizing {
  uint32_t blocks;
  uint64_t window_ops;  ///< Ops behind every vt_* figure.
  uint64_t round_ops;   ///< Ops per timed round.
};

Sizing SizingFor(const Options& opts, double pct_update_ops) {
  if (opts.tiny) return {16, 2000, 250};
  // Read-mostly ops are cheaper on the host and rarely erase, so its window
  // is longer to keep erases_per_kop and vt_write_us_per_op steady across
  // seeds. Each window takes about 3 s on a 4-core 2 GHz Xeon.
  return pct_update_ops >= 100.0 ? Sizing{128, 100000, 500}
                                 : Sizing{128, 200000, 1000};
}

struct Rig {
  std::unique_ptr<FlashDevice> dev;
  std::unique_ptr<TimedStore> store;
  std::unique_ptr<flashdb::workload::UpdateDriver> driver;
  uint32_t num_pages = 0;
  double load_s = 0;
  double warmup_s = 0;
  uint64_t warmup_ops = 0;
  bool warmup_hit_cap = false;
};

Status BuildRig(const Options& opts, const Sizing& sz, double pct_update_ops,
                const flashdb::methods::MethodSpec& spec, Rig* rig) {
  const double t0 = NowSeconds();
  const flashdb::flash::FlashConfig cfg =
      flashdb::flash::FlashConfig::Small(sz.blocks);
  const auto& g = cfg.geometry;
  rig->num_pages = static_cast<uint32_t>(
      kUtilization *
      static_cast<double>(g.total_pages() - 2 * g.pages_per_block));
  rig->dev = std::make_unique<FlashDevice>(cfg);
  rig->store = std::make_unique<TimedStore>(
      flashdb::methods::CreateStore(rig->dev.get(), spec));
  flashdb::workload::WorkloadParams wp;
  wp.pct_changed_by_one_op = 2.0;
  wp.updates_till_write = 1;
  wp.pct_update_ops = pct_update_ops;
  wp.seed = opts.seed;
  wp.verify = true;
  wp.record_latency = true;
  rig->driver =
      std::make_unique<flashdb::workload::UpdateDriver>(rig->store.get(), wp);
  FLASHDB_RETURN_IF_ERROR(rig->driver->LoadDatabase(rig->num_pages));
  const double t1 = NowSeconds();
  // Warmup is update-only, so each op is exactly one WriteBack.
  const uint64_t cap = 20ULL * rig->num_pages;
  const uint64_t wb0 = rig->store->totals().writeback_calls;
  FLASHDB_RETURN_IF_ERROR(rig->driver->Warmup(kWarmupErasesPerBlock, cap));
  rig->warmup_ops = rig->store->totals().writeback_calls - wb0;
  rig->warmup_hit_cap = static_cast<double>(rig->store->total_erases()) <
                        kWarmupErasesPerBlock * sz.blocks;
  rig->load_s = t1 - t0;
  rig->warmup_s = NowSeconds() - t1;
  return Status::OK();
}

void AddRunStats(const RunStats& r, RunStats* acc) {
  acc->operations += r.operations;
  acc->update_ops += r.update_ops;
  acc->read_step += r.read_step;
  acc->write_step += r.write_step;
  acc->gc += r.gc;
  acc->meta += r.meta;
  acc->erases += r.erases;
  acc->elapsed_vt_us += r.elapsed_vt_us;
  acc->latency.Merge(r.latency);
  acc->worst_op.Offer(r.worst_op);
}

}  // namespace

Report RunPdlWorkload(const Options& opts, double pct_update_ops) {
  Report report;
  const Sizing sz = SizingFor(opts, pct_update_ops);
  auto spec = flashdb::methods::ParseMethodSpec("PDL(256B)");

  // --- Set-up, repeated; the last rig is the one measured. ---------------
  std::unique_ptr<Rig> rig_owner;
  std::vector<double> setup_s, load_s, warmup_s;
  for (int i = 0; i < opts.setups(); ++i) {
    rig_owner.reset();  // release the previous rig before building the next
    rig_owner = std::make_unique<Rig>();
    const double t0 = NowSeconds();
    Status st = BuildRig(opts, sz, pct_update_ops, *spec, rig_owner.get());
    if (!st.ok()) {
      report.attempted = 1;
      report.failed = 1;
      report.Fail("set-up: " + st.ToString());
      return report;
    }
    setup_s.push_back(NowSeconds() - t0);
    load_s.push_back(rig_owner->load_s);
    warmup_s.push_back(rig_owner->warmup_s);
  }
  Rig& rig = *rig_owner;
  report.Set("setup_s", Median(setup_s));
  report.Set("setup.load_s", Median(load_s));
  report.Set("setup.warmup_s", Median(warmup_s));
  report.Set("setup.warmup_ops", static_cast<double>(rig.warmup_ops));
  report.Set("setup.warmup_erases_per_block",
             static_cast<double>(rig.store->total_erases()) / sz.blocks);
  report.Set("setup.warmup_hit_cap", rig.warmup_hit_cap ? 1 : 0);
  report.Info("warmup_stop", rig.warmup_hit_cap ? "\"cap\"" : "\"target\"");

  // --- Measured region. ---------------------------------------------------
  TimedStore* store = rig.store.get();
  RunStats window;
  const FlashStats f0 = store->stats();
  FlashStats f1 = f0;
  const TimedStore::Totals calls0 = store->totals();
  TimedStore::Totals window_calls;
  TimedStore::Totals timed_calls;
  double timed_wall = 0;
  uint64_t timed_ops = 0;
  std::vector<double> plain_rates, timed_rates;
  uint64_t ops = 0;
  const double t_start = NowSeconds();
  const uint64_t cpu0 = ProcessCpuNs();
  for (uint64_t round = 0;; ++round) {
    const bool in_window = ops < sz.window_ops;
    if (!in_window && NowSeconds() - t_start >= opts.seconds) break;
    // The traced run alternates timed and untimed rounds, so trace.overhead
    // compares rounds of the same chip state in the same process.
    const bool timed = opts.trace && round % 2 == 1;
    store->set_timing(timed);
    const TimedStore::Totals before = store->totals();
    RunStats round_stats;
    const double r0 = NowSeconds();
    const Status st = rig.driver->Run(sz.round_ops, &round_stats);
    const double dt = NowSeconds() - r0;
    if (!st.ok()) {
      report.attempted += round_stats.operations + 1;
      report.failed++;
      report.Fail("measured op: " + st.ToString());
      break;
    }
    ops += sz.round_ops;
    report.attempted += sz.round_ops;
    (timed ? timed_rates : plain_rates).push_back(sz.round_ops / dt);
    if (timed) {
      timed_calls += store->totals() - before;
      timed_wall += dt;
      timed_ops += sz.round_ops;
    }
    if (in_window) {
      AddRunStats(round_stats, &window);
      if (ops >= sz.window_ops) {
        f1 = store->stats();
        window_calls = store->totals() - calls0;
      }
    }
  }
  const double wall = NowSeconds() - t_start;
  const uint64_t cpu_ns = ProcessCpuNs() - cpu0;
  store->set_timing(false);

  // --- Correctness: remount and compare every page with the shadow. ------
  if (report.correct) {
    Status st = store->Flush();
    auto fresh = flashdb::methods::CreateStore(rig.dev.get(), *spec);
    if (st.ok()) st = fresh->Recover();
    if (st.ok() && opts.inject_fault) {
      // Smoke self-test: change one page behind the shadow's back.
      flashdb::ByteBuffer page(rig.dev->geometry().data_size);
      st = fresh->ReadPage(0, page);
      page[0] ^= 0x5A;
      if (st.ok()) st = fresh->WriteBack(0, page);
    }
    store->Replace(std::move(fresh));
    if (!st.ok()) {
      report.unverifiable += rig.num_pages;
      report.Fail("remount: " + st.ToString());
    } else {
      for (flashdb::PageId pid = 0; pid < rig.num_pages; ++pid) {
        const Status rs = rig.driver->ReadOperation(pid);
        if (!rs.ok()) {
          report.unverifiable++;
          report.Fail("after remount: " + rs.ToString());
        }
      }
    }
  }

  // --- End-to-end metrics (vt_* from the fixed window). ------------------
  const double w_ops = static_cast<double>(window.operations);
  const auto& lat = window.latency;
  report.Set("host_ops_per_s", Median(plain_rates));
  report.Set("vt_us_per_op", window.overall_us_per_op());
  report.Set("vt_read_us_per_op", window.read_us_per_op());
  report.Set("vt_write_us_per_op", window.write_us_per_op());
  report.Set("vt_ops_per_s",
             Per(w_ops * 1e6, static_cast<double>(window.elapsed_vt_us)));
  report.Set("vt_p50_us", static_cast<double>(lat.p50()));
  report.Set("vt_p999_us", static_cast<double>(lat.p999()));
  report.Set("erases_per_kop", Per(window.erases * 1000.0, w_ops));
  report.Set("peak_rss_mb", PeakRssMb());

  // --- Per-layer metrics. -------------------------------------------------
  const flashdb::flash::OpCounters dev = f1.total - f0.total;
  report.Set("workload.cpu_us_per_op",
             Per(static_cast<double>(cpu_ns) * 1e-3, static_cast<double>(ops)));
  AddStoreLayerMetrics(timed_calls, timed_ops, timed_wall, 1, &report);
  report.Set("flash.reads_per_op", Per(dev.reads, w_ops));
  report.Set("flash.programs_per_op", Per(dev.writes, w_ops));
  report.Set("flash.erases_per_op", Per(dev.erases, w_ops));
  report.Set("pdl.programs_per_writeback",
             Per(dev.writes, window_calls.writeback_calls));
  report.Set("gc.vt_us_per_op", Per(window.gc.total_us(), w_ops));
  report.Set("gc.copies_per_op", Per(window.gc.writes, w_ops));
  report.Set("gc.erases_per_op", Per(window.gc.erases, w_ops));
  report.Set("gc.worst_op_gc_us", static_cast<double>(window.worst_op.gc_us));
  report.Set("meta.vt_us_per_op", Per(window.meta.total_us(), w_ops));
  // One client thread and no executor: parallelism is the process's CPU over
  // wall time, and nothing waits for credits.
  report.Set("executor.parallelism", Per(cpu_ns * 1e-9, wall));
  report.Set("executor.worker_cpu_imbalance", 1.0);
  report.Set("executor.credit_wait_share", 0.0);
  for (const char* name :
       {"pool.hit_rate", "pool.misses_per_txn", "pool.evictions_per_txn",
        "pool.dirty_writebacks_per_txn", "storage.self_cpu_us_per_txn"}) {
    report.Set(name, 0.0);
  }
  report.Set("trace.overhead",
             timed_rates.empty()
                 ? 0.0
                 : 1.0 - Median(timed_rates) / Median(plain_rates));
  if (opts.trace) {
    RunKernelProbes({opts.seed, rig.dev->geometry().data_size, 2.0, opts.tiny},
                    &report);
  }

  report.Info("vt_samples", std::to_string(lat.count()));
  report.Info("vt_samples_beyond_p999", std::to_string(lat.count() / 1000));
  report.Info("measured_ops", std::to_string(ops));
  report.Info("measured_s", std::to_string(wall));
  AddVtInfo(&report);
  return report;
}

}  // namespace flashbench
