// flashbench: the end-to-end and per-layer benchmark of flashdb.
//
// One binary runs one workload for one seed and prints one JSON result line
// (see main.cc). Everything here is measured from outside the library: the
// store boundary is timed by the TimedStore decorator below, the other
// layers are read from the counters the library already exposes (FlashStats,
// RunStats, TpccRunStats, BufferPoolStats) or timed by kernel probes that
// call each layer's public functions directly (probes.cc).

#ifndef FLASHBENCH_BENCH_H_
#define FLASHBENCH_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ftl/page_store.h"

namespace flashbench {

/// Command-line settings of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny geometry and windows and a single set-up, for the smoke
  /// self-test only.
  bool tiny = false;
  /// Deliberately corrupts the correctness comparison (smoke self-test).
  bool inject_fault = false;

  /// Set-ups per run; setup_s is their median.
  int setups() const { return tiny ? 1 : 3; }
};

/// What a workload run hands back to main(): the correctness verdict, the
/// counts, both metric sets, and free-form `info` fields printed on their
/// own line (sample counts, warmup stop reason, the deterministic vt_*
/// figures the smoke test compares across traced and untraced runs).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;        ///< Ops or transactions that returned an error.
  /// Ops or pages the post-run comparison could not vouch for.
  uint64_t unverifiable = 0;
  std::string error;          ///< First error, if any.
  /// Every metric by name, end-to-end and per-layer alike; the units and
  /// the split between the two sets live in main.cc's metric tables.
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> info;  ///< key -> JSON value

  void Set(const std::string& name, double v) { metrics[name] = v; }
  void Info(std::string key, std::string json_value) {
    info.emplace_back(std::move(key), std::move(json_value));
  }
  void Fail(const std::string& what) {
    correct = false;
    if (error.empty()) error = what;
  }
};

Report RunPdlWorkload(const Options& opts, double pct_update_ops);
Report RunTpccWorkload(const Options& opts);

/// Kernel probes (probes.cc): per-call host time of each layer's hot
/// function, on inputs drawn from `seed`, each warmed up before timing.
struct ProbeSettings {
  uint64_t seed = 1;
  uint32_t page_size = 2048;
  double pct_changed = 2.0;  ///< The workload's change ratio per update.
  bool tiny = false;
};
void RunKernelProbes(const ProbeSettings& settings, Report* report);

// --- Clocks -----------------------------------------------------------------

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}
inline uint64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
inline uint64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

double Median(std::vector<double> v);

/// num / den, or 0 when nothing was counted.
inline double Per(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Adds the `vt` info field: the deterministic virtual-time figures, which
/// must read the same in the traced and the untraced run of one seed.
void AddVtInfo(Report* report);

// --- Store boundary ---------------------------------------------------------

/// PageStore decorator that counts every call into the wrapped store and,
/// while timing is on, accumulates the wall time spent inside ReadPage,
/// WriteBack/WriteBatch and Flush. Thread-confined like the store it wraps:
/// read totals() only while the owning thread is quiescent.
class TimedStore final : public flashdb::PageStore {
 public:
  struct Totals {
    uint64_t read_calls = 0;
    uint64_t read_ns = 0;
    uint64_t writeback_calls = 0;  ///< Pages written back (batch entries too).
    uint64_t writeback_ns = 0;
    uint64_t flush_calls = 0;
    uint64_t flush_ns = 0;

    uint64_t total_ns() const { return read_ns + writeback_ns + flush_ns; }
    Totals operator-(const Totals& o) const {
      return {read_calls - o.read_calls,
              read_ns - o.read_ns,
              writeback_calls - o.writeback_calls,
              writeback_ns - o.writeback_ns,
              flush_calls - o.flush_calls,
              flush_ns - o.flush_ns};
    }
    Totals& operator+=(const Totals& o) {
      read_calls += o.read_calls;
      read_ns += o.read_ns;
      writeback_calls += o.writeback_calls;
      writeback_ns += o.writeback_ns;
      flush_calls += o.flush_calls;
      flush_ns += o.flush_ns;
      return *this;
    }
  };

  explicit TimedStore(std::unique_ptr<flashdb::PageStore> inner)
      : inner_(std::move(inner)) {}

  /// Swaps in another store over the same device (post-run remount).
  void Replace(std::unique_ptr<flashdb::PageStore> inner) {
    inner_ = std::move(inner);
  }

  void set_timing(bool on) { timing_ = on; }
  const Totals& totals() const { return totals_; }

  std::string_view name() const override { return inner_->name(); }
  flashdb::Status Format(uint32_t n, PageInitializer init,
                         void* arg) override {
    return inner_->Format(n, init, arg);
  }
  flashdb::Status ReadPage(flashdb::PageId pid,
                           flashdb::MutBytes out) override {
    totals_.read_calls++;
    const uint64_t t0 = timing_ ? NowNs() : 0;
    flashdb::Status st = inner_->ReadPage(pid, out);
    if (timing_) totals_.read_ns += NowNs() - t0;
    return st;
  }
  flashdb::Status OnUpdate(flashdb::PageId pid, flashdb::ConstBytes page_after,
                           const flashdb::UpdateLog& log) override {
    return inner_->OnUpdate(pid, page_after, log);
  }
  flashdb::Status WriteBack(flashdb::PageId pid,
                            flashdb::ConstBytes page) override {
    totals_.writeback_calls++;
    const uint64_t t0 = timing_ ? NowNs() : 0;
    flashdb::Status st = inner_->WriteBack(pid, page);
    if (timing_) totals_.writeback_ns += NowNs() - t0;
    return st;
  }
  flashdb::Status WriteBatch(
      std::span<const flashdb::PageWrite> writes) override {
    totals_.writeback_calls += writes.size();
    const uint64_t t0 = timing_ ? NowNs() : 0;
    flashdb::Status st = inner_->WriteBatch(writes);
    if (timing_) totals_.writeback_ns += NowNs() - t0;
    return st;
  }
  flashdb::Status Flush() override {
    totals_.flush_calls++;
    const uint64_t t0 = timing_ ? NowNs() : 0;
    flashdb::Status st = inner_->Flush();
    if (timing_) totals_.flush_ns += NowNs() - t0;
    return st;
  }
  flashdb::Status ScrubPhysPage(flashdb::flash::PhysAddr addr,
                                bool* relocated) override {
    return inner_->ScrubPhysPage(addr, relocated);
  }
  flashdb::Status Recover() override { return inner_->Recover(); }
  uint32_t num_logical_pages() const override {
    return inner_->num_logical_pages();
  }
  std::vector<uint32_t> bad_blocks() const override {
    return inner_->bad_blocks();
  }
  void NoteBadBlocksForRecovery(const std::vector<uint32_t>& blocks) override {
    inner_->NoteBadBlocksForRecovery(blocks);
  }
  flashdb::flash::FlashDevice* device() override { return inner_->device(); }
  void set_category(flashdb::flash::OpCategory c) override {
    inner_->set_category(c);
  }
  flashdb::flash::OpCategory category() override { return inner_->category(); }
  flashdb::flash::FlashStats stats() override { return inner_->stats(); }
  uint64_t total_erases() override { return inner_->total_erases(); }
  flashdb::flash::WearSummary wear() override { return inner_->wear(); }

 private:
  std::unique_ptr<flashdb::PageStore> inner_;
  bool timing_ = false;
  Totals totals_;
};

/// Fills the store-boundary layer metrics from timed-round totals.
void AddStoreLayerMetrics(const TimedStore::Totals& t, uint64_t ops,
                          double timed_wall_s, uint32_t threads,
                          Report* report);

}  // namespace flashbench

#endif  // FLASHBENCH_BENCH_H_
