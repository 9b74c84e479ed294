// Importers: project the subsystems' existing deterministic counter structs
// into an obs::MetricsRegistry under a dotted name prefix. Keeping these as
// free functions (instead of registry pointers inside FlashDevice &c.) keeps
// the hot paths untouched -- the registry is populated at report time only,
// so it can never perturb a virtual clock or a gated column.
//
// Naming convention: "<prefix>.<field>", e.g. "flash.erases",
// "run.latency.p999", "exec.shard0.in_flight". Histograms import as
// Kind::kHist summary fields (count/mean/p50/p95/p99/p999/max).

#ifndef FLASHDB_OBS_METRICS_IMPORT_H_
#define FLASHDB_OBS_METRICS_IMPORT_H_

#include <string>

#include "obs/metrics_registry.h"

namespace flashdb::flash {
struct FlashStats;
}
namespace flashdb::ftl {
class ShardExecutor;
class ShardedStore;
}  // namespace flashdb::ftl
namespace flashdb::storage {
struct BufferPoolStats;
}
namespace flashdb::workload {
class LatencyHistogram;
struct RunStats;
struct TpccRunStats;
}  // namespace flashdb::workload

namespace flashdb::obs {

class TraceRecorder;

/// Histogram summary: <prefix>.count/.mean/.p50/.p95/.p99/.p999/.max.
void ImportHistogram(MetricsRegistry* reg, const std::string& prefix,
                     const workload::LatencyHistogram& h);

/// Device traffic: ops/us totals, per-category totals, wear (max/mean/cv),
/// plane busy/stall, read-retry integrity counters.
void ImportFlashStats(MetricsRegistry* reg, const std::string& prefix,
                      const flash::FlashStats& s);

/// Workload run breakdown: per-op figures, category totals, stall
/// attribution, credit_wait, latency histogram, worst-op attribution.
void ImportRunStats(MetricsRegistry* reg, const std::string& prefix,
                    const workload::RunStats& s);

/// TPC-C serving stats: txn counts (total and per type), latency histograms,
/// elapsed/total virtual time, credit_wait.
void ImportTpccStats(MetricsRegistry* reg, const std::string& prefix,
                     const workload::TpccRunStats& s);

/// Buffer pool: hits/misses/evictions/dirty write-backs/hit rate.
void ImportBufferPoolStats(MetricsRegistry* reg, const std::string& prefix,
                           const storage::BufferPoolStats& s);

/// Executor: per-worker submitted/completed/in_flight (queue depth) and the
/// pinned-worker count. Read while quiescent for exact values.
void ImportExecutorStats(MetricsRegistry* reg, const std::string& prefix,
                         const ftl::ShardExecutor& ex);

/// Sharded store: per-shard virtual clocks, parallel_time_us (max),
/// total_work_us (sum), shard lag, journal epochs.
void ImportShardedStoreStats(MetricsRegistry* reg, const std::string& prefix,
                             const ftl::ShardedStore& store);

/// Trace recorder health: <prefix>.emitted/.dropped over the per-shard
/// virtual-time lanes (deterministic for a fixed schedule), the wall lane's
/// credit-wait events as <prefix>.wall_emitted/.wall_dropped (they move with
/// host timing), and <prefix>.shards.
void ImportTraceStats(MetricsRegistry* reg, const std::string& prefix,
                      const TraceRecorder& rec);

}  // namespace flashdb::obs

#endif  // FLASHDB_OBS_METRICS_IMPORT_H_
