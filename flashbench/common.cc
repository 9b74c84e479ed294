#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.h"

namespace flashbench {

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void AddVtInfo(Report* report) {
  std::string vt = "{";
  for (const char* name :
       {"vt_us_per_op", "vt_read_us_per_op", "vt_write_us_per_op",
        "vt_ops_per_s", "vt_p50_us", "vt_p999_us", "erases_per_kop"}) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                  vt.size() > 1 ? ", " : "", name, report->metrics[name]);
    vt += buf;
  }
  report->Info("vt", vt + "}");
}

void AddStoreLayerMetrics(const TimedStore::Totals& t, uint64_t ops,
                          double timed_wall_s, uint32_t threads,
                          Report* report) {
  report->Set("store.read_us", Per(t.read_ns * 1e-3, t.read_calls));
  report->Set("store.read_calls_per_op", Per(t.read_calls, ops));
  report->Set("store.writeback_us",
              Per(t.writeback_ns * 1e-3, t.writeback_calls));
  report->Set("store.writeback_calls_per_op", Per(t.writeback_calls, ops));
  report->Set("store.flush_us", Per(t.flush_ns * 1e-3, t.flush_calls));
  report->Set("store.wall_share",
              Per(t.total_ns() * 1e-9, timed_wall_s * threads));
}

}  // namespace flashbench
