// Ablation A3: sensitivity of each method to *update depth* -- the average
// number of update operations each page has absorbed before measurement.
//
// PDL's differentials are cumulative against the base page, so PDL(2KB)'s
// costs climb as pages absorb more updates (differentials approach a full
// page and the differential region fills), until Case 3 resets them.
// Page-based methods are depth-insensitive. This explains why PDL(2KB)
// results are sensitive to the warm-up protocol (see the `--warmup-epb` /
// `--warmup-max` rows and the Rig paragraph of docs/BENCHMARKS.md); the
// paper's 10-erases-per-block warm-up corresponds to a depth of ~20 at its
// scale.

#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  std::printf(
      "Ablation: overall us/op vs update depth (updates per page before "
      "measurement; %%Changed=2, N=1)\n\n");
  TablePrinter tbl({"updates/page", "PDL(2048B)", "PDL(256B)", "OPU",
                    "IPL(18KB)"});
  for (uint32_t depth : {5u, 10u, 20u, 40u, 80u, 160u}) {
    std::vector<std::string> row = {std::to_string(depth)};
    for (const char* m : {"PDL(2048B)", "PDL(256B)", "OPU", "IPL(18KB)"}) {
      harness::ExperimentEnv e = env;
      e.warmup_erases_per_block = 1e9;  // cap entirely by op count
      e.warmup_max_ops = static_cast<uint64_t>(depth) * e.num_db_pages();
      workload::WorkloadParams params;
      params.pct_changed_by_one_op = 2.0;
      auto spec = methods::ParseMethodSpec(m);
      auto r = harness::RunWorkloadPoint(e, *spec, params);
      if (!r.ok()) {
        std::cerr << m << ": " << r.status().ToString() << "\n";
        return 1;
      }
      row.push_back(TablePrinter::Num(r->stats.overall_us_per_op()));
    }
    tbl.AddRow(std::move(row));
  }
  tbl.Print(std::cout);
  harness::JsonDump json(flags.GetString("json", ""));
  json.Add("warmup_depth_sweep", tbl);
  if (!json.Finish()) return 1;
  return 0;
}
