// Tests for the experiment harness: flag parsing, table printing, the warmed
// rig every bench builds on, and an end-to-end workload point.

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.h"
#include "harness/table_printer.h"

namespace flashdb::harness {
namespace {

TEST(FlagsTest, ParsesKeyValueAndBareFlags) {
  const char* argv[] = {"prog", "--ops=123", "--util=0.25", "--verbose",
                        "positional", "--name=PDL(256B)"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("ops", 0), 123);
  EXPECT_DOUBLE_EQ(flags.GetDouble("util", 0), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("quiet", false));
  EXPECT_EQ(flags.GetString("name", ""), "PDL(256B)");
  EXPECT_EQ(flags.GetString("missing", "def"), "def");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, BoolParsing) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=true", "--d=1"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_TRUE(flags.GetBool("d", false));
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"method", "us/op"});
  t.AddRow({"OPU", "2130.0"});
  t.AddRow({"PDL(256B)", "620.5"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("PDL(256B)"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(1000.0, 0), "1000");
}

TEST(ExperimentEnvTest, DefaultsAndOverrides) {
  const char* argv[] = {"prog", "--blocks=64", "--ops=500", "--tread=50"};
  Flags flags(4, const_cast<char**>(argv));
  ExperimentEnv env = ExperimentEnv::FromFlags(flags);
  EXPECT_EQ(env.flash_cfg.geometry.num_blocks, 64u);
  EXPECT_EQ(env.measure_ops, 500u);
  EXPECT_EQ(env.flash_cfg.timing.read_us, 50u);
  EXPECT_EQ(env.num_db_pages(), (64u * 64u - 2u * 64u) / 2u);
}

TEST(ExperimentTest, RunWorkloadPointEndToEnd) {
  ExperimentEnv env;
  env.flash_cfg = flash::FlashConfig::Small(16);
  env.warmup_erases_per_block = 0.5;
  env.warmup_max_ops = 2000;
  env.measure_ops = 200;
  workload::WorkloadParams params;
  params.pct_changed_by_one_op = 2.0;

  auto spec = methods::ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  auto result = RunWorkloadPoint(env, *spec, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->method, "PDL(256B)");
  EXPECT_EQ(result->stats.operations, 200u);
  EXPECT_GT(result->stats.overall_us_per_op(), 0.0);
}

TEST(ExperimentTest, ShapeCheckPdlBeatsOpuOnSmallUpdates) {
  // A compact end-to-end sanity check of the paper's headline claim at
  // %Changed=2, N=1: PDL(256B) must beat OPU on overall update cost.
  ExperimentEnv env;
  env.flash_cfg = flash::FlashConfig::Small(32);
  env.warmup_erases_per_block = 1.0;
  env.warmup_max_ops = 20000;
  env.measure_ops = 1000;
  workload::WorkloadParams params;

  auto pdl = RunWorkloadPoint(env, *methods::ParseMethodSpec("PDL(256B)"),
                              params);
  auto opu = RunWorkloadPoint(env, *methods::ParseMethodSpec("OPU"), params);
  ASSERT_TRUE(pdl.ok()) << pdl.status().ToString();
  ASSERT_TRUE(opu.ok()) << opu.status().ToString();
  EXPECT_LT(pdl->stats.overall_us_per_op(), opu->stats.overall_us_per_op());
}

/// Small enough to warm in milliseconds, deep enough to run GC.
ExperimentEnv SmallRigEnv(uint32_t blocks) {
  ExperimentEnv env;
  env.flash_cfg = flash::FlashConfig::Small(blocks);
  env.warmup_erases_per_block = 1.0;
  env.warmup_max_ops = 8000;
  return env;
}

Result<Rig> WarmRig(const ExperimentEnv& env, const std::string& method,
                    uint32_t shards) {
  const methods::MethodSpec spec = *methods::ParseMethodSpec(method);
  Result<Rig> built = shards == 0 ? Rig::Flat(env, spec)
                                  : Rig::Sharded(env, spec, shards);
  FLASHDB_ASSIGN_OR_RETURN(Rig rig, std::move(built));
  workload::WorkloadParams params;
  params.pct_changed_by_one_op = 10.0;  // fills PDL's log fast enough to GC
  FLASHDB_RETURN_IF_ERROR(rig.LoadAndWarm(params));
  return rig;
}

// Every bench's determinism replay compares a run against a second rig
// built from the same arguments; that only proves something if the two
// rigs start from the same flash image and clocks.
TEST(RigTest, IdenticalArgumentsGiveIdenticalRigs) {
  const ExperimentEnv env = SmallRigEnv(16);
  for (const std::string method : {"PDL(256B)", "OPU"}) {
    for (const uint32_t shards : {0u, 2u}) {  // 0 = flat
      SCOPED_TRACE(method + " shards=" + std::to_string(shards));
      auto a = WarmRig(env, method, shards);
      auto b = WarmRig(env, method, shards);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->clocks(), b->clocks());
      EXPECT_EQ(a->clocks().size(), shards == 0 ? 1u : shards);
      ASSERT_GT(a->store()->total_erases(), 0u) << "warm-up never ran GC";
      const std::vector<flash::FlashDevice*> da = a->devices();
      const std::vector<flash::FlashDevice*> db = b->devices();
      ASSERT_EQ(da.size(), db.size());
      for (size_t chip = 0; chip < da.size(); ++chip) {
        const flash::FlashGeometry& g = da[chip]->geometry();
        ASSERT_EQ(g.num_blocks, shards == 0 ? 16u : 16u / shards);
        for (uint32_t block = 0; block < g.num_blocks; ++block) {
          for (uint32_t page = 0; page < g.pages_per_block; ++page) {
            const flash::PhysAddr addr = da[chip]->AddrOf(block, page);
            ASSERT_TRUE(BytesEqual(da[chip]->RawData(addr),
                                   db[chip]->RawData(addr)))
                << "chip " << chip << " block " << block << " page " << page;
            ASSERT_TRUE(BytesEqual(da[chip]->RawSpare(addr),
                                   db[chip]->RawSpare(addr)))
                << "chip " << chip << " block " << block << " page " << page;
          }
        }
      }
    }
  }
}

TEST(RigTest, TooManyShardsIsInvalidArgument) {
  const ExperimentEnv env = SmallRigEnv(32);
  auto rig = Rig::Sharded(env, *methods::ParseMethodSpec("OPU"), 5);
  ASSERT_FALSE(rig.ok());
  EXPECT_TRUE(rig.status().IsInvalidArgument());
  EXPECT_NE(rig.status().ToString().find(
                "too many shards for --blocks: 6 blocks/shard, need >= 8"),
            std::string::npos)
      << rig.status().ToString();
  EXPECT_TRUE(Rig::Sharded(env, *methods::ParseMethodSpec("OPU"), 4).ok());
}

// The database size rounds once, over all chips: floor(u * p * s), not
// s * floor(u * p).
TEST(RigTest, ShardedDbPagesRoundOnceOverAllChips) {
  ExperimentEnv env = SmallRigEnv(64);
  env.utilization = 0.3;
  auto rig = Rig::Sharded(env, *methods::ParseMethodSpec("OPU"), 3);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  // 21 blocks per chip: 21 * 64 - 2 * 64 = 1216 usable pages, and
  // 0.3 * 1216 = 364.8 per chip.
  EXPECT_EQ(rig->db_pages(), 1094u);  // floor(364.8 * 3), not 3 * 364
}

TEST(RigTest, FlatDbPagesMatchNumDbPages) {
  for (const double util : {0.3, 0.5, 0.77}) {
    ExperimentEnv env = SmallRigEnv(64);
    env.utilization = util;
    const Rig rig = Rig::Flat(env, *methods::ParseMethodSpec("OPU"));
    EXPECT_EQ(rig.db_pages(), env.num_db_pages()) << "util " << util;
  }
}

}  // namespace
}  // namespace flashdb::harness
