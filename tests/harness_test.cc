// Tests for the experiment harness: flag parsing, table printing, the bench
// rig (PrepareRig/Execute), the cross-mode replay check (ExecuteChecked), and
// an end-to-end workload point.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "flash/fault_injector.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "obs/trace_recorder.h"

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

/// A small steady-state environment shared by the rig tests.
ExperimentEnv SmallRigEnv() {
  ExperimentEnv env;
  env.flash_cfg = flash::FlashConfig::Small(32);
  env.warmup_erases_per_block = 1.0;
  env.warmup_max_ops = 2000;
  env.measure_ops = 600;
  return env;
}

/// A 2-chip OPU rig whose skew makes the wear-leveling rebalancer act.
RigSpec LevelingRigSpec() {
  RigSpec rig_spec{.shards = 2, .leveling = ftl::WearLevelConfig{}};
  rig_spec.leveling->max_erase_ratio = 1.25;
  rig_spec.leveling->min_total_erases = 8;
  rig_spec.params.hot_shard_pct = 90;
  rig_spec.params.rebalance_epoch_ops = 100;
  rig_spec.params.record_latency = true;
  return rig_spec;
}

/// Fails the first read attempt it is asked about, and no other.
class FirstReadFails : public flash::FaultInjector {
 public:
  void BeforeMutation(flash::OpKind, uint32_t) override {}
  void AfterMutation(flash::OpKind, uint32_t) override {}
  bool CorruptRead(uint32_t, uint32_t, uint32_t, uint32_t) override {
    return !fired_.exchange(true);
  }

 private:
  std::atomic<bool> fired_{false};
};

TEST(CheckedRunTest, SequentialRunReplaysThreaded) {
  const ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  auto rig = PrepareRig(env, *spec, RigSpec{.flat = true});
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  EXPECT_EQ(rig->chips(), 1u);
  EXPECT_EQ(rig->sharded(), nullptr);

  auto checked = ExecuteChecked(&rig.value(), env.measure_ops, Execution{});
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(checked->run.stats.operations, env.measure_ops);
  EXPECT_GT(checked->run.stats.overall_us_per_op(), 0.0);
  EXPECT_TRUE(checked->deterministic);
}

TEST(CheckedRunTest, ThreadedRunReplaysInline) {
  const ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto rig = PrepareRig(env, *spec, LevelingRigSpec());
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  ASSERT_NE(rig->sharded(), nullptr);
  EXPECT_EQ(rig->chips(), 2u);

  obs::TraceRecorder trace(rig->chips());
  const Execution threaded{.batch = 4, .depth = 2, .threaded = true};
  auto checked = ExecuteChecked(&rig.value(), env.measure_ops, threaded,
                                nullptr, nullptr, &trace);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_GT(trace.total_emitted(), 0u);
  EXPECT_TRUE(checked->deterministic);
}

TEST(CheckedRunTest, InlineRunReplaysThreaded) {
  const ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto rig = PrepareRig(env, *spec, LevelingRigSpec());
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();

  const Execution inline_ex{.batch = 4, .depth = 2};
  auto checked = ExecuteChecked(&rig.value(), env.measure_ops, inline_ex);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  // The skew must make the rebalancer act, or the replay proves little.
  EXPECT_GT(checked->run.stats.migrations, 0u);
  EXPECT_TRUE(checked->deterministic);
}

TEST(CheckedRunTest, RunsThatDifferFailTheVerdict) {
  const ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  auto rig = PrepareRig(env, *spec, RigSpec{.flat = true});
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();

  // Shared by both rigs, the injector fails one read of the run and none
  // of the replay's.
  FirstReadFails injector;
  auto checked = ExecuteChecked(&rig.value(), env.measure_ops, Execution{},
                                nullptr, &injector);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(checked->run.stats.device.integrity.read_retries, 1u);
  EXPECT_FALSE(checked->deterministic);
}

TEST(RigTest, ExecuteRejectsZeroOperations) {
  const ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto rig = PrepareRig(env, *spec, RigSpec{.flat = true});
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  const auto run = Execute(&rig.value(), 0, Execution{});
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status().ToString();
}

TEST(RigTest, RejectsFewerThanEightBlocksPerChip) {
  const ExperimentEnv env = SmallRigEnv();  // 32 blocks
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(PrepareRig(env, *spec, RigSpec{.shards = 4}).ok());
  const auto rig = PrepareRig(env, *spec, RigSpec{.shards = 8});
  ASSERT_FALSE(rig.ok());
  EXPECT_TRUE(rig.status().IsInvalidArgument()) << rig.status().ToString();
}

TEST(RigTest, RejectsFlatRigWithLeveling) {
  const ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  const RigSpec flat_leveling{.flat = true, .leveling = ftl::WearLevelConfig{}};
  const auto rig = PrepareRig(env, *spec, flat_leveling);
  ASSERT_FALSE(rig.ok());
  EXPECT_TRUE(rig.status().IsInvalidArgument()) << rig.status().ToString();
}

}  // namespace
}  // namespace flashdb::harness
