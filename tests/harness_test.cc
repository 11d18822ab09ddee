// Tests for the experiment harness: flag parsing, table printing, the bench
// rig (PrepareRig/Execute), the cross-mode replay check (ExecuteChecked), and
// an end-to-end workload point.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "flash/fault_injector.h"
#include "harness/experiment.h"
#include "harness/replay_verdict.h"
#include "harness/table_printer.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "replay_oracle.h"

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

TEST(FlagsTest, AllReadNamesEveryArgumentNoCallAskedFor) {
  const char* argv[] = {"build/exp1_update_cost", "--ops=300", "--opz=5",
                        "--verbose", "extra"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("ops", 0), 300);
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_EQ(flags.GetInt("seed", 42), 42);  // read, though not given
  std::ostringstream err;
  EXPECT_FALSE(flags.AllRead(err));
  EXPECT_EQ(err.str(), "exp1_update_cost: unknown argument(s): --opz extra\n");
  EXPECT_EQ(flags.GetInt("opz", 0), 5);
  EXPECT_FALSE(flags.AllRead(err));  // the positional argument still counts
  const char* clean[] = {"prog", "--ops=1"};
  Flags read_all(2, const_cast<char**>(clean));
  EXPECT_EQ(read_all.GetInt("ops", 0), 1);
  EXPECT_TRUE(read_all.AllRead(err));
}

TEST(FlagsTest, AllReadNamesEveryValueThatIsNotWhollyANumber) {
  const char* argv[] = {"build/exp1_update_cost", "--ops=abc", "--util=0.5x",
                        "--seed=99999999999999999999", "--blocks=64",
                        "--ber=1e-3", "--opz=5"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("ops", 4000), 4000);  // the default, never 0
  EXPECT_DOUBLE_EQ(flags.GetDouble("util", 0.5), 0.5);
  EXPECT_EQ(flags.GetInt("seed", 42), 42);
  EXPECT_EQ(flags.GetInt("blocks", 128), 64);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ber", 0), 1e-3);
  std::ostringstream err;
  EXPECT_FALSE(flags.AllRead(err));
  EXPECT_EQ(err.str(),
            "exp1_update_cost: unknown argument(s): --opz\n"
            "exp1_update_cost: --ops=abc: not a number\n"
            "exp1_update_cost: --seed=99999999999999999999: out of range\n"
            "exp1_update_cost: --util=0.5x: not a number\n");
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
  EXPECT_EQ(checked->stats.operations, env.measure_ops);
  EXPECT_GT(checked->stats.overall_us_per_op(), 0.0);
  EXPECT_TRUE(checked->deterministic());
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
                                nullptr, &trace);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_GT(trace.total_emitted(), 0u);
  EXPECT_TRUE(checked->deterministic());
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
  EXPECT_GT(checked->stats.migrations, 0u);
  EXPECT_TRUE(checked->deterministic());
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
                                &injector);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(checked->stats.device.integrity.read_retries, 1u);
  EXPECT_FALSE(checked->deterministic());
  // The retry pass moved the clock and nothing else.
  EXPECT_EQ(checked->divergence.rfind("chip 0 clock", 0), 0u)
      << checked->divergence;
}

TEST(FirstDivergenceTest, NamesTheChipAndPageOfAnExtraSpareProgram) {
  const flash::FlashConfig cfg = flash::FlashConfig::Small(8);
  flash::FlashDevice a0(cfg), a1(cfg), b0(cfg), b1(cfg);
  const ByteBuffer data(cfg.geometry.data_size, 0x5A);
  const ByteBuffer spare(flash::FlashGeometry::spare_size, 0xA5);
  for (flash::FlashDevice* chip : {&a0, &a1, &b0, &b1}) {
    ASSERT_TRUE(chip->ProgramPage(3, data, spare).ok());
  }
  const Twin a{{&a0, &a1}};
  const Twin b{{&b0, &b1}};
  EXPECT_FALSE(FirstDivergence(a, b).has_value());
  ASSERT_TRUE(b1.ProgramSpare(3, ByteBuffer(spare.size(), 0x05)).ok());
  const auto d = FirstDivergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->what, "spare");
  EXPECT_EQ(d->chip, 1u);
  EXPECT_EQ(d->index, 3u);
  EXPECT_NE(d->message.find("chip 1 page 3 spare"), std::string::npos)
      << d->message;
}

TEST(FirstDivergenceTest, NamesTheShardSeqAndTimeOfAnExtraEvent) {
  obs::TraceRecorder a(2), b(2);
  for (obs::TraceRecorder* rec : {&a, &b}) {
    rec->shard(0)->Emit(obs::TraceCat::kFlashRead, 10, 5);
    rec->shard(1)->Emit(obs::TraceCat::kFlashProgram, 20, 5);
    rec->wall_lane()->Emit(obs::TraceCat::kCreditWait, 1, 0);
  }
  b.wall_lane()->Emit(obs::TraceCat::kCreditWait, 2, 0);  // not canonical
  EXPECT_FALSE(FirstDivergence({.trace = &a}, {.trace = &b}).has_value());
  // An extra erase on shard 0, merged between the two events both share.
  b.shard(0)->Emit(obs::TraceCat::kFlashErase, 15, 1);
  const auto d = FirstDivergence({.trace = &a}, {.trace = &b});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->chip, 0u);
  EXPECT_EQ(d->index, 1u);
  EXPECT_EQ(d->ts_us, 15u);
  EXPECT_EQ(d->what, "event ts_us");
  EXPECT_NE(d->message.find("flash_erase"), std::string::npos) << d->message;
  // A traced twin never matches an untraced one.
  EXPECT_EQ(FirstDivergence({.trace = &a}, {})->what, "trace");
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
  // ServeChecked serves TPC-C rigs only.
  EXPECT_TRUE(ServeChecked(&rig.value(), 10).status().IsInvalidArgument());
}

TEST(RigTest, DepthZeroTakesNeitherThreadsNorABatch) {
  const ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto rig = PrepareRig(env, *spec, RigSpec{.shards = 2});
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  const size_t epochs = Metrics().num_epochs();
  for (const Execution& ex :
       {Execution{.threaded = true}, Execution{.batch = 8}}) {
    const auto run = Execute(&rig.value(), env.measure_ops, ex);
    EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status().ToString();
    EXPECT_NE(run.status().ToString().find("depth 0"), std::string::npos)
        << run.status().ToString();
  }
  EXPECT_EQ(Metrics().num_epochs(), epochs);  // refused before it ran
  EXPECT_TRUE(Execute(&rig.value(), env.measure_ops, Execution{}).ok());
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

TEST(RigTest, SizesTheDatabaseOverTheDataRegion) {
  ExperimentEnv env = SmallRigEnv();
  env.flash_cfg = flash::FlashConfig::Small(48).WithMetaBlocks(4);
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  // Two chips of 24 blocks, 20 of them data: half of 20 - 2 blocks each.
  auto rig = PrepareRig(env, *spec, RigSpec{.shards = 2});
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  EXPECT_EQ(rig->store()->num_logical_pages(), 18u * 64u);
  EXPECT_EQ(env.num_db_pages(2), 18u * 64u);
  EXPECT_EQ(rig->sharded()->journal_epochs(), 0u);
  // Leveling rounds down to whole buckets: 30% is 691 pages, 688 over 16.
  env.utilization = 0.3;
  auto leveled = PrepareRig(
      env, *spec, RigSpec{.shards = 2, .leveling = ftl::WearLevelConfig{}});
  ASSERT_TRUE(leveled.ok()) << leveled.status().ToString();
  EXPECT_EQ(env.num_db_pages(2), 691u);
  EXPECT_EQ(leveled->store()->num_logical_pages(), 688u);
}

TEST(RigTest, RejectsFewerThanEightDataBlocksBeforeBuildingAChip) {
  ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  // 12 blocks less 4 meta leave 8 data blocks per chip; 11 leave 7.
  env.flash_cfg = flash::FlashConfig::Small(24).WithMetaBlocks(4);
  EXPECT_TRUE(PrepareRig(env, *spec, RigSpec{.shards = 2}).ok());
  // 7 data blocks, and an all-meta chip, which would abort in the
  // FlashDevice constructor.
  for (const uint32_t blocks : {22u, 16u}) {
    env.flash_cfg = flash::FlashConfig::Small(blocks).WithMetaBlocks(
        blocks == 16 ? 8 : 4);
    const auto rig = PrepareRig(env, *spec, RigSpec{.shards = 2});
    ASSERT_FALSE(rig.ok()) << blocks;
    EXPECT_TRUE(rig.status().IsInvalidArgument()) << rig.status().ToString();
  }
}

// A journaled, migrated rig crashes and remounts over its chips: recovery
// inline and on the executor leave identical chips and restore the swaps,
// and the remounted rig refuses to be measured.
TEST(RigTest, RemountInlineAndOnExecutorLeaveIdenticalChips) {
  ExperimentEnv env = SmallRigEnv();
  env.flash_cfg = flash::FlashConfig::Small(40).WithMetaBlocks(4);
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  const Execution inline_ex{.batch = 4, .depth = 2};
  std::vector<Rig> rigs;
  for (int i = 0; i < 2; ++i) {
    auto rig = PrepareRig(env, *spec, LevelingRigSpec());
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    ASSERT_TRUE(Execute(&rig.value(), env.measure_ops, inline_ex).ok());
    rigs.push_back(std::move(*rig));
  }
  const uint64_t swaps = rigs[0].sharded()->router()->swaps_committed();
  EXPECT_GT(swaps, 0u);
  ASSERT_TRUE(SameTwins(rigs[0].AsTwin(), rigs[1].AsTwin()));

  rigs[0].Crash();
  EXPECT_EQ(rigs[0].store(), nullptr);
  const auto inline_rec = rigs[0].Remount(/*on_executor=*/false);
  ASSERT_TRUE(inline_rec.ok()) << inline_rec.status().ToString();
  const auto exec_rec = rigs[1].Remount(/*on_executor=*/true);
  ASSERT_TRUE(exec_rec.ok()) << exec_rec.status().ToString();
  EXPECT_GT(inline_rec->advance.total_work_us, 0u);
  EXPECT_EQ(inline_rec->advance.total_work_us, exec_rec->advance.total_work_us);
  EXPECT_TRUE(SameTwins(rigs[0].AsTwin(), rigs[1].AsTwin()));
  for (Rig& rig : rigs) {
    EXPECT_EQ(rig.sharded()->router()->swaps_committed(), swaps);
    const auto run = Execute(&rig, env.measure_ops, Execution{});
    EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status().ToString();
  }
}

// A geometry the flash layer refuses, or a utilization that leaves the
// database no page, is InvalidArgument naming the field before any chip is
// built: IPL would divide by a page size of 0, and a chip without planes
// would abort.
TEST(RigTest, RejectsABadGeometryOrUtilizationBeforeBuildingAChip) {
  const auto spec = methods::ParseMethodSpec("IPL(18KB)");
  ASSERT_TRUE(spec.ok());
  struct Probe {
    const char* field;
    void (*edit)(ExperimentEnv*);
  };
  const Probe probes[] = {
      {"data_size",
       [](ExperimentEnv* e) { e->flash_cfg.geometry.data_size = 0; }},
      {"planes_per_die",
       [](ExperimentEnv* e) { e->flash_cfg.geometry.planes_per_die = 0; }},
      {"dies_per_chip",
       [](ExperimentEnv* e) { e->flash_cfg.geometry.dies_per_chip = 0; }},
      {"--util=0", [](ExperimentEnv* e) { e->utilization = 0; }},
      {"--util=-0.5", [](ExperimentEnv* e) { e->utilization = -0.5; }},
  };
  for (const Probe& probe : probes) {
    ExperimentEnv env = SmallRigEnv();
    probe.edit(&env);
    const auto rig = PrepareRig(env, *spec, RigSpec{.flat = true});
    ASSERT_FALSE(rig.ok()) << probe.field;
    EXPECT_TRUE(rig.status().IsInvalidArgument()) << rig.status().ToString();
    EXPECT_NE(rig.status().ToString().find(probe.field), std::string::npos)
        << rig.status().ToString();
  }
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

// Every measured call adds one epoch to the binary's registry, holding only
// what that call set; a replay twin, a load and a warm-up add none.
TEST(MetricsTest, EveryMeasuredCallAddsOneEpochOfItsOwn) {
  ExperimentEnv env = SmallRigEnv();
  env.flash_cfg = flash::FlashConfig::Small(40).WithMetaBlocks(4);
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  const obs::MetricsRegistry& metrics = Metrics();
  size_t epochs = metrics.num_epochs();
  auto rig = PrepareRig(env, *spec, LevelingRigSpec());
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  EXPECT_EQ(metrics.num_epochs(), epochs);  // load and warm-up

  const Execution threaded{.batch = 4, .depth = 2, .threaded = true};
  auto checked = ExecuteChecked(&rig.value(), env.measure_ops, threaded);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_TRUE(checked->deterministic());
  EXPECT_EQ(metrics.num_epochs(), ++epochs);  // not the twin's replay
  EXPECT_EQ(metrics.Get("run.operations"), env.measure_ops);
  EXPECT_EQ(metrics.Get("cost.elapsed_vt_us"),
            checked->cost.advance.elapsed_vt_us);
  EXPECT_FALSE(metrics.Has("run.elapsed_vt_us"));  // one name per value
  EXPECT_EQ(metrics.Get("executor.workers"), 2);
  EXPECT_GT(metrics.Get("store.shard1.clock_us"), 0);
  EXPECT_FALSE(metrics.Has("tpcc.transactions"));

  ASSERT_TRUE(rig->Remount(/*on_executor=*/true).ok());
  EXPECT_EQ(metrics.num_epochs(), ++epochs);
  EXPECT_EQ(metrics.Get("run.operations"), 0);  // a recovery runs no ops
  EXPECT_GT(metrics.Get("cost.total_work_us"), 0);

  // A one-chip epoch after a two-chip one holds no second chip's value.
  auto one_chip = PrepareRig(env, *spec, RigSpec{.shards = 1});
  ASSERT_TRUE(one_chip.ok()) << one_chip.status().ToString();
  ASSERT_TRUE(Execute(&one_chip.value(), env.measure_ops, threaded).ok());
  EXPECT_EQ(metrics.num_epochs(), ++epochs);
  EXPECT_EQ(metrics.Get("executor.workers"), 1);
  EXPECT_GT(metrics.Get("executor.worker0.submitted"), 0);
  EXPECT_GT(metrics.Get("store.shard0.clock_us"), 0);
  EXPECT_EQ(metrics.Get("executor.worker1.submitted"), 0);
  EXPECT_EQ(metrics.Get("store.shard1.clock_us"), 0);

  workload::TpccDriverOptions opts;
  opts.scale.warehouses = 1;
  opts.scale.districts_per_warehouse = 2;
  opts.scale.customers_per_district = 10;
  opts.scale.items = 50;
  opts.scale.init_orders_per_district = 5;
  opts.scale.transaction_headroom = 200;
  opts.frames_per_shard = 32;
  auto tpcc = PrepareTpccRig(*spec, opts, /*shards=*/1, /*warmup_tx=*/20);
  ASSERT_TRUE(tpcc.ok()) << tpcc.status().ToString();
  EXPECT_EQ(metrics.num_epochs(), epochs);  // load and warm-up
  auto served = ServeChecked(&tpcc.value(), 30);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->deterministic()) << served->divergence;
  EXPECT_EQ(metrics.num_epochs(), ++epochs);  // not the twin's replay
  EXPECT_EQ(metrics.Get("tpcc.transactions"), 30);
  EXPECT_EQ(metrics.Get("run.operations"), 0);

  // Every --json dump carries the registry, one epoch per measured call.
  const std::string path = ::testing::TempDir() + "metrics_test.json";
  JsonDump dump(path);
  TablePrinter table({"k"});
  dump.Add("table", table);
  ASSERT_TRUE(dump.Finish());
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"metrics\": " + metrics.ToJson()), std::string::npos);
  size_t dumped = 0;
  for (size_t at = json.find("{\"epoch\":"); at != std::string::npos;
       at = json.find("{\"epoch\":", at + 1)) {
    ++dumped;
  }
  EXPECT_EQ(dumped, epochs);
}

// Two identically prepared, traced, threaded checked runs write the same
// epoch but for host time: the wall clock and the producer's credit waits.
// A traced epoch counts the chip lanes' events only, so a wall-lane credit
// wait that one run took and the other did not moves nothing.
TEST(MetricsTest, IdenticalRunsWriteEpochsThatDifferOnlyInHostTime) {
  const ExperimentEnv env = SmallRigEnv();
  const auto spec = methods::ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  RigSpec shape{.shards = 2};
  shape.params.record_latency = true;
  const Execution threaded{.batch = 4, .depth = 2, .threaded = true};
  const obs::MetricsRegistry& metrics = Metrics();
  for (int i = 0; i < 2; ++i) {
    auto rig = PrepareRig(env, *spec, shape);
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    obs::TraceRecorder trace(rig->chips());
    if (i == 0) trace.wall_lane()->Emit(obs::TraceCat::kCreditWait, 1, 0);
    auto checked = ExecuteChecked(&rig.value(), env.measure_ops, threaded,
                                  nullptr, &trace);
    ASSERT_TRUE(checked.ok()) << checked.status().ToString();
    EXPECT_TRUE(checked->deterministic()) << checked->divergence;
    EXPECT_EQ(metrics.Get("trace.emitted"),
              trace.shard(0)->emitted() + trace.shard(1)->emitted());
  }
  const size_t n = metrics.num_epochs();
  std::map<std::string, double> first = metrics.Epoch(n - 2);
  std::map<std::string, double> second = metrics.Epoch(n - 1);
  EXPECT_GT(first.at("trace.emitted"), 0);
  EXPECT_GT(first.at("run.latency.count"), 0);
  for (const char* host : {"cost.wall_ms", "run.credit_wait_ns"}) {
    first.erase(host);
    second.erase(host);
  }
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace flashdb::harness
