// The execution-engine property: every run mode of UpdateDriver is one
// windowed, credit-streamed engine, so Run(n), inline RunPipelined (null
// executor) and threaded RunPipelined over the same operations must leave
// identical chips (harness::FirstDivergence: clocks, erase counts, cells and
// canonical traces) and report identical virtual RunStats (histogram and
// worst op included).
//
// Swept: flat and 4-shard stores; OPU, IPU, PDL(256B) and IPL(18KB); batch
// 1 and 8; threaded depth 1 and 4; epochs off, and on with the durable meta
// journal plus wear-leveling rebalancing on the sharded store, where the OPU
// runs migrate. Latency recording, tracing and shadow verification stay on
// throughout. Run(n) is the batch-1 member of the family and never splits
// epochs, so it joins the comparison wherever no migration can happen.
//
// Recording itself changes nothing: a second test holds twins with latency
// recording and tracing switched on one at a time to each other.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "replay_oracle.h"

namespace flashdb::workload {
namespace {

constexpr uint64_t kOps = UpdateTwin::kOps;

/// Fails (with `label`) unless the two twins are indistinguishable in
/// everything virtual.
void ExpectSameExecution(const UpdateTwin& a, const UpdateTwin& b,
                         const std::string& label) {
  EXPECT_TRUE(
      SameTwins(a.rig.AsTwin(&a.recorder), b.rig.AsTwin(&b.recorder)))
      << label;
  EXPECT_TRUE(a.stats.SameVirtualAs(b.stats)) << label;
}

class ExecutionEngineTest
    : public ::testing::TestWithParam<std::tuple<const char*, bool, bool>> {};

TEST_P(ExecutionEngineTest, RunInlineAndThreadedAgree) {
  const auto [method, sharded, epochs] = GetParam();
  const bool leveling = sharded && epochs;
  for (const uint32_t batch : {1u, 8u}) {
    const std::string at = " batch " + std::to_string(batch);
    UpdateTwin inline_rig(method, sharded, epochs);
    ASSERT_TRUE(inline_rig.Execute({.batch = batch, .depth = 1}).ok()) << at;
    const RunStats& s = inline_rig.stats;
    EXPECT_EQ(s.operations, kOps);
    EXPECT_EQ(s.latency.count(), kOps);
    EXPECT_GT(s.latency.max(), 0u);
    EXPECT_EQ(s.credit_wait_ns, 0u);  // inline never parks
    // The worst op is sampled, and its causes never exceed its total.
    EXPECT_TRUE(s.worst_op.valid);
    EXPECT_LE(s.worst_op.read_us + s.worst_op.write_us + s.worst_op.gc_us +
                  s.worst_op.meta_us,
              s.worst_op.total_us);
    // The stream carries one op span per measured operation. Only a flat
    // IPU chip's block rewrites overflow its ring, dropping spans as well.
    if (std::string(method) != "IPU" || sharded) {
      EXPECT_EQ(inline_rig.recorder.total_dropped(), 0u) << at;
      EXPECT_EQ(CountEvents(inline_rig.recorder, obs::TraceCat::kOpSpan), kOps)
          << at;
    }
    if (leveling) {
      // Every swap is journaled; OPU's write volume trips the rebalancer
      // within this short run, so its runs really migrate.
      EXPECT_EQ(inline_rig.rig.sharded()->journal_epochs(), s.migrations)
          << at;
      if (std::string(method) == "OPU") {
        EXPECT_GT(s.migrations, 0u) << at;
      }
    }
    for (const uint32_t depth : {1u, 4u}) {
      UpdateTwin threaded(method, sharded, epochs);
      ASSERT_TRUE(threaded
                      .Execute({.batch = batch,
                                .depth = depth,
                                .threaded = true})
                      .ok());
      ExpectSameExecution(inline_rig, threaded,
                          "threaded depth " + std::to_string(depth) + at);
    }
    // Run() is the batch-1 engine without epochs: comparable wherever the
    // epoch boundaries cannot migrate anything.
    if (batch == 1 && !leveling) {
      UpdateTwin run(method, sharded, epochs);
      ASSERT_TRUE(run.Execute({}).ok());
      ExpectSameExecution(inline_rig, run, "Run()" + at);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StoresMethodsEpochs, ExecutionEngineTest,
    ::testing::Combine(
        ::testing::Values("OPU", "IPU", "PDL(256B)", "IPL(18KB)"),
        ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      name += std::get<1>(info.param) ? "_sharded" : "_flat";
      name += std::get<2>(info.param) ? "_epochs" : "_noepochs";
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// The null-sink contract: recording never moves virtual time. Three twins
// switch the recorders on one at a time -- none, latency, latency and
// tracing -- and each must leave the chips and virtual stats of the last.
TEST(RecordingTest, LatencyAndTracingChangeNothing) {
  harness::ExperimentEnv env;
  env.flash_cfg = flash::FlashConfig::Small(32);  // 2 chips of 16 blocks
  env.utilization = 0.25;
  env.warmup_erases_per_block = 1.0;
  env.warmup_max_ops = 4000;
  const auto spec = methods::ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  obs::TraceRecorder recorder(2);
  std::vector<harness::Rig> rigs;
  std::vector<harness::PointResult> runs;
  for (int on = 0; on < 3; ++on) {
    harness::RigSpec shape{.shards = 2};
    shape.params.record_latency = on >= 1;
    auto rig = harness::PrepareRig(env, *spec, shape);
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    if (on == 2) rig->Attach(nullptr, &recorder);
    auto run = harness::Execute(&*rig, 500, {.batch = 8, .depth = 1});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    runs.push_back(*run);
    rigs.push_back(std::move(*rig));
  }
  EXPECT_TRUE(SameTwins(rigs[0].AsTwin(), rigs[1].AsTwin()));
  EXPECT_EQ(runs[0].cost.advance, runs[1].cost.advance);
  // Tracing keeps every virtual field, the histogram and worst op included.
  EXPECT_TRUE(SameTwins(rigs[1].AsTwin(), rigs[2].AsTwin()));
  EXPECT_TRUE(runs[1].stats.SameVirtualAs(runs[2].stats));
  EXPECT_EQ(runs[1].cost.advance, runs[2].cost.advance);
  EXPECT_GT(recorder.total_emitted(), 0u);
}

}  // namespace
}  // namespace flashdb::workload
