// The execution-engine property: every run mode of UpdateDriver is one
// windowed, credit-streamed engine, so Run(n), inline RunPipelined (null
// executor) and threaded RunPipelined over the same operations must leave
// identical flash cells and per-chip clocks, and report identical virtual
// RunStats (histogram and worst op included) and canonical traces.
//
// Swept: flat and 4-shard stores; OPU, IPU, PDL(256B) and IPL(18KB); batch
// 1 and 8; threaded depth 1 and 4; epochs off, and on with the durable meta
// journal plus wear-leveling rebalancing on the sharded store. Latency
// recording, tracing and shadow verification stay on throughout. Run(n) is
// the batch-1 member of the family and never splits epochs, so it joins the
// comparison wherever no migration can happen.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "obs/trace_recorder.h"
#include "workload/update_driver.h"

namespace flashdb::workload {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

constexpr uint32_t kShards = 4;
constexpr uint32_t kPages = 160;
constexpr uint64_t kOps = 800;
constexpr uint64_t kEpochOps = 200;

/// One execution of the swept configuration.
enum class Mode { kRun, kInline, kThreaded };

struct Config {
  std::string method;
  bool sharded = false;
  bool epochs = false;

  bool leveling() const { return sharded && epochs; }
};

/// A warmed store with a recorder on every chip. Identical configs yield
/// identical state, so the rigs of one comparison execute the very same
/// operations from the very same flash image.
struct Rig {
  std::vector<std::unique_ptr<FlashDevice>> devices;
  std::unique_ptr<PageStore> store;
  std::unique_ptr<UpdateDriver> driver;
  std::unique_ptr<obs::TraceRecorder> recorder;
  RunStats stats;

  explicit Rig(const Config& cfg) {
    auto spec = methods::ParseMethodSpec(cfg.method);
    EXPECT_TRUE(spec.ok());
    const uint32_t chips = cfg.sharded ? kShards : 1;
    const FlashConfig flash_cfg = FlashConfig::Small(12).WithMetaBlocks(4);
    std::vector<FlashDevice*> ptrs;
    for (uint32_t i = 0; i < chips; ++i) {
      devices.push_back(std::make_unique<FlashDevice>(flash_cfg));
      ptrs.push_back(devices.back().get());
    }
    WorkloadParams params;
    params.verify = true;
    params.record_latency = true;
    params.pct_update_ops = 80.0;
    if (cfg.sharded) {
      auto sharded = methods::CreateShardedStoreOverDevices(ptrs, *spec);
      if (cfg.epochs) {
        EXPECT_TRUE(sharded->EnableMetaJournal().ok());
      }
      if (cfg.leveling()) {
        ftl::WearLevelConfig wl;
        wl.buckets_per_shard = 8;
        wl.max_erase_ratio = 1.25;
        wl.min_total_erases = 8;
        EXPECT_TRUE(sharded->router()->EnableRebalancing(wl).ok());
      }
      params.hot_shard_pct = 90.0;  // a hotspot to park on and to level
      store = std::move(sharded);
    } else {
      store = methods::CreateStore(ptrs[0], *spec);
    }
    if (cfg.epochs) params.rebalance_epoch_ops = kEpochOps;
    driver = std::make_unique<UpdateDriver>(store.get(), params);
    EXPECT_TRUE(driver->LoadDatabase(kPages).ok());
    EXPECT_TRUE(driver->Warmup(1.0, 2000).ok());
    recorder = std::make_unique<obs::TraceRecorder>(chips);
    for (uint32_t i = 0; i < chips; ++i) {
      devices[i]->set_trace(recorder->shard(i));
    }
    driver->set_wall_trace(recorder->wall_lane());
  }

  /// Executes the measured operations in `mode`.
  Status Execute(Mode mode, uint32_t batch, uint32_t depth) {
    if (mode == Mode::kRun) return driver->Run(kOps, &stats);
    const Schedule schedule = driver->MakeSchedule(kOps);
    if (mode == Mode::kInline) {
      return driver->RunPipelined(schedule, batch, depth, nullptr, &stats);
    }
    ftl::ShardExecutor executor(static_cast<uint32_t>(devices.size()),
                                /*queue_capacity=*/depth);
    return driver->RunPipelined(schedule, batch, depth, &executor, &stats);
  }
};

/// Fails (with `label`) unless the two rigs are indistinguishable in
/// everything virtual.
void ExpectSameExecution(const Rig& a, const Rig& b, const std::string& label) {
  ASSERT_EQ(a.devices.size(), b.devices.size()) << label;
  for (size_t i = 0; i < a.devices.size(); ++i) {
    FlashDevice* da = a.devices[i].get();
    FlashDevice* db = b.devices[i].get();
    EXPECT_EQ(da->clock().now_us(), db->clock().now_us())
        << label << ": chip " << i;
    for (flash::PhysAddr addr = 0; addr < da->geometry().total_pages();
         ++addr) {
      ASSERT_TRUE(BytesEqual(da->RawData(addr), db->RawData(addr)))
          << label << ": chip " << i << " data differs at page " << addr;
      ASSERT_TRUE(BytesEqual(da->RawSpare(addr), db->RawSpare(addr)))
          << label << ": chip " << i << " spare differs at page " << addr;
    }
  }
  // Histogram and worst op included.
  EXPECT_TRUE(a.stats.SameVirtualAs(b.stats)) << label;
  EXPECT_EQ(a.recorder->CanonicalBytes(), b.recorder->CanonicalBytes())
      << label;
}

class ExecutionEngineTest
    : public ::testing::TestWithParam<std::tuple<const char*, bool, bool>> {};

TEST_P(ExecutionEngineTest, RunInlineAndThreadedAgree) {
  const Config cfg{std::get<0>(GetParam()), std::get<1>(GetParam()),
                   std::get<2>(GetParam())};
  for (const uint32_t batch : {1u, 8u}) {
    const std::string at = " batch " + std::to_string(batch);
    Rig inline_rig(cfg);
    ASSERT_TRUE(inline_rig.Execute(Mode::kInline, batch, 1).ok()) << at;
    EXPECT_EQ(inline_rig.stats.operations, kOps);
    EXPECT_EQ(inline_rig.stats.latency.count(), kOps);
    EXPECT_EQ(inline_rig.stats.credit_wait_ns, 0u);  // inline never parks
    if (cfg.leveling()) {
      // Every swap is journaled; OPU's write volume trips the rebalancer
      // within this short run, so its runs really migrate.
      auto* sharded = static_cast<ftl::ShardedStore*>(inline_rig.store.get());
      EXPECT_EQ(sharded->journal_epochs(), inline_rig.stats.migrations) << at;
      if (cfg.method == "OPU") {
        EXPECT_GT(inline_rig.stats.migrations, 0u) << at;
      }
    }
    for (const uint32_t depth : {1u, 4u}) {
      Rig threaded(cfg);
      ASSERT_TRUE(threaded.Execute(Mode::kThreaded, batch, depth).ok());
      ExpectSameExecution(inline_rig, threaded,
                          "threaded depth " + std::to_string(depth) + at);
    }
    // Run() is the batch-1 engine without epochs: comparable wherever the
    // epoch boundaries cannot migrate anything.
    if (batch == 1 && !cfg.leveling()) {
      Rig run(cfg);
      ASSERT_TRUE(run.Execute(Mode::kRun, 1, 1).ok());
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

}  // namespace
}  // namespace flashdb::workload
