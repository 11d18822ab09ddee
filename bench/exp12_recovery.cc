// Experiment 12 (beyond the paper): crash-recovery cost of a journaled
// multi-chip store -- wall clock and virtual time vs. store size, committed
// bucket migrations, and sequential-vs-executor per-chip recovery.
//
// Setup per point: a ShardedStore with the durable meta journal enabled
// (FlashGeometry::meta_blocks reserved on every chip, journal on chip 0) is
// loaded, driven past GC steady state, migrated --swaps bucket pairs at the
// drained boundary, and then abandoned without any shutdown -- the store
// object is destroyed, the devices (the flash images) survive, exactly the
// crash the recovery path exists for. A fresh store instance then
// Recover()s: the journal scan restores the routing table (epoch-chain +
// CRC validated), and the per-chip spare scans rebuild the mapping tables --
// inline (mode=seq) or dispatched to the ShardExecutor workers (mode=exec).
//
// Columns per point:
//   * pages       -- logical pages in the database;
//   * epochs      -- migration epochs recovered from the journal (== swaps);
//   * wall_ms     -- host wall-clock of the Recover() call;
//   * rec par us  -- elapsed virtual recovery time (the largest chip-clock
//                    advance, workload::ClockAdvanceOf);
//   * rec work us -- total device busy time of recovery (the sum of the
//                    chip-clock advances): the single-chip-equivalent cost
//                    that mode=exec spreads across workers;
//   * roundtrip   -- recovered state must round-trip: swap count preserved
//                    and every logical page bit-identical to its pre-crash
//                    content (ok/FAIL);
//   * determinism -- mode=exec recovers a twin crash image and must leave
//                    every chip's clock, erase counts, and cells
//                    bit-identical to the mode=seq recovery
//                    (harness::FirstDivergence; ok for seq rows by
//                    definition).
//
// Expected shape: rec work us grows with store size (the scan is linear in
// programmed pages) and is mode-independent; rec par us drops by ~the shard
// count in mode=exec; migrations add only the journal scan's few reads.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "ftl/shard_executor.h"
#include "harness/experiment.h"
#include "harness/replay_verdict.h"
#include "harness/table_printer.h"
#include "workload/run_accounting.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

struct RecoveryRig {
  std::vector<std::unique_ptr<flash::FlashDevice>> devices;
  std::vector<flash::FlashDevice*> device_ptrs;
  std::unique_ptr<ftl::ShardedStore> store;
  std::unique_ptr<workload::UpdateDriver> driver;
  uint32_t db_pages = 0;
};

/// Builds a journaled store at steady state with `num_swaps` committed
/// migrations; deterministic, so two calls produce bit-identical crash
/// images.
Result<RecoveryRig> Prepare(const harness::ExperimentEnv& env,
                            const methods::MethodSpec& spec,
                            uint32_t num_shards, uint32_t total_blocks,
                            uint32_t meta_blocks, uint32_t buckets_per_shard,
                            uint32_t num_swaps) {
  // Guard before dividing and before constructing devices (whose ctor
  // aborts on an all-meta chip); compare without the underflow-prone
  // num_data_blocks().
  if (num_shards == 0 || total_blocks / num_shards < meta_blocks + 8) {
    return Status::InvalidArgument(
        std::to_string(total_blocks) + " blocks over --shards=" +
        std::to_string(num_shards) + ": need >= " +
        std::to_string(meta_blocks + 8) + " blocks per shard (" +
        std::to_string(meta_blocks) + " meta + 8 data)");
  }
  flash::FlashConfig shard_cfg = env.flash_cfg;
  shard_cfg.geometry.num_blocks = total_blocks / num_shards;
  shard_cfg.geometry.meta_blocks = meta_blocks;
  RecoveryRig rig;
  for (uint32_t i = 0; i < num_shards; ++i) {
    rig.devices.push_back(
        std::make_unique<flash::FlashDevice>(shard_cfg));
    rig.device_ptrs.push_back(rig.devices.back().get());
  }
  rig.store = methods::CreateShardedStoreOverDevices(rig.device_ptrs, spec);
  FLASHDB_RETURN_IF_ERROR(rig.store->EnableMetaJournal());
  // Fine bucket granularity keeps the migration unit -- and therefore each
  // swap's journal redo payload -- small relative to the meta region. The
  // trigger thresholds are irrelevant: this bench commits swaps manually.
  ftl::WearLevelConfig wl;
  wl.buckets_per_shard = buckets_per_shard;
  FLASHDB_RETURN_IF_ERROR(rig.store->router()->EnableRebalancing(wl));

  const auto& g = shard_cfg.geometry;
  const uint32_t pages_per_shard = g.data_pages() - 2 * g.pages_per_block;
  const uint32_t num_buckets = rig.store->router()->num_buckets();
  uint32_t db_pages = static_cast<uint32_t>(
      env.utilization * static_cast<double>(pages_per_shard) * num_shards);
  db_pages -= db_pages % num_buckets;  // equal-size buckets for clean swaps
  rig.db_pages = db_pages;
  if (num_swaps * 2 > num_buckets) {
    return Status::InvalidArgument("--swaps needs 2 buckets per swap");
  }

  workload::WorkloadParams wp;
  wp.seed = env.seed;
  rig.driver =
      std::make_unique<workload::UpdateDriver>(rig.store.get(), wp);
  FLASHDB_RETURN_IF_ERROR(rig.driver->LoadDatabase(db_pages));
  const uint64_t warmup_cap =
      env.warmup_max_ops != 0 ? env.warmup_max_ops : 20ULL * db_pages;
  FLASHDB_RETURN_IF_ERROR(
      rig.driver->Warmup(env.warmup_erases_per_block, warmup_cap));
  workload::RunStats stats;
  FLASHDB_RETURN_IF_ERROR(rig.driver->Run(env.measure_ops, &stats));

  // Commit the migrations one epoch at a time at the (quiescent) boundary:
  // consecutive bucket pairs (2k, 2k+1) always span two shards under
  // identity routing and hold equal page counts.
  for (uint32_t k = 0; k < num_swaps; ++k) {
    const std::vector<ftl::ShardRouter::Swap> swap = {
        ftl::ShardRouter::Swap{2 * k, 2 * k + 1}};
    FLASHDB_RETURN_IF_ERROR(rig.store->MigrateBuckets(swap, nullptr));
  }
  FLASHDB_RETURN_IF_ERROR(rig.store->Flush());
  return rig;
}

/// Per-page content fingerprints (pre-crash reference).
std::vector<uint32_t> ContentCrcs(ftl::ShardedStore* store,
                                  uint32_t db_pages) {
  std::vector<uint32_t> crcs(db_pages);
  ByteBuffer buf(store->device()->geometry().data_size);
  for (PageId pid = 0; pid < db_pages; ++pid) {
    if (!store->ReadPage(pid, buf).ok()) return {};
    crcs[pid] = Crc32c(buf);
  }
  return crcs;
}

struct RecoveryPoint {
  double wall_ms = 0;
  uint64_t rec_par_us = 0;
  uint64_t rec_work_us = 0;
  uint64_t epochs = 0;
  bool roundtrip = true;
  bool deterministic = true;
};

/// Crashes `rig` (drops the store instance) and measures one recovery over
/// the surviving devices. Returns the recovered store for cross-mode
/// comparison.
Result<std::unique_ptr<ftl::ShardedStore>> RecoverOnce(
    RecoveryRig* rig, const methods::MethodSpec& spec, uint32_t num_shards,
    bool use_executor, uint32_t num_swaps,
    const std::vector<uint32_t>& expect_crcs, RecoveryPoint* point) {
  rig->store.reset();  // the crash: RAM tables die, flash survives
  rig->driver.reset();

  auto recovered =
      methods::CreateShardedStoreOverDevices(rig->device_ptrs, spec);
  FLASHDB_RETURN_IF_ERROR(recovered->EnableMetaJournal());
  const std::vector<uint64_t> clocks0 = recovered->shard_clocks();
  const auto t0 = std::chrono::steady_clock::now();
  if (use_executor) {
    ftl::ShardExecutor executor(num_shards);
    FLASHDB_RETURN_IF_ERROR(recovered->Recover(&executor));
  } else {
    FLASHDB_RETURN_IF_ERROR(recovered->Recover());
  }
  const auto t1 = std::chrono::steady_clock::now();
  point->wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const std::vector<uint64_t> clocks1 = recovered->shard_clocks();
  const workload::ClockAdvance adv = workload::ClockAdvanceOf(clocks0, clocks1);
  point->rec_par_us = adv.elapsed_vt_us;
  point->rec_work_us = adv.total_work_us;
  point->epochs = recovered->journal_epochs();

  point->roundtrip =
      recovered->router()->swaps_committed() == num_swaps &&
      recovered->num_logical_pages() == expect_crcs.size();
  if (point->roundtrip) {
    ByteBuffer buf(recovered->device()->geometry().data_size);
    for (PageId pid = 0; pid < expect_crcs.size(); ++pid) {
      if (!recovered->ReadPage(pid, buf).ok() ||
          Crc32c(buf) != expect_crcs[pid]) {
        point->roundtrip = false;
        break;
      }
    }
  }
  return recovered;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  const uint32_t base_blocks = env.flash_cfg.geometry.num_blocks;
  const uint32_t num_shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  const uint32_t meta_blocks =
      static_cast<uint32_t>(flags.GetInt("meta-blocks", 4));
  const uint32_t buckets_per_shard =
      static_cast<uint32_t>(flags.GetInt("buckets", 32));
  const std::string method_name = flags.GetString("method", "OPU");
  const uint32_t max_swaps = static_cast<uint32_t>(flags.GetInt("swaps", 4));
  harness::JsonDump json(flags.GetString("json", ""));
  if (!flags.AllRead()) return 2;

  auto spec = methods::ParseMethodSpec(method_name);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }

  std::printf(
      "Experiment 12: crash recovery of a journaled sharded store, %s, "
      "%u shards, %u meta blocks/chip\n(store size x committed migrations x "
      "sequential-vs-executor per-chip recovery; virtual times are\n "
      "deterministic for fixed seed/flags)\n\n",
      method_name.c_str(), num_shards, meta_blocks);

  TablePrinter tbl({"Method", "blocks", "pages", "swaps", "mode", "epochs",
                    "wall_ms", "rec par us", "rec work us", "roundtrip",
                    "determinism"});
  const std::vector<uint32_t> sizes = {base_blocks, 2 * base_blocks};
  const std::vector<uint32_t> swap_counts = {0, max_swaps};
  int failures = 0;
  for (uint32_t total_blocks : sizes) {
    for (uint32_t num_swaps : swap_counts) {
      // Twin crash images: one recovered sequentially (the reference), one
      // on the executor; bit-identical results are the determinism check.
      auto seq_rig =
          Prepare(env, *spec, num_shards, total_blocks, meta_blocks,
                  buckets_per_shard, num_swaps);
      if (!seq_rig.ok()) {
        std::cerr << seq_rig.status().ToString() << "\n";
        return 1;
      }
      auto exec_rig =
          Prepare(env, *spec, num_shards, total_blocks, meta_blocks,
                  buckets_per_shard, num_swaps);
      if (!exec_rig.ok()) {
        std::cerr << exec_rig.status().ToString() << "\n";
        return 1;
      }
      // Both twins read their pre-crash content, so their clocks stay
      // equal and the recoveries are compared on absolute clocks.
      const std::vector<uint32_t> crcs =
          ContentCrcs(seq_rig->store.get(), seq_rig->db_pages);
      if (crcs.empty() ||
          ContentCrcs(exec_rig->store.get(), exec_rig->db_pages) != crcs) {
        std::cerr << "pre-crash content snapshot failed or differs\n";
        return 1;
      }

      RecoveryPoint seq_point;
      auto seq_store =
          RecoverOnce(&*seq_rig, *spec, num_shards, /*use_executor=*/false,
                      num_swaps, crcs, &seq_point);
      RecoveryPoint exec_point;
      auto exec_store =
          RecoverOnce(&*exec_rig, *spec, num_shards, /*use_executor=*/true,
                      num_swaps, crcs, &exec_point);
      if (!seq_store.ok() || !exec_store.ok()) {
        std::cerr << (seq_store.ok() ? exec_store.status() : seq_store.status())
                         .ToString()
                  << "\n";
        return 1;
      }

      // Executor recovery must be bit-identical to the sequential reference.
      if (auto d = harness::FirstDivergence(
              {harness::ChipsOf(seq_store->get())},
              {harness::ChipsOf(exec_store->get())})) {
        exec_point.deterministic = false;
        std::cerr << total_blocks << " blocks, " << num_swaps
                  << " swaps: exec recovery differs: " << d->message << "\n";
      }

      for (const auto* p : {&seq_point, &exec_point}) {
        if (!p->roundtrip || !p->deterministic) ++failures;
        tbl.AddRow({method_name, std::to_string(total_blocks),
                    std::to_string(seq_rig->db_pages),
                    std::to_string(num_swaps),
                    p == &seq_point ? "seq" : "exec",
                    std::to_string(p->epochs),
                    TablePrinter::Num(p->wall_ms, 2),
                    std::to_string(p->rec_par_us),
                    std::to_string(p->rec_work_us),
                    p->roundtrip ? "ok" : "FAIL",
                    p->deterministic ? "ok" : "FAIL"});
      }
    }
  }
  tbl.Print(std::cout);
  json.Add("exp12_recovery", tbl);
  if (!json.Finish()) return 1;
  if (failures != 0) {
    std::cerr << "\n" << failures
              << " recovery point(s) failed round-trip or determinism\n";
    return 1;
  }
  return 0;
}
