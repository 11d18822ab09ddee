// Experiment 12 (beyond the paper): crash-recovery cost of a journaled
// multi-chip store -- wall clock and virtual time vs. store size, committed
// bucket migrations, and sequential-vs-executor per-chip recovery.
//
// Setup per point: a harness rig over chips that reserve --meta-blocks
// blocks each (FlashGeometry::meta_blocks; the sharded store journals its
// routing on chip 0) is loaded, driven past GC steady state, migrated
// --swaps bucket pairs at the drained boundary, and then crashed without
// any shutdown -- the store and its driver die, the chips (the flash
// images) survive, exactly the crash the recovery path exists for. The
// rig's remount builds a fresh store instance that Recover()s: the journal
// scan restores the routing table (epoch-chain + CRC validated), and the
// per-chip spare scans rebuild the mapping tables -- inline (mode=seq) or
// dispatched to the ShardExecutor workers (mode=exec).
//
// Columns per point:
//   * pages       -- logical pages in the database;
//   * epochs      -- migration epochs recovered from the journal (== swaps);
//   * wall_ms     -- host wall-clock of the Recover() call;
//   * rec par us  -- elapsed virtual recovery time (the largest chip-clock
//                    advance, harness::Cost);
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

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "harness/experiment.h"
#include "harness/replay_verdict.h"
#include "harness/table_printer.h"

using namespace flashdb;
using harness::TablePrinter;

namespace {

/// A journaled rig at steady state, measured for env.measure_ops operations
/// and then migrated `num_swaps` bucket pairs, one committed epoch each.
/// Deterministic, so two calls leave bit-identical crash images.
Result<harness::Rig> Prepare(const harness::ExperimentEnv& env,
                             const methods::MethodSpec& spec,
                             uint32_t num_shards, uint32_t buckets_per_shard,
                             uint32_t num_swaps) {
  // Fine bucket granularity keeps the migration unit -- and therefore each
  // swap's journal redo payload -- small relative to the meta region. The
  // trigger thresholds are irrelevant: this bench commits swaps manually.
  const harness::RigSpec shape{
      .shards = num_shards,
      .leveling = ftl::WearLevelConfig{.buckets_per_shard = buckets_per_shard}};
  FLASHDB_ASSIGN_OR_RETURN(harness::Rig rig,
                           harness::PrepareRig(env, spec, shape));
  FLASHDB_RETURN_IF_ERROR(
      harness::Execute(&rig, env.measure_ops, harness::Execution{}).status());
  // Consecutive bucket pairs (2k, 2k+1) always span two shards under
  // identity routing and hold equal page counts.
  for (uint32_t k = 0; k < num_swaps; ++k) {
    const std::vector<ftl::ShardRouter::Swap> swap = {
        ftl::ShardRouter::Swap{2 * k, 2 * k + 1}};
    FLASHDB_RETURN_IF_ERROR(rig.sharded()->MigrateBuckets(swap, nullptr));
  }
  FLASHDB_RETURN_IF_ERROR(rig.store()->Flush());
  return rig;
}

/// Per-page content fingerprints; empty when a read fails.
std::vector<uint32_t> ContentCrcs(PageStore* store) {
  std::vector<uint32_t> crcs(store->num_logical_pages());
  ByteBuffer buf(store->device()->geometry().data_size);
  for (PageId pid = 0; pid < crcs.size(); ++pid) {
    if (!store->ReadPage(pid, buf).ok()) return {};
    crcs[pid] = Crc32c(buf);
  }
  return crcs;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags(argc, argv);
  harness::ExperimentEnv env = harness::ExperimentEnv::FromFlags(flags);
  const uint32_t base_blocks = env.flash_cfg.geometry.num_blocks;
  const uint32_t num_shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  env.flash_cfg = env.flash_cfg.WithMetaBlocks(
      static_cast<uint32_t>(flags.GetInt("meta-blocks", 4)));
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
  if (max_swaps * 2 > num_shards * buckets_per_shard) {
    std::cerr << "--swaps needs 2 buckets per swap\n";
    return 1;
  }

  std::printf(
      "Experiment 12: crash recovery of a journaled sharded store, %s, "
      "%u shards, %u meta blocks/chip\n(store size x committed migrations x "
      "sequential-vs-executor per-chip recovery; virtual times are\n "
      "deterministic for fixed seed/flags)\n\n",
      method_name.c_str(), num_shards, env.flash_cfg.geometry.meta_blocks);

  TablePrinter tbl({"Method", "blocks", "pages", "swaps", "mode", "epochs",
                    "wall_ms", "rec par us", "rec work us", "roundtrip",
                    "determinism"});
  const std::vector<uint32_t> sizes = {base_blocks, 2 * base_blocks};
  const std::vector<uint32_t> swap_counts = {0, max_swaps};
  int failures = 0;
  for (uint32_t total_blocks : sizes) {
    env.flash_cfg.geometry.num_blocks = total_blocks;
    for (uint32_t num_swaps : swap_counts) {
      // Twin crash images: one recovered inline (the reference), one on the
      // executor; bit-identical results are the determinism check.
      auto seq = Prepare(env, *spec, num_shards, buckets_per_shard, num_swaps);
      auto exec = Prepare(env, *spec, num_shards, buckets_per_shard, num_swaps);
      if (!seq.ok() || !exec.ok()) {
        std::cerr << (seq.ok() ? exec.status() : seq.status()).ToString()
                  << "\n";
        return 1;
      }
      // Both twins read their pre-crash content, so their clocks stay
      // equal and the recoveries are compared on absolute clocks.
      const std::vector<uint32_t> crcs = ContentCrcs(seq->store());
      if (crcs.empty() || ContentCrcs(exec->store()) != crcs) {
        std::cerr << "pre-crash content snapshot failed or differs\n";
        return 1;
      }
      for (harness::Rig* rig : {&*seq, &*exec}) {
        const bool on_executor = rig == &*exec;
        auto recovery = rig->Remount(on_executor);
        if (!recovery.ok()) {
          std::cerr << recovery.status().ToString() << "\n";
          return 1;
        }
        // The recovered store must hold the committed swaps and read back
        // every page bit-identical; the exec twin must also match the seq
        // twin chip for chip (both read their pages back first).
        const bool roundtrip =
            rig->sharded()->router()->swaps_committed() == num_swaps &&
            ContentCrcs(rig->store()) == crcs;
        bool deterministic = true;
        if (auto d = on_executor ? harness::FirstDivergence(seq->AsTwin(),
                                                            exec->AsTwin())
                                 : std::nullopt) {
          deterministic = false;
          std::cerr << total_blocks << " blocks, " << num_swaps
                    << " swaps: exec recovery differs: " << d->message << "\n";
        }
        if (!roundtrip || !deterministic) ++failures;
        tbl.AddRow({method_name, std::to_string(total_blocks),
                    std::to_string(crcs.size()), std::to_string(num_swaps),
                    on_executor ? "exec" : "seq",
                    std::to_string(rig->sharded()->journal_epochs()),
                    TablePrinter::Num(recovery->wall_ms, 2),
                    std::to_string(recovery->advance.elapsed_vt_us),
                    std::to_string(recovery->advance.total_work_us),
                    roundtrip ? "ok" : "FAIL",
                    deterministic ? "ok" : "FAIL"});
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
