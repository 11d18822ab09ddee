// Garbage-collection victim selection, shared by the out-place methods (OPU
// and PDL).
//
// One byte-scored rule covers both: an obsolete page scores a full page, and
// a valid page scores what collecting its block would give back -- for PDL
// the dead fraction of a differential page (reclaimed by compaction), for
// OPU nothing, since a valid data page must be relocated whole. Without a
// valid-page score the rule therefore ranks blocks by obsolete-page count,
// the classic greedy FTL policy; with PDL's score it keeps PDL(2KB) stable at
// the paper's 50% utilization, where greedy selection never sees the dead
// bytes of still-referenced differential pages.
//
// Thread-safety: the functions read (and PickGcVictims updates) a
// BlockManager that follows the shard-confinement contract, so call them
// only from the owning shard's thread (see flash_device.h).
//
// Determinism: victim choice is a pure function of the manager's occupancy
// state and the valid-page score; ties break toward the lowest block index,
// so victim sequences -- and therefore GC traffic and virtual clocks -- are
// reproducible run-over-run.

#ifndef FLASHDB_FTL_GC_POLICY_H_
#define FLASHDB_FTL_GC_POLICY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "flash/flash_device.h"

namespace flashdb::ftl {

class BlockManager;

/// Bytes a valid page gives back when its block is collected. Null means
/// valid pages give back nothing.
using ValidPageScore = std::function<uint64_t(flash::PhysAddr)>;

/// GC benefit of `block` in bytes: one full page per obsolete page (read
/// from BlockManager::block_obsolete, so the score is O(1) without a
/// `valid_score`) plus `valid_score` of each valid page.
uint64_t ScoreBlock(const BlockManager& bm, const ValidPageScore& valid_score,
                    uint32_t block);

/// The next victim group. Its lead is the best-scoring closed block (never
/// an open, free or bad block), which must score at least one full page. On
/// multi-plane chips every other plane of the lead's die adds its own best
/// block if that scores at least half the lead (a weak secondary would force
/// relocating nearly a block of valid data to save one erase command), so
/// the group satisfies FlashDevice::EraseBlocksMultiPlane's same-die /
/// distinct-plane rule by construction; 1-plane chips get one victim. Empty
/// when no block qualifies.
std::vector<uint32_t> PickVictimGroup(const BlockManager& bm,
                                      const ValidPageScore& valid_score);

/// The start of one GC round: PickVictimGroup, and when nothing qualifies,
/// closes the open blocks (the reclaimable space may all sit in them) and
/// picks again. NoSpace when still nothing qualifies; otherwise traces the
/// kGcVictim event on `dev` and returns the group.
Result<std::vector<uint32_t>> PickGcVictims(flash::FlashDevice* dev,
                                            BlockManager* bm,
                                            const ValidPageScore& valid_score);

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_GC_POLICY_H_
