// Garbage-collection victim selection, shared by the out-place methods (OPU
// and PDL).
//
// One byte-scored rule covers both: an obsolete page scores a full page, and
// a valid page scores what collecting its block would give back -- for PDL
// the dead fraction of a differential page (reclaimed by compaction), for
// OPU nothing, since a valid data page must be relocated whole. OPU's
// mapping tracks no differentials, so the rule ranks its blocks by
// obsolete-page count, the classic greedy FTL policy; PDL's dead bytes keep
// PDL(2KB) stable at the paper's 50% utilization, where greedy selection
// never sees the dead bytes of still-referenced differential pages.
//
// The score is O(1) per block: the BlockManager counts obsolete pages, and
// the MappingTable keeps per block the differential pages (VDCT > 0) and
// their live bytes. A differential page's live bytes never exceed a page
// (its records fit in it), so the block sum equals the sum of each page's
// dead bytes.
//
// Thread-safety: the functions read (and PickGcVictims updates) a
// BlockManager and MappingTable that follow the shard-confinement contract,
// so call them only from the owning shard's thread (see flash_device.h).
//
// Determinism: victim choice is a pure function of the manager's occupancy
// state and the mapping's differential sums; ties break toward the lowest
// block index, so victim sequences -- and therefore GC traffic and virtual
// clocks -- are reproducible run-over-run.

#ifndef FLASHDB_FTL_GC_POLICY_H_
#define FLASHDB_FTL_GC_POLICY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "flash/flash_device.h"

namespace flashdb::ftl {

class BlockManager;
class MappingTable;

/// GC benefit of `block` in bytes: one full page per obsolete page, plus the
/// dead bytes of each differential page, page - live, summed as
/// (obsolete + differential pages) x page - live differential bytes.
uint64_t ScoreBlock(const BlockManager& bm, const MappingTable& map,
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
                                      const MappingTable& map);

/// The start of one GC round: PickVictimGroup, and when nothing qualifies,
/// closes the open blocks (the reclaimable space may all sit in them) and
/// picks again. NoSpace when still nothing qualifies; otherwise traces the
/// kGcVictim event on `dev` and returns the group.
Result<std::vector<uint32_t>> PickGcVictims(flash::FlashDevice* dev,
                                            BlockManager* bm,
                                            const MappingTable& map);

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_GC_POLICY_H_
