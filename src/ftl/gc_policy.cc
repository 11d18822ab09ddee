#include "ftl/gc_policy.h"

#include <optional>

#include "ftl/block_manager.h"
#include "ftl/mapping_table.h"
#include "obs/trace_recorder.h"

namespace flashdb::ftl {

namespace {

/// Open, free and bad blocks are never victims; `plane` >= 0 restricts the
/// choice to that plane.
bool Eligible(const BlockManager& bm, uint32_t b, int64_t plane) {
  if (bm.IsOpenBlock(b)) return false;
  if (bm.block_programmed(b) == 0) return false;  // free block
  if (bm.is_bad_block(b)) return false;
  return plane < 0 || bm.plane_of_block(b) == static_cast<uint32_t>(plane);
}

/// The first best-scoring eligible block, if it scores at least one page.
std::optional<uint32_t> BestBlock(const BlockManager& bm,
                                  const MappingTable& map, int64_t plane) {
  std::optional<uint32_t> best;
  uint64_t best_score = 0;
  for (uint32_t b = 0; b < bm.num_blocks(); ++b) {
    if (!Eligible(bm, b, plane)) continue;
    const uint64_t score = ScoreBlock(bm, map, b);
    if (score > best_score) {
      best_score = score;
      best = b;
    }
  }
  if (best_score < bm.data_size()) return std::nullopt;
  return best;
}

}  // namespace

uint64_t ScoreBlock(const BlockManager& bm, const MappingTable& map,
                    uint32_t block) {
  const uint64_t pages =
      uint64_t{bm.block_obsolete(block)} + map.block_diff_pages(block);
  return pages * bm.data_size() - map.block_diff_live_bytes(block);
}

std::vector<uint32_t> PickVictimGroup(const BlockManager& bm,
                                      const MappingTable& map) {
  std::vector<uint32_t> group;
  const std::optional<uint32_t> lead = BestBlock(bm, map, -1);
  if (!lead.has_value()) return group;
  group.push_back(*lead);
  const uint32_t planes_per_die = bm.planes_per_die();
  if (planes_per_die <= 1) return group;

  const uint64_t lead_score = ScoreBlock(bm, map, *lead);
  const uint32_t lead_plane = bm.plane_of_block(*lead);
  const uint32_t die_first_plane = lead_plane / planes_per_die * planes_per_die;
  for (uint32_t p = die_first_plane; p < die_first_plane + planes_per_die;
       ++p) {
    if (p == lead_plane) continue;
    const std::optional<uint32_t> candidate = BestBlock(bm, map, p);
    if (!candidate.has_value()) continue;
    if (ScoreBlock(bm, map, *candidate) * 2 >= lead_score) {
      group.push_back(*candidate);
    }
  }
  return group;
}

Result<std::vector<uint32_t>> PickGcVictims(flash::FlashDevice* dev,
                                            BlockManager* bm,
                                            const MappingTable& map) {
  std::vector<uint32_t> victims = PickVictimGroup(*bm, map);
  if (victims.empty()) {
    bm->CloseOpenBlocks();
    victims = PickVictimGroup(*bm, map);
  }
  if (victims.empty()) {
    return Status::NoSpace("garbage collection found no reclaimable block");
  }
  if (dev->trace() != nullptr) {
    dev->trace()->Emit(obs::TraceCat::kGcVictim, dev->clock().now_us(), 0,
                       victims[0], victims.size());
  }
  return victims;
}

}  // namespace flashdb::ftl
