#include "ftl/gc_policy.h"

#include <optional>

#include "ftl/block_manager.h"
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
                                  const ValidPageScore& valid_score,
                                  int64_t plane) {
  std::optional<uint32_t> best;
  uint64_t best_score = 0;
  for (uint32_t b = 0; b < bm.num_blocks(); ++b) {
    if (!Eligible(bm, b, plane)) continue;
    const uint64_t score = ScoreBlock(bm, valid_score, b);
    if (score > best_score) {
      best_score = score;
      best = b;
    }
  }
  if (best_score < bm.data_size()) return std::nullopt;
  return best;
}

}  // namespace

uint64_t ScoreBlock(const BlockManager& bm, const ValidPageScore& valid_score,
                    uint32_t block) {
  uint64_t score = static_cast<uint64_t>(bm.block_obsolete(block)) *
                   bm.data_size();
  if (!valid_score) return score;
  for (uint32_t p = 0; p < bm.pages_per_block(); ++p) {
    const flash::PhysAddr addr = bm.AddrOf(block, p);
    if (bm.state(addr) == PageState::kValid) score += valid_score(addr);
  }
  return score;
}

std::vector<uint32_t> PickVictimGroup(const BlockManager& bm,
                                      const ValidPageScore& valid_score) {
  std::vector<uint32_t> group;
  const std::optional<uint32_t> lead = BestBlock(bm, valid_score, -1);
  if (!lead.has_value()) return group;
  group.push_back(*lead);
  const uint32_t planes_per_die = bm.planes_per_die();
  if (planes_per_die <= 1) return group;

  const uint64_t lead_score = ScoreBlock(bm, valid_score, *lead);
  const uint32_t lead_plane = bm.plane_of_block(*lead);
  const uint32_t die_first_plane = lead_plane / planes_per_die * planes_per_die;
  for (uint32_t p = die_first_plane; p < die_first_plane + planes_per_die;
       ++p) {
    if (p == lead_plane) continue;
    const std::optional<uint32_t> candidate = BestBlock(bm, valid_score, p);
    if (!candidate.has_value()) continue;
    if (ScoreBlock(bm, valid_score, *candidate) * 2 >= lead_score) {
      group.push_back(*candidate);
    }
  }
  return group;
}

Result<std::vector<uint32_t>> PickGcVictims(flash::FlashDevice* dev,
                                            BlockManager* bm,
                                            const ValidPageScore& valid_score) {
  std::vector<uint32_t> victims = PickVictimGroup(*bm, valid_score);
  if (victims.empty()) {
    bm->CloseOpenBlocks();
    victims = PickVictimGroup(*bm, valid_score);
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
