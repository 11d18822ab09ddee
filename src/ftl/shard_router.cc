#include "ftl/shard_router.h"

#include <algorithm>
#include <cassert>

namespace flashdb::ftl {

ShardRouter::ShardRouter(uint32_t num_shards, uint32_t buckets_per_shard)
    : num_shards_(num_shards),
      buckets_per_shard_(std::max<uint32_t>(1, buckets_per_shard)),
      num_buckets_(num_shards * std::max<uint32_t>(1, buckets_per_shard)) {
  assert(num_shards > 0 && "ShardRouter needs at least one shard");
  Reset(0);
}

void ShardRouter::Reset(uint32_t num_pages) {
  num_pages_ = num_pages;
  shard_of_bucket_.resize(num_buckets_);
  slot_of_bucket_.resize(num_buckets_);
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    shard_of_bucket_[b] = b % num_shards_;
    slot_of_bucket_[b] = b / num_shards_;
  }
  heat_.assign(num_buckets_, 0.0);
  erase_baseline_.assign(num_shards_, 0);
  swaps_committed_ = 0;
}

Status ShardRouter::EnableRebalancing(const WearLevelConfig& config) {
  if (config.buckets_per_shard == 0) {
    return Status::InvalidArgument("buckets_per_shard must be > 0");
  }
  if (!is_identity() && config.buckets_per_shard != buckets_per_shard_) {
    return Status::InvalidArgument(
        "cannot change bucket granularity after buckets have migrated");
  }
  if (config.max_erase_ratio < 1.0) {
    return Status::InvalidArgument("max_erase_ratio must be >= 1.0");
  }
  config_ = config;
  if (config.buckets_per_shard != buckets_per_shard_) {
    // Re-granulating is safe while the mapping is still the identity: every
    // bucket count yields the same pid -> (shard, inner) function. The
    // erase-delta baseline survives the Reset -- it tracks chip wear, which
    // does not change with bucket granularity, and wiping it would undo the
    // historical-wear seeding Format/Recover performed.
    const std::vector<uint64_t> baseline = erase_baseline_;
    buckets_per_shard_ = config.buckets_per_shard;
    num_buckets_ = num_shards_ * buckets_per_shard_;
    Reset(num_pages_);
    erase_baseline_ = baseline;
  }
  enabled_ = true;
  return Status::OK();
}

Status ShardRouter::Restore(uint32_t num_pages, uint32_t buckets_per_shard,
                            std::span<const uint32_t> shard_of_bucket,
                            std::span<const uint32_t> slot_of_bucket,
                            uint64_t swaps_committed,
                            std::span<const uint64_t> erase_baseline) {
  if (buckets_per_shard == 0) {
    return Status::InvalidArgument("buckets_per_shard must be > 0");
  }
  const uint32_t buckets = num_shards_ * buckets_per_shard;
  if (shard_of_bucket.size() != buckets || slot_of_bucket.size() != buckets) {
    return Status::InvalidArgument(
        "restored assignment has " + std::to_string(shard_of_bucket.size()) +
        " buckets, expected " + std::to_string(buckets));
  }
  if (erase_baseline.size() != num_shards_) {
    return Status::InvalidArgument("restored erase baseline has " +
                                   std::to_string(erase_baseline.size()) +
                                   " shards, expected " +
                                   std::to_string(num_shards_));
  }
  // Equal-size swaps permute (shard, slot) pairs: every pair must appear
  // exactly once, with slots in [0, buckets_per_shard), and each bucket must
  // fit its slot class exactly (the slot's identity occupant has the same
  // page count).
  const auto size_of = [&](uint32_t b) {
    return num_pages > b ? (num_pages - b - 1) / buckets + 1 : 0;
  };
  std::vector<uint8_t> seen(buckets, 0);
  for (uint32_t b = 0; b < buckets; ++b) {
    if (shard_of_bucket[b] >= num_shards_ ||
        slot_of_bucket[b] >= buckets_per_shard) {
      return Status::Corruption("restored assignment out of range at bucket " +
                                std::to_string(b));
    }
    const uint32_t pair =
        shard_of_bucket[b] * buckets_per_shard + slot_of_bucket[b];
    if (seen[pair]++) {
      return Status::Corruption(
          "restored assignment is not a permutation: duplicate (shard, slot) "
          "at bucket " + std::to_string(b));
    }
    const uint32_t identity_occupant =
        slot_of_bucket[b] * num_shards_ + shard_of_bucket[b];
    if (size_of(b) != size_of(identity_occupant)) {
      return Status::Corruption("restored bucket " + std::to_string(b) +
                                " does not fit its slot class");
    }
  }
  buckets_per_shard_ = buckets_per_shard;
  num_buckets_ = buckets;
  num_pages_ = num_pages;
  shard_of_bucket_.assign(shard_of_bucket.begin(), shard_of_bucket.end());
  slot_of_bucket_.assign(slot_of_bucket.begin(), slot_of_bucket.end());
  heat_.assign(num_buckets_, 0.0);
  erase_baseline_.assign(erase_baseline.begin(), erase_baseline.end());
  swaps_committed_ = swaps_committed;
  return Status::OK();
}

void ShardRouter::SeedEraseBaseline(std::span<const uint64_t> shard_erases) {
  assert(shard_erases.size() == static_cast<size_t>(num_shards_));
  erase_baseline_.assign(shard_erases.begin(), shard_erases.end());
}

void ShardRouter::AddEpochHeat(std::span<const uint64_t> per_bucket_writes) {
  assert(per_bucket_writes.size() == heat_.size());
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    heat_[b] = heat_[b] * kHeatDecay +
               static_cast<double>(per_bucket_writes[b]);
  }
}

std::vector<ShardRouter::Swap> ShardRouter::PlanRebalance(
    std::span<const uint64_t> shard_erases) {
  std::vector<Swap> plan;
  if (!enabled_ || num_shards_ < 2) return plan;
  assert(shard_erases.size() == static_cast<size_t>(num_shards_));

  // Delta trigger: wear since the last plan, not cumulative wear. Erases
  // already paid cannot be leveled retroactively; acting on the recent
  // window makes the trigger go quiet once migration has evened out the
  // *ongoing* wear, instead of re-copying buckets forever against an
  // imbalance frozen into history.
  uint64_t total = 0;
  uint64_t max_e = 0;
  uint64_t min_e = UINT64_MAX;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint64_t d = shard_erases[s] - erase_baseline_[s];
    total += d;
    max_e = std::max(max_e, d);
    min_e = std::min(min_e, d);
  }
  if (total < config_.min_total_erases) return plan;  // accumulate further
  erase_baseline_.assign(shard_erases.begin(), shard_erases.end());
  const double min_floor = static_cast<double>(std::max<uint64_t>(min_e, 1));
  if (static_cast<double>(max_e) <= config_.max_erase_ratio * min_floor) {
    return plan;
  }

  // Greedy heat balancing on a scratch copy of the assignment: repeatedly
  // swap the hottest bucket of the heat-heaviest shard with the coldest
  // equal-sized bucket of the heat-lightest shard, as long as the swap
  // strictly narrows the gap. Erase counts pick *when* to act (they are the
  // wear already paid); heat picks *what* to move (the wear still to come).
  std::vector<uint32_t> loc(shard_of_bucket_);
  std::vector<double> shard_heat(num_shards_, 0.0);
  for (uint32_t b = 0; b < num_buckets_; ++b) shard_heat[loc[b]] += heat_[b];

  for (uint32_t round = 0; round < kMaxSwapsPerRebalance; ++round) {
    uint32_t hot = 0;
    uint32_t cold = 0;
    for (uint32_t s = 1; s < num_shards_; ++s) {
      if (shard_heat[s] > shard_heat[hot]) hot = s;
      if (shard_heat[s] < shard_heat[cold]) cold = s;
    }
    const double gap = shard_heat[hot] - shard_heat[cold];
    if (hot == cold || gap <= 0) break;

    // Best improving pair: maximize moved heat subject to equal bucket size
    // and no overshoot (delta < gap keeps the pair's imbalance shrinking).
    int64_t best_hb = -1;
    int64_t best_cb = -1;
    double best_delta = 0;
    for (uint32_t hb = 0; hb < num_buckets_; ++hb) {
      if (loc[hb] != hot) continue;
      for (uint32_t cb = 0; cb < num_buckets_; ++cb) {
        if (loc[cb] != cold) continue;
        if (bucket_size(hb) != bucket_size(cb)) continue;
        const double delta = heat_[hb] - heat_[cb];
        if (delta <= 0 || delta >= gap) continue;
        if (delta > best_delta) {
          best_delta = delta;
          best_hb = hb;
          best_cb = cb;
        }
      }
    }
    if (best_hb < 0) break;

    plan.push_back(Swap{static_cast<uint32_t>(best_hb),
                        static_cast<uint32_t>(best_cb)});
    std::swap(loc[best_hb], loc[best_cb]);
    shard_heat[hot] -= best_delta;
    shard_heat[cold] += best_delta;
  }
  return plan;
}

void ShardRouter::CommitSwap(const Swap& swap) {
  assert(swap.bucket_a < num_buckets_ && swap.bucket_b < num_buckets_);
  assert(bucket_size(swap.bucket_a) == bucket_size(swap.bucket_b) &&
         "swapped buckets must hold the same number of pages");
  std::swap(shard_of_bucket_[swap.bucket_a], shard_of_bucket_[swap.bucket_b]);
  std::swap(slot_of_bucket_[swap.bucket_a], slot_of_bucket_[swap.bucket_b]);
  ++swaps_committed_;
}

}  // namespace flashdb::ftl
