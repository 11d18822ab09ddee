// Operation accounting for the flash emulator. Counts and virtual-time totals
// are kept both globally and per accounting category so experiment drivers can
// reproduce the paper's stacked breakdowns (read step / write step / garbage
// collection, Fig. 12).

#ifndef FLASHDB_FLASH_FLASH_STATS_H_
#define FLASHDB_FLASH_FLASH_STATS_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace flashdb::flash {

/// Accounting category for an operation; set by the current CategoryScope.
enum class OpCategory : int {
  kDefault = 0,  ///< Uncategorized device traffic.
  kReadStep,     ///< The "reading step" of an update operation.
  kWriteStep,    ///< The "writing step" (reflecting a page into flash).
  kGc,           ///< Garbage collection / IPL merging traffic.
  kRecovery,     ///< Crash-recovery scans.
  kMigrate,      ///< Cross-shard wear-leveling bucket migration traffic.
  kMeta,         ///< Durable-metadata journal appends (ftl::MetaJournal).
  kScrub,        ///< Background integrity scrub / relocation traffic.
};
inline constexpr int kNumOpCategories = 8;

/// Counters for one category (or the total).
struct OpCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;   ///< Full-page programs and partial programs.
  uint64_t erases = 0;
  uint64_t read_us = 0;
  uint64_t write_us = 0;
  uint64_t erase_us = 0;

  uint64_t total_us() const { return read_us + write_us + erase_us; }
  uint64_t total_ops() const { return reads + writes + erases; }

  OpCounters& operator+=(const OpCounters& o) {
    reads += o.reads;
    writes += o.writes;
    erases += o.erases;
    read_us += o.read_us;
    write_us += o.write_us;
    erase_us += o.erase_us;
    return *this;
  }

  OpCounters operator-(const OpCounters& o) const {
    OpCounters r;
    r.reads = reads - o.reads;
    r.writes = writes - o.writes;
    r.erases = erases - o.erases;
    r.read_us = read_us - o.read_us;
    r.write_us = write_us - o.write_us;
    r.erase_us = erase_us - o.erase_us;
    return r;
  }

  friend bool operator==(const OpCounters& a, const OpCounters& b) = default;
};

/// Distribution summary of per-block erase counts -- the wear-leveling
/// observable. Flat wear (cv near 0, max near mean) means the device ages
/// uniformly; a high max/mean or cv means one region wears out first.
struct WearSummary {
  uint64_t total = 0;  ///< Sum of erase counts.
  uint32_t max = 0;    ///< Most-worn block.
  uint32_t min = 0;    ///< Least-worn block.
  double mean = 0;     ///< Erases per block.
  double stddev = 0;   ///< Population standard deviation.

  /// Coefficient of variation (stddev / mean); 0 when nothing was erased.
  double cv() const { return mean > 0 ? stddev / mean : 0; }
};

/// Summarizes a per-block erase-count vector (possibly the concatenation of
/// several chips' counts, as ShardedStore::stats() produces).
inline WearSummary SummarizeWear(const std::vector<uint32_t>& erase_counts) {
  WearSummary w;
  if (erase_counts.empty()) return w;
  w.min = erase_counts[0];
  for (uint32_t e : erase_counts) {
    w.total += e;
    w.max = e > w.max ? e : w.max;
    w.min = e < w.min ? e : w.min;
  }
  w.mean = static_cast<double>(w.total) /
           static_cast<double>(erase_counts.size());
  double var = 0;
  for (uint32_t e : erase_counts) {
    const double d = static_cast<double>(e) - w.mean;
    var += d * d;
  }
  w.stddev = std::sqrt(var / static_cast<double>(erase_counts.size()));
  return w;
}

/// Per-plane activity under the die/plane virtual-time model. `busy_us` is
/// the virtual time the plane's array was executing operations; `stall_us`
/// accumulates, for each op issued to the plane, how long the plane's ready
/// time lagged the chip's least-loaded plane at issue (i.e. time the op spent
/// queued behind same-plane work that a free plane could not absorb). With a
/// single plane both stay trivially stall-free.
struct PlaneCounters {
  uint64_t ops = 0;
  uint64_t busy_us = 0;
  uint64_t stall_us = 0;
};

/// Read-path integrity counters: the clean / correctable-after-retry /
/// uncorrectable classification of every data read, plus the virtual time
/// the retry ladder burned. All zero while no fault injector reports read
/// errors (the historical perfect-read model).
struct IntegrityCounters {
  uint64_t read_retries = 0;         ///< Retry passes issued (all reads).
  uint64_t retry_us = 0;             ///< Virtual time spent in retry passes.
  uint64_t reads_corrected = 0;      ///< Reads clean after >= 1 retry.
  uint64_t reads_uncorrectable = 0;  ///< Reads still corrupt after the ladder.

  friend bool operator==(const IntegrityCounters& a,
                         const IntegrityCounters& b) = default;
};

/// The scalar device counters: op counts and virtual time, globally and per
/// accounting category, plus the read-path integrity classification. The
/// one value type of device accounting: a run's breakdown is the delta of
/// two snapshots (after - before), a multi-chip total is their sum (+=).
struct DeviceCounters {
  OpCounters total;
  std::array<OpCounters, kNumOpCategories> by_category;
  IntegrityCounters integrity;  ///< Read-error classification.

  const OpCounters& of(OpCategory c) const {
    return by_category[static_cast<int>(c)];
  }

  DeviceCounters& operator+=(const DeviceCounters& o) {
    total += o.total;
    for (int c = 0; c < kNumOpCategories; ++c) {
      by_category[c] += o.by_category[c];
    }
    integrity.read_retries += o.integrity.read_retries;
    integrity.retry_us += o.integrity.retry_us;
    integrity.reads_corrected += o.integrity.reads_corrected;
    integrity.reads_uncorrectable += o.integrity.reads_uncorrectable;
    return *this;
  }

  DeviceCounters operator-(const DeviceCounters& o) const {
    DeviceCounters r;
    r.total = total - o.total;
    for (int c = 0; c < kNumOpCategories; ++c) {
      r.by_category[c] = by_category[c] - o.by_category[c];
    }
    r.integrity.read_retries =
        integrity.read_retries - o.integrity.read_retries;
    r.integrity.retry_us = integrity.retry_us - o.integrity.retry_us;
    r.integrity.reads_corrected =
        integrity.reads_corrected - o.integrity.reads_corrected;
    r.integrity.reads_uncorrectable =
        integrity.reads_uncorrectable - o.integrity.reads_uncorrectable;
    return r;
  }

  friend bool operator==(const DeviceCounters& a,
                         const DeviceCounters& b) = default;
};

/// Snapshot-friendly statistics block owned by the device: the scalar
/// counters plus the geometry-sized wear and plane vectors.
struct FlashStats : DeviceCounters {
  std::vector<uint32_t> block_erase_counts;  ///< Per-block wear (longevity).
  std::vector<PlaneCounters> plane;          ///< Per-plane busy/stall model.

  /// Wear distribution over all blocks in the snapshot (max/min/mean/cv).
  WearSummary wear() const { return SummarizeWear(block_erase_counts); }

  /// Sum of per-plane stall time (0 on single-plane chips).
  uint64_t plane_stall_us() const {
    uint64_t s = 0;
    for (const auto& p : plane) s += p.stall_us;
    return s;
  }

  /// Resets all counters (geometry-sized vectors keep their size).
  void Reset() {
    static_cast<DeviceCounters&>(*this) = DeviceCounters{};
    for (auto& e : block_erase_counts) e = 0;
    for (auto& p : plane) p = PlaneCounters{};
  }
};

}  // namespace flashdb::flash

#endif  // FLASHDB_FLASH_FLASH_STATS_H_
