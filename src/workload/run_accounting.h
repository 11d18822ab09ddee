// Run accounting shared by both workload drivers (UpdateDriver and
// TpccDriver), each rule stated once:
//   * WorstOpSample / CostSnap -- one op's (or transaction's) virtual cost,
//     a delta of its owning chip's clock and by-category counters;
//   * OpSamples -- the latency distribution and slowest op of a shard or of
//     a whole run, folded across shards in shard-index order.
// A run's elapsed time and total work are no driver's: harness::Rig::Measure
// reads the chip clocks around the measured call, once.

#ifndef FLASHDB_WORKLOAD_RUN_ACCOUNTING_H_
#define FLASHDB_WORKLOAD_RUN_ACCOUNTING_H_

#include <cstdint>

#include "ftl/page_store.h"
#include "workload/latency_histogram.h"

namespace flashdb::workload {

/// The slowest operation of a run, with the per-cause breakdown of where its
/// virtual time went. Per-cause values are deltas of the owning chip's
/// by-category device counters across the op, so gc_us captures garbage
/// collection the op's write-back triggered, meta_us the journal traffic it
/// induced. Deterministic inline and threaded: per-shard op order is fixed
/// by the schedule and the cross-shard fold visits shards in index order,
/// with a strictly-greater-wins rule so ties keep the first sample.
struct WorstOpSample {
  uint64_t total_us = 0;  ///< Virtual-clock advance across the whole op.
  uint64_t read_us = 0;   ///< Reading-step device time within the op.
  uint64_t write_us = 0;  ///< Writing-step device time (incl. log spills).
  uint64_t gc_us = 0;     ///< GC the op triggered inside the store.
  uint64_t meta_us = 0;   ///< Journal traffic the op induced.
  PageId pid = 0;         ///< Global pid of the op.
  bool valid = false;     ///< False until a first sample is offered.

  /// Keeps the stricter maximum: `cand` replaces *this only when strictly
  /// slower (first-seen wins ties, which makes the fold order-stable).
  void Offer(const WorstOpSample& cand) {
    if (cand.valid && (!valid || cand.total_us > total_us)) *this = cand;
  }
  /// Adds a later part of the same op (its write-back), keeping pid.
  WorstOpSample& operator+=(const WorstOpSample& part) {
    total_us += part.total_us;
    read_us += part.read_us;
    write_us += part.write_us;
    gc_us += part.gc_us;
    meta_us += part.meta_us;
    return *this;
  }

  friend bool operator==(const WorstOpSample& a,
                         const WorstOpSample& b) = default;
};

/// Point-in-time read of one chip's virtual clock and by-category time
/// totals: the before-side of a per-op (or per-transaction) cost sample.
struct CostSnap {
  uint64_t clock_us = 0;
  uint64_t read_us = 0;
  uint64_t write_us = 0;
  uint64_t gc_us = 0;
  uint64_t meta_us = 0;
};
CostSnap SnapCost(flash::FlashDevice* dev);
/// The sample formed by `dev`'s counter advance since `before`.
WorstOpSample CostSince(const CostSnap& before, flash::FlashDevice* dev,
                        PageId pid);

/// Per-op virtual latency samples: their distribution and the slowest op.
/// Each shard fills its own while a run executes (thread-confined to its
/// worker); the driver folds them in shard-index order once the workers
/// quiesce. Merge adds histogram counters and Offer keeps the first
/// strictly-slowest sample, so the fold equals a sequential replay's no
/// matter how the shards interleaved in wall time.
struct OpSamples {
  LatencyHistogram latency;
  WorstOpSample worst_op;

  void Record(const WorstOpSample& op) {
    latency.Record(op.total_us);
    worst_op.Offer(op);
  }
  void Merge(const OpSamples& other) {
    latency.Merge(other.latency);
    worst_op.Offer(other.worst_op);
  }
  friend bool operator==(const OpSamples& a, const OpSamples& b) = default;
};

}  // namespace flashdb::workload

#endif  // FLASHDB_WORKLOAD_RUN_ACCOUNTING_H_
