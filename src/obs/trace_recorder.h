// Deterministic event tracing over virtual time.
//
// TraceShard is a thread-confined ring buffer of TraceEvents: exactly one
// lane per shard, written only by whatever thread currently drives that
// shard's device (shard confinement one layer down makes this single-writer
// by construction). Overflow drops the *oldest* events -- per shard the
// event sequence is deterministic, so the set of dropped events is the same
// in every execution mode and the surviving suffix still merges
// byte-identically. Drops are counted, never reordered.
//
// TraceRecorder owns the lanes plus one extra *wall lane* for
// producer-thread events that live in the wall-clock domain (credit waits).
// Merging sorts by (ts_us, shard, seq) -- a total order because (shard, seq)
// is unique -- and CanonicalBytes() serializes only the deterministic
// categories: the byte string two runs of the same schedule must agree on.
//
// Recording is zero-cost when disabled: every emission site branches on a
// null sink pointer, and emission itself only reads clocks/counters that the
// operation already computed -- it never advances virtual time, never draws
// from an RNG, and never touches device state, so enabling tracing cannot
// change any gated column.

#ifndef FLASHDB_OBS_TRACE_RECORDER_H_
#define FLASHDB_OBS_TRACE_RECORDER_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace_event.h"

namespace flashdb::obs {

/// Single-writer ring buffer of events for one shard (see file comment).
class TraceShard {
 public:
  TraceShard(uint32_t shard, size_t capacity);

  /// Appends an event (dropping the oldest when full). The caller supplies
  /// virtual-time start/duration; seq is assigned here, in emission order.
  void Emit(TraceCat cat, uint64_t ts_us, uint64_t dur_us, uint64_t a0 = 0,
            uint64_t a1 = 0, uint64_t a2 = 0) {
    size_t idx;
    if (size_ == ring_.size()) {
      idx = head_;  // overwrite the oldest event
      head_ = (head_ + 1) % ring_.size();
      ++dropped_;
    } else {
      idx = (head_ + size_) % ring_.size();
      ++size_;
    }
    TraceEvent& e = ring_[idx];
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    e.shard = shard_;
    e.seq = next_seq_++;
    e.cat = cat;
    e.a0 = a0;
    e.a1 = a1;
    e.a2 = a2;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return ring_.size(); }
  /// Events overwritten by ring overflow (oldest-dropped policy).
  uint64_t dropped() const { return dropped_; }
  /// Total events ever emitted (next seq value).
  uint64_t emitted() const { return next_seq_; }

  /// Copies the surviving events out, oldest first (seq order).
  std::vector<TraceEvent> Snapshot() const;

 private:
  uint32_t shard_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  ///< Index of the oldest event.
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
};

/// See file comment.
class TraceRecorder {
 public:
  /// Events each lane keeps before dropping its oldest.
  static constexpr size_t kCapacityPerShard = 1 << 16;

  /// `num_shards` virtual-time lanes plus one wall lane.
  explicit TraceRecorder(uint32_t num_shards);

  uint32_t num_shards() const { return num_shards_; }
  /// Lane for shard `i`'s virtual-time events (device, FTL, driver spans).
  TraceShard* shard(uint32_t i) { return &lanes_[i]; }
  /// Lane for producer-thread wall-clock events (credit waits).
  TraceShard* wall_lane() { return &lanes_[num_shards_]; }

  uint64_t total_dropped() const;
  uint64_t total_emitted() const;

  /// All surviving events merged by (ts_us, shard, seq); with
  /// `canonical_only`, wall-domain categories are filtered out.
  std::vector<TraceEvent> Merged(bool canonical_only) const;

  /// Compact text serialization of the deterministic merged stream -- the
  /// byte string the trace-equality gates compare. Includes per-lane drop
  /// counts so two runs must also agree on what overflowed.
  std::string CanonicalBytes() const;

  /// Chrome trace-event JSON ("X" complete events; one process per shard,
  /// one thread track per plane for flash spans and per category above
  /// them). Loads in chrome://tracing and Perfetto.
  void WriteChromeTrace(std::ostream& os) const;
  Status WriteChromeTraceFile(const std::string& path) const;

 private:
  uint32_t num_shards_;
  std::vector<TraceShard> lanes_;  ///< num_shards_ + 1 (wall lane last).
};

}  // namespace flashdb::obs

#endif  // FLASHDB_OBS_TRACE_RECORDER_H_
