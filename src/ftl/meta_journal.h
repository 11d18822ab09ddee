// MetaJournal: the durable-metadata subsystem under ShardedStore.
//
// A small region of `FlashGeometry::meta_blocks` blocks at the tail of one
// chip holds an append-only journal of CRC-framed, epoch-versioned records
// (log-structured FTL checkpointing, in the style of atomic-write /
// journaling FTLs and walb's log-record framing). The records make the
// ShardRouter's pid -> (shard, local pid) table -- which is otherwise purely
// volatile -- survive a crash, including a crash in the middle of a bucket
// migration. A ShardedStore keeps one on shard 0 whenever that chip
// reserves meta blocks:
//
//   * kSnapshot records carry the full post-swap routing table (bucket ->
//     (shard, slot) map + swap counter + wear-trigger erase baseline) AND a
//     redo payload: the exact page images the migration is about to write,
//     with their target (shard, inner pid) sets. A snapshot whose frames all
//     survive *commits* its epoch: the migration either completed before the
//     crash or is replayed idempotently from the payload during recovery. A
//     torn snapshot (missing trailing frames / CRC mismatch) is discarded,
//     and -- because the record is appended before any data-page copy -- the
//     store is still bit-identical to the previous epoch.
//   * kComplete records mark an epoch's copies as fully applied, so recovery
//     skips the (idempotent but costly) redo once the migration finished.
//
// On-flash format. Each record is serialized to a byte string and split into
// page-sized *frames* written to consecutive meta pages (NAND in-order
// programming, one program per page between erases). Frame layout inside the
// 2 KB data area:
//
//   0..3    magic 'FDMJ'
//   4..11   record sequence number (monotonic per append since Format)
//   12..15  frame index within the record
//   16..19  frame count of the record
//   20..23  payload bytes in this frame
//   24..27  CRC-32C over the record's full serialized bytes (same in every
//           frame; validates the reassembled record)
//   28..31  CRC-32C over this frame's header (bytes 0..27) + payload
//   32..    payload
//
// The frame's spare area carries a standard spare_codec record with
// PageType::kMeta (pid = low 32 record-seq bits, timestamp = epoch), so meta
// pages are self-describing on a raw dump.
//
// Space management is a crash-safe ping-pong over two halves of the region:
// records append into the active half; when the next record does not fit,
// the *other* half (holding only records older than everything in the active
// half) is erased and becomes active. The journal maintains the invariant
// that every non-empty half starts with a valid snapshot: when a switch is
// triggered by a non-snapshot record, the newest snapshot (cached in RAM) is
// re-checkpointed into the fresh half first, with its redo payload stripped
// -- safe, because a completion record is only ever appended after the
// epoch's copies are durable, so by the time a complete can trigger a switch
// the payload is no longer needed. The newest committed snapshot (or an
// equivalent re-checkpoint of it) therefore survives a crash at any point.
//
// Recovery scans both halves, reassembles records by sequence number,
// discards any record with missing/corrupt frames (only the tail can be
// torn: frames are programmed in order and page programs are atomic), checks
// the epoch chain (snapshot epochs must be non-decreasing -- equal epochs
// are re-checkpoints; completes must match a seen snapshot), and returns the
// newest valid snapshot plus whether its epoch completed, preferring a
// payload-carrying copy of the newest epoch for the redo images. If the
// resumed half holds no valid snapshot (its first append tore), recovery
// re-checkpoints into it -- after re-erasing it when the torn frames left no
// room -- so the invariant holds again before any new append.

#ifndef FLASHDB_FTL_META_JOURNAL_H_
#define FLASHDB_FTL_META_JOURNAL_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "flash/flash_device.h"
#include "ftl/page_store.h"

namespace flashdb::ftl {

/// See file comment.
///
/// Thread-safety: none. The journal lives on one chip and follows the same
/// shard-confinement contract as the stores: appends happen on the
/// submitting thread at drained epoch boundaries (all shard workers
/// quiescent), recovery before any worker exists.
///
/// Determinism: appends are a pure function of the record contents; the
/// journal adds the same device traffic (and virtual-clock charge) at the
/// same boundaries in every execution mode.
class MetaJournal {
 public:
  /// One batch of redo writes: `images[k]` goes to logical slot
  /// `inner_pids[k]` of `shard`'s store (full-page WriteBatch images).
  struct RedoSet {
    uint32_t shard = 0;
    std::vector<PageId> inner_pids;
    std::vector<ByteBuffer> images;
  };

  /// One journal record. kSnapshot carries everything after `epoch`;
  /// kComplete carries only `epoch`.
  struct Record {
    enum class Type : uint8_t {
      kSnapshot = 0x5A,  ///< Routing-table snapshot + migration redo payload.
      kComplete = 0xC3,  ///< Epoch's migration copies fully applied.
    };
    Type type = Type::kSnapshot;
    uint64_t epoch = 0;

    // -- kSnapshot fields ---------------------------------------------------
    uint32_t num_pages = 0;
    uint32_t num_shards = 0;
    uint32_t buckets_per_shard = 0;
    uint64_t swaps_committed = 0;
    std::vector<uint32_t> shard_of_bucket;  ///< num_buckets entries.
    std::vector<uint32_t> slot_of_bucket;   ///< num_buckets entries.
    std::vector<uint64_t> erase_baseline;   ///< num_shards entries.
    /// Bad blocks each shard has taken out of service, num_shards entries
    /// (ascending block ids per shard). Replayed into the shards before
    /// their device scans so the exclusion survives a crash that cut power
    /// before an OOB mark reached flash.
    std::vector<std::vector<uint32_t>> bad_blocks;
    std::vector<RedoSet> redo;              ///< Empty for format snapshots.
  };

  /// What a journal scan recovered: the newest valid snapshot and whether a
  /// matching kComplete record exists (if not, the caller must replay the
  /// snapshot's redo payload).
  struct Recovered {
    Record snapshot;
    bool complete = false;
  };

  /// `dev` must reserve at least 2 meta blocks (geometry().meta_blocks).
  explicit MetaJournal(flash::FlashDevice* dev);

  /// Erases the whole meta region and resets the append position. The
  /// caller follows up with an epoch-0 snapshot append (the format record).
  Status Format();

  /// Serializes `rec` and appends its frames. Fails with NoSpace when the
  /// record exceeds half the region (size the region for the largest
  /// migration payload: see frames_needed()). Device traffic is accounted
  /// under OpCategory::kMeta.
  Status Append(const Record& rec);

  /// Scans the region, validates frames / records / the epoch chain, resumes
  /// the append position past every programmed page of the active half, and
  /// returns the newest valid snapshot. Corruption when no valid snapshot
  /// exists (the device was never formatted with a journal, or both copies
  /// were lost). Scan reads are accounted under OpCategory::kRecovery.
  Result<Recovered> Recover();

  /// Frame/record classification from the last Recover() scan. Distinguishes
  /// the expected footprint of a power cut (a clean torn tail append) from
  /// frames whose bits rotted (CRC failures), so discarded data is counted
  /// instead of dropped silently.
  struct ScanStats {
    uint64_t frames_scanned = 0;   ///< Programmed meta pages inspected.
    uint64_t frames_bad_crc = 0;   ///< Magic present, frame/spare CRC failed.
    uint64_t frames_foreign = 0;   ///< Programmed page without frame magic.
    uint64_t records_torn = 0;     ///< Clean torn tail append (power cut).
    uint64_t records_discarded = 0;  ///< Record lost to corruption.
  };
  const ScanStats& scan_stats() const { return scan_stats_; }

  /// Epoch the next snapshot append should carry: 0 after construction,
  /// 1 after a Format + format-record append, last valid + 1 after Recover.
  uint64_t next_epoch() const { return next_epoch_; }

  /// Serialized size of `rec` in journal pages (capacity planning).
  uint32_t frames_needed(const Record& rec) const;
  /// Pages per ping-pong half.
  uint32_t half_pages() const { return half_blocks_ * pages_per_block_; }

 private:
  uint32_t PayloadPerFrame() const;
  /// Frames a serialized record of `bytes` bytes spans.
  uint32_t FramesFor(size_t bytes) const;
  flash::PhysAddr HalfStart(uint32_t half) const;
  Status EraseHalf(uint32_t half);
  /// Frame-writes an already-serialized record at the current position (no
  /// chain check, no ping-pong: the caller has ensured it fits). `epoch`
  /// only feeds the spare-area tag.
  Status WriteRecord(uint64_t epoch, const std::vector<uint8_t>& bytes);
  /// `rec` minus its redo payload (re-checkpoint form).
  static Record Stripped(const Record& rec);
  std::vector<uint8_t> Serialize(const Record& rec) const;
  static Status Deserialize(ConstBytes bytes, Record* rec);

  flash::FlashDevice* dev_;
  uint32_t first_meta_block_;
  uint32_t half_blocks_;
  uint32_t pages_per_block_;
  uint32_t data_size_;

  uint32_t active_half_ = 0;
  uint32_t next_page_ = 0;  ///< Next free page index within the active half.
  uint64_t next_seq_ = 0;
  uint64_t next_epoch_ = 0;
  /// Newest snapshot in re-checkpoint (payload-stripped) form, kept in RAM
  /// for switch-time re-checkpoints. Set by Append(kSnapshot) and Recover().
  std::unique_ptr<Record> last_snapshot_;
  ScanStats scan_stats_;
};

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_META_JOURNAL_H_
