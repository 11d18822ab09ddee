// IplStore: In-Page Logging (Lee & Moon, SIGMOD 2007) -- the log-based
// baseline of the paper.
//
// Every block is split into original pages (front) and a log region of
// `log_bytes_per_block` bytes (tail). A block stores a fixed group of
// consecutive logical pages in its original pages; update logs of those pages
// may be written only into the block's own log region. The log region is
// consumed in 128-byte slots (Sdata/16, footnote 13): each flush of a page's
// in-memory log buffer partial-programs one slot and is charged one write
// operation. When no free slot remains the block is *merged*: originals and
// logs are combined and written into a fresh block, and the old block is
// erased (cost accounted as GC, amortized into writes like the paper does).
//
// IPL is tightly coupled: the storage system must call OnUpdate() for every
// in-memory page update so the store can capture the update log. WriteBack()
// only flushes the page's pending log buffer -- the page image itself is
// never written outside merges.

#ifndef FLASHDB_METHODS_IPL_STORE_H_
#define FLASHDB_METHODS_IPL_STORE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ftl/logical_clock.h"
#include "ftl/page_store.h"
#include "ftl/spare_codec.h"

namespace flashdb::methods {

/// Tuning knob for IPL. The paper evaluates y = 18 KB and y = 64 KB.
struct IplConfig {
  /// Bytes of each block reserved for the log region (the paper's `y`).
  uint32_t log_bytes_per_block = 18 * 1024;
};

/// Internal event counters (observability / tests).
struct IplCounters {
  uint64_t slot_writes = 0;   ///< Log-buffer flushes (one write op each).
  uint64_t merges = 0;        ///< Block merges.
  uint64_t chunked_logs = 0;  ///< Update logs split to fit a slot.
};

/// See file comment.
class IplStore : public PageStore {
 public:
  IplStore(flash::FlashDevice* dev, const IplConfig& config);

  std::string_view name() const override { return name_; }
  Status Format(uint32_t num_logical_pages, PageInitializer initial,
                void* initial_arg) override;
  Status ReadPage(PageId pid, MutBytes out) override;
  Status OnUpdate(PageId pid, ConstBytes page_after,
                  const UpdateLog& log) override;
  Status WriteBack(PageId pid, ConstBytes page) override;
  Status Flush() override;
  /// Relocation is a block merge: originals and logs of the block holding
  /// `addr` are combined into a fresh block (covers kOrig and kLog pages
  /// alike -- IPL has no finer relocation primitive).
  Status ScrubPhysPage(flash::PhysAddr addr, bool* relocated) override;
  Status Recover() override;
  uint32_t num_logical_pages() const override { return num_pages_; }
  flash::FlashDevice* device() override { return dev_; }

  const IplCounters& counters() const { return counters_; }
  uint32_t orig_pages_per_block() const { return orig_per_block_; }
  uint32_t log_pages_per_block() const { return log_pages_per_block_; }
  uint32_t slots_per_block() const { return slots_per_block_; }
  /// Number of distinct log pages holding logs of `pid` (read cost driver).
  uint32_t LogPagesOf(PageId pid) const;

 private:
  /// The in-memory log buffer per logical page, which is also the log slot
  /// size, is data_size / kLogSlotDivisor bytes (footnote 13).
  static constexpr uint32_t kLogSlotDivisor = 16;

  struct PendingLogs {
    ByteBuffer bytes;     ///< Serialized records: {off u16, len u16, data}*.
    uint16_t count = 0;
  };

  uint32_t LogicalBlockOf(PageId pid) const { return pid / orig_per_block_; }
  uint32_t SlotOfIndex(uint32_t slot) const { return slot % slots_per_page_; }
  uint32_t LogPageOfIndex(uint32_t slot) const {
    return slot / slots_per_page_;
  }
  /// Logical pages resident in logical block `g` (tail block may be short).
  uint32_t LivePagesIn(uint32_t g) const;

  /// Writes pid's pending log buffer into the next free slot of its block
  /// (merging first if the log region is exhausted).
  Status FlushPending(PageId pid);
  /// Appends one (possibly chunked) record to pid's pending buffer, flushing
  /// as the buffer fills.
  Status AppendRecord(PageId pid, uint32_t offset, ConstBytes data);
  /// Merges logical block `g`: combine originals with logs into a new block.
  Status MergeBlock(uint32_t g);
  /// Applies pid's flushed slots onto `page` in flush order. Log pages
  /// [0, read_log_pages) of log_pages_ already hold pid's block's pages;
  /// any later page is read into its place when its first slot comes up.
  Status ApplyFlushedSlots(PageId pid, MutBytes page, uint32_t read_log_pages);
  /// Log page `lp` of a block, as held in log_pages_.
  MutBytes LogPage(uint32_t lp) {
    return MutBytes(log_pages_).subspan(size_t{lp} * data_size_, data_size_);
  }
  /// Slot `slot` of a block's log region, as held in log_pages_.
  ConstBytes SlotBytes(uint32_t slot) {
    return LogPage(LogPageOfIndex(slot))
        .subspan(SlotOfIndex(slot) * slot_size_, slot_size_);
  }

  flash::FlashDevice* dev_;
  IplConfig config_;
  std::string name_;
  uint32_t data_size_;
  uint32_t slot_size_;            ///< = log buffer size
  uint32_t slots_per_page_;
  uint32_t log_pages_per_block_;
  uint32_t orig_per_block_;
  uint32_t slots_per_block_;
  uint32_t max_record_payload_;   ///< Largest record chunk fitting one slot.

  ftl::LogicalClock clock_;
  uint32_t num_pages_ = 0;
  uint32_t num_groups_ = 0;                 ///< Logical blocks.
  /// Logical block -> physical block (kNullAddr: no surviving block).
  std::vector<uint32_t> block_map_;
  std::deque<uint32_t> free_blocks_;
  std::vector<uint16_t> next_slot_;         ///< per logical block.
  std::vector<std::vector<uint16_t>> pid_slots_;  ///< per pid, slot indices.
  std::vector<PendingLogs> pending_;        ///< per pid.
  /// Scratch reused across calls: the log region's pages as read by the read
  /// path, a merge or recovery; the image that programs one slot (all 0xFF
  /// but the slot); and the page a merge rebuilds.
  ByteBuffer log_pages_;
  ByteBuffer slot_image_;
  ByteBuffer merge_page_;
  IplCounters counters_;
  bool formatted_ = false;
};

}  // namespace flashdb::methods

#endif  // FLASHDB_METHODS_IPL_STORE_H_
