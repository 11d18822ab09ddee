// PageStore: the page-update-method abstraction.
//
// This is the paper's "flash memory driver" boundary (Fig. 10). A DBMS (or
// the experiment driver) manipulates *logical pages* identified by a physical
// page ID (pid, the paper's database-unique page identifier); a PageStore
// implementation decides how logical pages are laid out on the emulated NAND
// chip. Four single-chip implementations exist:
//   * PdlStore  (src/pdl)          -- the paper's contribution
//   * OpuStore  (src/methods/opu)  -- page-based, out-place update
//   * IpuStore  (src/methods/ipu)  -- page-based, in-place update
//   * IplStore  (src/methods/ipl)  -- in-page logging (Lee & Moon)
// plus one aggregating implementation:
//   * ShardedStore (src/ftl/sharded_store.h) -- stripes logical pages across
//     N inner stores, each on its own FlashDevice, modelling a multi-chip
//     deployment; stats/clock reporting is aggregated over the shards.
//
// The single-chip stores share the extracted FTL subsystem: ftl::MappingTable
// (pid -> physical mapping plus differential bookkeeping and recovery
// replay), ftl::PickGcVictims (GC victim scoring), and ftl::BlockManager
// (stream-segregated allocation and block lifecycle); OPU and PDL reach them
// through one out-place core, ftl::OutPlaceStore. Every store applies the
// boundary checks and the Format erase sweep declared below this interface.
//
// Loosely-coupled methods (PDL, OPU, IPU) only validate OnUpdate's arguments
// and act on WriteBack; the tightly-coupled IPL consumes the per-update logs
// the storage system must surface to it.

#ifndef FLASHDB_FTL_PAGE_STORE_H_
#define FLASHDB_FTL_PAGE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/function_ref.h"
#include "common/result.h"
#include "common/status.h"
#include "flash/flash_device.h"
#include "ftl/logical_clock.h"
#include "ftl/spare_codec.h"

namespace flashdb {

/// Logical page identifier (the paper's "physical page ID": a database-wide
/// unique page number, independent of where the page lives on flash).
using PageId = uint32_t;

/// One update command applied to a logical page: `data` replaces the bytes at
/// [offset, offset + data.size()). This is what log-based methods persist.
struct UpdateLog {
  uint32_t offset = 0;
  ByteBuffer data;
};

/// One pending write-back: the up-to-date image of logical page `pid`. The
/// caller owns the bytes behind `page` for the duration of the WriteBatch
/// call. A batch may contain the same pid more than once; entries apply in
/// order, exactly like sequential WriteBack calls.
struct PageWrite {
  PageId pid = 0;
  ConstBytes page;
};

// --- Rules shared by every store ---------------------------------------
//
// Every PageStore call checks its arguments in one order before any device
// work: a store that was never formatted (nor recovered) rejects the call
// with InvalidArgument, a pid at or past num_logical_pages() is NotFound, and
// a page buffer that is not exactly one page is InvalidArgument.

/// Format's page-count check: pid 0xFFFFFFFF is reserved (flash::kNullAddr,
/// which is also PDL's padding pid), so fewer pages than that fit.
Status CheckPageCount(uint32_t num_logical_pages);

/// InvalidArgument unless `formatted`.
Status CheckFormatted(bool formatted);

/// CheckFormatted, then NotFound unless pid < num_pages.
Status CheckPid(bool formatted, PageId pid, uint32_t num_pages);

/// CheckPid, then InvalidArgument unless `bytes` == data_size.
Status CheckPageArgs(bool formatted, PageId pid, uint32_t num_pages,
                     size_t bytes, uint32_t data_size);

/// The largest data area whose byte offsets all fit 16 bits. PDL's
/// differential extents and IPL's log records store in-page offsets in 16
/// bits, so both refuse larger pages on every mount path.
inline constexpr uint32_t kMaxDataSizeFor16BitOffsets = 65536;

/// InvalidArgument naming `method` and `data_size` when data_size exceeds
/// kMaxDataSizeFor16BitOffsets.
Status Check16BitOffsets(std::string_view method, uint32_t data_size);

/// Interface implemented by every page-update method.
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Method name for reports ("PDL(256B)", "OPU", ...).
  virtual std::string_view name() const = 0;

  /// Initializes the store for `num_logical_pages` logical pages, writing an
  /// initial image for each. `initial` may be empty => zero-filled pages;
  /// otherwise it is called with (pid, page_buffer) to fill initial content.
  using PageInitializer = void (*)(PageId pid, MutBytes page, void* arg);
  virtual Status Format(uint32_t num_logical_pages, PageInitializer initial,
                        void* initial_arg) = 0;

  /// Recreates logical page `pid` into `out` (exactly data_size bytes).
  virtual Status ReadPage(PageId pid, MutBytes out) = 0;

  /// Notification that the in-memory copy of `pid` was updated; `page_after`
  /// is the page image after the update and `log` the change itself.
  /// Loosely-coupled methods only validate the arguments (they act on
  /// WriteBack alone).
  virtual Status OnUpdate(PageId pid, ConstBytes page_after,
                          const UpdateLog& log) {
    (void)log;
    return CheckPageArgs(num_logical_pages() != 0, pid, num_logical_pages(),
                         page_after.size(), device()->geometry().data_size);
  }

  /// Reflects the up-to-date image of `pid` into flash memory (called when a
  /// dirty page leaves the DBMS buffer).
  virtual Status WriteBack(PageId pid, ConstBytes page) = 0;

  /// Reflects a batch of pages in order: every entry is validated up front,
  /// so a malformed entry rejects the whole batch before any write reaches
  /// flash; a valid batch then applies as sequential WriteBack calls. This is
  /// the only implementation (a store keeps its per-write scratch across
  /// WriteBack calls instead), and the unit of work the ShardExecutor ships to
  /// a shard worker, so larger batches amortize submission overhead.
  virtual Status WriteBatch(std::span<const PageWrite> writes) {
    const uint32_t pages = num_logical_pages();
    const uint32_t data_size = device()->geometry().data_size;
    for (const PageWrite& w : writes) {
      FLASHDB_RETURN_IF_ERROR(
          CheckPageArgs(pages != 0, w.pid, pages, w.page.size(), data_size));
    }
    for (const PageWrite& w : writes) {
      FLASHDB_RETURN_IF_ERROR(WriteBack(w.pid, w.page));
    }
    return Status::OK();
  }

  /// Write-through: forces buffered differentials / update logs onto flash so
  /// every acknowledged WriteBack survives power loss.
  virtual Status Flush() = 0;

  /// Scrub request for the physical page at `addr` of this store's chip: if
  /// the page still holds live data, relocate that data to a fresh physical
  /// page through the store's normal write path (resetting the page's
  /// read-disturb exposure) and set *relocated = true. A page that is
  /// obsolete, erased, or otherwise not live is skipped (*relocated = false)
  /// -- its bits no longer matter and the block's erase will clear the wear.
  /// Single-chip stores implement this; the default is a safe no-op so
  /// aggregating stores (which route by shard, not address) and test doubles
  /// need not.
  virtual Status ScrubPhysPage(flash::PhysAddr addr, bool* relocated) {
    (void)addr;
    *relocated = false;
    return CheckFormatted(num_logical_pages() != 0);
  }

  /// Rebuilds all in-memory tables by scanning flash after a crash. The
  /// store must previously have been Format()ed on this device (possibly by
  /// another, now-dead instance).
  virtual Status Recover() = 0;

  /// Number of logical pages the store was formatted with; 0 until Format
  /// or Recover gives it pages. The default OnUpdate, WriteBatch and
  /// ScrubPhysPage treat a store without pages as not formatted.
  virtual uint32_t num_logical_pages() const = 0;

  /// Blocks this store has taken out of service as bad (factory-marked in
  /// the OOB or grown from an erase failure), ascending. Methods without
  /// block management report none. The sharded store persists these lists in
  /// its metadata journal so remounts exclude bad blocks deterministically.
  virtual std::vector<uint32_t> bad_blocks() const { return {}; }

  /// Seeds a persisted bad-block list to apply at the start of the next
  /// Recover(), before the device scan. The scan rediscovers OOB marks on
  /// its own; the seed keeps the exclusion deterministic even when a crash
  /// cut power before the mark program reached flash. Default: ignored.
  virtual void NoteBadBlocksForRecovery(const std::vector<uint32_t>& blocks) {
    (void)blocks;
  }

  /// Underlying device. Single-chip stores return their chip; aggregating
  /// stores return a representative device (geometry inspection only --
  /// harnesses must use set_category()/stats() below for accounting so every
  /// chip is covered).
  virtual flash::FlashDevice* device() = 0;

  /// Sets the accounting category for subsequent device traffic on every
  /// underlying device (aggregating stores fan the change out).
  virtual void set_category(flash::OpCategory c) { device()->set_category(c); }
  virtual flash::OpCategory category() { return device()->category(); }

  /// Statistics snapshot aggregated over every underlying device (counters
  /// summed; per-block wear concatenated in shard order).
  virtual flash::FlashStats stats() { return device()->stats(); }

  /// Total erase count across every underlying device. Cheaper than stats()
  /// (no snapshot copy); polled by steady-state warmup loops.
  virtual uint64_t total_erases() { return device()->stats().total.erases; }

  /// Wear distribution over every underlying device's blocks -- the
  /// erase-count surfacing wear-leveling policies and longevity reports
  /// consume (ShardedStore concatenates its chips' per-block counts).
  virtual flash::WearSummary wear() { return stats().wear(); }
};

// --- Format steps shared by the single-chip stores ------------------------

/// The erase sweep. When FlashConfig::scan_bad_blocks is set it first finds
/// the factory-marked bad blocks (one charged spare read per data block); it
/// then erases every other data block holding programmed pages and returns
/// the marked blocks, ascending and unerased so their marks survive. A store
/// that cannot remap bad blocks passes remaps_bad_blocks = false: a marked
/// block then fails the sweep with InvalidArgument naming it, before any
/// erase.
Result<std::vector<uint32_t>> EraseForFormat(flash::FlashDevice* dev,
                                             bool remaps_bad_blocks);

/// The initial image pass: for each pid in ascending order, zero-fills a
/// page, lets `initial` (if any) fill it, stamps a `type` spare with the next
/// `clock` timestamp and programs the page at `place(pid)`.
Status ProgramInitialPages(
    flash::FlashDevice* dev, uint32_t num_pages,
    PageStore::PageInitializer initial, void* initial_arg, ftl::PageType type,
    ftl::LogicalClock* clock,
    FunctionRef<Result<flash::PhysAddr>(PageId)> place);

/// RAII switch of the accounting category at the store boundary; unlike
/// flash::CategoryScope it also covers every chip of an aggregating store.
class StoreCategoryScope {
 public:
  StoreCategoryScope(PageStore* store, flash::OpCategory c)
      : store_(store), saved_(store->category()) {
    store_->set_category(c);
  }
  ~StoreCategoryScope() { store_->set_category(saved_); }

  StoreCategoryScope(const StoreCategoryScope&) = delete;
  StoreCategoryScope& operator=(const StoreCategoryScope&) = delete;

 private:
  PageStore* store_;
  flash::OpCategory saved_;
};

}  // namespace flashdb

#endif  // FLASHDB_FTL_PAGE_STORE_H_
