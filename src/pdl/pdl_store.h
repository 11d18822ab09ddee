// PdlStore: page-differential logging (the paper's contribution, Section 4).
//
// A logical page is stored as a *base page* plus (at most) one differential
// inside a *differential page*; differentials of many logical pages share a
// differential page. The store implements:
//   * PDL_Writing  (Fig. 7/8)  -> WriteBack()
//   * PDL_Reading  (Fig. 9)    -> ReadPage()
//   * PDL_RecoveringfromCrash (Fig. 11) -> Recover()
// plus garbage collection with differential compaction (Section 4.1) and the
// Max_Differential_Size policy (footnote 8: when a differential exceeds it,
// the page itself is rewritten as a fresh base page — Case 3).
//
// Base pages are OPU's out-place pages: Format, base-page recovery replay,
// the scrub gate, the new-base write and GC base relocation are the out-place
// core's (ftl/out_place_store.h). PDL adds the differential write buffer,
// differential pages, their compaction and merge, and their replay.

#ifndef FLASHDB_PDL_PDL_STORE_H_
#define FLASHDB_PDL_PDL_STORE_H_

#include <span>
#include <string>
#include <vector>

#include "ftl/out_place_store.h"
#include "pdl/diff_write_buffer.h"
#include "pdl/differential.h"

namespace flashdb::pdl {

/// Tuning knob for PDL.
struct PdlConfig {
  /// Max_Differential_Size: differentials larger than this are discarded and
  /// the whole page is written as a new base page (Case 3 of Fig. 7).
  /// The paper evaluates 256 bytes and 2048 bytes (one page).
  uint32_t max_differential_size = 256;
};

/// Aggregate PDL-internal event counters (observability / ablation benches).
struct PdlCounters {
  uint64_t diffs_buffered = 0;       ///< Case 1+2 insertions.
  uint64_t buffer_flushes = 0;       ///< Differential pages written.
  uint64_t new_base_pages = 0;       ///< Case 3 occurrences.
  uint64_t gc_bases_moved = 0;
  uint64_t gc_diffs_compacted = 0;
  uint64_t gc_diffs_merged = 0;  ///< Differentials folded into fresh bases.
  uint64_t diff_bytes_written = 0;   ///< Sum of serialized differential sizes.
};

/// See file comment.
class PdlStore : public ftl::OutPlaceStore {
 public:
  PdlStore(flash::FlashDevice* dev, const PdlConfig& config);

  std::string_view name() const override { return name_; }
  Status Format(uint32_t num_logical_pages, PageInitializer initial,
                void* initial_arg) override;
  Status ReadPage(PageId pid, MutBytes out) override;
  Status WriteBack(PageId pid, ConstBytes page) override;
  Status Flush() override;
  /// Relocates live content at `addr`: a base page is folded with its
  /// differential into a fresh base page; a differential page has its live
  /// records compacted into a fresh differential page. Obsolete / stale
  /// pages are skipped.
  Status ScrubPhysPage(flash::PhysAddr addr, bool* relocated) override;
  Status Recover() override;

  const PdlCounters& counters() const { return counters_; }

  /// Physical location of pid's differential page, or kNullAddr.
  flash::PhysAddr diff_addr(PageId pid) const { return map_.diff(pid); }
  /// Valid-differential count of a differential page (tests).
  uint32_t vdct(flash::PhysAddr addr) const { return map_.vdct(addr); }
  /// Bytes currently pending in the differential write buffer (tests).
  size_t buffered_bytes() const { return buffer_.used_bytes(); }

 private:
  /// Differential pages allocate from their own stream, apart from base
  /// pages (kBaseStream): homogeneous blocks make GC victims cheaper
  /// (differential blocks decay almost completely before they are collected,
  /// instead of dragging cold base pages along).
  static constexpr uint32_t kDiffStream = 1;
  /// Gap-coalescing threshold of the differential computation.
  static constexpr uint32_t kDiffCoalesceGap =
      static_cast<uint32_t>(kExtentHeaderSize);
  /// During garbage collection a live differential of at least a quarter
  /// page (data_size / kGcMergeDivisor: 512 bytes on 2 KB pages) is *merged*
  /// into its base page (one fresh base page replaces base + differential)
  /// instead of being compacted into a new differential page. This bounds
  /// the live footprint: without it, near-page-size differentials can push
  /// total live data (bases + differentials) past the chip capacity and
  /// garbage collection livelocks.
  static constexpr uint32_t kGcMergeDivisor = 4;
  /// Writes the buffer out as a new differential page (procedure
  /// writingDifferentialWriteBuffer).
  Status FlushBuffer();
  /// The one writer of differential pages: packs `records` in order into as
  /// few fresh pages as they fill, 0xFF-padded (erased padding ends the
  /// record list on parse), and programs each page. Only then does it move
  /// each of the page's records onto it, releasing the record's old page.
  /// `for_gc` lets the allocation draw on the GC reserve.
  Status WriteDiffPages(std::span<const Differential> records, bool for_gc);
  /// Writes `page` as a fresh base page (procedure writingNewBasePage).
  Status WriteNewBasePage(PageId pid, ConstBytes page);
  /// Releases one reference on differential page `dp` (no-op for kNullAddr);
  /// marks it obsolete on flash when none remains (procedure
  /// decreaseValidDifferentialCount).
  Status DecreaseValidDifferentialCount(flash::PhysAddr dp);
  /// Runs GC rounds until `stream` can allocate again, with a bound that
  /// turns tiny-chip net-zero-progress regimes into NoSpace, not livelock.
  Status ReclaimUntilSpace(uint32_t stream);
  /// Rejects configs whose differential limit exceeds one page, and pages
  /// whose offsets overflow a record's 16-bit fields (checked on both mount
  /// paths, Format and Recover).
  Status ValidateConfig() const;
  /// Reclaims one victim block (relocate bases, compact differentials).
  Status RunGcOnce();
  /// parsed_[i], appended when i == parsed_.size().
  Differential& ParsedSlot(size_t i);

  PdlConfig config_;
  std::string name_;
  DiffWriteBuffer buffer_;
  PdlCounters counters_;

  /// Scratch reused across calls, so a warm store allocates nothing outside
  /// GC's victim list. WriteBack reads the base image into base_scratch_ and
  /// computes into diff_scratch_, whose capacity stays here (the write
  /// buffer takes a copy); a GC merge builds its fresh base in base_scratch_.
  ByteBuffer base_scratch_;
  Differential diff_scratch_;
  /// Page scratch: ReadPage, GC, scrub and recovery read the page they parse
  /// into it, and WriteDiffPages builds each page image in it.
  ByteBuffer page_scratch_;
  /// Records parsed from page_scratch_: ReadPage's and recovery's in slot 0,
  /// GC's and scrub's compaction output in the leading slots. Every slot is
  /// kept for its capacity.
  std::vector<Differential> parsed_;
};

}  // namespace flashdb::pdl

#endif  // FLASHDB_PDL_PDL_STORE_H_
