// Geometry, timing and reliability parameters of the emulated NAND chip.
// Defaults follow Table 1 of the paper (Samsung K9L8G08U0M 2 GB MLC NAND).

#ifndef FLASHDB_FLASH_FLASH_CONFIG_H_
#define FLASHDB_FLASH_FLASH_CONFIG_H_

#include <cstdint>

namespace flashdb::flash {

/// Physical layout of the chip.
struct FlashGeometry {
  uint32_t num_blocks = 32768;      ///< Nblock
  uint32_t pages_per_block = 64;    ///< Npage
  uint32_t data_size = 2048;        ///< Sdata (bytes per page, data area)
  /// Sspare (bytes per page, spare area): Table 1's 64 on every chip.
  static constexpr uint32_t spare_size = 64;
  /// Die/plane hierarchy. Blocks are interleaved across planes round-robin
  /// (block b lives in plane b % planes_per_chip()), so a run of
  /// planes_per_chip() consecutive blocks forms one *stripe* touching every
  /// plane once. Operations on distinct planes overlap in virtual time;
  /// same-plane operations serialize. The 1 x 1 default collapses the model
  /// to the paper's flat chip, bit-identical to the pre-plane behavior. A
  /// chip has at most 64 planes.
  uint32_t dies_per_chip = 1;       ///< Ndie (independent command units)
  uint32_t planes_per_die = 1;      ///< Nplane (multi-plane command width)
  /// Blocks at the tail of the chip reserved for durable metadata (the
  /// ftl::MetaJournal region). The FTL's allocator, GC, and recovery scans
  /// see only the leading num_data_blocks(); the meta region is owned by
  /// whoever journals on the device. 0 (the default) reserves nothing and
  /// reproduces the historical all-data layout bit-for-bit.
  uint32_t meta_blocks = 0;

  uint32_t total_pages() const { return num_blocks * pages_per_block; }
  /// Blocks available to the page-update method (excludes the meta region).
  uint32_t num_data_blocks() const { return num_blocks - meta_blocks; }
  /// Pages of the data region: physical addresses [0, data_pages()).
  uint32_t data_pages() const { return num_data_blocks() * pages_per_block; }
  /// First physical page of the meta region (== data_pages()).
  uint32_t first_meta_page() const { return data_pages(); }
  uint64_t data_capacity_bytes() const {
    return static_cast<uint64_t>(data_pages()) * data_size;
  }

  /// Total planes on the chip (the stripe width).
  uint32_t planes_per_chip() const { return dies_per_chip * planes_per_die; }
  /// Plane that owns block `block` (round-robin interleaving).
  uint32_t plane_of_block(uint32_t block) const {
    return block % planes_per_chip();
  }
  /// Die that owns block `block`.
  uint32_t die_of_block(uint32_t block) const {
    return plane_of_block(block) / planes_per_die;
  }
};

/// Per-operation latencies in microseconds (Table 1).
///
/// A multi-plane erase costs erase_us per command and a read-retry pass
/// costs read_us. The cache-program field defaults to 0, which means "same
/// as write_us": chips without a datasheet number for it behave exactly as
/// before, even when a bench mutates the base latencies.
struct FlashTiming {
  uint32_t read_us = 110;    ///< Tread: read one page
  uint32_t write_us = 1010;  ///< Twrite: program one page (or partial program)
  uint32_t erase_us = 1500;  ///< Terase: erase one block
  /// Cost of a cache-program: a full-page program whose page immediately
  /// follows the previous program on the same plane and block, so the array
  /// busy time hides behind the data load (0 = write_us = no cache benefit).
  uint32_t cache_write_us = 0;

  uint32_t effective_cache_write_us() const {
    return cache_write_us != 0 ? cache_write_us : write_us;
  }
};

/// Full device configuration.
struct FlashConfig {
  FlashGeometry geometry;
  FlashTiming timing;

  /// Read-disturb scrub threshold: when non-zero, a page whose
  /// reads-since-erase counter reaches this value is flagged as a scrub
  /// candidate (FlashDevice::TakeScrubCandidates) so a background scrubber
  /// can relocate it before accumulated disturb makes it uncorrectable. 0
  /// (the default) disables count-based flagging; pages that needed read
  /// retries are always flagged.
  uint32_t read_disturb_limit = 0;

  /// When true, Format/Recover scan page 0's spare of every data block for
  /// the factory bad-block mark (OOB byte, see ftl::spare_codec) and exclude
  /// marked blocks from allocation. Off by default: the scan charges real
  /// reads, and the paper-model chips ship with zero factory bad blocks, so
  /// keeping it opt-in preserves the historical mount cost bit-for-bit.
  bool scan_bad_blocks = false;

  /// Paper-scale chip: 2 GB MLC, 32768 blocks (Table 1).
  static FlashConfig Paper() { return FlashConfig{}; }

  /// Modern datasheet preset: a mainstream 2-die x 4-plane chip in the mould
  /// of 3D TLC parts (faster reads, slower block erase, multi-plane and
  /// cache-program commands enabled). Page shape is kept at the paper's
  /// 2 KB + 64 B so every method config runs unchanged; the point of the
  /// preset is the command-level parallelism, not the page size.
  static FlashConfig Modern(uint32_t num_blocks = 32768) {
    FlashConfig cfg;
    cfg.geometry.num_blocks = num_blocks;
    cfg.geometry.dies_per_chip = 2;
    cfg.geometry.planes_per_die = 4;
    cfg.timing.read_us = 50;
    cfg.timing.write_us = 660;
    cfg.timing.erase_us = 3500;
    cfg.timing.cache_write_us = 520;
    cfg.scan_bad_blocks = true;
    return cfg;
  }

  /// Scaled-down chip for unit tests and fast benches: 32 MB by default.
  static FlashConfig Small(uint32_t num_blocks = 256) {
    FlashConfig cfg;
    cfg.geometry.num_blocks = num_blocks;
    return cfg;
  }

  /// Returns a copy with `meta_blocks` tail blocks reserved for the durable
  /// metadata journal (ftl::MetaJournal). The reservation comes out of
  /// num_blocks, so the data region shrinks accordingly. The reservation is
  /// rounded up to a whole plane stripe (a multiple of planes_per_chip()) so
  /// the data/meta boundary never splits a stripe -- otherwise the allocator
  /// would see planes with unequal block counts and plane-aligned striping
  /// could not route deterministically. With 1 plane the rounding is a no-op.
  FlashConfig WithMetaBlocks(uint32_t meta_blocks) const {
    FlashConfig cfg = *this;
    const uint32_t stripe = geometry.planes_per_chip();
    cfg.geometry.meta_blocks = (meta_blocks + stripe - 1) / stripe * stripe;
    return cfg;
  }
};

}  // namespace flashdb::flash

#endif  // FLASHDB_FLASH_FLASH_CONFIG_H_
