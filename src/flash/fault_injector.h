// Power-loss fault injection for crash-recovery testing.
//
// The injector observes every device operation and may cut power *between*
// operations (page programming is atomic at the chip level, as the paper
// notes in Section 4.5). A cut is modeled by throwing PowerLossError, which
// unwinds the page-update method mid-algorithm; the flash contents survive in
// the device object, and a fresh method instance can then Mount()+Recover().

#ifndef FLASHDB_FLASH_FAULT_INJECTOR_H_
#define FLASHDB_FLASH_FAULT_INJECTOR_H_

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace flashdb::flash {

/// Kind of device operation, reported to the injector.
enum class OpKind { kRead, kProgram, kProgramSpare, kErase };

/// Thrown when injected power loss interrupts the storage stack.
class PowerLossError : public std::runtime_error {
 public:
  PowerLossError() : std::runtime_error("injected power loss") {}
};

/// Interface observed by FlashDevice before applying each mutation.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Called before a mutating operation (programs and erases) is applied.
  /// Throw PowerLossError to simulate a crash with the operation NOT applied.
  virtual void BeforeMutation(OpKind kind, uint32_t addr) = 0;

  /// Called after a mutating operation was applied. Throw PowerLossError to
  /// simulate a crash with the operation fully applied (atomic programming).
  virtual void AfterMutation(OpKind kind, uint32_t addr) = 0;

  /// Called after validation, before a mutation is applied. Returning true
  /// makes the device fail the operation with Status::IOError and leave the
  /// cells untouched -- the model for a worn-out block whose erase no longer
  /// completes (a *grown* bad block). Unlike power loss this is a recoverable
  /// per-operation error the FTL must handle in-line. Default: never fail.
  virtual bool FailMutation(OpKind /*kind*/, uint32_t /*addr*/) {
    return false;
  }

  /// Called once per read *attempt* of a page (attempt 0 is the initial
  /// sensing pass; higher values are the device's read-retry passes, each
  /// re-charged at FlashTiming::read_us). Returning true means this
  /// attempt delivered raw bit errors beyond the on-chip ECC budget; the
  /// device retries up to FlashDevice::kMaxReadRetries times and, if every
  /// attempt fails, delivers a deterministically bit-flipped buffer with
  /// Status::OK -- exactly the silent-corruption surface the FTL's spare-area
  /// data CRC exists to catch. `erase_count` (block wear) and
  /// `reads_since_erase` (read disturb) let injectors scale the error
  /// probability with the physical stress model. Default: reads are perfect.
  virtual bool CorruptRead(uint32_t /*addr*/, uint32_t /*attempt*/,
                           uint32_t /*erase_count*/,
                           uint32_t /*reads_since_erase*/) {
    return false;
  }
};

/// SplitMix64 finalizer: the shared bit mixer behind deterministic fault
/// decisions (which read attempt errors, which delivered bits flip).
inline uint64_t MixBits64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Cuts power when a countdown of mutating operations reaches zero.
/// With cut_after_apply=false the fatal operation is suppressed; with true it
/// is applied first (both sides of the atomicity boundary are testable).
class CountdownFaultInjector : public FaultInjector {
 public:
  CountdownFaultInjector(uint64_t mutations_until_cut, bool cut_after_apply)
      : remaining_(mutations_until_cut), cut_after_apply_(cut_after_apply) {}

  void BeforeMutation(OpKind, uint32_t) override {
    if (!armed_) return;
    if (!cut_after_apply_ && remaining_ == 0) {
      armed_ = false;
      throw PowerLossError();
    }
  }

  void AfterMutation(OpKind, uint32_t) override {
    if (!armed_) return;
    if (remaining_ == 0) {  // only reachable when cut_after_apply_
      armed_ = false;
      throw PowerLossError();
    }
    --remaining_;
  }

  /// True until the injector has fired once.
  bool armed() const { return armed_; }

 private:
  uint64_t remaining_;
  bool cut_after_apply_;
  bool armed_ = true;
};

/// Fails the Nth erase the device attempts (0 = the next one), simulating a
/// block wearing out mid-workload. Which block grows bad is therefore decided
/// by the workload itself -- deterministic for a fixed schedule -- and the
/// injector records it for the test to inspect. A block that has failed once
/// keeps failing on every later erase (a worn-out block stays worn out), so
/// the per-block retry after a failed multi-plane command re-discovers the
/// same bad block; other blocks succeed until Arm() schedules another
/// failure.
class EraseFailureInjector : public FaultInjector {
 public:
  explicit EraseFailureInjector(uint32_t pages_per_block)
      : pages_per_block_(pages_per_block) {}

  void BeforeMutation(OpKind, uint32_t) override {}
  void AfterMutation(OpKind, uint32_t) override {}

  bool FailMutation(OpKind kind, uint32_t addr) override {
    if (kind != OpKind::kErase) return false;
    const uint32_t block = addr / pages_per_block_;
    for (uint32_t b : failed_blocks_) {
      if (b == block) return true;
    }
    if (!armed_) return false;
    if (countdown_ > 0) {
      --countdown_;
      return false;
    }
    armed_ = false;
    failed_blocks_.push_back(block);
    return true;
  }

  /// Schedules the `skip_erases`-th erase from now to fail.
  void Arm(uint64_t skip_erases = 0) {
    armed_ = true;
    countdown_ = skip_erases;
  }

  bool armed() const { return armed_; }
  /// Blocks whose erase was failed, in failure order.
  const std::vector<uint32_t>& failed_blocks() const { return failed_blocks_; }

 private:
  uint32_t pages_per_block_;
  uint64_t countdown_ = 0;
  bool armed_ = false;
  std::vector<uint32_t> failed_blocks_;
};

/// Deterministic raw-bit-error model: each read attempt of a page errors with
/// a probability that grows with the block's erase count (wear: worn oxide
/// holds charge poorly) and with the page's reads-since-erase counter (read
/// disturb: sensing a page soft-programs its neighbors until the block is
/// erased). Retries attenuate the probability -- the chip shifts its read
/// reference voltages, so a marginal page usually comes back clean within a
/// few passes, while a genuinely degraded one stays bad through the whole
/// ladder and surfaces as an uncorrectable read.
///
/// The decision is a pure hash of (seed, addr, reads_since_erase, attempt):
/// no RNG stream, so interleaving reads across shards or run modes cannot
/// change which reads error -- the property the determinism cross-checks in
/// the benches rely on.
class BitErrorInjector : public FaultInjector {
 public:
  struct Params {
    /// Base probability that one read attempt of an unworn, undisturbed page
    /// comes back with uncorrectable raw errors. 0 disables the model.
    double page_error_rate = 0.0;
    /// Additive probability scale per read since the block's last erase
    /// (read-disturb term).
    double disturb_factor = 0.0005;
    uint64_t seed = 0x5D1F7ULL;
  };
  /// Additive probability scale per block erase (wear term).
  static constexpr double kWearFactor = 0.01;
  /// Multiplier applied per retry attempt: attempt k errors with
  /// p * kRetryAttenuation^k (< 1, so retries help).
  static constexpr double kRetryAttenuation = 0.25;

  explicit BitErrorInjector(const Params& params) : p_(params) {}

  void BeforeMutation(OpKind, uint32_t) override {}
  void AfterMutation(OpKind, uint32_t) override {}

  bool CorruptRead(uint32_t addr, uint32_t attempt, uint32_t erase_count,
                   uint32_t reads_since_erase) override {
    double prob = p_.page_error_rate *
                  (1.0 + kWearFactor * static_cast<double>(erase_count) +
                   p_.disturb_factor * static_cast<double>(reads_since_erase));
    for (uint32_t a = 0; a < attempt; ++a) prob *= kRetryAttenuation;
    if (prob <= 0.0) return false;
    uint64_t h = MixBits64(p_.seed ^ (static_cast<uint64_t>(addr) << 20));
    h = MixBits64(h ^ reads_since_erase);
    h = MixBits64(h ^ (static_cast<uint64_t>(attempt) << 32));
    // Top 53 bits -> uniform double in [0, 1).
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < prob;
  }

  const Params& params() const { return p_; }

 private:
  Params p_;
};

}  // namespace flashdb::flash

#endif  // FLASHDB_FLASH_FAULT_INJECTOR_H_
