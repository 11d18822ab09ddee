// Virtual time accounting. The flash emulator charges each operation its
// datasheet latency to a SimClock; experiment drivers read deltas off the
// clock instead of wall time, exactly as the paper's emulator did ("the
// emulator returns the required time in the flash memory").

#ifndef FLASHDB_COMMON_SIM_CLOCK_H_
#define FLASHDB_COMMON_SIM_CLOCK_H_

#include <cstdint>

namespace flashdb {

/// Monotonic virtual clock measured in microseconds.
class SimClock {
 public:
  /// Current virtual time in microseconds.
  uint64_t now_us() const { return now_us_; }

  /// Advances the clock to absolute time `t_us` if it lies in the future;
  /// a monotonic max used by the per-plane device model, where the chip
  /// clock is the completion time of the latest-finishing plane.
  void AdvanceTo(uint64_t t_us) {
    if (t_us > now_us_) now_us_ = t_us;
  }

  /// Resets to time zero (used between experiment phases).
  void Reset() { now_us_ = 0; }

 private:
  uint64_t now_us_ = 0;
};

}  // namespace flashdb

#endif  // FLASHDB_COMMON_SIM_CLOCK_H_
