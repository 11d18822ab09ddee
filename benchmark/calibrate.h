// Calibration loops over public library functions, run by the --trace
// benchmark run after the workload. Each gives the host cost of one call of a
// layer's primitive; the benchmark multiplies it by exact device or method
// counts to estimate how much of an operation's host time that layer takes.

#ifndef FLASHDB_BENCHMARK_CALIBRATE_H_
#define FLASHDB_BENCHMARK_CALIBRATE_H_

#include <cstdint>

namespace flashdb::bench {

/// Host nanoseconds per call, each the median of several timed repetitions.
struct Calibration {
  double flash_read_ns = 0;     ///< FlashDevice::ReadPage of a 2 KB page.
  double flash_program_ns = 0;  ///< FlashDevice::ProgramPage of a 2 KB page.
  double flash_erase_ns = 0;    ///< FlashDevice::EraseBlock (64 pages).
  double crc_page_ns = 0;       ///< Crc32c over 2 KB.
  double diff_compute_ns = 0;   ///< pdl::ComputeDifferentialInto, 2% changed.
  double submit_ns = 0;         ///< ShardExecutor::SubmitWithCallback, no-op.
  double roundtrip_ns = 0;      ///< ShardExecutor::Submit(no-op).get().
};

/// Runs every loop. Starts one executor worker besides the calling thread.
Calibration Calibrate(uint64_t seed);

}  // namespace flashdb::bench

#endif  // FLASHDB_BENCHMARK_CALIBRATE_H_
