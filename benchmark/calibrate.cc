#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "flash/flash_device.h"
#include "ftl/shard_executor.h"
#include "pdl/differential.h"

namespace flashdb::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepetitions = 7;

volatile uint64_t g_sink = 0;  // keeps results of the timed calls observable

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over kRepetitions of `rep()`, which returns ns per call.
template <typename Rep>
double MedianNs(const Rep& rep) {
  std::vector<double> v;
  for (int i = 0; i < kRepetitions; ++i) v.push_back(rep());
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

void CalibrateFlash(Random* rng, Calibration* out) {
  constexpr uint32_t kBlocks = 4;
  flash::FlashDevice dev(flash::FlashConfig::Small(kBlocks));
  const uint32_t pages = dev.geometry().pages_per_block;
  ByteBuffer page(dev.geometry().data_size);
  rng->Fill(page);
  std::vector<double> read_ns, program_ns, erase_ns;
  for (int r = 0; r < kRepetitions; ++r) {
    Clock::time_point t0 = Clock::now();
    for (uint32_t b = 0; b < kBlocks; ++b) (void)dev.EraseBlock(b);
    erase_ns.push_back(NsSince(t0) / kBlocks);
    t0 = Clock::now();
    for (uint32_t b = 0; b < kBlocks; ++b) {
      for (uint32_t p = 0; p < pages; ++p) {
        (void)dev.ProgramPage(dev.AddrOf(b, p), page, {});
      }
    }
    program_ns.push_back(NsSince(t0) / (kBlocks * pages));
    t0 = Clock::now();
    for (uint32_t b = 0; b < kBlocks; ++b) {
      for (uint32_t p = 0; p < pages; ++p) {
        (void)dev.ReadPage(dev.AddrOf(b, p), page, {});
      }
    }
    read_ns.push_back(NsSince(t0) / (kBlocks * pages));
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  out->flash_read_ns = median(read_ns);
  out->flash_program_ns = median(program_ns);
  out->flash_erase_ns = median(erase_ns);
}

void CalibrateCodecs(Random* rng, Calibration* out) {
  constexpr int kCalls = 4096;
  constexpr uint32_t kPage = 2048;
  constexpr uint32_t kChanged = kPage * 2 / 100;  // the workloads' 2% update
  ByteBuffer base(kPage);
  rng->Fill(base);
  std::vector<ByteBuffer> updated(64, base);
  for (ByteBuffer& u : updated) {
    const uint32_t off = static_cast<uint32_t>(rng->Uniform(kPage - kChanged));
    rng->Fill(MutBytes(u).subspan(off, kChanged));
  }
  out->crc_page_ns = MedianNs([&] {
    const Clock::time_point t0 = Clock::now();
    uint32_t crc = 0;
    for (int i = 0; i < kCalls; ++i) crc = Crc32c(updated[i % 64], crc);
    g_sink = g_sink + crc;
    return NsSince(t0) / kCalls;
  });
  pdl::Differential diff;
  out->diff_compute_ns = MedianNs([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      pdl::ComputeDifferentialInto(base, updated[i % 64], 0, i,
                                   pdl::kExtentHeaderSize, &diff);
      g_sink = g_sink + diff.EncodedSize();
    }
    return NsSince(t0) / kCalls;
  });
}

void CalibrateExecutor(Calibration* out) {
  constexpr int kSubmits = 4096;
  constexpr int kRoundtrips = 1000;
  ftl::ShardExecutor executor(1, kSubmits);
  const auto drain = [&] {
    while (executor.completed_count(0) != executor.submitted_count(0)) {
      std::this_thread::yield();
    }
  };
  out->submit_ns = MedianNs([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSubmits; ++i) {
      (void)executor.SubmitWithCallback(
          0, [] { return Status::OK(); }, [](const Status&) {});
    }
    const double ns = NsSince(t0) / kSubmits;
    drain();
    return ns;
  });
  out->roundtrip_ns = MedianNs([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kRoundtrips; ++i) {
      (void)executor.Submit(0, [] { return Status::OK(); }).get();
    }
    return NsSince(t0) / kRoundtrips;
  });
}

}  // namespace

Calibration Calibrate(uint64_t seed) {
  Random rng(seed);
  Calibration c;
  CalibrateFlash(&rng, &c);
  CalibrateCodecs(&rng, &c);
  CalibrateExecutor(&c);
  return c;
}

}  // namespace flashdb::bench
