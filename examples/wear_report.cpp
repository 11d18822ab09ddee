// Flash-longevity scenario (paper Experiment 6's motivation): run the same
// update workload under every page-update method and report erase counts and
// wear distribution. Each NAND block endures ~100K erase cycles; fewer and
// flatter erases mean a longer device life.
//
//   $ ./build/examples/wear_report

#include <algorithm>
#include <cstdio>

#include "common/random.h"
#include "methods/method_factory.h"
#include "workload/update_driver.h"

using namespace flashdb;

int main() {
  constexpr uint32_t kBlocks = 64;
  constexpr uint64_t kOps = 20000;
  constexpr uint32_t kEnduranceCycles = 100000;  // per-block erase budget

  std::printf("Wear report: %llu update operations (2%% changed, N=1) on a "
              "%u-block chip at 50%% utilization\n\n",
              static_cast<unsigned long long>(kOps), kBlocks);
  std::printf("  %-10s %8s %10s %10s %10s   %s\n", "method", "erases",
              "erase/op", "max/block", "mean/block",
              "device life (ops until first block wears out)");

  for (const methods::MethodSpec& spec : methods::PaperMethodSet()) {
    flash::FlashDevice dev(flash::FlashConfig::Small(kBlocks));
    auto store = methods::CreateStore(&dev, spec);
    workload::WorkloadParams params;
    params.pct_changed_by_one_op = 2.0;
    workload::UpdateDriver driver(store.get(), params);
    const uint32_t pages = (dev.geometry().total_pages() - 128) / 2;
    if (Status st = driver.LoadDatabase(pages); !st.ok()) {
      std::printf("  %-10s format failed: %s\n", spec.ToString().c_str(),
                  st.ToString().c_str());
      return 1;
    }
    dev.ResetAccounting();
    workload::RunStats stats;
    // IPU is ~50x slower; keep the example snappy.
    const uint64_t ops = spec.kind == methods::MethodKind::kIpu ? 2000 : kOps;
    if (Status st = driver.Run(ops, &stats); !st.ok()) {
      std::printf("  %-10s run failed: %s\n", spec.ToString().c_str(),
                  st.ToString().c_str());
      return 1;
    }
    const flash::WearSummary wear = store->wear();
    const uint64_t total = wear.total;
    const uint32_t worst = wear.max;
    const double mean = wear.mean;
    const double erase_per_op =
        static_cast<double>(total) / static_cast<double>(ops);
    const double life =
        worst == 0 ? 0
                   : static_cast<double>(ops) * kEnduranceCycles /
                         static_cast<double>(worst);
    if (worst == 0) {
      std::printf("  %-10s %8llu %10.4f %10u %10.1f   (no erase needed yet)\n",
                  spec.ToString().c_str(),
                  static_cast<unsigned long long>(total), erase_per_op, worst,
                  mean);
    } else {
      std::printf("  %-10s %8llu %10.4f %10u %10.1f   %.2e\n",
                  spec.ToString().c_str(),
                  static_cast<unsigned long long>(total), erase_per_op, worst,
                  mean, life);
    }
  }
  std::printf("\nFewer write operations -> fewer erase operations -> longer "
              "flash life (paper Section 4.1, advantage 3).\n");
  return 0;
}
