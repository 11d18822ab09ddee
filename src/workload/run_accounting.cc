#include "workload/run_accounting.h"

#include "flash/flash_device.h"

namespace flashdb::workload {

CostSnap SnapCost(flash::FlashDevice* dev) {
  // stats() returns a reference, so this is five counter loads -- cheap
  // enough to bracket every operation when recording is on.
  const flash::FlashStats& st = dev->stats();
  using flash::OpCategory;
  return CostSnap{.clock_us = dev->clock().now_us(),
                  .read_us = st.of(OpCategory::kReadStep).total_us(),
                  .write_us = st.of(OpCategory::kWriteStep).total_us(),
                  .gc_us = st.of(OpCategory::kGc).total_us(),
                  .meta_us = st.of(OpCategory::kMeta).total_us()};
}

WorstOpSample CostSince(const CostSnap& before, flash::FlashDevice* dev,
                        PageId pid) {
  const CostSnap now = SnapCost(dev);
  return WorstOpSample{.total_us = now.clock_us - before.clock_us,
                       .read_us = now.read_us - before.read_us,
                       .write_us = now.write_us - before.write_us,
                       .gc_us = now.gc_us - before.gc_us,
                       .meta_us = now.meta_us - before.meta_us,
                       .pid = pid,
                       .valid = true};
}

}  // namespace flashdb::workload
