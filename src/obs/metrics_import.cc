#include "obs/metrics_import.h"

#include "flash/flash_stats.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "workload/latency_histogram.h"
#include "workload/tpcc.h"
#include "workload/tpcc_driver.h"
#include "workload/update_driver.h"

namespace flashdb::obs {

namespace {

using Kind = MetricsRegistry::Kind;

/// Stable dotted-name suffix for a device accounting category.
const char* CategorySlug(int c) {
  switch (static_cast<flash::OpCategory>(c)) {
    case flash::OpCategory::kDefault: return "default";
    case flash::OpCategory::kReadStep: return "read_step";
    case flash::OpCategory::kWriteStep: return "write_step";
    case flash::OpCategory::kGc: return "gc";
    case flash::OpCategory::kRecovery: return "recovery";
    case flash::OpCategory::kMigrate: return "migrate";
    case flash::OpCategory::kMeta: return "meta";
    case flash::OpCategory::kScrub: return "scrub";
  }
  return "unknown";
}

void ImportOpCounters(MetricsRegistry* reg, const std::string& prefix,
                      const flash::OpCounters& c) {
  reg->Set(prefix + ".reads", static_cast<double>(c.reads), Kind::kCounter);
  reg->Set(prefix + ".writes", static_cast<double>(c.writes), Kind::kCounter);
  reg->Set(prefix + ".erases", static_cast<double>(c.erases), Kind::kCounter);
  reg->Set(prefix + ".read_us", static_cast<double>(c.read_us),
           Kind::kCounter);
  reg->Set(prefix + ".write_us", static_cast<double>(c.write_us),
           Kind::kCounter);
  reg->Set(prefix + ".erase_us", static_cast<double>(c.erase_us),
           Kind::kCounter);
}

void ImportWorstOp(MetricsRegistry* reg, const std::string& prefix,
                   const workload::WorstOpSample& w) {
  if (!w.valid) return;
  reg->Set(prefix + ".total_us", static_cast<double>(w.total_us));
  reg->Set(prefix + ".read_us", static_cast<double>(w.read_us));
  reg->Set(prefix + ".write_us", static_cast<double>(w.write_us));
  reg->Set(prefix + ".gc_us", static_cast<double>(w.gc_us));
  reg->Set(prefix + ".meta_us", static_cast<double>(w.meta_us));
  reg->Set(prefix + ".pid", static_cast<double>(w.pid));
}

}  // namespace

void ImportHistogram(MetricsRegistry* reg, const std::string& prefix,
                     const workload::LatencyHistogram& h) {
  reg->Set(prefix + ".count", static_cast<double>(h.count()), Kind::kHist);
  reg->Set(prefix + ".mean", h.mean(), Kind::kHist);
  reg->Set(prefix + ".p50", static_cast<double>(h.p50()), Kind::kHist);
  reg->Set(prefix + ".p95", static_cast<double>(h.ValueAtPercentile(95.0)),
           Kind::kHist);
  reg->Set(prefix + ".p99", static_cast<double>(h.p99()), Kind::kHist);
  reg->Set(prefix + ".p999", static_cast<double>(h.p999()), Kind::kHist);
  reg->Set(prefix + ".max", static_cast<double>(h.max()), Kind::kHist);
}

void ImportRunStats(MetricsRegistry* reg, const std::string& prefix,
                    const workload::RunStats& s) {
  reg->Set(prefix + ".operations", static_cast<double>(s.operations),
           Kind::kCounter);
  reg->Set(prefix + ".update_ops", static_cast<double>(s.update_ops),
           Kind::kCounter);
  reg->Set(prefix + ".read_us_per_op", s.read_us_per_op());
  reg->Set(prefix + ".write_us_per_op", s.write_us_per_op());
  reg->Set(prefix + ".overall_us_per_op", s.overall_us_per_op());
  for (int c = 0; c < flash::kNumOpCategories; ++c) {
    const flash::OpCounters& oc = s.device.by_category[c];
    if (oc.total_ops() != 0) {
      ImportOpCounters(reg, prefix + "." + CategorySlug(c), oc);
    }
  }
  reg->Set(prefix + ".erases", static_cast<double>(s.device.total.erases),
           Kind::kCounter);
  reg->Set(prefix + ".migrations", static_cast<double>(s.migrations),
           Kind::kCounter);
  reg->Set(prefix + ".scrub_candidates",
           static_cast<double>(s.scrub_candidates), Kind::kCounter);
  reg->Set(prefix + ".scrub_relocations",
           static_cast<double>(s.scrub_relocations), Kind::kCounter);
  reg->Set(prefix + ".read_retries",
           static_cast<double>(s.device.integrity.read_retries),
           Kind::kCounter);
  reg->Set(prefix + ".retry_us",
           static_cast<double>(s.device.integrity.retry_us), Kind::kCounter);
  reg->Set(prefix + ".plane_stall_us", static_cast<double>(s.plane_stall_us),
           Kind::kCounter);
  reg->Set(prefix + ".elapsed_vt_us", static_cast<double>(s.elapsed_vt_us));
  reg->Set(prefix + ".total_work_us", static_cast<double>(s.total_work_us),
           Kind::kCounter);
  reg->Set(prefix + ".credit_wait_ns", static_cast<double>(s.credit_wait_ns),
           Kind::kCounter);
  if (s.latency.count() != 0) {
    ImportHistogram(reg, prefix + ".latency", s.latency);
  }
  ImportWorstOp(reg, prefix + ".worst_op", s.worst_op);
}

void ImportTpccStats(MetricsRegistry* reg, const std::string& prefix,
                     const workload::TpccRunStats& s) {
  reg->Set(prefix + ".transactions", static_cast<double>(s.latency.count()),
           Kind::kCounter);
  reg->Set(prefix + ".elapsed_vt_us", static_cast<double>(s.elapsed_vt_us));
  reg->Set(prefix + ".total_work_us", static_cast<double>(s.total_work_us),
           Kind::kCounter);
  reg->Set(prefix + ".credit_wait_ns", static_cast<double>(s.credit_wait_ns),
           Kind::kCounter);
  if (s.latency.count() != 0) {
    ImportHistogram(reg, prefix + ".latency", s.latency);
  }
  ImportWorstOp(reg, prefix + ".worst_txn", s.worst_op);
  for (uint32_t t = 0; t < workload::kNumTpccTxnTypes; ++t) {
    const workload::LatencyHistogram& h = s.by_type[t].latency;
    if (h.count() == 0) continue;
    const std::string p =
        prefix + ".type." +
        workload::TpccTxnTypeName(static_cast<workload::TpccTxnType>(t));
    reg->Set(p + ".count", static_cast<double>(h.count()), Kind::kCounter);
    ImportHistogram(reg, p + ".latency", h);
  }
}

void ImportExecutorStats(MetricsRegistry* reg, const std::string& prefix,
                         const ftl::ShardExecutor& ex) {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  for (uint32_t w = 0; w < ex.num_workers(); ++w) {
    const std::string p = prefix + ".worker" + std::to_string(w);
    reg->Set(p + ".submitted", static_cast<double>(ex.submitted_count(w)),
             Kind::kCounter);
    reg->Set(p + ".completed", static_cast<double>(ex.completed_count(w)),
             Kind::kCounter);
    reg->Set(p + ".in_flight", static_cast<double>(ex.in_flight(w)));
    submitted += ex.submitted_count(w);
    completed += ex.completed_count(w);
  }
  reg->Set(prefix + ".submitted", static_cast<double>(submitted),
           Kind::kCounter);
  reg->Set(prefix + ".completed", static_cast<double>(completed),
           Kind::kCounter);
  reg->Set(prefix + ".workers", static_cast<double>(ex.num_workers()));
  reg->Set(prefix + ".pinned_workers",
           static_cast<double>(ex.pinned_workers()));
}

void ImportShardedStoreStats(MetricsRegistry* reg, const std::string& prefix,
                             const ftl::ShardedStore& store) {
  const std::vector<uint64_t> clocks = store.shard_clocks();
  for (size_t i = 0; i < clocks.size(); ++i) {
    reg->Set(prefix + ".shard" + std::to_string(i) + ".clock_us",
             static_cast<double>(clocks[i]));
  }
  reg->Set(prefix + ".shard_lag_us", static_cast<double>(store.shard_lag_us()));
  reg->Set(prefix + ".journal_epochs",
           static_cast<double>(store.journal_epochs()), Kind::kCounter);
}

}  // namespace flashdb::obs
