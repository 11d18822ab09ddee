// Importers: project the subsystems' existing deterministic counter structs
// into an obs::MetricsRegistry under a dotted name prefix. Keeping these as
// free functions (instead of registry pointers inside FlashDevice &c.) keeps
// the hot paths untouched -- the registry is populated at report time only,
// so it can never perturb a virtual clock or a gated column.
//
// Naming convention: "<prefix>.<field>", e.g. "run.gc.erases",
// "run.latency.p999", "executor.worker0.in_flight". Histograms import as
// Kind::kHist summary fields (count/mean/p50/p95/p99/p999/max).

#ifndef FLASHDB_OBS_METRICS_IMPORT_H_
#define FLASHDB_OBS_METRICS_IMPORT_H_

#include <string>

#include "obs/metrics_registry.h"

namespace flashdb::ftl {
class ShardExecutor;
class ShardedStore;
}  // namespace flashdb::ftl
namespace flashdb::workload {
class LatencyHistogram;
struct RunStats;
struct TpccRunStats;
}  // namespace flashdb::workload

namespace flashdb::obs {

/// Histogram summary: <prefix>.count/.mean/.p50/.p95/.p99/.p999/.max.
void ImportHistogram(MetricsRegistry* reg, const std::string& prefix,
                     const workload::LatencyHistogram& h);

/// Workload run breakdown: per-op figures, one <prefix>.<category>.* group
/// per device category the run touched, stall attribution, elapsed and
/// total virtual time, credit_wait, latency histogram, worst-op attribution.
void ImportRunStats(MetricsRegistry* reg, const std::string& prefix,
                    const workload::RunStats& s);

/// TPC-C serving stats: txn counts (total and per type), latency histograms,
/// elapsed/total virtual time, credit_wait.
void ImportTpccStats(MetricsRegistry* reg, const std::string& prefix,
                     const workload::TpccRunStats& s);

/// Executor: per-worker submitted/completed/in_flight (queue depth) and the
/// pinned-worker count. Read while quiescent for exact values.
void ImportExecutorStats(MetricsRegistry* reg, const std::string& prefix,
                         const ftl::ShardExecutor& ex);

/// Sharded store: per-shard virtual clocks, shard lag, journal epochs.
void ImportShardedStoreStats(MetricsRegistry* reg, const std::string& prefix,
                             const ftl::ShardedStore& store);

}  // namespace flashdb::obs

#endif  // FLASHDB_OBS_METRICS_IMPORT_H_
