// flashdb_bench: the repository's end-to-end benchmark.
//
// One process runs one workload as a closed loop: set-up (timed kSetups
// times, the last rig kept), one warm slice that is discarded, then
// kTimedSlices timed slices, then correctness checks that are not timed. It
// prints every metric as `name value unit`, optionally writes them all to a
// JSON file, and ends with one JSON line holding the end-to-end metrics (or,
// with --trace=1, the per-layer metrics).
//
// Two clocks appear throughout. Virtual (vt_*) time is the paper's flash cost
// model: it depends only on the seed, so it repeats exactly between runs.
// Host time is how long the simulator really takes.
//
// --trace=1 wraps each chip's PageStore in a TimingStore and runs the
// calibration loops; every second timed slice runs with the probe's clocks
// off, which gives trace.overhead_frac from one run. Deterministic metrics
// are the same with and without --trace.
//
// Usage: flashdb_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                      [--scale=full|smoke] [--json=PATH]

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "calibrate.h"
#include "flash/flash_device.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "pdl/pdl_store.h"
#include "timing_store.h"
#include "workload/tpcc_driver.h"
#include "workload/update_driver.h"

namespace flashdb::bench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  const char* method;
  uint32_t shards;
  bool tpcc;
  /// Operations (transactions on tpcc_*) per slice at --seconds=10, sized
  /// for about one second of host time per slice on a 4-core x86 host.
  uint64_t slice_ops;
  /// tpcc_*: buffer-pool frames per shard; 0 = the whole shard.
  uint32_t frames;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"update_pdl_1chip", "PDL(256B)", 1, false, 40000, 0},
    {"update_opu_3shard", "OPU", 3, false, 150000, 0},
    {"tpcc_pdl_small_pool", "PDL(256B)", 2, true, 4000, 64},
    {"tpcc_pdl_cached", "PDL(256B)", 2, true, 4000, 0},
};

constexpr int kSetups = 3;
constexpr int kTimedSlices = 10;
constexpr uint32_t kBlocksPerChip = 128;  // the paper's Exp. 1 point, scaled
constexpr uint32_t kPageSize = 2048;
constexpr uint32_t kPipelineBatch = 8;
constexpr uint32_t kPipelineDepth = 4;
/// Smoke scale divides slices and warm-up by this (benchmark/selftest.sh).
constexpr uint64_t kSmokeDivisor = 20;

struct Options {
  const WorkloadDef* def = nullptr;
  uint64_t seed = 42;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
};

uint64_t SliceOps(const Options& o) {
  uint64_t n = o.def->slice_ops * static_cast<uint64_t>(o.seconds) / 10;
  if (o.smoke) n /= kSmokeDivisor;
  return std::max<uint64_t>(n, 1);
}

/// Update workloads: warm-up ops per database page (the harness default).
uint64_t WarmupOpsPerPage(const Options& o) { return o.smoke ? 1 : 20; }

uint64_t TpccWarmupTxns(const Options& o) {
  return o.smoke ? 1000 / kSmokeDivisor : 1000;
}

workload::TpccScale TpccScaleFor(const Options& o) {
  workload::TpccScale s;  // bench/exp16_oltp's scale
  s.warehouses = 4;
  s.districts_per_warehouse = 4;
  s.customers_per_district = 40;
  s.items = 400;
  s.init_orders_per_district = 15;
  // Tables grow with the run: the fuller shard (warehouses 1 and 3, 52.5% of
  // the traffic) takes 23.6% of all transactions as new orders and 22.6% as
  // payments, and the budget assumes 15 order lines where the mix averages
  // 10. A quarter of the run's total plus 500 covers that and keeps the
  // database no larger than the run needs: the bigger tpcc_pdl_cached's
  // pool, the noisier its host time.
  const uint64_t total =
      TpccWarmupTxns(o) + (kTimedSlices + 1) * SliceOps(o);
  s.transaction_headroom = static_cast<uint32_t>(total / 4 + 500);
  return s;
}

// ---------------------------------------------------------------------------
// Process clocks
// ---------------------------------------------------------------------------

double CpuSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Rig: devices, store (optionally probed), driver and executor
// ---------------------------------------------------------------------------

struct Rig {
  std::vector<std::unique_ptr<flash::FlashDevice>> devices;
  std::unique_ptr<PageStore> store;  ///< Flat chip, or a ShardedStore.
  ftl::ShardedStore* sharded = nullptr;
  std::vector<TimingStore*> timers;  ///< One per chip on --trace runs.
  std::unique_ptr<workload::UpdateDriver> update;
  std::unique_ptr<workload::TpccDriver> tpcc;
  /// Declared last so its workers are joined before anything they touch.
  std::unique_ptr<ftl::ShardExecutor> executor;

  /// The method store of chip `i`, seen through any probe.
  PageStore* method_store(uint32_t i) {
    PageStore* s = sharded != nullptr ? sharded->shard(i) : store.get();
    if (auto* t = dynamic_cast<TimingStore*>(s)) return t->inner();
    return s;
  }
};

/// Builds one store per device (wrapped in a TimingStore when `probe`) and,
/// for more than one device, a ShardedStore over them.
void BuildStore(const methods::MethodSpec& spec, uint32_t chips,
                const flash::FlashConfig& cfg, bool probe, Rig* rig) {
  std::vector<ftl::ShardedStore::Shard> shards(chips);
  for (uint32_t i = 0; i < chips; ++i) {
    rig->devices.push_back(std::make_unique<flash::FlashDevice>(cfg));
    shards[i].device = rig->devices.back().get();
    shards[i].store = methods::CreateStore(shards[i].device, spec);
    if (probe) {
      auto timer = std::make_unique<TimingStore>(std::move(shards[i].store));
      rig->timers.push_back(timer.get());
      shards[i].store = std::move(timer);
    }
  }
  if (chips == 1) {
    rig->store = std::move(shards[0].store);
    return;
  }
  auto sharded = std::make_unique<ftl::ShardedStore>(std::move(shards));
  rig->sharded = sharded.get();
  rig->store = std::move(sharded);
}

uint32_t UpdateDbPages(uint32_t chips) {
  // 50% utilization of the data area, as the paper's harness sizes it.
  const flash::FlashGeometry g =
      flash::FlashConfig::Small(kBlocksPerChip).geometry;
  return chips * static_cast<uint32_t>(
                     0.5 * static_cast<double>(g.total_pages() -
                                               2 * g.pages_per_block));
}

Status SetupUpdate(const Options& o, const methods::MethodSpec& spec,
                   Rig* rig) {
  const uint32_t chips = o.def->shards;
  BuildStore(spec, chips, flash::FlashConfig::Small(kBlocksPerChip), o.trace,
             rig);
  workload::WorkloadParams params;
  params.seed = o.seed;
  params.verify = true;
  params.record_latency = true;
  rig->update = std::make_unique<workload::UpdateDriver>(rig->store.get(),
                                                         params);
  const uint32_t pages = UpdateDbPages(chips);
  FLASHDB_RETURN_IF_ERROR(rig->update->LoadDatabase(pages));
  FLASHDB_RETURN_IF_ERROR(
      rig->update->Warmup(10.0, WarmupOpsPerPage(o) * pages));
  if (chips > 1) rig->executor = std::make_unique<ftl::ShardExecutor>(chips);
  return Status::OK();
}

workload::TpccDriverOptions TpccOptions(const Options& o) {
  workload::TpccDriverOptions t;
  t.scale = TpccScaleFor(o);
  t.num_clients = 4;
  t.seed = o.seed;
  t.hot_warehouse_pct = 5.0;
  t.remote_pct = 10.0;
  t.max_inflight_per_shard = 4;
  t.flush_every_txn = true;
  const uint32_t pages_per_shard = workload::TpccDriver::PagesPerShard(
      t.scale, kPageSize, o.def->shards);
  t.frames_per_shard = o.def->frames != 0 ? o.def->frames : pages_per_shard;
  return t;
}

/// Formats a TPC-C rig and loads its tables, on the shards' workers when the
/// rig has an executor. With every page fitting in the pool, each pool is
/// then filled with the whole shard, so the timed slices run at a constant
/// cache footprint rather than one that grows as pages are first touched.
/// The replay check prepares a second rig with `probe` off and no executor;
/// both paths leave bit-identical shards.
Status PrepareTpccRig(const Options& o, const methods::MethodSpec& spec,
                      bool probe, Rig* rig) {
  const workload::TpccDriverOptions t = TpccOptions(o);
  const uint32_t pages_per_shard = workload::TpccDriver::PagesPerShard(
      t.scale, kPageSize, o.def->shards);
  // About 50% utilization, as bench/exp16_oltp sizes its chips.
  const uint32_t blocks = pages_per_shard * 2 / 64 + 8;
  BuildStore(spec, o.def->shards, flash::FlashConfig::Small(blocks), probe,
             rig);
  FLASHDB_RETURN_IF_ERROR(
      rig->sharded->Format(o.def->shards * pages_per_shard, nullptr, nullptr));
  rig->tpcc = std::make_unique<workload::TpccDriver>(rig->sharded, t);
  FLASHDB_RETURN_IF_ERROR(rig->tpcc->Load(rig->executor.get()));
  if (t.frames_per_shard < pages_per_shard) return Status::OK();
  for (uint32_t s = 0; s < o.def->shards; ++s) {
    for (PageId pid = 0; pid < pages_per_shard; ++pid) {
      FLASHDB_RETURN_IF_ERROR(rig->tpcc->shard_pool(s)->ReadPage(
          pid, [](ConstBytes) { return Status::OK(); }));
    }
  }
  return Status::OK();
}

Status SetupTpcc(const Options& o, const methods::MethodSpec& spec, Rig* rig,
                 workload::TpccRunStats* warm_stats,
                 workload::TpccCommitLog* log) {
  rig->executor = std::make_unique<ftl::ShardExecutor>(o.def->shards);
  FLASHDB_RETURN_IF_ERROR(PrepareTpccRig(o, spec, o.trace, rig));
  FLASHDB_RETURN_IF_ERROR(
      rig->tpcc->Serve(TpccWarmupTxns(o), rig->executor.get(), warm_stats));
  *log = rig->tpcc->commit_log();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Counter snapshots around the timed slices
// ---------------------------------------------------------------------------

struct Snapshot {
  std::vector<uint64_t> clocks;  ///< Per chip.
  flash::OpCounters total, gc;
  uint64_t tasks = 0;            ///< Executor tasks submitted, all workers.
  storage::BufferPoolStats pool;  ///< Summed over shards.
  pdl::PdlCounters pdl;           ///< Summed over PDL chips.
};

Snapshot Take(Rig* rig) {
  Snapshot s;
  for (const auto& dev : rig->devices) {
    s.clocks.push_back(dev->clock().now_us());
    const flash::FlashStats& st = dev->stats();
    s.total += st.total;
    s.gc += st.by_category[static_cast<int>(flash::OpCategory::kGc)];
  }
  if (rig->executor != nullptr) {
    for (uint32_t i = 0; i < rig->executor->num_workers(); ++i) {
      s.tasks += rig->executor->submitted_count(i);
    }
  }
  for (uint32_t i = 0; i < rig->devices.size(); ++i) {
    if (rig->tpcc != nullptr) {
      const storage::BufferPoolStats& p = rig->tpcc->shard_pool(i)->stats();
      s.pool.hits += p.hits;
      s.pool.misses += p.misses;
      s.pool.evictions += p.evictions;
      s.pool.dirty_writebacks += p.dirty_writebacks;
    }
    if (auto* pdl = dynamic_cast<pdl::PdlStore*>(rig->method_store(i))) {
      const pdl::PdlCounters& c = pdl->counters();
      s.pdl.diffs_buffered += c.diffs_buffered;
      s.pdl.new_base_pages += c.new_base_pages;
      s.pdl.gc_diffs_merged += c.gc_diffs_merged;
      s.pdl.diff_bytes_written += c.diff_bytes_written;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Slices
// ---------------------------------------------------------------------------

struct Slice {
  uint64_t ops = 0;
  double wall_s = 0;
  double cpu_s = 0;       ///< Process CPU time.
  double main_cpu_s = 0;  ///< CPU time of this (driver/producer) thread.
  bool traced = false;
  double kops() const { return static_cast<double>(ops) / wall_s / 1000.0; }
};

/// Everything the run measured, gathered for the metric formulas.
struct Measured {
  std::vector<double> setup_s;
  std::vector<Slice> slices;
  Snapshot before, after;
  std::vector<CallTally> tallies;  ///< Per chip, --trace runs only.
  workload::LatencyHistogram latency;
  uint64_t credit_wait_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool has_executor = false;
  uint64_t db_pages = 0;     ///< Logical pages over all chips.
  uint32_t pool_frames = 0;  ///< tpcc_*: buffer-pool frames per shard.
  Calibration cal;
};

/// Runs `body` (which executes `ops` operations) as one slice.
template <typename Body>
Status TimeSlice(uint64_t ops, bool traced, Rig* rig, std::vector<Slice>* out,
                 const Body& body) {
  for (TimingStore* t : rig->timers) t->set_timing(traced);
  Slice s;
  s.ops = ops;
  s.traced = traced;
  const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const double main0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  const Clock::time_point t0 = Clock::now();
  const Status st = body();
  s.wall_s = SecondsSince(t0);
  s.cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  s.main_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - main0;
  for (TimingStore* t : rig->timers) t->set_timing(false);
  if (out != nullptr) out->push_back(s);
  return st;
}

/// Slices 0, 2, 4, ... run with the probe's clocks on; the others give the
/// same run's untraced throughput for trace.overhead_frac.
bool TracedSlice(const Options& o, int i) { return o.trace && i % 2 == 0; }

// ---------------------------------------------------------------------------
// Update workloads
// ---------------------------------------------------------------------------

/// One slice of update operations: sequential Run() on a flat chip,
/// RunPipelined (schedule drawn before the clock starts) on shards.
Status RunUpdateSlice(uint64_t n, bool traced, Rig* rig,
                      workload::RunStats* stats, std::vector<Slice>* out) {
  workload::UpdateDriver* d = rig->update.get();
  if (rig->executor == nullptr) {
    return TimeSlice(n, traced, rig, out, [&] { return d->Run(n, stats); });
  }
  const workload::Schedule schedule = d->MakeSchedule(n);
  return TimeSlice(n, traced, rig, out, [&] {
    return d->RunPipelined(schedule, kPipelineBatch, kPipelineDepth,
                           rig->executor.get(), stats);
  });
}

/// Post-run checks: every page reads back equal to the driver's shadow copy,
/// and a fresh store instance recovered from the same flash serves the same
/// bytes as the live store. Returns the number of pages that failed.
uint64_t CheckUpdate(const methods::MethodSpec& spec, Rig* rig) {
  const uint32_t pages = rig->update->num_pages();
  uint64_t bad = 0;
  for (PageId pid = 0; pid < pages; ++pid) {
    if (!rig->update->ReadOperation(pid).ok()) ++bad;
  }
  if (!rig->store->Flush().ok()) return pages;
  std::vector<ByteBuffer> live(pages, ByteBuffer(kPageSize));
  for (PageId pid = 0; pid < pages; ++pid) {
    if (!rig->store->ReadPage(pid, live[pid]).ok()) ++bad;
  }
  std::unique_ptr<PageStore> fresh;
  if (rig->sharded == nullptr) {
    fresh = methods::CreateStore(rig->devices[0].get(), spec);
  } else {
    std::vector<flash::FlashDevice*> devs;
    for (const auto& d : rig->devices) devs.push_back(d.get());
    fresh = methods::CreateShardedStoreOverDevices(devs, spec);
  }
  if (!fresh->Recover().ok()) return pages;
  ByteBuffer page(kPageSize);
  for (PageId pid = 0; pid < pages; ++pid) {
    if (!fresh->ReadPage(pid, page).ok() || !BytesEqual(page, live[pid])) {
      ++bad;
    }
  }
  return std::min<uint64_t>(bad, pages);
}

Status RunUpdateWorkload(const Options& o, const methods::MethodSpec& spec,
                         Measured* m) {
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // free the previous rig before timing the next set-up
    const Clock::time_point t0 = Clock::now();
    rig = std::make_unique<Rig>();
    FLASHDB_RETURN_IF_ERROR(SetupUpdate(o, spec, rig.get()));
    m->setup_s.push_back(SecondsSince(t0));
  }
  m->has_executor = rig->executor != nullptr;
  m->db_pages = rig->update->num_pages();
  const uint64_t n = SliceOps(o);
  workload::RunStats warm, stats;
  FLASHDB_RETURN_IF_ERROR(
      RunUpdateSlice(n, false, rig.get(), &warm, nullptr));

  for (TimingStore* t : rig->timers) t->Reset();
  m->before = Take(rig.get());
  for (int i = 0; i < kTimedSlices; ++i) {
    m->attempted += n;
    if (!RunUpdateSlice(n, TracedSlice(o, i), rig.get(), &stats, &m->slices)
             .ok()) {
      m->failed += n;
    }
  }
  m->after = Take(rig.get());
  for (TimingStore* t : rig->timers) m->tallies.push_back(t->tally());
  m->latency = stats.latency;
  m->credit_wait_ns = stats.credit_wait_ns;
  m->failed = std::min(m->failed + CheckUpdate(spec, rig.get()), m->attempted);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TPC-C workloads
// ---------------------------------------------------------------------------

Status RunTpccWorkload(const Options& o, const methods::MethodSpec& spec,
                       Measured* m) {
  std::unique_ptr<Rig> rig;
  workload::TpccRunStats warmup_stats;
  workload::TpccCommitLog log;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // free the previous rig before timing the next set-up
    warmup_stats = workload::TpccRunStats{};
    const Clock::time_point t0 = Clock::now();
    rig = std::make_unique<Rig>();
    FLASHDB_RETURN_IF_ERROR(
        SetupTpcc(o, spec, rig.get(), &warmup_stats, &log));
    m->setup_s.push_back(SecondsSince(t0));
  }
  m->has_executor = true;
  m->db_pages = rig->sharded->num_logical_pages();
  m->pool_frames = TpccOptions(o).frames_per_shard;
  const uint64_t n = SliceOps(o);
  workload::TpccDriver* d = rig->tpcc.get();
  ftl::ShardExecutor* ex = rig->executor.get();
  const auto append_log = [&] {
    log.insert(log.end(), d->commit_log().begin(), d->commit_log().end());
  };
  workload::TpccRunStats warm, stats;
  FLASHDB_RETURN_IF_ERROR(TimeSlice(n, false, rig.get(), nullptr,
                                    [&] { return d->Serve(n, ex, &warm); }));
  append_log();

  for (TimingStore* t : rig->timers) t->Reset();
  m->before = Take(rig.get());
  for (int i = 0; i < kTimedSlices; ++i) {
    m->attempted += n;
    if (!TimeSlice(n, TracedSlice(o, i), rig.get(), &m->slices, [&] {
           return d->Serve(n, ex, &stats);
         }).ok()) {
      m->failed += n;
    }
    append_log();
  }
  m->after = Take(rig.get());
  for (TimingStore* t : rig->timers) m->tallies.push_back(t->tally());
  m->latency = stats.latency;
  m->credit_wait_ns = stats.credit_wait_ns;

  // Commit-order check: a single-threaded replay of the whole log on a
  // fresh, unprobed rig must reproduce every shard clock and the latency
  // histogram and worst transaction of warm-up plus all slices.
  workload::LatencyHistogram live_hist = warmup_stats.latency;
  live_hist.Merge(warm.latency);
  live_hist.Merge(stats.latency);
  workload::WorstOpSample live_worst = warmup_stats.worst_op;
  live_worst.Offer(warm.worst_op);
  live_worst.Offer(stats.worst_op);
  const std::vector<uint64_t> live_clocks = rig->sharded->shard_clocks();
  rig.reset();  // free the live rig's memory before building the replay rig

  Rig ref;
  workload::TpccRunStats ref_stats;
  bool same = PrepareTpccRig(o, spec, false, &ref).ok() &&
              ref.tpcc->Replay(log, &ref_stats).ok();
  same = same && ref.sharded->shard_clocks() == live_clocks &&
         ref_stats.latency == live_hist && ref_stats.worst_op == live_worst;
  if (!same) m->failed = m->attempted;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool per_layer;
  /// Depends only on the seed: repeats exactly between runs and between
  /// plain and --trace runs.
  bool deterministic;
  /// Listed in BENCHMARK.json, and so part of the last output line.
  bool gated = true;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Exact percentile (nearest rank) of host-time samples.
double Percentile(std::vector<uint32_t> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return v[rank];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Mean latency of the slowest 1% of operations: the quantile function
/// averaged over [99, 100) at 100 midpoints. Unlike a single quantized
/// percentile it moves when any part of the tail moves.
double TailMean(const workload::LatencyHistogram& h) {
  double sum = 0;
  for (int k = 0; k < 100; ++k) {
    sum += static_cast<double>(h.ValueAtPercentile(99.0 + (k + 0.5) / 100.0));
  }
  return sum / 100.0;
}

std::vector<Metric> ComputeMetrics(const Options& o, const Measured& m) {
  const Snapshot& a = m.before;
  const Snapshot& b = m.after;
  const flash::OpCounters total = b.total - a.total;
  const flash::OpCounters gc = b.gc - a.gc;
  uint64_t vt_elapsed = 0;
  for (size_t i = 0; i < a.clocks.size(); ++i) {
    vt_elapsed = std::max(vt_elapsed, b.clocks[i] - a.clocks[i]);
  }

  double ops = 0, wall = 0;
  double t_ops = 0, t_wall = 0, t_cpu = 0, t_main_cpu = 0;
  std::vector<double> kops, traced_kops, plain_kops;
  for (const Slice& s : m.slices) {
    ops += static_cast<double>(s.ops);
    wall += s.wall_s;
    kops.push_back(s.kops());
    (s.traced ? traced_kops : plain_kops).push_back(s.kops());
    if (s.traced) {
      t_ops += static_cast<double>(s.ops);
      t_wall += s.wall_s;
      t_cpu += s.cpu_s;
      t_main_cpu += s.main_cpu_s;
    }
  }

  std::vector<Metric> out;
  const auto e2e = [&](const char* name, double v, const char* unit,
                       bool det) {
    out.push_back({name, v, unit, false, det});
  };
  // Reported and written to the JSON file, but not gated: fail_frac reads 0
  // on every passing run (the `failed` field carries it), and the quantized
  // histogram percentiles read the same on every seed.
  const auto info = [&](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit, false, true, false});
  };
  const auto layer = [&](const char* name, double v, const char* unit,
                         bool det) {
    out.push_back({name, v, unit, true, det});
  };

  e2e("host_kops_s", Median(kops), "kops/s", false);
  e2e("setup_s", Median(m.setup_s), "s", false);
  e2e("peak_rss_mb", PeakRssMb(), "MB", false);
  info("fail_frac", Ratio(static_cast<double>(m.failed),
                          static_cast<double>(m.attempted)),
       "ratio");
  e2e("vt_us_per_op", Ratio(static_cast<double>(vt_elapsed), ops), "us", true);
  info("vt_p50_us", static_cast<double>(m.latency.p50()), "us");
  info("vt_p99_us", static_cast<double>(m.latency.p99()), "us");
  info("vt_p999_us", static_cast<double>(m.latency.p999()), "us");
  info("vt_latency_samples", static_cast<double>(m.latency.count()), "count");
  e2e("vt_tail_mean_us", TailMean(m.latency), "us", true);
  e2e("erases_per_kop", Ratio(1000.0 * total.erases, ops), "count", true);
  e2e("flash_writes_per_op", Ratio(total.writes, ops), "count", true);
  e2e("flash_reads_per_op", Ratio(total.reads, ops), "count", true);

  // --- per-layer metrics read from library counters (every run) -----------
  layer("workload.producer_wait_frac",
        Ratio(static_cast<double>(m.credit_wait_ns), wall * 1e9), "ratio",
        false);
  layer("executor.tasks_per_op",
        Ratio(static_cast<double>(b.tasks - a.tasks), ops), "count", true);

  // PDL internals (PdlStore::counters). GC merges also write new base pages;
  // Case 3 is what remains.
  const pdl::PdlCounters& pa = a.pdl;
  const pdl::PdlCounters& pb = b.pdl;
  const double case3 = static_cast<double>(
      (pb.new_base_pages - pa.new_base_pages) -
      (pb.gc_diffs_merged - pa.gc_diffs_merged));
  const double pdl_writes =
      static_cast<double>(pb.diffs_buffered - pa.diffs_buffered) + case3;
  layer("pdl.case3_frac", Ratio(case3, pdl_writes), "ratio", true);
  layer("pdl.diff_bytes_per_write",
        Ratio(static_cast<double>(pb.diff_bytes_written -
                                  pa.diff_bytes_written),
              pdl_writes),
        "bytes", true);

  // FTL and the virtual cost model.
  layer("ftl.gc_erases_per_kop", Ratio(1000.0 * gc.erases, ops), "count",
        true);
  layer("ftl.gc_copies_per_erase", Ratio(gc.writes, gc.erases), "count",
        true);
  layer("vt.gc_us_per_op", Ratio(gc.total_us(), ops), "us", true);
  // Foreground traffic is everything outside GC (no workload attaches the
  // metadata journal). The TPC-C driver tags no reading or writing step, so
  // these split by command kind: device reads versus programs and erases.
  layer("vt.read_step_us_per_op",
        Ratio(static_cast<double>(total.read_us - gc.read_us), ops), "us",
        true);
  layer("vt.write_step_us_per_op",
        Ratio(static_cast<double>(total.write_us + total.erase_us -
                                  gc.write_us - gc.erase_us),
              ops),
        "us", true);

  // Buffer pool.
  const double hits = static_cast<double>(b.pool.hits - a.pool.hits);
  const double misses = static_cast<double>(b.pool.misses - a.pool.misses);
  layer("storage.hit_rate", Ratio(hits, hits + misses), "ratio", true);
  layer("storage.evictions_per_txn",
        Ratio(static_cast<double>(b.pool.evictions - a.pool.evictions), ops),
        "count", true);
  layer("storage.dirty_pages_per_txn",
        Ratio(static_cast<double>(b.pool.dirty_writebacks -
                                  a.pool.dirty_writebacks),
              ops),
        "count", true);

  if (!o.trace) return out;

  // --- per-layer: host time seen by the TimingStore probes ----------------
  uint64_t reads = 0, writes = 0, flush_ns = 0, busy_ns = 0, max_busy = 0;
  std::vector<uint32_t> read_samples, write_samples;
  for (const CallTally& t : m.tallies) {
    reads += t.reads;
    writes += t.writes;
    flush_ns += t.flush_ns;
    busy_ns += t.busy_ns();
    max_busy = std::max(max_busy, t.busy_ns());
    read_samples.insert(read_samples.end(), t.read_samples.begin(),
                        t.read_samples.end());
    write_samples.insert(write_samples.end(), t.write_samples.begin(),
                         t.write_samples.end());
  }
  const double chips = static_cast<double>(m.tallies.size());
  const double t_wall_ns = t_wall * 1e9;
  const double workers = m.has_executor ? chips : 0;

  layer("workload.driver_ns_per_op",
        Ratio(t_wall_ns - static_cast<double>(max_busy), t_ops), "ns", false);
  layer("executor.worker_busy_frac",
        Ratio(t_cpu - t_main_cpu, t_wall * workers), "ratio", false);
  layer("sharded.busy_imbalance",
        Ratio(static_cast<double>(max_busy),
              static_cast<double>(busy_ns) / chips),
        "ratio", false);
  layer("method.reads_per_op", Ratio(reads, ops), "count", true);
  layer("method.read_ns_p50", Percentile(read_samples, 50), "ns", false);
  layer("method.read_ns_p99", Percentile(read_samples, 99), "ns", false);
  layer("method.writes_per_op", Ratio(writes, ops), "count", true);
  layer("method.write_ns_p50", Percentile(write_samples, 50), "ns", false);
  layer("method.write_ns_p99", Percentile(write_samples, 99), "ns", false);
  layer("method.flush_ns_per_op", Ratio(flush_ns, t_ops), "ns", false);
  layer("method.busy_ns_per_op", Ratio(busy_ns, t_ops), "ns", false);
  layer("method.busy_frac", Ratio(busy_ns, t_wall_ns * chips), "ratio",
        false);
  layer("storage.nonmethod_cpu_us_per_txn",
        Ratio(t_cpu * 1e6 - static_cast<double>(busy_ns) / 1e3, t_ops), "us",
        false);
  layer("host.cpu_us_per_op", Ratio(t_cpu * 1e6, t_ops), "us", false);
  layer("trace.overhead_frac",
        1.0 - Ratio(Median(traced_kops), Median(plain_kops)), "ratio", false);

  // --- per-layer: calibrated cost per call, times exact counts -------------
  layer("executor.submit_ns_cal", m.cal.submit_ns, "ns", false);
  layer("executor.roundtrip_ns_cal", m.cal.roundtrip_ns, "ns", false);
  layer("pdl.diff_compute_ns_cal", m.cal.diff_compute_ns, "ns", false);
  layer("pdl.diff_est_ns_per_op",
        m.cal.diff_compute_ns * Ratio(pdl_writes, ops), "ns", false);
  layer("flash.read_ns_cal", m.cal.flash_read_ns, "ns", false);
  layer("flash.program_ns_cal", m.cal.flash_program_ns, "ns", false);
  layer("flash.erase_ns_cal", m.cal.flash_erase_ns, "ns", false);
  layer("flash.est_ns_per_op",
        Ratio(m.cal.flash_read_ns * total.reads +
                  m.cal.flash_program_ns * total.writes +
                  m.cal.flash_erase_ns * total.erases,
              ops),
        "ns", false);
  layer("crc.page_ns_cal", m.cal.crc_page_ns, "ns", false);
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Shortest decimal that reads back as exactly `v`; whole numbers print
/// without an exponent.
std::string Num(double v) {
  char buf[64];
  const auto r =
      std::abs(v) < 1e15 && v == std::floor(v)
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(v))
          : std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string Quote(std::string_view s) { return "\"" + std::string(s) + "\""; }

std::string MetricsObject(const std::vector<Metric>& ms, bool per_layer,
                          bool full) {
  std::string j = "{";
  bool first = true;
  for (const Metric& m : ms) {
    if (!full && (!m.gated || m.per_layer != per_layer)) continue;
    if (!first) j += ", ";
    first = false;
    j += Quote(m.name) + ": {\"value\": " + Num(m.value) +
         ", \"unit\": " + Quote(m.unit);
    if (full) {
      j += std::string(", \"per_layer\": ") + (m.per_layer ? "true" : "false");
      j += std::string(", \"deterministic\": ") +
           (m.deterministic ? "true" : "false");
    }
    j += "}";
  }
  return j + "}";
}

bool WriteJsonFile(const Options& o, const Measured& m,
                   const std::vector<Metric>& ms, bool correct) {
  std::string j = "{\"workload\": " + Quote(o.def->name) +
                  ", \"seed\": " + std::to_string(o.seed) +
                  ", \"seconds\": " + std::to_string(o.seconds) +
                  ", \"trace\": " + (o.trace ? "1" : "0") +
                  ", \"scale\": " + Quote(o.smoke ? "smoke" : "full") +
                  ", \"correct\": " + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(m.attempted) +
                  ", \"failed\": " + std::to_string(m.failed) +
                  ", \"db_pages\": " + std::to_string(m.db_pages) +
                  ", \"pool_frames\": " + std::to_string(m.pool_frames) +
                  ", \"setup_runs_s\": [";
  for (size_t i = 0; i < m.setup_s.size(); ++i) {
    j += (i ? ", " : "") + Num(m.setup_s[i]);
  }
  j += "], \"slices\": [";
  for (size_t i = 0; i < m.slices.size(); ++i) {
    const Slice& s = m.slices[i];
    j += std::string(i ? ", " : "") + "{\"ops\": " + std::to_string(s.ops) +
         ", \"wall_s\": " + Num(s.wall_s) + ", \"kops_s\": " + Num(s.kops()) +
         ", \"traced\": " + (s.traced ? "true" : "false") + "}";
  }
  j += "], \"metrics\": " + MetricsObject(ms, false, true) + "}\n";
  std::ofstream f(o.json_path);
  f << j;
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* o, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      *err = "expected --key=value, got " + std::string(arg);
      return false;
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    const auto to_u64 = [&](uint64_t* v) {
      const char* end = value.data() + value.size();
      const auto r = std::from_chars(value.data(), end, *v);
      return r.ec == std::errc() && r.ptr == end;
    };
    uint64_t v = 0;
    if (key == "workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (value == w.name) o->def = &w;
      }
      if (o->def == nullptr) {
        *err = "unknown workload " + value;
        return false;
      }
    } else if (key == "seed" && to_u64(&v)) {
      o->seed = v;
    } else if (key == "seconds" && to_u64(&v) && v >= 1 && v <= 60) {
      o->seconds = static_cast<int>(v);
    } else if (key == "trace" && (value == "0" || value == "1")) {
      o->trace = value == "1";
    } else if (key == "scale" && (value == "full" || value == "smoke")) {
      o->smoke = value == "smoke";
    } else if (key == "json" && !value.empty()) {
      o->json_path = value;
    } else {
      *err = "bad argument " + std::string(arg);
      return false;
    }
  }
  if (o->def == nullptr) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  std::string err;
  if (!ParseArgs(argc, argv, &o, &err)) {
    std::fprintf(stderr, "flashdb_bench: %s\n", err.c_str());
    return 2;
  }
  auto spec = methods::ParseMethodSpec(o.def->method);
  if (!spec.ok()) {
    std::fprintf(stderr, "flashdb_bench: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }
  Measured m;
  const Status st = o.def->tpcc ? RunTpccWorkload(o, *spec, &m)
                                : RunUpdateWorkload(o, *spec, &m);
  if (!st.ok()) {
    std::fprintf(stderr, "flashdb_bench: %s: %s\n", o.def->name,
                 st.ToString().c_str());
    return 1;
  }
  if (o.trace) m.cal = Calibrate(o.seed);

  const std::vector<Metric> metrics = ComputeMetrics(o, m);
  const bool correct = m.failed == 0;
  for (const Metric& x : metrics) {
    std::printf("%s %s %s\n", x.name.c_str(), Num(x.value).c_str(),
                x.unit.c_str());
  }
  if (!o.json_path.empty() && !WriteJsonFile(o, m, metrics, correct)) {
    std::fprintf(stderr, "flashdb_bench: cannot write %s\n",
                 o.json_path.c_str());
    return 1;
  }
  // The last line: the gated end-to-end metrics, or with --trace=1 the
  // per-layer ones.
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(m.attempted),
      static_cast<unsigned long long>(m.failed),
      MetricsObject(metrics, o.trace, false).c_str());
  if (!correct) {
    std::fprintf(stderr, "flashdb_bench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(m.failed),
                 static_cast<unsigned long long>(m.attempted));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace flashdb::bench

int main(int argc, char** argv) { return flashdb::bench::Main(argc, argv); }
