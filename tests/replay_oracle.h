// The replay counterpart of crash_explorer.h: the twin factories of the
// determinism tests and the one assertion they make. A determinism test
// prepares two twins identically, runs one schedule on them in two ways
// (inline and threaded at any depth, TPC-C Serve and the Replay of its
// commit log, recovery inline and on the executor) and expects
// harness::FirstDivergence to find no difference. Twins whose rig fits
// harness::PrepareRig are built with it.

#ifndef FLASHDB_TESTS_REPLAY_ORACLE_H_
#define FLASHDB_TESTS_REPLAY_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/replay_verdict.h"
#include "methods/method_factory.h"
#include "obs/trace_recorder.h"

namespace flashdb {

/// Passes when the twins are bit-identical; otherwise fails naming their
/// first divergence.
inline ::testing::AssertionResult SameTwins(const harness::Twin& a,
                                            const harness::Twin& b) {
  if (auto d = harness::FirstDivergence(a, b)) {
    return ::testing::AssertionFailure() << d->message;
  }
  return ::testing::AssertionSuccess();
}

/// Events of `cat` in the recorder's canonical stream.
inline uint64_t CountEvents(const obs::TraceRecorder& rec, obs::TraceCat cat) {
  const std::vector<obs::TraceEvent> events = rec.Merged(true);
  return std::count_if(
      events.begin(), events.end(),
      [cat](const obs::TraceEvent& e) { return e.cat == cat; });
}

/// The execution engine's twin, built by harness::PrepareRig: 160 pages on
/// FlashConfig::Small chips of 12 data blocks, flat or over kShards chips,
/// shadow verification and latency recording on, and a recorder on every
/// chip from the end of warm-up. With `epochs` the run is split into
/// kEpochOps-op epochs, and a sharded twin also levels wear across its 90%
/// shard-0 hotspot, so it migrates, and reserves 4 meta blocks per chip
/// beside its data blocks, so its store journals its routing; the other
/// twins run without a journal.
struct UpdateTwin {
  static constexpr uint32_t kShards = 4;
  static constexpr uint64_t kOps = 800;
  static constexpr uint64_t kEpochOps = 200;

  UpdateTwin(const std::string& method, bool sharded, bool epochs)
      : recorder(sharded ? kShards : 1), rig(Prepare(method, sharded, epochs)) {
    rig.Attach(nullptr, &recorder);
  }

  /// Executes kOps measured operations as `ex` says.
  Status Execute(const harness::Execution& ex) {
    FLASHDB_ASSIGN_OR_RETURN(const harness::PointResult run,
                             harness::Execute(&rig, kOps, ex));
    stats = run.stats;
    return Status::OK();
  }

  obs::TraceRecorder recorder;
  harness::Rig rig;
  workload::RunStats stats;

 private:
  static harness::Rig Prepare(const std::string& method, bool sharded,
                              bool epochs) {
    const uint32_t chips = sharded ? kShards : 1;
    const uint32_t meta_blocks = sharded && epochs ? 4 : 0;
    harness::ExperimentEnv env;
    env.flash_cfg = flash::FlashConfig::Small((12 + meta_blocks) * chips)
                        .WithMetaBlocks(meta_blocks);
    env.utilization = 0.25 / chips;  // 160 pages either way
    env.warmup_erases_per_block = 1.0;
    env.warmup_max_ops = 2000;
    harness::RigSpec shape{.shards = chips, .flat = !sharded};
    shape.params.verify = true;
    shape.params.record_latency = true;
    shape.params.pct_update_ops = 80.0;
    if (sharded) shape.params.hot_shard_pct = 90.0;  // to park on and level
    if (epochs) shape.params.rebalance_epoch_ops = kEpochOps;
    if (sharded && epochs) {
      shape.leveling = ftl::WearLevelConfig{
          .buckets_per_shard = 8, .max_erase_ratio = 1.25,
          .min_total_erases = 8};
    }
    auto spec = methods::ParseMethodSpec(method);
    CheckOrAbort(spec.ok(), "bad method %s", method.c_str());
    auto rig = harness::PrepareRig(env, *spec, shape);
    CheckOrAbort(rig.ok(), "PrepareRig: %s", rig.status().ToString().c_str());
    return std::move(*rig);
  }
};

/// A TPC-C twin: harness::PrepareTpccRig for `method`, which must succeed.
inline harness::TpccRig TpccTwin(const std::string& method, uint32_t shards,
                                 const workload::TpccDriverOptions& opts) {
  auto spec = methods::ParseMethodSpec(method);
  CheckOrAbort(spec.ok(), "bad method %s", method.c_str());
  auto rig = harness::PrepareTpccRig(*spec, opts, shards);
  CheckOrAbort(rig.ok(), "PrepareTpccRig: %s",
               rig.status().ToString().c_str());
  return std::move(*rig);
}

}  // namespace flashdb

#endif  // FLASHDB_TESTS_REPLAY_ORACLE_H_
