// The power-cut explorer behind the crash suites.
//
// A Scenario is a deterministic rig factory, a workload that notes every
// page's acceptable versions in a VersionTracker, a remount (a fresh store
// over the rig's chips) and an oracle. DryRun runs the workload once
// without a cut and logs each chip's mutations; the selectors below pick
// cuts from that log. Explore then replays the scenario once per cut: it
// rebuilds the rig, runs the workload until the cut fires, cuts each of the
// scenario's recoveries in turn over the same flash, recovers once more
// without a cut, and hands that store to the oracle.

#ifndef FLASHDB_TESTS_CRASH_EXPLORER_H_
#define FLASHDB_TESTS_CRASH_EXPLORER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/function_ref.h"
#include "common/random.h"
#include "flash/fault_injector.h"
#include "flash/flash_device.h"
#include "ftl/page_store.h"

namespace flashdb {

/// Every content a page had (oldest first) and the version current at the
/// last acknowledged flush. A recovered page may read as that version or a
/// later one, never an older one or one it never had.
struct VersionTracker {
  std::map<PageId, std::vector<ByteBuffer>> versions;
  std::map<PageId, size_t> flushed;

  void Init(PageId pid, ConstBytes page) {
    versions[pid] = {ByteBuffer(page.begin(), page.end())};
    flushed[pid] = 0;
  }
  /// Called before the write is issued: a cut inside it may leave the new
  /// version durable although the call never returned.
  void OnWriteBack(PageId pid, ConstBytes page) {
    versions[pid].emplace_back(page.begin(), page.end());
  }
  void OnFlush() {
    for (auto& [pid, v] : versions) flushed[pid] = v.size() - 1;
  }
  /// The version current at the last flush.
  const ByteBuffer& Flushed(PageId pid) const {
    return versions.at(pid)[flushed.at(pid)];
  }
  bool Acceptable(PageId pid, ConstBytes page) const {
    const std::vector<ByteBuffer>& v = versions.at(pid);
    return std::any_of(
        v.begin() + flushed.at(pid), v.end(),
        [&](const ByteBuffer& b) { return BytesEqual(b, page); });
  }
};

/// Every tracked page reads back at an acceptable version.
inline void CheckPages(PageStore& store, const VersionTracker& tracker) {
  ByteBuffer page(store.device()->geometry().data_size);
  for (const auto& [pid, versions] : tracker.versions) {
    const Status st = store.ReadPage(pid, page);
    ASSERT_TRUE(st.ok()) << "pid " << pid << ": " << st.ToString();
    ASSERT_TRUE(tracker.Acceptable(pid, page))
        << "pid " << pid << " recovered to a version it never had";
  }
}

/// One mutation a chip was asked to apply.
struct Mutation {
  flash::OpKind kind = flash::OpKind::kProgram;
  flash::PhysAddr addr = 0;
};
/// The dry run's mutations, per chip, in order.
using MutationStream = std::vector<std::vector<Mutation>>;

/// Logs every mutation; never cuts power.
class MutationLog : public flash::FaultInjector {
 public:
  void BeforeMutation(flash::OpKind kind, uint32_t addr) override {
    ops.push_back({kind, addr});
  }
  void AfterMutation(flash::OpKind, uint32_t) override {}

  std::vector<Mutation> ops;
};

/// A power cut on chip `victim`: its mutation `index` (from 0) is the last
/// one attempted, and is applied first when `after`.
struct Cut {
  /// An index no workload reaches: only the recoveries are cut.
  static constexpr uint64_t kNever = UINT64_MAX;

  uint64_t index = 0;
  bool after = false;
  uint32_t victim = 0;
};

// --- Cut selection ----------------------------------------------------------

/// The indices of `ops` for which `keep(i)` holds (all when unset). `keep`
/// sees the indices in order, so it may carry state along the stream.
inline std::vector<uint64_t> Where(
    const std::vector<Mutation>& ops,
    const std::function<bool(size_t)>& keep = nullptr) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!keep || keep(i)) out.push_back(i);
  }
  return out;
}

/// `n` picks spread evenly over `from`, from its second entry to its last.
inline std::vector<uint64_t> Spread(const std::vector<uint64_t>& from,
                                    size_t n) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(from[1 + (from.size() - 2) * i / (n - 1)]);
  }
  return out;
}

/// `n` seeded draws from `from`, with replacement.
inline std::vector<uint64_t> Sample(const std::vector<uint64_t>& from,
                                    size_t n, uint64_t seed) {
  Random pick(seed);
  std::vector<uint64_t> out;
  for (size_t i = 0; i < n; ++i) out.push_back(from[pick.Uniform(from.size())]);
  return out;
}

/// Which side of its mutation a cut falls on: before it is applied, after,
/// both (two cuts, before first), or alternating (after at even positions).
enum class Side { kBefore, kAfter, kBoth, kAlternate };

/// Cuts on chip `victim` at `indices`.
inline std::vector<Cut> CutsAt(const std::vector<uint64_t>& indices,
                               Side side, uint32_t victim = 0) {
  std::vector<Cut> cuts;
  for (size_t i = 0; i < indices.size(); ++i) {
    if (side == Side::kBoth) cuts.push_back({indices[i], false, victim});
    const bool after = side == Side::kAfter || side == Side::kBoth ||
                       (side == Side::kAlternate && i % 2 == 0);
    cuts.push_back({indices[i], after, victim});
  }
  return cuts;
}

// --- Scenarios --------------------------------------------------------------

/// A crash scenario. `Rig` owns the chips (its `chips` lists them) and
/// whatever the workload drives; `Store` is what `mount` recovers.
template <typename Rig, typename Store = PageStore>
struct Scenario {
  /// Builds the rig bit-identically on every call, given the cut it will
  /// take (Cut{} for the dry run).
  std::function<Rig(const Cut&)> build;
  /// Drives the rig, noting acceptable versions in the tracker. A check
  /// after its last mutation runs only when nothing cut it: the dry run.
  std::function<void(Rig&, VersionTracker&)> workload;
  /// A fresh store over the rig's chips; Explore recovers it.
  std::function<std::unique_ptr<Store>(Rig&)> mount;
  /// Checks the recovered store; CheckPages when unset.
  std::function<void(Rig&, Store&, VersionTracker&, const Cut&)> oracle;
  /// Cuts of successive recoveries over the same flash, before the uncut
  /// one; a recovery that finishes before its cut is no error.
  std::vector<Cut> recovery_cuts;
};

/// Runs `fn` with `cut` armed on its victim chip; true when it fired.
template <typename Rig>
bool RunCut(Rig& rig, const Cut& cut, FunctionRef<void()> fn) {
  flash::CountdownFaultInjector fi(cut.index, cut.after);
  rig.chips[cut.victim]->set_fault_injector(&fi);
  try {
    fn();
  } catch (const flash::PowerLossError&) {
  }
  rig.chips[cut.victim]->set_fault_injector(nullptr);
  return !fi.armed();
}

/// Runs the workload once without a cut, stores each chip's mutations in
/// `*log` and returns the rig.
template <typename Rig, typename Store>
Rig DryRun(const Scenario<Rig, Store>& s, MutationStream* log) {
  Rig rig = s.build(Cut{});
  std::vector<MutationLog> logs(rig.chips.size());
  for (size_t i = 0; i < logs.size(); ++i) {
    rig.chips[i]->set_fault_injector(&logs[i]);
  }
  VersionTracker tracker;
  s.workload(rig, tracker);
  log->clear();
  for (size_t i = 0; i < logs.size(); ++i) {
    rig.chips[i]->set_fault_injector(nullptr);
    log->push_back(std::move(logs[i].ops));
  }
  return rig;
}

/// Replays `s` once per cut; every cut but a kNever one must fire.
template <typename Rig, typename Store>
void Explore(const Scenario<Rig, Store>& s, const std::vector<Cut>& cuts) {
  for (const Cut& cut : cuts) {
    SCOPED_TRACE(::testing::Message()
                 << "cut " << cut.index << (cut.after ? " after" : " before")
                 << " apply on chip " << cut.victim);
    Rig rig = s.build(cut);
    VersionTracker tracker;
    const bool fired = RunCut(rig, cut, [&] { s.workload(rig, tracker); });
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(fired || cut.index == Cut::kNever) << "the cut never fired";
    for (const Cut& rc : s.recovery_cuts) {
      RunCut(rig, rc, [&] { (void)s.mount(rig)->Recover(); });
    }
    const std::unique_ptr<Store> store = s.mount(rig);
    const Status st = store->Recover();
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (s.oracle) {
      s.oracle(rig, *store, tracker, cut);
    } else {
      CheckPages(*store, tracker);
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

}  // namespace flashdb

#endif  // FLASHDB_TESTS_CRASH_EXPLORER_H_
