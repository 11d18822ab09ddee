// The one replay verdict. Every determinism check runs one schedule on two
// identically prepared rigs ("twins") in two ways -- inline and threaded at
// any depth, TPC-C Serve and the Replay of its commit log, recovery inline
// and on the executor -- and asks FirstDivergence whether they left the same
// state: every chip's cells, per-block erase counts and clock, then the
// canonical event streams. The answer is nothing or the first difference,
// named precisely enough to start debugging from.

#ifndef FLASHDB_HARNESS_REPLAY_VERDICT_H_
#define FLASHDB_HARNESS_REPLAY_VERDICT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace flashdb::flash {
class FlashDevice;
}  // namespace flashdb::flash
namespace flashdb::ftl {
class ShardedStore;
}  // namespace flashdb::ftl
namespace flashdb::obs {
class TraceRecorder;
}  // namespace flashdb::obs

namespace flashdb::harness {

/// What one twin's run left behind: its chips, in shard order, and the
/// recorder it traced into (null when untraced).
struct Twin {
  std::vector<const flash::FlashDevice*> chips = {};
  const obs::TraceRecorder* trace = nullptr;
};

/// The chips of `store`, in shard order.
std::vector<const flash::FlashDevice*> ChipsOf(ftl::ShardedStore* store);

/// The first place two twins differ.
struct Divergence {
  /// The differing quantity: "chips" or "pages" (the twins' shapes),
  /// "data", "spare", "erase count", "clock", "trace" (only one twin traced,
  /// or unequal lane numbers), "event <field>" for a trace event ("event
  /// ts_us", "event cat", ...; "event end" when one stream ends first), or
  /// "lane counts" (a lane's emitted or dropped count).
  std::string what;
  /// The chip; for a trace event or lane, its shard.
  uint32_t chip = 0;
  /// The block (erase count), page (data, spare) or trace event seq.
  uint64_t index = 0;
  /// A trace event's virtual timestamp.
  uint64_t ts_us = 0;
  /// The whole report, the first twin's value before the second's.
  std::string message;
};

/// Compares, in order: the chip counts; per chip each page's data then
/// spare bytes, each block's erase count and the clock (the cells first:
/// a page names where a run went wrong, a clock only that it did); then the
/// traces (both or neither must be traced): their lane counts, the merged
/// canonical event streams event by event, and each lane's emitted and
/// dropped counts. Returns the first difference, or nullopt when the twins
/// are bit-identical in all of it. Reading the twins costs no flash time.
std::optional<Divergence> FirstDivergence(const Twin& a, const Twin& b);

}  // namespace flashdb::harness

#endif  // FLASHDB_HARNESS_REPLAY_VERDICT_H_
