// CreditStream: the submission primitive under every run mode of the
// workload drivers.
//
// A producer streams tasks to per-shard ShardExecutor workers and keeps at
// most `max_inflight` of them outstanding per shard: a credit counter that
// the worker-side completion callback hands back, so there is no global
// join anywhere in a run. Two submission disciplines share these credits:
//   * round-robin, skip-if-no-credit (UpdateDriver::RunPipelined): check
//     HasCredit before each Submit and AwaitAnyCredit when every shard with
//     work left is at its limit;
//   * in-order, blocking (TpccDriver::Serve): Submit parks until the target
//     shard has a credit, never reordering around it.
// With a null executor the task runs on the calling thread at once and the
// stream never parks -- the inline form of the same stream. Per-shard task
// order is submission order either way, which is the whole determinism
// argument: inline and threaded runs leave every chip bit-identical.
//
// Thread-safety: one producer thread calls everything except the completion
// path, which runs on the workers. The hot path is lock-free: completions
// return credits with atomic decrements and take the mutex only to record
// the first error, run an `on_ok` hook, or wake a parked producer (a
// Dekker-style handshake: both sides store, fence, then load, so a wakeup
// cannot be lost).

#ifndef FLASHDB_WORKLOAD_CREDIT_STREAM_H_
#define FLASHDB_WORKLOAD_CREDIT_STREAM_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/function_ref.h"
#include "common/status.h"

namespace flashdb::ftl {
class ShardExecutor;
}  // namespace flashdb::ftl

namespace flashdb::obs {
class TraceShard;
}  // namespace flashdb::obs

namespace flashdb::workload {

/// See file comment.
class CreditStream {
 public:
  /// The argument check every caller runs before opening a stream:
  /// `max_inflight` must be positive and a non-null `executor` needs a
  /// worker per shard.
  static Status Validate(const ftl::ShardExecutor* executor,
                         uint32_t num_shards, uint32_t max_inflight);

  /// `executor` null runs every task inline. Parked wall time accumulates
  /// into `*wait_ns` (the caller's cumulative counter); each park also emits
  /// one kCreditWait event on `wall_trace` when it is non-null.
  CreditStream(ftl::ShardExecutor* executor, uint32_t num_shards,
               uint32_t max_inflight, uint64_t* wait_ns,
               obs::TraceShard* wall_trace);
  /// Drains (see Drain) so no worker can outlive the stream's state.
  ~CreditStream();

  CreditStream(const CreditStream&) = delete;
  CreditStream& operator=(const CreditStream&) = delete;

  /// True once a task or a submission failed; the producer stops streaming.
  bool failed() const;
  /// True when `shard` may take one more task without parking.
  bool HasCredit(uint32_t shard) const;

  /// Takes a credit on `shard` -- parking until one comes back if needed --
  /// and runs `task` on that shard's worker (or inline). `on_ok`, when set,
  /// runs after a successful task, serialized with every other shard's. A
  /// stream that fails while parked drops the task.
  void Submit(uint32_t shard, std::function<Status()> task,
              std::function<void()> on_ok = {});
  /// Parks until some shard with `pending(shard)` true has a credit, or the
  /// stream failed.
  void AwaitAnyCredit(FunctionRef<bool(uint32_t)> pending);

  /// Waits until every submitted task (and its completion) has finished,
  /// then returns the first error. Quiescence comes from the executor's own
  /// counters, not the credits: `completed` moves only after a completion
  /// callback has fully returned, so equality proves no worker touches this
  /// stream (or the caller's task state) again. The acquire loads also
  /// publish the workers' device mutations to the calling thread.
  Status Drain();

 private:
  /// Parks until `ready()` or failed(), accounting the wait under `label`
  /// (a shard, or kAnyShard).
  void Park(uint64_t label, FunctionRef<bool()> ready);
  /// Worker side of a task: returns the credit and wakes a parked producer.
  void Complete(uint32_t shard, const Status& st,
                const std::function<void()>* on_ok);
  void Fail(const Status& st);

  /// State shared with the workers' completion callbacks.
  struct Shared;

  ftl::ShardExecutor* executor_;
  uint32_t num_shards_;
  uint32_t max_inflight_;
  uint64_t* wait_ns_;
  obs::TraceShard* wall_trace_;
  std::unique_ptr<Shared> shared_;
};

}  // namespace flashdb::workload

#endif  // FLASHDB_WORKLOAD_CREDIT_STREAM_H_
