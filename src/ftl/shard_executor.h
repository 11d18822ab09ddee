// ShardExecutor: the parallel execution engine under ShardedStore.
//
// A fixed pool of worker threads, one per shard. Each worker owns a
// single-producer/single-consumer ring of tasks: the submitting thread (the
// workload driver) is the only producer, the worker the only consumer, so the
// hot path is two atomic index updates -- no locks, no sharing of task state
// between workers. A worker that drains its ring parks on a condition
// variable; the producer takes that lock only when it observes the consumer
// asleep, so steady-state submission stays lock-free.
//
// Thread-safety model: *shard confinement*. Every task submitted to worker i
// runs on worker i's thread, in submission order. A shard's PageStore and
// FlashDevice are only ever touched from their worker (or from the submitting
// thread while the executor is quiescent), so the single-threaded stores need
// no internal synchronization -- the same confinement argument real
// multi-chip FTLs use for per-channel request queues. FlashDevice carries a
// concurrency assertion that catches violations of this contract.
//
// Completion is reported two ways:
//   * Submit() returns a std::future<Status>; callers gather per-shard
//     results after joining a batch of futures (windowed execution).
//   * SubmitWithCallback() runs a completion callback on the worker thread
//     right after the task, allocating no future -- the building block for
//     continuous (pipelined) submission, where the producer keeps a bounded
//     number of batches in flight per shard and backpressure is a credit
//     counter instead of a global join.
//
// Per-worker monotonic submitted/completed counters make queue depth and
// cross-shard lag observable while a run is in progress (see
// submitted_count / completed_count / in_flight).

#ifndef FLASHDB_FTL_SHARD_EXECUTOR_H_
#define FLASHDB_FTL_SHARD_EXECUTOR_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace flashdb::ftl {

/// Bounded single-producer/single-consumer ring. Push and Pop may race with
/// each other (that is the point) but each side must itself be serialized.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity) : slots_(capacity + 1) {}

  /// Producer side. Returns false when the ring is full.
  bool TryPush(T&& value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t next = Advance(head);
    if (next == tail_.load(std::memory_order_acquire)) return false;  // full
    slots_[head] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return false;  // empty
    *out = std::move(slots_[tail]);
    tail_.store(Advance(tail), std::memory_order_release);
    return true;
  }

  bool Empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

 private:
  size_t Advance(size_t i) const { return (i + 1) % slots_.size(); }

  std::vector<T> slots_;
  std::atomic<size_t> head_{0};  ///< Next slot the producer writes.
  std::atomic<size_t> tail_{0};  ///< Next slot the consumer reads.
};

/// See file comment.
///
/// Thread-safety: submission (Submit / SubmitWithCallback / Shutdown) is
/// single-producer -- one thread at a time, never racing Shutdown().
/// Completion counters are safe to read from any thread. Task bodies run
/// thread-confined on their worker: a task submitted to worker `i` may
/// freely touch shard `i`'s store and device, nothing else's.
///
/// Determinism: tasks of one worker run in submission order, always --
/// including the drain on Shutdown(). The executor adds no ordering between
/// workers, which is exactly what the virtual-clock determinism invariant
/// needs: per-shard sequences are fixed, cross-shard wall-clock
/// interleaving is free (see docs/ARCHITECTURE.md).
class ShardExecutor {
 public:
  /// Spawns `num_workers` threads, each with a task ring of
  /// `queue_capacity` entries. Submission to a full ring blocks (yield-spin):
  /// the queue depth is backpressure, not a correctness limit.
  ///
  /// When `pin_cores` is nonempty, worker i pins itself to
  /// pin_cores[i % pin_cores.size()] at thread start (best-effort: a failed
  /// or unsupported pin leaves the worker unpinned and the run proceeds).
  /// Pinning is a wall-clock knob only -- task results and virtual clocks
  /// are identical with it on or off.
  explicit ShardExecutor(uint32_t num_workers, size_t queue_capacity = 1024,
                         std::vector<int> pin_cores = {});

  /// Calls Shutdown(): joins every worker after draining the queued tasks.
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Enqueues `fn` on worker `worker`; tasks submitted to the same worker run
  /// in submission order, on that worker's thread. Must be called from one
  /// thread at a time (single producer). After Shutdown() the returned
  /// future is immediately ready with an Aborted status (nothing enqueues).
  /// An exception escaping `fn` is converted to an Aborted status, not
  /// rethrown at get().
  std::future<Status> Submit(uint32_t worker, std::function<Status()> fn);

  /// Future-free form for continuous submission: after `fn` runs on worker
  /// `worker`, `done` runs on the same thread with fn's Status. `done` must
  /// not throw (a thrown exception is dropped, asserting in debug). Returns
  /// non-OK -- and enqueues nothing, `done` never runs -- when `worker` is
  /// out of range or the executor has shut down, so producers can stop
  /// streaming instead of deadlocking on a ring nobody drains.
  Status SubmitWithCallback(uint32_t worker, std::function<Status()> fn,
                            std::function<void(const Status&)> done);

  /// Drains every already-queued task (in submission order), then joins the
  /// workers. Deterministic: tasks present in a ring at shutdown always run;
  /// tasks submitted afterwards are rejected, never dropped silently.
  /// Idempotent; must not race with concurrent Submit* calls (same
  /// single-producer contract as submission).
  void Shutdown();

  /// Monotonic count of tasks ever submitted to / completed by `worker`.
  /// `completed` includes the completion callback: a task counts once its
  /// `done` has returned. Safe to read from any thread while workers run.
  uint64_t submitted_count(uint32_t worker) const {
    assert(worker < workers_.size());
    return workers_[worker]->submitted.load(std::memory_order_acquire);
  }
  uint64_t completed_count(uint32_t worker) const {
    assert(worker < workers_.size());
    return workers_[worker]->completed.load(std::memory_order_acquire);
  }
  /// Tasks queued or running on `worker` right now. Exact when read from the
  /// producer thread or from inside one of the worker's own tasks; a lagging
  /// snapshot from anywhere else.
  uint64_t in_flight(uint32_t worker) const {
    // Read completed first so the difference never goes negative.
    const uint64_t done = completed_count(worker);
    return submitted_count(worker) - done;
  }

  /// Workers whose affinity pin succeeded. 0 unless pin_cores was passed
  /// (and the platform supports pinning). Settles once every worker has
  /// started; benches read it after construction to report pin=on/off
  /// truthfully.
  uint32_t pinned_workers() const {
    return pinned_workers_.load(std::memory_order_acquire);
  }

 private:
  /// One queued unit of work: the task body plus an optional completion
  /// callback run on the worker thread right after it.
  struct Task {
    std::function<Status()> fn;
    std::function<void(const Status&)> done;
  };

  struct Worker {
    explicit Worker(size_t queue_capacity) : queue(queue_capacity) {}

    SpscQueue<Task> queue;
    /// Set by the worker (under `mutex`) just before it parks; lets the
    /// producer skip the lock+notify entirely while the worker is busy.
    std::atomic<bool> sleeping{false};
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> completed{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::thread thread;
  };

  void WorkerLoop(Worker* w, uint32_t index);
  void RunTask(Worker* w, Task* task);
  /// Wakes `w` if (and only if) it parked on its condition variable.
  void WakeIfSleeping(Worker* w);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> pin_cores_;
  std::atomic<uint32_t> pinned_workers_{0};
  std::atomic<bool> stop_{false};
};

/// One task bound to a worker (a shard).
struct ShardTask {
  uint32_t worker = 0;
  std::function<Status()> fn;
};

/// Runs `tasks` and returns the first error in task order. Without an
/// executor they run inline, in order, stopping at the first error; with one
/// they are all submitted to their workers and all joined before returning,
/// so no task outlives the state it captures (a task for an out-of-range
/// worker fails through its rejected submission).
Status RunShardTasks(ShardExecutor* executor, std::vector<ShardTask> tasks);

}  // namespace flashdb::ftl

#endif  // FLASHDB_FTL_SHARD_EXECUTOR_H_
