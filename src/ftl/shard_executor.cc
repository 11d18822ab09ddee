#include "ftl/shard_executor.h"

#include <cassert>

#include "common/cpu_affinity.h"

namespace flashdb::ftl {

ShardExecutor::ShardExecutor(uint32_t num_workers, size_t queue_capacity,
                             std::vector<int> pin_cores)
    : pin_cores_(std::move(pin_cores)) {
  assert(num_workers > 0 && "executor needs at least one worker");
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(queue_capacity));
  }
  // Spawn only after the vector is fully built so no worker pointer moves
  // underneath a running thread.
  for (uint32_t i = 0; i < num_workers; ++i) {
    Worker* worker = workers_[i].get();
    workers_[i]->thread =
        std::thread([this, worker, i] { WorkerLoop(worker, i); });
  }
}

ShardExecutor::~ShardExecutor() { Shutdown(); }

void ShardExecutor::Shutdown() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) WakeIfSleeping(w.get());
  // join() is the idempotence guard: a second Shutdown() sees every thread
  // already non-joinable and returns without touching worker state.
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::future<Status> ShardExecutor::Submit(uint32_t worker,
                                          std::function<Status()> fn) {
  auto promise = std::make_shared<std::promise<Status>>();
  std::future<Status> future = promise->get_future();
  const Status submitted = SubmitWithCallback(
      worker, std::move(fn),
      [promise](const Status& st) { promise->set_value(st); });
  // Rejected submissions surface through the future rather than a broken
  // promise, so callers that only inspect futures still see the failure.
  if (!submitted.ok()) promise->set_value(submitted);
  return future;
}

Status ShardExecutor::SubmitWithCallback(
    uint32_t worker, std::function<Status()> fn,
    std::function<void(const Status&)> done) {
  if (worker >= workers_.size()) {
    return Status::InvalidArgument("no such worker: " +
                                   std::to_string(worker));
  }
  if (stop_.load(std::memory_order_acquire)) {
    // After Shutdown() the ring has no consumer; enqueueing would leave the
    // task stranded forever. Fail fast instead.
    return Status::Aborted("executor is shut down");
  }
  Worker* w = workers_[worker].get();
  w->submitted.fetch_add(1, std::memory_order_release);
  Task task{std::move(fn), std::move(done)};
  // Backpressure: a full ring means the shard is behind; yield until the
  // consumer frees a slot. The producer is unique, so the retry cannot race
  // with another push.
  while (!w->queue.TryPush(std::move(task))) {
    WakeIfSleeping(w);
    std::this_thread::yield();
  }
  WakeIfSleeping(w);
  return Status::OK();
}

void ShardExecutor::WakeIfSleeping(Worker* w) {
  // Dekker-style handshake with the worker's park sequence: the producer
  // pushes then checks `sleeping`; the worker sets `sleeping` then checks the
  // queue. The seq_cst fences (here and in WorkerLoop) make it impossible for
  // both to read the stale value, which is exactly the lost-wakeup case.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (w->sleeping.load(std::memory_order_relaxed)) {
    // Taking the lock serializes with the park: the worker either has not
    // parked yet (its predicate re-check sees the pushed task) or is parked
    // and receives this notify.
    std::lock_guard<std::mutex> lock(w->mutex);
    w->cv.notify_one();
  }
}

void ShardExecutor::RunTask(Worker* w, Task* task) {
  Status st;
  try {
    st = task->fn();
  } catch (const std::exception& e) {
    // Escaping the worker loop would std::terminate; deliver the failure
    // through the normal completion path instead.
    st = Status::Aborted(std::string("task threw: ") + e.what());
  } catch (...) {
    st = Status::Aborted("task threw a non-std exception");
  }
  if (task->done) {
    try {
      task->done(st);
    } catch (...) {
      // Completion callbacks must not throw; swallowing here beats
      // std::terminate taking down the whole pool.
      assert(false && "completion callback threw");
    }
  }
  w->completed.fetch_add(1, std::memory_order_release);
}

void ShardExecutor::WorkerLoop(Worker* w, uint32_t index) {
  if (!pin_cores_.empty()) {
    // Best-effort: a rejected mask (cpuset restriction, bad core id) or an
    // unsupported platform leaves this worker unpinned and the run intact.
    const int core = pin_cores_[index % pin_cores_.size()];
    if (core >= 0 &&
        PinCurrentThreadToCore(static_cast<uint32_t>(core)).ok()) {
      pinned_workers_.fetch_add(1, std::memory_order_release);
    }
  }
  for (;;) {
    Task task;
    if (w->queue.TryPop(&task)) {
      RunTask(w, &task);
      continue;
    }
    // Ring empty: spin briefly (tasks arrive in bursts), then park.
    bool ran = false;
    for (int spin = 0; spin < 64 && !ran; ++spin) {
      if (w->queue.TryPop(&task)) {
        RunTask(w, &task);
        ran = true;
        break;
      }
      std::this_thread::yield();
    }
    if (ran) continue;
    if (stop_.load(std::memory_order_acquire)) {
      // Drain-before-exit: stop only takes effect on an empty ring.
      if (w->queue.TryPop(&task)) {
        RunTask(w, &task);
        continue;
      }
      return;
    }
    std::unique_lock<std::mutex> lock(w->mutex);
    w->sleeping.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // The first predicate evaluation runs after the fence: any task pushed
    // before the producer's fence is visible here, so the worker never parks
    // over a nonempty ring.
    w->cv.wait(lock, [&] {
      return !w->queue.Empty() || stop_.load(std::memory_order_acquire);
    });
    w->sleeping.store(false, std::memory_order_relaxed);
  }
}

Status RunShardTasks(ShardExecutor* executor, std::vector<ShardTask> tasks) {
  if (executor == nullptr) {
    for (ShardTask& t : tasks) FLASHDB_RETURN_IF_ERROR(t.fn());
    return Status::OK();
  }
  std::vector<std::future<Status>> futures;
  futures.reserve(tasks.size());
  for (ShardTask& t : tasks) {
    futures.push_back(executor->Submit(t.worker, std::move(t.fn)));
  }
  Status first_error;
  for (auto& f : futures) {
    const Status st = f.get();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

}  // namespace flashdb::ftl
