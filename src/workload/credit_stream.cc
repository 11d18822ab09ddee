#include "workload/credit_stream.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "ftl/shard_executor.h"
#include "obs/trace_recorder.h"

namespace flashdb::workload {

namespace {
/// Trace label of a park that waits for any shard's credit.
constexpr uint64_t kAnyShard = ~0ull;
}  // namespace

struct CreditStream::Shared {
  explicit Shared(uint32_t num_shards) : inflight(num_shards) {}

  std::vector<std::atomic<uint32_t>> inflight;  ///< Credits in use per shard.
  std::atomic<bool> producer_waiting{false};
  std::atomic<bool> has_error{false};
  std::mutex mu;  ///< Guards first_error and on_ok hooks; wake-ups.
  std::condition_variable cv;
  Status first_error;
};

Status CreditStream::Validate(const ftl::ShardExecutor* executor,
                              uint32_t num_shards, uint32_t max_inflight) {
  if (max_inflight == 0) {
    return Status::InvalidArgument("max_inflight must be > 0");
  }
  if (executor != nullptr && executor->num_workers() < num_shards) {
    return Status::InvalidArgument("executor must have one worker per shard");
  }
  return Status::OK();
}

CreditStream::CreditStream(ftl::ShardExecutor* executor, uint32_t num_shards,
                           uint32_t max_inflight, uint64_t* wait_ns,
                           obs::TraceShard* wall_trace)
    : executor_(executor),
      num_shards_(num_shards),
      max_inflight_(max_inflight),
      wait_ns_(wait_ns),
      wall_trace_(wall_trace),
      shared_(std::make_unique<Shared>(num_shards)) {}

CreditStream::~CreditStream() { Drain(); }

bool CreditStream::failed() const {
  return shared_->has_error.load(std::memory_order_acquire);
}

bool CreditStream::HasCredit(uint32_t shard) const {
  return shared_->inflight[shard].load(std::memory_order_acquire) <
         max_inflight_;
}

void CreditStream::Submit(uint32_t shard, std::function<Status()> task,
                          std::function<void()> on_ok) {
  if (executor_ == nullptr) {
    const Status st = task();
    if (!st.ok()) {
      Fail(st);
    } else if (on_ok) {
      on_ok();
    }
    return;
  }
  if (!HasCredit(shard)) {
    Park(shard, [this, shard] { return HasCredit(shard); });
    if (failed()) return;
  }
  // Only this thread increments, so check-then-add cannot overshoot.
  shared_->inflight[shard].fetch_add(1, std::memory_order_relaxed);
  std::function<void(const Status&)> done;
  if (on_ok) {
    done = [this, shard, ok = std::move(on_ok)](const Status& st) {
      Complete(shard, st, &ok);
    };
  } else {
    done = [this, shard](const Status& st) { Complete(shard, st, nullptr); };
  }
  const Status submitted =
      executor_->SubmitWithCallback(shard, std::move(task), std::move(done));
  if (!submitted.ok()) {
    // Nothing was enqueued and the callback will never run: hand the credit
    // back and stop the stream.
    shared_->inflight[shard].fetch_sub(1, std::memory_order_relaxed);
    Fail(submitted);
  }
}

void CreditStream::AwaitAnyCredit(FunctionRef<bool(uint32_t)> pending) {
  Park(kAnyShard, [this, pending] {
    for (uint32_t i = 0; i < num_shards_; ++i) {
      if (pending(i) && HasCredit(i)) return true;
    }
    return false;
  });
}

void CreditStream::Park(uint64_t label, FunctionRef<bool()> ready) {
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(shared_->mu);
    shared_->producer_waiting.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    shared_->cv.wait(lock, [&] { return failed() || ready(); });
    shared_->producer_waiting.store(false, std::memory_order_relaxed);
  }
  const uint64_t waited_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  *wait_ns_ += waited_ns;
  if (wall_trace_ != nullptr) {
    // Wall-clock domain: stamped with the producer's cumulative parked
    // time, excluded from the canonical (deterministic) stream.
    wall_trace_->Emit(obs::TraceCat::kCreditWait,
                      (*wait_ns_ - waited_ns) / 1000, waited_ns / 1000, label,
                      waited_ns);
  }
}

void CreditStream::Complete(uint32_t shard, const Status& st,
                            const std::function<void()>* on_ok) {
  if (!st.ok()) {
    Fail(st);
  } else if (on_ok != nullptr) {
    std::lock_guard<std::mutex> lock(shared_->mu);
    (*on_ok)();
  }
  shared_->inflight[shard].fetch_sub(1, std::memory_order_release);
  // Pairs with Park's store-fence-check: one side always sees the other.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shared_->producer_waiting.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->cv.notify_one();
  }
}

void CreditStream::Fail(const Status& st) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (shared_->first_error.ok()) shared_->first_error = st;
  shared_->has_error.store(true, std::memory_order_release);
}

Status CreditStream::Drain() {
  if (executor_ != nullptr) {
    for (uint32_t i = 0; i < num_shards_; ++i) {
      while (executor_->completed_count(i) != executor_->submitted_count(i)) {
        std::this_thread::yield();  // the tail is at most max_inflight tasks
      }
    }
  }
  return shared_->first_error;
}

}  // namespace flashdb::workload
