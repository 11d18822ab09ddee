// ShardExecutor unit tests plus the ThreadSanitizer stress test driving a
// ShardedStore through the executor: concurrent WriteBack/ReadPage across
// shards, each chip thread-confined to its worker. Run under
// -DFLASHDB_SANITIZE_THREAD=ON this is the proof that the parallel engine
// needs no locks on the hot path beyond the executor's own queues.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "ftl/shard_executor.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"

namespace flashdb {
namespace {

using ftl::ShardExecutor;
using ftl::SpscQueue;

TEST(SpscQueueTest, PushPopOrder) {
  SpscQueue<int> q(4);
  int out = 0;
  EXPECT_FALSE(q.TryPop(&out));
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_TRUE(q.TryPush(4));
  EXPECT_FALSE(q.TryPush(5));  // full at capacity
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.TryPush(5));
  for (int want : {2, 3, 4, 5}) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(ShardExecutorTest, RunsTasksAndReturnsStatus) {
  ShardExecutor ex(2);
  std::future<Status> ok = ex.Submit(0, [] { return Status::OK(); });
  std::future<Status> err =
      ex.Submit(1, [] { return Status::InvalidArgument("boom"); });
  EXPECT_TRUE(ok.get().ok());
  EXPECT_TRUE(err.get().IsInvalidArgument());
}

TEST(ShardExecutorTest, TasksOnOneWorkerRunInSubmissionOrder) {
  ShardExecutor ex(1);
  std::vector<int> order;
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(ex.Submit(0, [&order, i] {
      order.push_back(i);  // single consumer: no synchronization needed
      return Status::OK();
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ShardExecutorTest, SmallQueueBackpressureStillRunsEverything) {
  ShardExecutor ex(4, /*queue_capacity=*/2);
  std::vector<std::atomic<int>> counts(4);
  std::vector<std::future<Status>> futures;
  for (int round = 0; round < 500; ++round) {
    for (uint32_t w = 0; w < 4; ++w) {
      futures.push_back(ex.Submit(w, [&counts, w] {
        counts[w].fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }));
    }
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  for (uint32_t w = 0; w < 4; ++w) EXPECT_EQ(counts[w].load(), 500);
}

TEST(ShardExecutorTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ShardExecutor ex(2);
    for (int i = 0; i < 200; ++i) {
      ex.Submit(static_cast<uint32_t>(i % 2), [&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
    }
  }  // ~ShardExecutor joins after running everything
  EXPECT_EQ(ran.load(), 200);
}

// Regression: Shutdown() with a backlog still in the rings must run every
// queued task, in submission order, before the workers exit -- a stalled
// first task must not get the rest dropped.
TEST(ShardExecutorTest, ShutdownDrainsQueuedTasksDeterministically) {
  ShardExecutor ex(2);
  std::vector<int> order;  // worker 0 only: single consumer, no lock needed
  std::vector<std::future<Status>> futures;
  futures.push_back(ex.Submit(0, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Status::OK();
  }));
  for (int i = 0; i < 100; ++i) {
    futures.push_back(ex.Submit(0, [&order, i] {
      order.push_back(i);
      return Status::OK();
    }));
  }
  // The backlog sits behind the sleeper when shutdown begins.
  ex.Shutdown();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(ex.completed_count(0), 101u);
}

// Regression: submission after Shutdown() must fail fast -- before the fix a
// task pushed onto a consumer-less ring stranded its future forever.
TEST(ShardExecutorTest, SubmitAfterShutdownFailsFast) {
  ShardExecutor ex(2);
  ex.Shutdown();
  std::future<Status> f = ex.Submit(0, [] { return Status::OK(); });
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get().code(), StatusCode::kAborted);
  bool callback_ran = false;
  const Status st = ex.SubmitWithCallback(
      1, [] { return Status::OK(); },
      [&callback_ran](const Status&) { callback_ran = true; });
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_FALSE(callback_ran);
  ex.Shutdown();  // idempotent
}

TEST(ShardExecutorTest, TaskExceptionBecomesAbortedStatus) {
  ShardExecutor ex(1);
  std::future<Status> f =
      ex.Submit(0, []() -> Status { throw std::runtime_error("boom"); });
  const Status st = f.get();
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
  // The worker survives the throw and keeps serving tasks.
  EXPECT_TRUE(ex.Submit(0, [] { return Status::OK(); }).get().ok());
}

TEST(ShardExecutorTest, SubmitToBadWorkerFailsFast) {
  ShardExecutor ex(2);
  std::future<Status> f = ex.Submit(7, [] { return Status::OK(); });
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(f.get().IsInvalidArgument());
}

TEST(ShardExecutorTest, CallbackRunsOnWorkerWithStatusAndCounters) {
  ShardExecutor ex(1);
  std::promise<void> done_signal;
  std::thread::id callback_thread;
  Status observed;
  ASSERT_TRUE(ex.SubmitWithCallback(
                    0, [] { return Status::Corruption("expected"); },
                    [&](const Status& st) {
                      callback_thread = std::this_thread::get_id();
                      observed = st;
                      done_signal.set_value();
                    })
                  .ok());
  done_signal.get_future().wait();
  EXPECT_TRUE(observed.IsCorruption());
  EXPECT_NE(callback_thread, std::this_thread::get_id());
  ex.Shutdown();
  EXPECT_EQ(ex.submitted_count(0), 1u);
  EXPECT_EQ(ex.completed_count(0), 1u);
  EXPECT_EQ(ex.in_flight(0), 0u);
}

// The backpressure stress test: worker 0 is artificially slow while three
// fast siblings churn. A credit-gated producer (the same protocol
// UpdateDriver::RunPipelined uses) keeps at most K windows outstanding per
// worker; each task samples its own worker's in_flight() -- exact on the
// worker thread -- and the maximum observed depth must never exceed K. Ends
// with Shutdown() while the slow ring is still backed up: drain must
// complete without deadlock. Run under TSan this also proves the counter
// and callback paths race-free.
TEST(ShardExecutorTest, CreditGatedProducerNeverExceedsDepthK) {
  constexpr uint32_t kWorkers = 4;
  constexpr uint32_t kDepth = 3;
  constexpr int kTasksPerWorker = 60;
  ShardExecutor ex(kWorkers, /*queue_capacity=*/kDepth);
  std::vector<std::atomic<uint64_t>> max_seen(kWorkers);
  std::atomic<uint32_t> credits_used[kWorkers] = {};
  std::mutex mu;
  std::condition_variable cv;

  int submitted[kWorkers] = {};
  int completed_total = 0;
  auto all_submitted = [&] {
    for (uint32_t w = 0; w < kWorkers; ++w) {
      if (submitted[w] < kTasksPerWorker) return false;
    }
    return true;
  };
  while (!all_submitted()) {
    bool progress = false;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      if (submitted[w] >= kTasksPerWorker) continue;
      if (credits_used[w].load(std::memory_order_acquire) >= kDepth) continue;
      credits_used[w].fetch_add(1, std::memory_order_acq_rel);
      ASSERT_TRUE(ex.SubmitWithCallback(
                        w,
                        [&ex, &max_seen, w] {
                          const uint64_t depth = ex.in_flight(w);
                          uint64_t prev =
                              max_seen[w].load(std::memory_order_relaxed);
                          while (prev < depth &&
                                 !max_seen[w].compare_exchange_weak(
                                     prev, depth, std::memory_order_relaxed)) {
                          }
                          if (w == 0) {  // the deliberately slow shard
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(2));
                          }
                          return Status::OK();
                        },
                        [&, w](const Status& st) {
                          EXPECT_TRUE(st.ok());
                          credits_used[w].fetch_sub(1,
                                                    std::memory_order_acq_rel);
                          std::lock_guard<std::mutex> lock(mu);
                          ++completed_total;
                          cv.notify_one();
                        })
                      .ok());
      ++submitted[w];
      progress = true;
    }
    if (!progress) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::milliseconds(5));
    }
  }
  // Shutdown while worker 0's ring is still backed up: deterministic drain.
  ex.Shutdown();
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_EQ(completed_total, static_cast<int>(kWorkers) * kTasksPerWorker);
  }
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_LE(max_seen[w].load(), kDepth) << "worker " << w;
    EXPECT_EQ(ex.completed_count(w), static_cast<uint64_t>(kTasksPerWorker));
  }
}

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 0x9E3779B9u));
  r.Fill(page);
}

// The TSan stress test: four PDL chips, each driven from its own worker with
// an interleaved ReadPage/WriteBack stream, shards progressing concurrently.
// Thread safety comes from shard confinement alone -- the assertion inside
// FlashDevice (and TSan) would flag any cross-shard leakage.
TEST(ShardExecutorTest, ConcurrentShardedStoreStress) {
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kPages = 120;
  constexpr int kOpsPerShard = 400;
  auto spec = methods::ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  std::unique_ptr<ftl::ShardedStore> store =
      methods::CreateShardedStore(flash::FlashConfig::Small(8), kShards, *spec);
  SeedArg arg{7};
  ASSERT_TRUE(store->Format(kPages, &SeededImage, &arg).ok());
  const uint32_t data_size = store->device()->geometry().data_size;

  // Per-shard expected images (only its own worker touches them).
  std::vector<std::vector<ByteBuffer>> shadow(kShards);
  std::vector<std::vector<PageId>> inner_of(kShards);
  for (PageId pid = 0; pid < kPages; ++pid) {
    const uint32_t s = store->shard_of(pid);
    shadow[s].emplace_back(data_size);
    SeededImage(pid, shadow[s].back(), &arg);
    inner_of[s].push_back(store->inner_pid(pid));
  }

  ShardExecutor ex(kShards);
  std::vector<std::future<Status>> futures;
  for (uint32_t s = 0; s < kShards; ++s) {
    PageStore* inner = store->shard(s);
    auto* my_shadow = &shadow[s];
    auto* my_inner = &inner_of[s];
    futures.push_back(ex.Submit(s, [inner, my_shadow, my_inner, s] {
      Random r(1000 + s);
      const uint32_t n = static_cast<uint32_t>(my_inner->size());
      ByteBuffer buf((*my_shadow)[0].size());
      for (int op = 0; op < kOpsPerShard; ++op) {
        const uint32_t k = static_cast<uint32_t>(r.Uniform(n));
        const PageId ipid = (*my_inner)[k];
        if (r.Uniform(3) == 0) {
          FLASHDB_RETURN_IF_ERROR(inner->ReadPage(ipid, buf));
          if (!BytesEqual(buf, (*my_shadow)[k])) {
            return Status::Corruption("stress shadow mismatch");
          }
        } else {
          ByteBuffer& img = (*my_shadow)[k];
          const uint32_t len = 1 + static_cast<uint32_t>(r.Uniform(100));
          const uint32_t off =
              static_cast<uint32_t>(r.Uniform(img.size() - len + 1));
          r.Fill(MutBytes(img.data() + off, len));
          FLASHDB_RETURN_IF_ERROR(inner->WriteBack(ipid, img));
        }
      }
      return inner->Flush();
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

  // Join complete: the main thread may verify every shard again.
  ByteBuffer buf(data_size);
  for (uint32_t s = 0; s < kShards; ++s) {
    for (size_t k = 0; k < inner_of[s].size(); ++k) {
      ASSERT_TRUE(store->shard(s)->ReadPage(inner_of[s][k], buf).ok());
      EXPECT_TRUE(BytesEqual(buf, shadow[s][k])) << "shard " << s;
    }
  }
}

}  // namespace
}  // namespace flashdb
