// TimingStore: the benchmark's probe at the page-method boundary. It wraps
// one chip's PageStore, forwards every call to it unchanged, and tallies from
// outside the library how many pages the chip read and wrote and, while
// timing is on, how long its ReadPage, write and Flush calls took in host time.
//
// Forwarding only: no call is added, dropped or reordered, so flash contents,
// virtual clocks and every deterministic metric are identical with and
// without the wrapper (benchmark/selftest.sh compares them byte for byte).
// Like the store it wraps, a TimingStore is thread-confined: its shard's
// executor worker drives it, and the benchmark reads the tally only while the
// workers are quiescent.

#ifndef FLASHDB_BENCHMARK_TIMING_STORE_H_
#define FLASHDB_BENCHMARK_TIMING_STORE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ftl/page_store.h"

namespace flashdb::bench {

/// What one chip's page-method calls cost. Counts cover every call since the
/// last Reset(); times and samples cover only calls made with timing on.
struct CallTally {
  uint64_t reads = 0;   ///< ReadPage calls.
  uint64_t writes = 0;  ///< Pages written by WriteBack or in a WriteBatch.
  uint64_t read_ns = 0;
  uint64_t write_ns = 0;
  uint64_t flush_ns = 0;
  std::vector<uint32_t> read_samples;   ///< Host ns of each timed ReadPage.
  std::vector<uint32_t> write_samples;  ///< Host ns per page of each write.

  uint64_t busy_ns() const { return read_ns + write_ns + flush_ns; }
};

class TimingStore final : public PageStore {
 public:
  explicit TimingStore(std::unique_ptr<PageStore> inner)
      : inner_(std::move(inner)) {}

  PageStore* inner() { return inner_.get(); }
  void set_timing(bool on) { timing_ = on; }
  const CallTally& tally() const { return tally_; }
  void Reset() { tally_ = CallTally{}; }

  std::string_view name() const override { return inner_->name(); }
  Status Format(uint32_t num_logical_pages, PageInitializer initial,
                void* initial_arg) override {
    return inner_->Format(num_logical_pages, initial, initial_arg);
  }
  Status ReadPage(PageId pid, MutBytes out) override {
    ++tally_.reads;
    return Timed(1, &tally_.read_ns, &tally_.read_samples,
                 [&] { return inner_->ReadPage(pid, out); });
  }
  Status OnUpdate(PageId pid, ConstBytes page_after,
                  const UpdateLog& log) override {
    return inner_->OnUpdate(pid, page_after, log);
  }
  Status WriteBack(PageId pid, ConstBytes page) override {
    ++tally_.writes;
    return Timed(1, &tally_.write_ns, &tally_.write_samples,
                 [&] { return inner_->WriteBack(pid, page); });
  }
  Status WriteBatch(std::span<const PageWrite> writes) override {
    tally_.writes += writes.size();
    return Timed(writes.size(), &tally_.write_ns, &tally_.write_samples,
                 [&] { return inner_->WriteBatch(writes); });
  }
  Status Flush() override {
    return Timed(0, &tally_.flush_ns, nullptr,
                 [&] { return inner_->Flush(); });
  }
  Status ScrubPhysPage(flash::PhysAddr addr, bool* relocated) override {
    return inner_->ScrubPhysPage(addr, relocated);
  }
  Status Recover() override { return inner_->Recover(); }
  uint32_t num_logical_pages() const override {
    return inner_->num_logical_pages();
  }
  std::vector<uint32_t> bad_blocks() const override {
    return inner_->bad_blocks();
  }
  void NoteBadBlocksForRecovery(const std::vector<uint32_t>& blocks) override {
    inner_->NoteBadBlocksForRecovery(blocks);
  }
  flash::FlashDevice* device() override { return inner_->device(); }
  void set_category(flash::OpCategory c) override { inner_->set_category(c); }
  flash::OpCategory category() override { return inner_->category(); }
  flash::FlashStats stats() override { return inner_->stats(); }
  uint64_t total_erases() override { return inner_->total_erases(); }
  flash::WearSummary wear() override { return inner_->wear(); }

 private:
  /// Runs `call`; with timing on, adds its duration to `*total_ns` and, when
  /// `samples` is set, records it once per page (`pages` of them, each the
  /// call's per-page share).
  template <typename Call>
  Status Timed(size_t pages, uint64_t* total_ns,
               std::vector<uint32_t>* samples, const Call& call) {
    if (!timing_) return call();
    const auto t0 = std::chrono::steady_clock::now();
    Status st = call();
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    *total_ns += ns;
    if (samples != nullptr && pages > 0) {
      const uint64_t per_page = ns / pages;
      samples->insert(samples->end(), pages,
                      static_cast<uint32_t>(std::min<uint64_t>(
                          per_page, UINT32_MAX)));
    }
    return st;
  }

  std::unique_ptr<PageStore> inner_;
  bool timing_ = false;
  CallTally tally_;
};

}  // namespace flashdb::bench

#endif  // FLASHDB_BENCHMARK_TIMING_STORE_H_
