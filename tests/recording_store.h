// A PageStore for tests: forwards every call to an inner store and records
// the write path.

#ifndef FLASHDB_TESTS_RECORDING_STORE_H_
#define FLASHDB_TESTS_RECORDING_STORE_H_

#include <span>
#include <string_view>
#include <vector>

#include "ftl/page_store.h"

namespace flashdb {

/// Records, once StartRecording() is called, every page image handed to
/// WriteBack or WriteBatch in call order, and the pids of each WriteBatch
/// call. Writes are recorded *before* forwarding, so the write a power cut
/// lands on is part of the log (it may or may not have become durable).
class RecordingStore : public PageStore {
 public:
  struct Write {
    PageId pid = 0;
    ByteBuffer image;
  };

  explicit RecordingStore(PageStore* inner) : inner_(inner) {}

  void StartRecording() { recording_ = true; }
  const std::vector<Write>& writes() const { return writes_; }
  const std::vector<std::vector<PageId>>& batches() const { return batches_; }

  std::string_view name() const override { return inner_->name(); }
  Status Format(uint32_t num_logical_pages, PageInitializer initial,
                void* initial_arg) override {
    return inner_->Format(num_logical_pages, initial, initial_arg);
  }
  Status ReadPage(PageId pid, MutBytes out) override {
    return inner_->ReadPage(pid, out);
  }
  Status OnUpdate(PageId pid, ConstBytes page_after,
                  const UpdateLog& log) override {
    return inner_->OnUpdate(pid, page_after, log);
  }
  Status WriteBack(PageId pid, ConstBytes page) override {
    Note(pid, page);
    return inner_->WriteBack(pid, page);
  }
  Status WriteBatch(std::span<const PageWrite> batch) override {
    if (recording_) {
      std::vector<PageId>& pids = batches_.emplace_back();
      for (const PageWrite& w : batch) pids.push_back(w.pid);
    }
    for (const PageWrite& w : batch) Note(w.pid, w.page);
    return inner_->WriteBatch(batch);
  }
  Status Flush() override { return inner_->Flush(); }
  Status Recover() override { return inner_->Recover(); }
  uint32_t num_logical_pages() const override {
    return inner_->num_logical_pages();
  }
  flash::FlashDevice* device() override { return inner_->device(); }

 private:
  void Note(PageId pid, ConstBytes page) {
    if (recording_) {
      writes_.push_back({pid, ByteBuffer(page.begin(), page.end())});
    }
  }

  PageStore* inner_;
  bool recording_ = false;
  std::vector<Write> writes_;
  std::vector<std::vector<PageId>> batches_;
};

}  // namespace flashdb

#endif  // FLASHDB_TESTS_RECORDING_STORE_H_
