// WriteBatch contract tests: the batched path must leave the chip in exactly
// the state the sequential WriteBack path produces (harness::FirstDivergence:
// identical clock, erase counts, data and spare areas), for every method and
// through the ShardedStore, and batched state must survive crash recovery.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "replay_oracle.h"

namespace flashdb {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;
using methods::MethodSpec;
using methods::ParseMethodSpec;

struct SeedArg {
  uint64_t seed;
};
void SeededImage(PageId pid, MutBytes page, void* arg) {
  Random r(static_cast<SeedArg*>(arg)->seed ^ (pid * 0x9E3779B9u));
  r.Fill(page);
}

/// A deterministic write stream: `count` full-page images over `pages` pids
/// (with repeats, so batches contain same-pid entries).
std::vector<std::pair<PageId, ByteBuffer>> MakeWriteStream(uint32_t pages,
                                                           uint32_t data_size,
                                                           int count,
                                                           int seed) {
  std::vector<std::pair<PageId, ByteBuffer>> stream;
  Random r(seed);
  // Evolve per-pid images so consecutive writes to one pid differ mildly
  // (realistic differentials).
  std::vector<ByteBuffer> current(pages);
  SeedArg arg{static_cast<uint64_t>(seed)};
  for (PageId pid = 0; pid < pages; ++pid) {
    current[pid].resize(data_size);
    SeededImage(pid, current[pid], &arg);
  }
  for (int i = 0; i < count; ++i) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ByteBuffer& img = current[pid];
    const uint32_t len = 1 + static_cast<uint32_t>(r.Uniform(80));
    const uint32_t off = static_cast<uint32_t>(r.Uniform(img.size() - len + 1));
    r.Fill(MutBytes(img.data() + off, len));
    stream.emplace_back(pid, img);
  }
  return stream;
}

class BatchedWriteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchedWriteTest, MatchesSequentialOnFlashState) {
  Result<MethodSpec> spec = ParseMethodSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  const uint32_t pages = 80;
  SeedArg arg{3};

  FlashDevice dev_seq(FlashConfig::Small(8));
  FlashDevice dev_batch(FlashConfig::Small(8));
  auto seq = methods::CreateStore(&dev_seq, *spec);
  auto batch = methods::CreateStore(&dev_batch, *spec);
  ASSERT_TRUE(seq->Format(pages, &SeededImage, &arg).ok());
  ASSERT_TRUE(batch->Format(pages, &SeededImage, &arg).ok());

  const auto stream =
      MakeWriteStream(pages, dev_seq.geometry().data_size, 300, 17);
  // Sequential reference.
  for (const auto& [pid, img] : stream) {
    ASSERT_TRUE(seq->WriteBack(pid, img).ok());
  }
  // Batched run, window sizes cycling 1..13 to hit odd boundaries.
  size_t i = 0, window = 1;
  while (i < stream.size()) {
    std::vector<PageWrite> writes;
    for (size_t k = 0; k < window && i < stream.size(); ++k, ++i) {
      writes.push_back(PageWrite{stream[i].first, stream[i].second});
    }
    ASSERT_TRUE(batch->WriteBatch(writes).ok());
    window = window % 13 + 1;
  }
  EXPECT_TRUE(SameTwins({{&dev_seq}}, {{&dev_batch}}));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, BatchedWriteTest,
                         ::testing::Values("PDL(256B)", "PDL(2KB)", "OPU",
                                           "IPU", "IPL(18KB)", "IPL(64KB)"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

TEST(BatchedWriteShardedTest, MatchesSequentialAcrossShards) {
  Result<MethodSpec> spec = ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  const uint32_t pages = 90;
  const uint32_t shards = 3;
  SeedArg arg{5};
  auto seq =
      methods::CreateShardedStore(FlashConfig::Small(8), shards, *spec);
  auto batch =
      methods::CreateShardedStore(FlashConfig::Small(8), shards, *spec);
  ASSERT_TRUE(seq->Format(pages, &SeededImage, &arg).ok());
  ASSERT_TRUE(batch->Format(pages, &SeededImage, &arg).ok());

  const auto stream =
      MakeWriteStream(pages, seq->device()->geometry().data_size, 240, 23);
  for (const auto& [pid, img] : stream) {
    ASSERT_TRUE(seq->WriteBack(pid, img).ok());
  }
  size_t i = 0;
  while (i < stream.size()) {
    std::vector<PageWrite> writes;
    for (size_t k = 0; k < 9 && i < stream.size(); ++k, ++i) {
      writes.push_back(PageWrite{stream[i].first, stream[i].second});
    }
    ASSERT_TRUE(batch->WriteBatch(writes).ok());
  }
  EXPECT_TRUE(SameTwins({harness::ChipsOf(seq.get())},
                        {harness::ChipsOf(batch.get())}));
}

TEST(BatchedWriteShardedTest, BatchedStateSurvivesCrashRecovery) {
  Result<MethodSpec> spec = ParseMethodSpec("PDL(256B)");
  ASSERT_TRUE(spec.ok());
  const uint32_t pages = 90;
  const uint32_t shards = 3;
  SeedArg arg{9};
  std::vector<std::unique_ptr<FlashDevice>> devices;
  for (uint32_t i = 0; i < shards; ++i) {
    devices.push_back(std::make_unique<FlashDevice>(FlashConfig::Small(8)));
  }
  auto make_store = [&]() {
    std::vector<ftl::ShardedStore::Shard> sh(shards);
    for (uint32_t i = 0; i < shards; ++i) {
      sh[i].device = devices[i].get();
      sh[i].store = methods::CreateStore(devices[i].get(), *spec);
    }
    return std::make_unique<ftl::ShardedStore>(std::move(sh));
  };

  auto store = make_store();
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());
  const uint32_t data_size = devices[0]->geometry().data_size;
  auto stream = MakeWriteStream(pages, data_size, 200, 31);
  // Latest image per pid (the expected post-recovery contents).
  std::vector<ByteBuffer> expected(pages);
  SeedArg exp_arg{9};
  for (PageId pid = 0; pid < pages; ++pid) {
    expected[pid].resize(data_size);
    SeededImage(pid, expected[pid], &exp_arg);
  }
  size_t i = 0;
  while (i < stream.size()) {
    std::vector<PageWrite> writes;
    for (size_t k = 0; k < 7 && i < stream.size(); ++k, ++i) {
      writes.push_back(PageWrite{stream[i].first, stream[i].second});
      expected[stream[i].first] = stream[i].second;
    }
    ASSERT_TRUE(store->WriteBatch(writes).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  store.reset();  // crash: all in-memory tables lost

  auto remounted = make_store();
  ASSERT_TRUE(remounted->Recover().ok());
  ASSERT_EQ(remounted->num_logical_pages(), pages);
  ByteBuffer buf(data_size);
  for (PageId pid = 0; pid < pages; ++pid) {
    ASSERT_TRUE(remounted->ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, expected[pid])) << "pid " << pid;
  }
}

// The one WriteBatch (PageStore's) is all-or-nothing for every store: a
// malformed entry anywhere rejects the batch before any write reaches flash.
TEST(BatchedWriteValidationTest, RejectsBadEntriesUpFront) {
  for (const char* method :
       {"PDL(256B)", "OPU", "IPU", "IPL(18KB)", "IPL(64KB)"}) {
    Result<MethodSpec> spec = ParseMethodSpec(method);
    ASSERT_TRUE(spec.ok());
    FlashDevice dev(FlashConfig::Small(8));
    auto store = methods::CreateStore(&dev, *spec);
    ASSERT_TRUE(store->Format(10, nullptr, nullptr).ok());
    ByteBuffer page(dev.geometry().data_size, 0);
    ByteBuffer short_page(16, 0);

    std::vector<PageWrite> bad_pid = {PageWrite{99, page}};
    EXPECT_FALSE(store->WriteBatch(bad_pid).ok()) << method;
    std::vector<PageWrite> bad_size = {PageWrite{1, short_page}};
    EXPECT_FALSE(store->WriteBatch(bad_size).ok()) << method;
    const uint64_t clock_before = dev.clock().now_us();
    std::vector<PageWrite> mixed = {PageWrite{1, page}, PageWrite{99, page}};
    EXPECT_FALSE(store->WriteBatch(mixed).ok()) << method;
    EXPECT_EQ(dev.clock().now_us(), clock_before) << method;
  }

  // Same contract through the ShardedStore, whose entries land on
  // different chips: a short page bound for shard 1 must stop the valid
  // write bound for shard 0 too.
  Result<MethodSpec> spec = ParseMethodSpec("OPU");
  ASSERT_TRUE(spec.ok());
  auto sharded = methods::CreateShardedStore(FlashConfig::Small(8), 2, *spec);
  ASSERT_TRUE(sharded->Format(10, nullptr, nullptr).ok());
  ByteBuffer page(sharded->device()->geometry().data_size, 0);
  ByteBuffer short_page(16, 0);
  const std::vector<uint64_t> clocks_before = sharded->shard_clocks();
  std::vector<PageWrite> mixed = {PageWrite{1, page}, PageWrite{99, page}};
  EXPECT_TRUE(sharded->WriteBatch(mixed).IsNotFound());
  EXPECT_EQ(sharded->shard_clocks(), clocks_before);
  std::vector<PageWrite> cross_shard = {PageWrite{0, page},
                                        PageWrite{1, short_page}};
  EXPECT_TRUE(sharded->WriteBatch(cross_shard).IsInvalidArgument());
  EXPECT_EQ(sharded->shard_clocks(), clocks_before);
}

}  // namespace
}  // namespace flashdb
