// Cross-method property test: all four page-update methods must expose
// byte-identical logical page contents for the same operation stream --
// flat or wrapped in a ShardedStore. This is the strongest functional
// statement of PageStore correctness: the methods differ only in how (and
// how expensively) they lay pages out on flash, never in what a read
// returns.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "flash/fault_injector.h"
#include "ftl/sharded_store.h"
#include "methods/method_factory.h"
#include "test_seed.h"

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

/// Formats `store` with `pages` seeded pages and runs the randomized
/// read / update / flush stream against an in-memory shadow database.
void RunRandomizedEquivalenceSuite(PageStore* store, uint32_t pages, int seed,
                                   const std::string& label) {
  const uint32_t data_size = store->device()->geometry().data_size;
  SeedArg arg{static_cast<uint64_t>(seed)};
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());

  // Shadow database.
  std::vector<ByteBuffer> shadow(pages);
  for (PageId pid = 0; pid < pages; ++pid) {
    shadow[pid].resize(data_size);
    SeededImage(pid, shadow[pid], &arg);
  }

  Random r(seed * 7919 + 1);
  ByteBuffer buf(data_size);
  for (int op = 0; op < 600; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    const uint64_t kind = r.Uniform(10);
    if (kind < 4) {
      // Read and verify.
      ASSERT_TRUE(store->ReadPage(pid, buf).ok()) << op;
      ASSERT_TRUE(BytesEqual(buf, shadow[pid]))
          << label << " op " << op << " pid " << pid;
    } else if (kind < 9) {
      // Update cycle: read, mutate 1..3 regions (through OnUpdate), write.
      ASSERT_TRUE(store->ReadPage(pid, buf).ok()) << op;
      const int cmds = 1 + static_cast<int>(r.Uniform(3));
      for (int c = 0; c < cmds; ++c) {
        const uint32_t len = 1 + static_cast<uint32_t>(r.Uniform(120));
        const uint32_t off =
            static_cast<uint32_t>(r.Uniform(buf.size() - len + 1));
        UpdateLog log;
        log.offset = off;
        log.data.resize(len);
        r.Fill(log.data);
        std::memcpy(buf.data() + off, log.data.data(), len);
        ASSERT_TRUE(store->OnUpdate(pid, buf, log).ok()) << op;
      }
      ASSERT_TRUE(store->WriteBack(pid, buf).ok()) << op;
      shadow[pid] = buf;
    } else {
      ASSERT_TRUE(store->Flush().ok()) << op;
    }
  }
  // Final full verification.
  for (PageId pid = 0; pid < pages; ++pid) {
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, shadow[pid])) << label << " pid " << pid;
  }
}

/// The same randomized contract through the batched write path: update
/// cycles queue write-backs and a window of them is issued as one
/// WriteBatch; reads of a queued page are served from the queued image
/// (the store's on-flash copy is legitimately stale until the flush).
void WindowedEquivalenceSuite(PageStore* store, uint32_t pages, int seed,
                              uint32_t window, const std::string& label) {
  const uint32_t data_size = store->device()->geometry().data_size;
  SeedArg arg{static_cast<uint64_t>(seed)};
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());

  std::vector<ByteBuffer> shadow(pages);
  for (PageId pid = 0; pid < pages; ++pid) {
    shadow[pid].resize(data_size);
    SeededImage(pid, shadow[pid], &arg);
  }

  std::vector<std::pair<PageId, ByteBuffer>> queued;
  std::unordered_map<PageId, size_t> latest;
  auto flush_window = [&]() {
    if (queued.empty()) return Status::OK();
    std::vector<PageWrite> writes;
    writes.reserve(queued.size());
    for (const auto& [pid, img] : queued) writes.push_back(PageWrite{pid, img});
    Status st = store->WriteBatch(writes);
    queued.clear();
    latest.clear();
    return st;
  };

  Random r(seed * 6271 + 5);
  ByteBuffer buf(data_size);
  for (int op = 0; op < 500; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    const uint64_t kind = r.Uniform(10);
    if (kind < 4) {
      const auto it = latest.find(pid);
      if (it != latest.end()) {
        buf = queued[it->second].second;
      } else {
        ASSERT_TRUE(store->ReadPage(pid, buf).ok()) << op;
      }
      ASSERT_TRUE(BytesEqual(buf, shadow[pid]))
          << label << " op " << op << " pid " << pid;
    } else if (kind < 9) {
      const auto it = latest.find(pid);
      if (it != latest.end()) {
        buf = queued[it->second].second;
      } else {
        ASSERT_TRUE(store->ReadPage(pid, buf).ok()) << op;
      }
      const int cmds = 1 + static_cast<int>(r.Uniform(3));
      for (int c = 0; c < cmds; ++c) {
        const uint32_t len = 1 + static_cast<uint32_t>(r.Uniform(120));
        const uint32_t off =
            static_cast<uint32_t>(r.Uniform(buf.size() - len + 1));
        UpdateLog log;
        log.offset = off;
        log.data.resize(len);
        r.Fill(log.data);
        std::memcpy(buf.data() + off, log.data.data(), len);
        ASSERT_TRUE(store->OnUpdate(pid, buf, log).ok()) << op;
      }
      queued.emplace_back(pid, buf);
      latest[pid] = queued.size() - 1;
      shadow[pid] = buf;
      if (queued.size() >= window) {
        ASSERT_TRUE(flush_window().ok()) << op;
      }
    } else {
      ASSERT_TRUE(flush_window().ok()) << op;
      ASSERT_TRUE(store->Flush().ok()) << op;
    }
  }
  ASSERT_TRUE(flush_window().ok());
  for (PageId pid = 0; pid < pages; ++pid) {
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, shadow[pid])) << label << " pid " << pid;
  }
}

class MethodEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MethodEquivalenceTest, MatchesShadowUnderRandomOperations) {
  const auto& [method_name, seed] = GetParam();
  Result<MethodSpec> spec = ParseMethodSpec(method_name);
  ASSERT_TRUE(spec.ok());

  FlashDevice dev(FlashConfig::Small(8));
  std::unique_ptr<PageStore> store = methods::CreateStore(&dev, *spec);
  RunRandomizedEquivalenceSuite(store.get(), 100, seed, method_name);
}

TEST_P(MethodEquivalenceTest, MatchesShadowThroughBatchedWrites) {
  const auto& [method_name, seed] = GetParam();
  Result<MethodSpec> spec = ParseMethodSpec(method_name);
  ASSERT_TRUE(spec.ok());

  FlashDevice dev(FlashConfig::Small(8));
  std::unique_ptr<PageStore> store = methods::CreateStore(&dev, *spec);
  WindowedEquivalenceSuite(store.get(), 100, seed,
                           /*window=*/static_cast<uint32_t>(3 + seed),
                           method_name);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodEquivalenceTest,
    ::testing::Combine(::testing::Values("PDL(256B)", "PDL(2KB)", "OPU", "IPU",
                                         "IPL(18KB)", "IPL(64KB)"),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// Equivalence must also hold across a crash-free remount (Recover) for the
// methods that persist everything on Flush.
class RemountEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RemountEquivalenceTest, SurvivesRemount) {
  Result<MethodSpec> spec = ParseMethodSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  FlashDevice dev(FlashConfig::Small(8));
  std::unique_ptr<PageStore> store = methods::CreateStore(&dev, *spec);
  const uint32_t pages = 60;
  SeedArg arg{5};
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());

  std::vector<ByteBuffer> shadow(pages);
  for (PageId pid = 0; pid < pages; ++pid) {
    shadow[pid].resize(dev.geometry().data_size);
    SeededImage(pid, shadow[pid], &arg);
  }
  Random r(99);
  ByteBuffer buf(dev.geometry().data_size);
  for (int op = 0; op < 200; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    const uint32_t len = 1 + static_cast<uint32_t>(r.Uniform(60));
    const uint32_t off = static_cast<uint32_t>(r.Uniform(buf.size() - len));
    UpdateLog log;
    log.offset = off;
    log.data.resize(len);
    r.Fill(log.data);
    std::memcpy(buf.data() + off, log.data.data(), len);
    ASSERT_TRUE(store->OnUpdate(pid, buf, log).ok());
    ASSERT_TRUE(store->WriteBack(pid, buf).ok());
    shadow[pid] = buf;
  }
  ASSERT_TRUE(store->Flush().ok());
  store.reset();

  std::unique_ptr<PageStore> remounted = methods::CreateStore(&dev, *spec);
  ASSERT_TRUE(remounted->Recover().ok());
  ASSERT_EQ(remounted->num_logical_pages(), pages);
  for (PageId pid = 0; pid < pages; ++pid) {
    ASSERT_TRUE(remounted->ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, shadow[pid])) << GetParam() << " pid " << pid;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, RemountEquivalenceTest,
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

// The ShardedStore must satisfy the same contract: striping pages across
// N chips is invisible to the logical page space, for every inner method.
class ShardedEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint32_t>> {};

TEST_P(ShardedEquivalenceTest, MatchesShadowUnderRandomOperations) {
  const auto& [method_name, num_shards] = GetParam();
  Result<MethodSpec> spec = ParseMethodSpec(method_name);
  ASSERT_TRUE(spec.ok());

  std::unique_ptr<ftl::ShardedStore> store =
      methods::CreateShardedStore(FlashConfig::Small(8), num_shards, *spec);
  ASSERT_EQ(store->num_shards(), num_shards);
  RunRandomizedEquivalenceSuite(
      store.get(), 100, /*seed=*/static_cast<int>(num_shards) + 1,
      std::string(store->name()));
}

TEST_P(ShardedEquivalenceTest, MatchesShadowThroughBatchedWrites) {
  const auto& [method_name, num_shards] = GetParam();
  Result<MethodSpec> spec = ParseMethodSpec(method_name);
  ASSERT_TRUE(spec.ok());

  std::unique_ptr<ftl::ShardedStore> store =
      methods::CreateShardedStore(FlashConfig::Small(8), num_shards, *spec);
  WindowedEquivalenceSuite(store.get(), 100,
                           /*seed=*/static_cast<int>(num_shards) + 2,
                           /*window=*/6, std::string(store->name()));
}

TEST_P(ShardedEquivalenceTest, SurvivesCrashRecoveryAcrossShards) {
  const auto& [method_name, num_shards] = GetParam();
  Result<MethodSpec> spec = ParseMethodSpec(method_name);
  ASSERT_TRUE(spec.ok());

  // Devices outlive the store instances, like chips outlive a process.
  std::vector<std::unique_ptr<FlashDevice>> devices;
  for (uint32_t i = 0; i < num_shards; ++i) {
    devices.push_back(
        std::make_unique<FlashDevice>(FlashConfig::Small(8)));
  }
  auto make_store = [&]() {
    std::vector<ftl::ShardedStore::Shard> shards(num_shards);
    for (uint32_t i = 0; i < num_shards; ++i) {
      shards[i].device = devices[i].get();
      shards[i].store = methods::CreateStore(devices[i].get(), *spec);
    }
    return std::make_unique<ftl::ShardedStore>(std::move(shards));
  };

  std::unique_ptr<ftl::ShardedStore> store = make_store();
  const uint32_t pages = 100;
  SeedArg arg{11};
  ASSERT_TRUE(store->Format(pages, &SeededImage, &arg).ok());

  std::vector<ByteBuffer> shadow(pages);
  for (PageId pid = 0; pid < pages; ++pid) {
    shadow[pid].resize(devices[0]->geometry().data_size);
    SeededImage(pid, shadow[pid], &arg);
  }
  Random r(101 + num_shards);
  ByteBuffer buf(devices[0]->geometry().data_size);
  for (int op = 0; op < 300; ++op) {
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    const uint32_t len = 1 + static_cast<uint32_t>(r.Uniform(60));
    const uint32_t off = static_cast<uint32_t>(r.Uniform(buf.size() - len));
    UpdateLog log;
    log.offset = off;
    log.data.resize(len);
    r.Fill(log.data);
    std::memcpy(buf.data() + off, log.data.data(), len);
    ASSERT_TRUE(store->OnUpdate(pid, buf, log).ok());
    ASSERT_TRUE(store->WriteBack(pid, buf).ok());
    shadow[pid] = buf;
  }
  ASSERT_TRUE(store->Flush().ok());
  store.reset();  // "crash": every in-memory table is lost

  std::unique_ptr<ftl::ShardedStore> remounted = make_store();
  ASSERT_TRUE(remounted->Recover().ok());
  ASSERT_EQ(remounted->num_logical_pages(), pages);
  for (PageId pid = 0; pid < pages; ++pid) {
    ASSERT_TRUE(remounted->ReadPage(pid, buf).ok());
    ASSERT_TRUE(BytesEqual(buf, shadow[pid]))
        << method_name << " x" << num_shards << " pid " << pid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ShardedEquivalenceTest,
    ::testing::Combine(::testing::Values("PDL(256B)", "PDL(2KB)", "OPU", "IPU",
                                         "IPL(18KB)", "IPL(64KB)"),
                       ::testing::Values(1u, 2u, 3u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, uint32_t>>& i) {
      std::string name = std::get<0>(i.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_x" + std::to_string(std::get<1>(i.param));
    });

// Correctable bit errors must be invisible. With a BitErrorInjector at a low
// error rate the retry ladder absorbs every raw error: reads finish corrected
// (costing retry time on the shard clock), never uncorrectable, and -- the
// strong claim -- the final flash contents are bit-identical to a zero-error
// run. The error model may change *when* a read completes, never *what* the
// store writes.

uint32_t DeviceFingerprint(FlashDevice* dev) {
  const auto& g = dev->geometry();
  ByteBuffer data(g.data_size);
  ByteBuffer spare(g.spare_size);
  uint32_t crc = 0;
  for (flash::PhysAddr addr = 0; addr < g.total_pages(); ++addr) {
    EXPECT_TRUE(dev->ReadPage(addr, data, spare).ok()) << addr;
    crc = Crc32c(data, crc);
    crc = Crc32c(spare, crc);
  }
  return crc;
}

class BitErrorEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BitErrorEquivalenceTest, CorrectableErrorsLeaveFlashBitIdentical) {
  Result<MethodSpec> spec = ParseMethodSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  const uint32_t kShards = 2;

  auto run = [&](flash::FaultInjector* fi) {
    std::unique_ptr<ftl::ShardedStore> store =
        methods::CreateShardedStore(FlashConfig::Small(8), kShards, *spec);
    if (fi != nullptr) {
      for (uint32_t i = 0; i < kShards; ++i) {
        store->shard_device(i)->set_fault_injector(fi);
      }
    }
    RunRandomizedEquivalenceSuite(store.get(), 100,
                                  /*seed=*/static_cast<int>(7 + EnvSeed()),
                                  std::string(store->name()));
    return store;
  };

  std::unique_ptr<ftl::ShardedStore> clean = run(nullptr);

  flash::BitErrorInjector::Params p;
  p.page_error_rate = 0.02;  // well inside the retry ladder's budget
  p.seed ^= EnvSeed() * 0x9E3779B97F4A7C15ULL;
  flash::BitErrorInjector injector(p);
  std::unique_ptr<ftl::ShardedStore> noisy = run(&injector);

  // The error model actually fired, and the ladder corrected every hit.
  const flash::FlashStats stats = noisy->stats();
  EXPECT_GT(stats.integrity.read_retries, 0u) << GetParam();
  EXPECT_GT(stats.integrity.reads_corrected, 0u) << GetParam();
  EXPECT_EQ(stats.integrity.reads_uncorrectable, 0u) << GetParam();

  // Retries charge time, so the noisy run's clocks lag behind -- but the
  // cells themselves must match the zero-error run bit for bit.
  for (uint32_t i = 0; i < kShards; ++i) {
    noisy->shard_device(i)->set_fault_injector(nullptr);
    EXPECT_GE(noisy->shard_clocks()[i], clean->shard_clocks()[i]);
    EXPECT_EQ(DeviceFingerprint(noisy->shard_device(i)),
              DeviceFingerprint(clean->shard_device(i)))
        << GetParam() << " shard " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, BitErrorEquivalenceTest,
                         ::testing::Values("PDL(256B)", "OPU", "IPU",
                                           "IPL(18KB)"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// A remount must never destroy a page whose spare it could not read. Power
// cuts are atomic here, so a programmed spare that fails to decode is a read
// error, not a torn write: recovery may give up with Corruption, but it must
// not program or erase anything on the strength of that read, or a clean
// remount afterwards would find the page gone.

/// Makes every read attempt of page `target` uncorrectable (the device then
/// delivers a bit-flipped buffer) and counts the mutations the device
/// attempts. With no target it only records the first page read.
class UnreadablePage : public flash::FaultInjector {
 public:
  void BeforeMutation(flash::OpKind, uint32_t) override { ++mutations; }
  void AfterMutation(flash::OpKind, uint32_t) override {}
  bool CorruptRead(uint32_t addr, uint32_t, uint32_t, uint32_t) override {
    if (first_read == flash::kNullAddr) first_read = addr;
    return addr == target;
  }

  flash::PhysAddr target = flash::kNullAddr;
  flash::PhysAddr first_read = flash::kNullAddr;
  uint64_t mutations = 0;
};

class BitErrorRecoveryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BitErrorRecoveryTest, RemountNeverDestroysAPageItCouldNotRead) {
  Result<MethodSpec> spec = ParseMethodSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  FlashDevice dev(FlashConfig::Small(16));
  const uint32_t pages = 200;
  const uint32_t data_size = dev.geometry().data_size;
  std::vector<ByteBuffer> shadow(pages, ByteBuffer(data_size));
  flash::PhysAddr target = flash::kNullAddr;
  {
    std::unique_ptr<PageStore> store = methods::CreateStore(&dev, *spec);
    RunRandomizedEquivalenceSuite(store.get(), pages,
                                  /*seed=*/static_cast<int>(3 + EnvSeed()),
                                  GetParam());
    if (HasFatalFailure()) return;
    ASSERT_TRUE(store->Flush().ok());
    // The suite checked every page against its shadow; keep the images.
    for (PageId pid = 0; pid < pages; ++pid) {
      ASSERT_TRUE(store->ReadPage(pid, shadow[pid]).ok());
    }
    // The target is the first page a read of a drawn pid senses: its base,
    // data or original page, live by construction. At the canonical seed the
    // draw lands where the flipped spare fails its CRC for OPU and IPL(18KB),
    // the methods whose recovery once acted on such a read.
    Random r(0xD1CE + EnvSeed());
    const PageId pid = static_cast<PageId>(r.Uniform(pages));
    UnreadablePage probe;
    dev.set_fault_injector(&probe);
    ByteBuffer buf(data_size);
    ASSERT_TRUE(store->ReadPage(pid, buf).ok());
    dev.set_fault_injector(nullptr);
    target = probe.first_read;
  }

  UnreadablePage fault;
  fault.target = target;
  dev.set_fault_injector(&fault);
  std::unique_ptr<PageStore> faulted = methods::CreateStore(&dev, *spec);
  const Status st = faulted->Recover();
  dev.set_fault_injector(nullptr);
  EXPECT_TRUE(st.ok() || st.IsCorruption()) << st.ToString();
  EXPECT_EQ(fault.mutations, 0u)
      << GetParam() << ": recovery wrote to flash while page " << target
      << " was unreadable";
  if (st.ok()) {
    // An OK remount serves every page it had: each reads back as written or
    // fails with Corruption, never with a wrong image or a broken mapping.
    EXPECT_EQ(faulted->num_logical_pages(), pages) << GetParam();
    ByteBuffer buf(data_size);
    uint32_t wrong = 0;
    std::string first_wrong;
    for (PageId pid = 0; pid < pages; ++pid) {
      const Status read = faulted->ReadPage(pid, buf);
      if (read.IsCorruption() || (read.ok() && BytesEqual(buf, shadow[pid]))) {
        continue;
      }
      if (wrong++ == 0) {
        first_wrong = "pid " + std::to_string(pid) + ": " + read.ToString();
      }
    }
    EXPECT_EQ(wrong, 0u) << GetParam() << " after an OK remount, first "
                         << first_wrong;
  }
  faulted.reset();

  std::unique_ptr<PageStore> clean = methods::CreateStore(&dev, *spec);
  ASSERT_TRUE(clean->Recover().ok());
  EXPECT_EQ(clean->num_logical_pages(), pages) << GetParam();
  ByteBuffer buf(data_size);
  uint32_t lost = 0;
  for (PageId pid = 0; pid < pages; ++pid) {
    if (!clean->ReadPage(pid, buf).ok() || !BytesEqual(buf, shadow[pid])) {
      ++lost;
    }
  }
  EXPECT_EQ(lost, 0u) << GetParam() << ": target page " << target;
}

INSTANTIATE_TEST_SUITE_P(AllMethods, BitErrorRecoveryTest,
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

}  // namespace
}  // namespace flashdb
