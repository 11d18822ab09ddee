// The PageStore boundary contract (the paper's flash-driver boundary, Fig.
// 10): every store -- the four single-chip methods and a 2-shard
// ShardedStore -- rejects a malformed call the same way and before any
// device work. A store that was never formatted answers InvalidArgument, a
// pid at or past num_logical_pages() is NotFound, and a page buffer that is
// not exactly one page is InvalidArgument, through every call that takes the
// argument in question.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "methods/method_factory.h"

namespace flashdb {
namespace {

using flash::FlashConfig;
using flash::FlashDevice;

constexpr uint32_t kPages = 40;

/// One store under test. The sharded store owns its chips; `dev` is null.
struct Subject {
  std::string name;
  std::unique_ptr<FlashDevice> dev;
  std::unique_ptr<PageStore> store;
};

Subject MakeSubject(const std::string& name) {
  Subject s;
  s.name = name;
  if (name == "2-shard PDL(256B)") {
    auto spec = methods::ParseMethodSpec("PDL(256B)");
    EXPECT_TRUE(spec.ok());
    s.store = methods::CreateShardedStore(FlashConfig::Small(16), 2, *spec);
    return s;
  }
  auto spec = methods::ParseMethodSpec(name);
  EXPECT_TRUE(spec.ok()) << name;
  s.dev = std::make_unique<FlashDevice>(FlashConfig::Small(16));
  s.store = methods::CreateStore(s.dev.get(), *spec);
  return s;
}

/// One boundary call. ScrubPhysPage takes a physical address, so only the
/// not-formatted rule applies to it.
struct Call {
  const char* name;
  bool takes_page;
  Status (*run)(PageStore* store, PageId pid, ByteBuffer* page);
};

const Call kCalls[] = {
    {"ReadPage", true,
     [](PageStore* s, PageId pid, ByteBuffer* page) {
       return s->ReadPage(pid, *page);
     }},
    {"WriteBack", true,
     [](PageStore* s, PageId pid, ByteBuffer* page) {
       return s->WriteBack(pid, *page);
     }},
    {"OnUpdate", true,
     [](PageStore* s, PageId pid, ByteBuffer* page) {
       return s->OnUpdate(pid, *page, UpdateLog{0, ByteBuffer(1, 0xAB)});
     }},
    {"WriteBatch", true,
     [](PageStore* s, PageId pid, ByteBuffer* page) {
       const PageWrite w{pid, *page};
       return s->WriteBatch({&w, 1});
     }},
    {"ScrubPhysPage", false,
     [](PageStore* s, PageId, ByteBuffer*) {
       bool relocated = true;
       return s->ScrubPhysPage(0, &relocated);
     }},
};

/// One rule of the contract.
struct Rule {
  const char* name;
  bool formatted;
  bool pid_past_end;  ///< pid = num_logical_pages() instead of 0
  bool short_page;    ///< a 16-byte buffer instead of one page
  StatusCode expected;
};

const Rule kRules[] = {
    {"before Format", false, false, false, StatusCode::kInvalidArgument},
    {"pid past the end", true, true, false, StatusCode::kNotFound},
    {"wrong-sized buffer", true, false, true, StatusCode::kInvalidArgument},
};

TEST(BoundaryContractTest, EveryStoreRejectsBadCallsAlike) {
  for (const char* store_name :
       {"PDL(256B)", "OPU", "IPU", "IPL(18KB)", "2-shard PDL(256B)"}) {
    for (const Rule& rule : kRules) {
      for (const Call& call : kCalls) {
        if (!call.takes_page && rule.formatted) continue;
        Subject s = MakeSubject(store_name);
        if (rule.formatted) {
          ASSERT_TRUE(s.store->Format(kPages, nullptr, nullptr).ok());
        }
        const PageId pid = rule.pid_past_end ? s.store->num_logical_pages() : 0;
        ByteBuffer page(
            rule.short_page ? 16 : s.store->device()->geometry().data_size, 0);
        const uint64_t ops_before = s.store->stats().total.total_ops();
        const Status st = call.run(s.store.get(), pid, &page);
        const std::string label =
            std::string(store_name) + " " + call.name + ", " + rule.name;
        EXPECT_EQ(st.code(), rule.expected) << label << ": " << st.ToString();
        EXPECT_EQ(s.store->stats().total.total_ops(), ops_before) << label;
      }
    }
  }
}

/// A chip of eight four-page blocks with `data_size`-byte pages.
FlashConfig WidePages(uint32_t data_size) {
  FlashConfig cfg = FlashConfig::Small(8);
  cfg.geometry.pages_per_block = 4;
  cfg.geometry.data_size = data_size;
  return cfg;
}

// PDL's differential extents and IPL's log records store in-page offsets in
// 16 bits. On a larger page an offset would wrap (a change at 70,000 would
// read back at 4,464), so both methods refuse such pages on either mount
// path, naming the size. At 64 KiB the page's last bytes still round-trip.
TEST(BoundaryContractTest, SixteenBitOffsetMethodsRefusePagesOver64KiB) {
  for (const char* name : {"PDL(256B)", "IPL(64KB)"}) {
    SCOPED_TRACE(name);
    auto spec = methods::ParseMethodSpec(name);
    ASSERT_TRUE(spec.ok());
    FlashDevice wide(WidePages(131072));
    auto refused = methods::CreateStore(&wide, *spec);
    const Status format = refused->Format(4, nullptr, nullptr);
    EXPECT_TRUE(format.IsInvalidArgument()) << format.ToString();
    EXPECT_NE(format.message().find("131072"), std::string::npos)
        << format.ToString();
    EXPECT_TRUE(refused->Recover().IsInvalidArgument());
    EXPECT_EQ(wide.stats().total.total_ops(), 0u);

    FlashDevice max(WidePages(65536));
    auto store = methods::CreateStore(&max, *spec);
    ASSERT_TRUE(store->Format(4, nullptr, nullptr).ok());
    ByteBuffer page(65536, 0);
    UpdateLog log;
    log.offset = 65000;
    for (uint32_t off = log.offset; off < page.size(); ++off) {
      page[off] = static_cast<uint8_t>(off % 251 + 1);
    }
    log.data.assign(page.begin() + log.offset, page.end());
    ASSERT_TRUE(store->OnUpdate(1, page, log).ok());
    ASSERT_TRUE(store->WriteBack(1, page).ok());
    ASSERT_TRUE(store->Flush().ok());
    ByteBuffer back(page.size());
    ASSERT_TRUE(store->ReadPage(1, back).ok());
    EXPECT_TRUE(BytesEqual(back, page));
  }
}

}  // namespace
}  // namespace flashdb
