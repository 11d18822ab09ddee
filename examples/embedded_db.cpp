// Embedded-database scenario: the paper's motivating use case -- a mobile /
// embedded device keeping a small relational database on raw NAND flash.
//
// Builds the full storage stack (flash emulator -> page-update method ->
// buffer pool -> heap file + B+-tree), loads a "contacts" table, runs a mix
// of point lookups and record updates, and compares the flash I/O time of
// PDL(256B) against the conventional page-based OPU driver -- without
// changing a line of the database code (PDL is DBMS-independent: only the
// flash driver underneath differs).
//
//   $ ./build/examples/embedded_db

#include <cstdio>
#include <string>

#include "common/coding.h"
#include "common/random.h"
#include "methods/method_factory.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

using namespace flashdb;

namespace {

constexpr uint32_t kContacts = 3000;
constexpr uint32_t kHeapPages = 600;
constexpr uint32_t kIndexPages = 120;
constexpr uint32_t kOps = 8000;

// A contact record: id (u64) | call_count (u32) | name/number filler.
ByteBuffer MakeContact(uint64_t id, Random* rng) {
  ByteBuffer rec(160, 0);
  EncodeFixed64(rec.data(), id);
  EncodeFixed32(rec.data() + 8, 0);  // call_count
  rng->Fill(MutBytes(rec.data() + 12, rec.size() - 12));
  return rec;
}

/// Runs the scenario on one page-update method; returns flash-I/O ms, or
/// the first error any layer of the stack reported.
Result<double> RunScenario(const std::string& method) {
  FLASHDB_ASSIGN_OR_RETURN(methods::MethodSpec spec,
                           methods::ParseMethodSpec(method));
  flash::FlashDevice dev(flash::FlashConfig::Small(64));  // 8 MB chip
  auto store = methods::CreateStore(&dev, spec);
  FLASHDB_RETURN_IF_ERROR(
      store->Format(kHeapPages + kIndexPages, nullptr, nullptr));
  storage::BufferPool pool(store.get(), 32);  // tiny device RAM budget

  storage::HeapFile contacts(&pool, 0, kHeapPages);
  storage::BTree by_id(&pool, kHeapPages, kIndexPages);
  FLASHDB_RETURN_IF_ERROR(contacts.Create());
  FLASHDB_RETURN_IF_ERROR(by_id.Create());

  // Load the address book.
  Random rng(7);
  for (uint64_t id = 1; id <= kContacts; ++id) {
    FLASHDB_ASSIGN_OR_RETURN(storage::Rid rid,
                             contacts.Insert(MakeContact(id, &rng)));
    FLASHDB_RETURN_IF_ERROR(by_id.Insert(id, rid.Encode()));
  }
  FLASHDB_RETURN_IF_ERROR(pool.FlushAll());
  dev.ResetAccounting();

  // Usage: 70% lookups, 30% "calls" that bump the contact's call counter.
  ByteBuffer rec;
  for (uint32_t op = 0; op < kOps; ++op) {
    const uint64_t id = 1 + rng.Skewed(kContacts, 0.6);  // hot contacts
    FLASHDB_ASSIGN_OR_RETURN(uint64_t enc, by_id.Get(id));
    const storage::Rid rid = storage::Rid::Decode(enc);
    FLASHDB_RETURN_IF_ERROR(contacts.Get(rid, &rec));
    if (!rng.Bernoulli(0.7)) {
      EncodeFixed32(rec.data() + 8, DecodeFixed32(rec.data() + 8) + 1);
      FLASHDB_RETURN_IF_ERROR(contacts.Update(rid, rec));
    }
  }
  FLASHDB_RETURN_IF_ERROR(pool.FlushAll());
  const double ms = static_cast<double>(dev.clock().now_us()) / 1000.0;
  const auto& t = dev.stats().total;
  std::printf(
      "  %-10s flash I/O %8.1f ms   (%llu reads, %llu writes, %llu erases, "
      "buffer hit rate %.0f%%)\n",
      method.c_str(), ms, static_cast<unsigned long long>(t.reads),
      static_cast<unsigned long long>(t.writes),
      static_cast<unsigned long long>(t.erases),
      100.0 * pool.stats().hit_rate());
  return ms;
}

}  // namespace

int main() {
  std::printf("Embedded contacts database: %u contacts, %u operations, "
              "32-frame (64 KB) buffer pool\n\n",
              kContacts, kOps);
  const Result<double> opu = RunScenario("OPU");
  const Result<double> pdl = opu.ok() ? RunScenario("PDL(256B)") : opu;
  if (!pdl.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 pdl.status().ToString().c_str());
    return 1;
  }
  std::printf("\nPDL(256B) speedup over the page-based driver: %.2fx\n",
              *opu / *pdl);
  std::printf("Same DBMS code, different flash driver -- the paper's "
              "DBMS-independence claim in action.\n");
  return 0;
}
