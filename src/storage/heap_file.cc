#include "storage/heap_file.h"

#include <string>

namespace flashdb::storage {

HeapFile::HeapFile(BufferPool* pool, PageId first_page, uint32_t num_pages)
    : pool_(pool), first_page_(first_page), num_pages_(num_pages) {
  free_space_.assign(num_pages_, 0);
}

Status HeapFile::Create() {
  for (uint32_t i = 0; i < num_pages_; ++i) {
    FLASHDB_RETURN_IF_ERROR(
        pool_->WithPage(first_page_ + i, [&](MutBytes page) {
          SlottedPage sp(page);
          sp.Init();
          free_space_[i] = sp.FreeSpace();
          return Status::OK();
        }));
  }
  return Status::OK();
}

Status HeapFile::Open() {
  for (uint32_t i = 0; i < num_pages_; ++i) {
    FLASHDB_RETURN_IF_ERROR(
        pool_->ReadPage(first_page_ + i, [&](ConstBytes page) {
          // SlottedPage only mutates through explicit calls; the const_cast
          // is confined to read-only accessors here.
          SlottedPage sp(MutBytes(const_cast<uint8_t*>(page.data()),
                                  page.size()));
          if (!sp.IsFormatted()) {
            return Status::Corruption("heap page not formatted: " +
                                      std::to_string(first_page_ + i));
          }
          free_space_[i] = sp.FreeSpace();
          return Status::OK();
        }));
  }
  return Status::OK();
}

Result<Rid> HeapFile::Insert(ConstBytes record) {
  for (uint32_t probe = 0; probe < num_pages_; ++probe) {
    const uint32_t i = (insert_cursor_ + probe) % num_pages_;
    if (free_space_[i] < record.size() + 4) continue;
    Rid rid;
    bool inserted = false;
    FLASHDB_RETURN_IF_ERROR(
        pool_->WithPage(first_page_ + i, [&](MutBytes page) {
          SlottedPage sp(page);
          Result<SlotId> r = sp.Insert(record);
          free_space_[i] = sp.FreeSpace();
          if (!r.ok()) {
            if (r.status().IsNoSpace()) return Status::OK();  // try next page
            return r.status();
          }
          rid = Rid{first_page_ + i, r.value()};
          inserted = true;
          return Status::OK();
        }));
    if (inserted) {
      insert_cursor_ = i;
      return rid;
    }
  }
  return Status::NoSpace("heap file is full");
}

Status HeapFile::Get(const Rid& rid, ByteBuffer* out) const {
  if (rid.page < first_page_ || rid.page >= first_page_ + num_pages_) {
    return Status::InvalidArgument("rid outside heap file");
  }
  return pool_->ReadPage(rid.page, [&](ConstBytes page) {
    SlottedPage sp(MutBytes(const_cast<uint8_t*>(page.data()), page.size()));
    FLASHDB_ASSIGN_OR_RETURN(ConstBytes rec, sp.Get(rid.slot));
    out->assign(rec.begin(), rec.end());
    return Status::OK();
  });
}

Status HeapFile::Update(const Rid& rid, ConstBytes record) {
  if (rid.page < first_page_ || rid.page >= first_page_ + num_pages_) {
    return Status::InvalidArgument("rid outside heap file");
  }
  const uint32_t i = rid.page - first_page_;
  return pool_->WithPage(rid.page, [&](MutBytes page) {
    SlottedPage sp(page);
    Status st = sp.Update(rid.slot, record);
    free_space_[i] = sp.FreeSpace();
    return st;
  });
}

Status HeapFile::Delete(const Rid& rid) {
  if (rid.page < first_page_ || rid.page >= first_page_ + num_pages_) {
    return Status::InvalidArgument("rid outside heap file");
  }
  const uint32_t i = rid.page - first_page_;
  return pool_->WithPage(rid.page, [&](MutBytes page) {
    SlottedPage sp(page);
    Status st = sp.Delete(rid.slot);
    free_space_[i] = sp.FreeSpace();
    return st;
  });
}

Status HeapFile::Scan(FunctionRef<Status(const Rid&, ConstBytes)> fn) const {
  for (uint32_t i = 0; i < num_pages_; ++i) {
    bool stop = false;
    FLASHDB_RETURN_IF_ERROR(
        pool_->ReadPage(first_page_ + i, [&](ConstBytes page) {
          SlottedPage sp(
              MutBytes(const_cast<uint8_t*>(page.data()), page.size()));
          for (SlotId s = 0; s < sp.num_slots(); ++s) {
            Result<ConstBytes> rec = sp.Get(s);
            if (!rec.ok()) continue;  // tombstone
            Status st = fn(Rid{first_page_ + i, s}, rec.value());
            if (st.IsNotFound()) {
              stop = true;
              return Status::OK();
            }
            FLASHDB_RETURN_IF_ERROR(st);
          }
          return Status::OK();
        }));
    if (stop) break;
  }
  return Status::OK();
}

Result<uint64_t> HeapFile::CountRecords() const {
  uint64_t n = 0;
  FLASHDB_RETURN_IF_ERROR(Scan([&](const Rid&, ConstBytes) {
    ++n;
    return Status::OK();
  }));
  return n;
}

}  // namespace flashdb::storage
