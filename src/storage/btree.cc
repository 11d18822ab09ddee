#include "storage/btree.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/coding.h"
#include "storage/slotted_page.h"  // for kNoNextPage

namespace flashdb::storage {

// Node layout:
//   0..1   magic 0x4254 ("BT")
//   2      is_leaf (1/0)
//   3      pad
//   4..5   num_keys
//   6..7   pad
//   8..11  next (leaf sibling pid, or leftmost child pid for internal nodes)
//   12..   leaf:     num_keys * { key u64, value u64 }   (16 bytes each)
//          internal: num_keys * { key u64, child u32 }   (12 bytes each)
// Internal-node semantics: entry i separates children; keys < key[0] descend
// into `next` (leftmost child); keys >= key[i] and < key[i+1] descend into
// child[i].
namespace {
constexpr uint16_t kNodeMagic = 0x4254;
constexpr uint32_t kHeaderSize = 12;
constexpr uint32_t kLeafEntry = 16;
constexpr uint32_t kInternalEntry = 12;

constexpr uint32_t kMetaMagic = 0x42545231;  // "BTR1"

bool IsLeaf(ConstBytes n) { return n[2] != 0; }
uint16_t NumKeys(ConstBytes n) { return DecodeFixed16(n.data() + 4); }
uint32_t NextPtr(ConstBytes n) { return DecodeFixed32(n.data() + 8); }

void SetNumKeys(MutBytes n, uint16_t v) { EncodeFixed16(n.data() + 4, v); }
void SetNextPtr(MutBytes n, uint32_t v) { EncodeFixed32(n.data() + 8, v); }

void InitNode(MutBytes n, bool leaf) {
  std::memset(n.data(), 0, kHeaderSize);
  EncodeFixed16(n.data(), kNodeMagic);
  n[2] = leaf ? 1 : 0;
  SetNumKeys(n, 0);
  SetNextPtr(n, kNoNextPage);
}

uint64_t LeafKey(ConstBytes n, uint32_t i) {
  return DecodeFixed64(n.data() + kHeaderSize + i * kLeafEntry);
}
uint64_t LeafVal(ConstBytes n, uint32_t i) {
  return DecodeFixed64(n.data() + kHeaderSize + i * kLeafEntry + 8);
}
void SetLeafEntry(MutBytes n, uint32_t i, uint64_t k, uint64_t v) {
  EncodeFixed64(n.data() + kHeaderSize + i * kLeafEntry, k);
  EncodeFixed64(n.data() + kHeaderSize + i * kLeafEntry + 8, v);
}

uint64_t IntKey(ConstBytes n, uint32_t i) {
  return DecodeFixed64(n.data() + kHeaderSize + i * kInternalEntry);
}
uint32_t IntChild(ConstBytes n, uint32_t i) {
  return DecodeFixed32(n.data() + kHeaderSize + i * kInternalEntry + 8);
}
void SetIntEntry(MutBytes n, uint32_t i, uint64_t k, uint32_t c) {
  EncodeFixed64(n.data() + kHeaderSize + i * kInternalEntry, k);
  EncodeFixed32(n.data() + kHeaderSize + i * kInternalEntry + 8, c);
}

/// First index whose key is >= `key` (binary search over leaf entries).
uint32_t LeafLowerBound(ConstBytes n, uint64_t key) {
  uint32_t lo = 0, hi = NumKeys(n);
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (LeafKey(n, mid) < key) lo = mid + 1;
    else hi = mid;
  }
  return lo;
}

/// Child pid to descend into for `key`.
uint32_t DescendChild(ConstBytes n, uint64_t key) {
  uint32_t lo = 0, hi = NumKeys(n);
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (IntKey(n, mid) <= key) lo = mid + 1;
    else hi = mid;
  }
  // lo = number of separators <= key; 0 means leftmost child.
  return lo == 0 ? NextPtr(n) : IntChild(n, lo - 1);
}
}  // namespace

BTree::BTree(BufferPool* pool, PageId first_page, uint32_t num_pages)
    : pool_(pool),
      first_page_(first_page),
      num_pages_(num_pages),
      data_size_(pool->store()->device()->geometry().data_size) {
  leaf_capacity_ = (data_size_ - kHeaderSize) / kLeafEntry;
  internal_capacity_ = (data_size_ - kHeaderSize) / kInternalEntry;
}

Status BTree::WriteMeta() {
  return pool_->WithPage(first_page_, [&](MutBytes page) {
    EncodeFixed32(page.data(), kMetaMagic);
    EncodeFixed32(page.data() + 4, root_);
    EncodeFixed32(page.data() + 8, next_alloc_);
    return Status::OK();
  });
}

Status BTree::Create() {
  root_ = first_page_ + 1;
  next_alloc_ = 2;
  FLASHDB_RETURN_IF_ERROR(pool_->WithPage(root_, [&](MutBytes page) {
    InitNode(page, /*leaf=*/true);
    return Status::OK();
  }));
  return WriteMeta();
}

Status BTree::Open() {
  return pool_->ReadPage(first_page_, [&](ConstBytes page) {
    if (DecodeFixed32(page.data()) != kMetaMagic) {
      return Status::Corruption("btree meta page missing");
    }
    root_ = DecodeFixed32(page.data() + 4);
    next_alloc_ = DecodeFixed32(page.data() + 8);
    return Status::OK();
  });
}

Result<PageId> BTree::AllocNode() {
  if (next_alloc_ >= num_pages_) {
    return Status::NoSpace("btree page range exhausted");
  }
  const PageId pid = first_page_ + next_alloc_;
  ++next_alloc_;
  FLASHDB_RETURN_IF_ERROR(WriteMeta());
  return pid;
}

Result<PageId> BTree::FindLeaf(uint64_t key) const {
  PageId cur = root_;
  while (true) {
    bool leaf = false;
    PageId next = 0;
    FLASHDB_RETURN_IF_ERROR(pool_->ReadPage(cur, [&](ConstBytes n) {
      if (DecodeFixed16(n.data()) != kNodeMagic) {
        return Status::Corruption("btree node magic mismatch at page " +
                                  std::to_string(cur));
      }
      leaf = IsLeaf(n);
      if (!leaf) next = DescendChild(n, key);
      return Status::OK();
    }));
    if (leaf) return cur;
    cur = next;
  }
}

Result<uint64_t> BTree::Get(uint64_t key) const {
  FLASHDB_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(key));
  uint64_t value = 0;
  bool found = false;
  FLASHDB_RETURN_IF_ERROR(pool_->ReadPage(leaf, [&](ConstBytes n) {
    const uint32_t i = LeafLowerBound(n, key);
    if (i < NumKeys(n) && LeafKey(n, i) == key) {
      value = LeafVal(n, i);
      found = true;
    }
    return Status::OK();
  }));
  if (!found) return Status::NotFound("key not in btree");
  return value;
}

Status BTree::InsertRec(PageId node, uint64_t key, uint64_t value,
                        SplitResult* out) {
  out->split = false;
  bool leaf = false;
  PageId child = 0;
  FLASHDB_RETURN_IF_ERROR(pool_->ReadPage(node, [&](ConstBytes n) {
    leaf = IsLeaf(n);
    if (!leaf) child = DescendChild(n, key);
    return Status::OK();
  }));

  if (leaf) {
    bool need_split = false;
    FLASHDB_RETURN_IF_ERROR(pool_->WithPage(node, [&](MutBytes n) {
      const uint32_t count = NumKeys(n);
      const uint32_t i = LeafLowerBound(n, key);
      if (i < count && LeafKey(n, i) == key) {
        SetLeafEntry(n, i, key, value);  // overwrite
        return Status::OK();
      }
      if (count >= leaf_capacity_) {
        need_split = true;
        return Status::OK();
      }
      std::memmove(n.data() + kHeaderSize + (i + 1) * kLeafEntry,
                   n.data() + kHeaderSize + i * kLeafEntry,
                   (count - i) * kLeafEntry);
      SetLeafEntry(n, i, key, value);
      SetNumKeys(n, static_cast<uint16_t>(count + 1));
      return Status::OK();
    }));
    if (!need_split) return Status::OK();

    // Split the leaf, then retry the insert into the proper half.
    FLASHDB_ASSIGN_OR_RETURN(PageId right, AllocNode());
    uint64_t sep = 0;
    FLASHDB_RETURN_IF_ERROR(pool_->WithPage(node, [&](MutBytes n) {
      const uint32_t count = NumKeys(n);
      const uint32_t keep = count / 2;
      Status st = pool_->WithPage(right, [&](MutBytes rn) {
        InitNode(rn, /*leaf=*/true);
        std::memcpy(rn.data() + kHeaderSize,
                    n.data() + kHeaderSize + keep * kLeafEntry,
                    (count - keep) * kLeafEntry);
        SetNumKeys(rn, static_cast<uint16_t>(count - keep));
        SetNextPtr(rn, NextPtr(n));
        sep = LeafKey(rn, 0);
        return Status::OK();
      });
      FLASHDB_RETURN_IF_ERROR(st);
      SetNumKeys(n, static_cast<uint16_t>(keep));
      SetNextPtr(n, right);
      return Status::OK();
    }));
    // Insert into the half that now hosts the key (both have room).
    SplitResult ignore;
    FLASHDB_RETURN_IF_ERROR(
        InsertRec(key < sep ? node : right, key, value, &ignore));
    out->split = true;
    out->sep_key = sep;
    out->right = right;
    return Status::OK();
  }

  // Internal node: insert into the child; absorb its split if any.
  SplitResult child_split;
  FLASHDB_RETURN_IF_ERROR(InsertRec(child, key, value, &child_split));
  if (!child_split.split) return Status::OK();

  bool need_split = false;
  FLASHDB_RETURN_IF_ERROR(pool_->WithPage(node, [&](MutBytes n) {
    const uint32_t count = NumKeys(n);
    if (count >= internal_capacity_) {
      need_split = true;
      return Status::OK();
    }
    // Position of the new separator.
    uint32_t i = 0;
    while (i < count && IntKey(n, i) < child_split.sep_key) ++i;
    std::memmove(n.data() + kHeaderSize + (i + 1) * kInternalEntry,
                 n.data() + kHeaderSize + i * kInternalEntry,
                 (count - i) * kInternalEntry);
    SetIntEntry(n, i, child_split.sep_key, child_split.right);
    SetNumKeys(n, static_cast<uint16_t>(count + 1));
    return Status::OK();
  }));
  if (!need_split) return Status::OK();

  // Split this internal node: middle separator moves up.
  FLASHDB_ASSIGN_OR_RETURN(PageId right, AllocNode());
  uint64_t up_key = 0;
  FLASHDB_RETURN_IF_ERROR(pool_->WithPage(node, [&](MutBytes n) {
    const uint32_t count = NumKeys(n);
    const uint32_t mid = count / 2;
    up_key = IntKey(n, mid);
    const uint32_t mid_child = IntChild(n, mid);
    Status st = pool_->WithPage(right, [&](MutBytes rn) {
      InitNode(rn, /*leaf=*/false);
      SetNextPtr(rn, mid_child);  // leftmost child of the right node
      const uint32_t moved = count - mid - 1;
      std::memcpy(rn.data() + kHeaderSize,
                  n.data() + kHeaderSize + (mid + 1) * kInternalEntry,
                  moved * kInternalEntry);
      SetNumKeys(rn, static_cast<uint16_t>(moved));
      return Status::OK();
    });
    FLASHDB_RETURN_IF_ERROR(st);
    SetNumKeys(n, static_cast<uint16_t>(mid));
    return Status::OK();
  }));
  // Route the pending separator into the proper half.
  FLASHDB_RETURN_IF_ERROR(pool_->WithPage(
      child_split.sep_key < up_key ? node : right, [&](MutBytes n) {
        const uint32_t count = NumKeys(n);
        uint32_t i = 0;
        while (i < count && IntKey(n, i) < child_split.sep_key) ++i;
        std::memmove(n.data() + kHeaderSize + (i + 1) * kInternalEntry,
                     n.data() + kHeaderSize + i * kInternalEntry,
                     (count - i) * kInternalEntry);
        SetIntEntry(n, i, child_split.sep_key, child_split.right);
        SetNumKeys(n, static_cast<uint16_t>(count + 1));
        return Status::OK();
      }));
  out->split = true;
  out->sep_key = up_key;
  out->right = right;
  return Status::OK();
}

Status BTree::Insert(uint64_t key, uint64_t value) {
  SplitResult split;
  FLASHDB_RETURN_IF_ERROR(InsertRec(root_, key, value, &split));
  if (!split.split) return Status::OK();
  // Grow the tree: new root with two children.
  FLASHDB_ASSIGN_OR_RETURN(PageId new_root, AllocNode());
  const PageId old_root = root_;
  FLASHDB_RETURN_IF_ERROR(pool_->WithPage(new_root, [&](MutBytes n) {
    InitNode(n, /*leaf=*/false);
    SetNextPtr(n, old_root);
    SetIntEntry(n, 0, split.sep_key, split.right);
    SetNumKeys(n, 1);
    return Status::OK();
  }));
  root_ = new_root;
  return WriteMeta();
}

Status BTree::Delete(uint64_t key) {
  FLASHDB_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(key));
  bool found = false;
  FLASHDB_RETURN_IF_ERROR(pool_->WithPage(leaf, [&](MutBytes n) {
    const uint32_t count = NumKeys(n);
    const uint32_t i = LeafLowerBound(n, key);
    if (i >= count || LeafKey(n, i) != key) return Status::OK();
    std::memmove(n.data() + kHeaderSize + i * kLeafEntry,
                 n.data() + kHeaderSize + (i + 1) * kLeafEntry,
                 (count - i - 1) * kLeafEntry);
    SetNumKeys(n, static_cast<uint16_t>(count - 1));
    found = true;
    return Status::OK();
  }));
  if (!found) return Status::NotFound("key not in btree");
  return Status::OK();
}

Status BTree::Scan(uint64_t lo, uint64_t hi,
                   FunctionRef<Status(uint64_t, uint64_t)> fn) const {
  FLASHDB_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(lo));
  PageId cur = leaf;
  bool done = false;
  while (!done && cur != kNoNextPage) {
    PageId next = kNoNextPage;
    FLASHDB_RETURN_IF_ERROR(pool_->ReadPage(cur, [&](ConstBytes n) {
      const uint32_t count = NumKeys(n);
      for (uint32_t i = LeafLowerBound(n, lo); i < count; ++i) {
        const uint64_t k = LeafKey(n, i);
        if (k > hi) {
          done = true;
          return Status::OK();
        }
        Status st = fn(k, LeafVal(n, i));
        if (st.IsNotFound()) {
          done = true;
          return Status::OK();
        }
        FLASHDB_RETURN_IF_ERROR(st);
      }
      next = NextPtr(n);
      return Status::OK();
    }));
    cur = next;
  }
  return Status::OK();
}

Result<uint64_t> BTree::CountKeys() const {
  uint64_t n = 0;
  FLASHDB_RETURN_IF_ERROR(Scan(0, UINT64_MAX, [&](uint64_t, uint64_t) {
    ++n;
    return Status::OK();
  }));
  return n;
}

Result<uint32_t> BTree::Height() const {
  uint32_t h = 1;
  PageId cur = root_;
  while (true) {
    bool leaf = false;
    PageId next = 0;
    FLASHDB_RETURN_IF_ERROR(pool_->ReadPage(cur, [&](ConstBytes n) {
      leaf = IsLeaf(n);
      if (!leaf) next = NextPtr(n);
      return Status::OK();
    }));
    if (leaf) return h;
    ++h;
    cur = next;
  }
}

}  // namespace flashdb::storage
