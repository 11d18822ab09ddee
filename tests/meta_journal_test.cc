// Unit tests for ftl::MetaJournal: record framing and reassembly, torn-tail
// discard, epoch-chain validation, ping-pong space reclamation, and append
// resumption after recovery.

#include "ftl/meta_journal.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/random.h"
#include "flash/flash_device.h"

namespace flashdb::ftl {
namespace {

using flash::CountdownFaultInjector;
using flash::FlashConfig;
using flash::FlashDevice;
using flash::PowerLossError;

FlashConfig MetaConfig(uint32_t num_blocks = 16, uint32_t meta_blocks = 4) {
  return FlashConfig::Small(num_blocks).WithMetaBlocks(meta_blocks);
}

MetaJournal::Record Snapshot(uint64_t epoch, uint32_t num_shards = 2,
                             uint32_t buckets_per_shard = 2,
                             uint32_t num_pages = 32) {
  MetaJournal::Record rec;
  rec.type = MetaJournal::Record::Type::kSnapshot;
  rec.epoch = epoch;
  rec.num_pages = num_pages;
  rec.num_shards = num_shards;
  rec.buckets_per_shard = buckets_per_shard;
  rec.swaps_committed = epoch;
  const uint32_t buckets = num_shards * buckets_per_shard;
  rec.shard_of_bucket.resize(buckets);
  rec.slot_of_bucket.resize(buckets);
  for (uint32_t b = 0; b < buckets; ++b) {
    rec.shard_of_bucket[b] = b % num_shards;
    rec.slot_of_bucket[b] = b / num_shards;
  }
  rec.erase_baseline.assign(num_shards, 7 * epoch);
  rec.bad_blocks.assign(num_shards, {});
  return rec;
}

MetaJournal::Record Complete(uint64_t epoch) {
  MetaJournal::Record rec;
  rec.type = MetaJournal::Record::Type::kComplete;
  rec.epoch = epoch;
  return rec;
}

/// A snapshot whose redo payload (four random full-page images for shard 0)
/// spans several journal frames.
MetaJournal::Record MultiFrameSnapshot(uint64_t epoch, uint32_t data_size) {
  MetaJournal::Record rec = Snapshot(epoch);
  rec.redo.resize(1);
  Random r(5);
  for (uint32_t k = 0; k < 4; ++k) {
    rec.redo[0].inner_pids.push_back(k);
    ByteBuffer img(data_size);
    r.Fill(img);
    rec.redo[0].images.push_back(std::move(img));
  }
  return rec;
}

TEST(MetaJournalTest, FormatAppendRecoverRoundTrip) {
  FlashDevice dev(MetaConfig());
  MetaJournal journal(&dev);
  ASSERT_TRUE(journal.Format().ok());
  ASSERT_TRUE(journal.Append(Snapshot(0)).ok());
  EXPECT_EQ(journal.next_epoch(), 1u);

  MetaJournal fresh(&dev);
  auto rec = fresh.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->snapshot.epoch, 0u);
  EXPECT_EQ(rec->snapshot.num_shards, 2u);
  EXPECT_EQ(rec->snapshot.shard_of_bucket.size(), 4u);
  // A format snapshot is inherently complete (it has no redo payload), but
  // completeness is only reported for epochs with an explicit kComplete
  // record; epoch 0 snapshots never carry redo, so callers ignore it.
  EXPECT_TRUE(rec->snapshot.redo.empty());
  EXPECT_EQ(fresh.next_epoch(), 1u);
}

TEST(MetaJournalTest, MultiFrameRecordWithRedoPayloadRoundTrips) {
  FlashDevice dev(MetaConfig());
  const uint32_t data_size = dev.geometry().data_size;
  MetaJournal journal(&dev);
  ASSERT_TRUE(journal.Format().ok());
  ASSERT_TRUE(journal.Append(Snapshot(0)).ok());

  MetaJournal::Record rec = Snapshot(1);
  rec.redo.resize(2);
  Random r(99);
  for (int set = 0; set < 2; ++set) {
    rec.redo[set].shard = set;
    for (uint32_t k = 0; k < 3; ++k) {
      rec.redo[set].inner_pids.push_back(5 * k + set);
      ByteBuffer img(data_size);
      r.Fill(img);
      rec.redo[set].images.push_back(std::move(img));
    }
  }
  // 6 full-page images: necessarily a multi-frame record.
  EXPECT_GT(journal.frames_needed(rec), 6u);
  ASSERT_TRUE(journal.Append(rec).ok());
  ASSERT_TRUE(journal.Append(Complete(1)).ok());

  MetaJournal fresh(&dev);
  auto got = fresh.Recover();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->snapshot.epoch, 1u);
  EXPECT_TRUE(got->complete);
  ASSERT_EQ(got->snapshot.redo.size(), 2u);
  for (int set = 0; set < 2; ++set) {
    EXPECT_EQ(got->snapshot.redo[set].inner_pids, rec.redo[set].inner_pids);
    ASSERT_EQ(got->snapshot.redo[set].images.size(), 3u);
    for (uint32_t k = 0; k < 3; ++k) {
      EXPECT_TRUE(BytesEqual(got->snapshot.redo[set].images[k],
                             rec.redo[set].images[k]))
          << "set " << set << " image " << k;
    }
  }
}

TEST(MetaJournalTest, TornTailRecordIsDiscarded) {
  FlashDevice dev(MetaConfig());
  const uint32_t data_size = dev.geometry().data_size;
  MetaJournal journal(&dev);
  ASSERT_TRUE(journal.Format().ok());
  ASSERT_TRUE(journal.Append(Snapshot(0)).ok());
  ASSERT_TRUE(journal.Append(Snapshot(1)).ok());
  ASSERT_TRUE(journal.Append(Complete(1)).ok());

  // Tear the next snapshot: cut power after the first frame of a
  // multi-frame record has been programmed.
  const MetaJournal::Record big = MultiFrameSnapshot(2, data_size);
  ASSERT_GT(journal.frames_needed(big), 2u);
  CountdownFaultInjector fi(1, /*cut_after_apply=*/true);
  dev.set_fault_injector(&fi);
  EXPECT_THROW((void)journal.Append(big), PowerLossError);
  dev.set_fault_injector(nullptr);

  MetaJournal fresh(&dev);
  auto rec = fresh.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->snapshot.epoch, 1u) << "torn epoch-2 record must not win";
  EXPECT_TRUE(rec->complete);
  // A power cut's footprint, not corruption.
  EXPECT_EQ(fresh.scan_stats().records_torn, 1u);
  EXPECT_EQ(fresh.scan_stats().records_discarded, 0u);
  EXPECT_EQ(fresh.scan_stats().frames_bad_crc, 0u);
  // The journal resumes past the torn frames: appending epoch 2 again works.
  EXPECT_EQ(fresh.next_epoch(), 2u);
  ASSERT_TRUE(fresh.Append(Snapshot(2)).ok());
  MetaJournal check(&dev);
  auto rec2 = check.Recover();
  ASSERT_TRUE(rec2.ok()) << rec2.status().ToString();
  EXPECT_EQ(rec2->snapshot.epoch, 2u);
  EXPECT_FALSE(rec2->complete);
}

TEST(MetaJournalTest, RottenFrameIsCountedAndOlderSnapshotRecovers) {
  FlashDevice dev(MetaConfig());
  const uint32_t data_size = dev.geometry().data_size;
  MetaJournal journal(&dev);
  ASSERT_TRUE(journal.Format().ok());
  ASSERT_TRUE(journal.Append(Snapshot(0)).ok());
  ASSERT_EQ(journal.frames_needed(Snapshot(0)), 1u);
  const MetaJournal::Record later = MultiFrameSnapshot(1, data_size);
  ASSERT_GT(journal.frames_needed(later), 2u);
  ASSERT_TRUE(journal.Append(later).ok());

  // Clear one bit in the payload of the committed later record's first
  // frame: the page after the one-frame format snapshot.
  const flash::PhysAddr frame = dev.geometry().first_meta_page() + 1;
  const ConstBytes cells = dev.RawData(frame);
  size_t i = 32;  // past the frame header
  while (cells[i] == 0) ++i;
  ByteBuffer mask(data_size, 0xFF);
  mask[i] = static_cast<uint8_t>(~(1u << std::countr_zero(cells[i])));
  ASSERT_TRUE(dev.PartialProgramPage(frame, mask).ok());

  MetaJournal fresh(&dev);
  auto rec = fresh.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->snapshot.epoch, 0u);
  EXPECT_EQ(fresh.scan_stats().frames_bad_crc, 1u);
  EXPECT_EQ(fresh.scan_stats().records_discarded, 1u);
  EXPECT_EQ(fresh.scan_stats().records_torn, 0u);
}

TEST(MetaJournalTest, PingPongReclaimsSpaceAndKeepsNewestRecord) {
  FlashDevice dev(MetaConfig(16, 2));  // one block per half: 64 pages
  MetaJournal journal(&dev);
  ASSERT_TRUE(journal.Format().ok());
  // Hundreds of appends across many half switches; every epoch must stay
  // recoverable right after its append.
  for (uint64_t e = 0; e < 300; ++e) {
    ASSERT_TRUE(journal.Append(Snapshot(e)).ok()) << e;
    ASSERT_TRUE(journal.Append(Complete(e)).ok()) << e;
  }
  MetaJournal fresh(&dev);
  auto rec = fresh.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->snapshot.epoch, 299u);
  EXPECT_TRUE(rec->complete);
  EXPECT_EQ(fresh.next_epoch(), 300u);
}

// Regression: a ping-pong switch triggered by a *non-snapshot* record used
// to leave the fresh half snapshot-less; the next switch could then erase
// the only valid snapshot, and a torn append at that point lost the routing
// table forever. The journal now re-checkpoints the newest snapshot into
// every fresh half (and recovery self-heals a snapshot-less active half),
// so the crash below must still recover.
TEST(MetaJournalTest, SwitchOnCompleteNeverStrandsTheSnapshot) {
  FlashDevice dev(MetaConfig(16, 2));  // one block per half: 64 pages
  const uint32_t data_size = dev.geometry().data_size;
  MetaJournal journal(&dev);
  ASSERT_TRUE(journal.Format().ok());
  ASSERT_TRUE(journal.Append(Snapshot(0)).ok());

  // Build a payload snapshot that exactly fills the active half, so the
  // following kComplete append must switch halves.
  Random r(3);
  auto payload_snapshot = [&](uint64_t epoch, uint32_t images) {
    MetaJournal::Record rec = Snapshot(epoch);
    rec.redo.resize(1);
    rec.redo[0].shard = 0;
    for (uint32_t k = 0; k < images; ++k) {
      rec.redo[0].inner_pids.push_back(k);
      ByteBuffer img(data_size);
      r.Fill(img);
      rec.redo[0].images.push_back(std::move(img));
    }
    return rec;
  };
  MetaJournal::Record big = payload_snapshot(1, 1);
  while (journal.frames_needed(big) <
         journal.half_pages() - journal.frames_needed(Snapshot(0))) {
    big = payload_snapshot(1, static_cast<uint32_t>(
                                  big.redo[0].images.size() + 1));
  }
  ASSERT_TRUE(journal.Append(big).ok());
  // This complete does not fit: it switches halves, and the fresh half must
  // receive a re-checkpoint of snapshot 1 before the complete.
  ASSERT_TRUE(journal.Append(Complete(1)).ok());

  {
    MetaJournal check(&dev);
    auto rec = check.Recover();
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->snapshot.epoch, 1u);
    EXPECT_TRUE(rec->complete);
    // The redo payload survives via the payload-carrying sibling.
    ASSERT_EQ(rec->snapshot.redo.size(), 1u);
    EXPECT_EQ(rec->snapshot.redo[0].images.size(),
              big.redo[0].images.size());
  }

  // The lethal pre-fix sequence: fill the fresh half with (legal) repeated
  // completion records, then append a big snapshot that must switch again --
  // erasing the half that held the payload copy of snapshot 1 -- and tear
  // it mid-append. The re-checkpoint in the surviving half must carry
  // recovery.
  for (int i = 0; i < 35; ++i) {
    ASSERT_TRUE(journal.Append(Complete(1)).ok()) << i;
  }
  MetaJournal::Record next = payload_snapshot(2, 30);
  next.swaps_committed = 2;
  CountdownFaultInjector fi(2, /*cut_after_apply=*/true);
  dev.set_fault_injector(&fi);
  EXPECT_THROW((void)journal.Append(next), PowerLossError);
  dev.set_fault_injector(nullptr);

  MetaJournal fresh(&dev);
  auto rec = fresh.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->snapshot.epoch, 1u);
  EXPECT_TRUE(rec->complete);
  // And the journal keeps working after the self-heal.
  EXPECT_EQ(fresh.next_epoch(), 2u);
  ASSERT_TRUE(fresh.Append(Snapshot(2)).ok());
  ASSERT_TRUE(fresh.Append(Complete(2)).ok());
}

TEST(MetaJournalTest, EpochChainViolationIsRejected) {
  FlashDevice dev(MetaConfig());
  MetaJournal journal(&dev);
  ASSERT_TRUE(journal.Format().ok());
  ASSERT_TRUE(journal.Append(Snapshot(0)).ok());
  // Appending an out-of-chain epoch is refused at the source.
  EXPECT_FALSE(journal.Append(Snapshot(5)).ok());
}

TEST(MetaJournalTest, EmptyRegionFailsRecovery) {
  FlashDevice dev(MetaConfig());
  MetaJournal journal(&dev);
  auto rec = journal.Recover();
  EXPECT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsCorruption());
}

TEST(MetaJournalTest, OversizedRecordIsRefusedUpFront) {
  FlashDevice dev(MetaConfig(16, 2));  // 64 pages per half
  const uint32_t data_size = dev.geometry().data_size;
  MetaJournal journal(&dev);
  ASSERT_TRUE(journal.Format().ok());
  MetaJournal::Record rec = Snapshot(0);
  rec.redo.resize(1);
  rec.redo[0].shard = 0;
  for (uint32_t k = 0; k < 70; ++k) {  // > 64 pages of payload
    rec.redo[0].inner_pids.push_back(k);
    rec.redo[0].images.push_back(ByteBuffer(data_size, 0xAB));
  }
  const Status st = journal.Append(rec);
  EXPECT_TRUE(st.IsNoSpace()) << st.ToString();
}

}  // namespace
}  // namespace flashdb::ftl
