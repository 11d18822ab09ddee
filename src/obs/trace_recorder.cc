#include "obs/trace_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace flashdb::obs {

const char* TraceCatName(TraceCat cat) {
  switch (cat) {
    case TraceCat::kFlashRead: return "flash_read";
    case TraceCat::kFlashProgram: return "flash_program";
    case TraceCat::kFlashProgramSpare: return "flash_program_spare";
    case TraceCat::kFlashCacheProgram: return "flash_cache_program";
    case TraceCat::kFlashErase: return "flash_erase";
    case TraceCat::kFlashEraseMulti: return "flash_erase_multi";
    case TraceCat::kGcVictim: return "gc_victim";
    case TraceCat::kScrubRelocate: return "scrub_relocate";
    case TraceCat::kBucketMigrate: return "bucket_migrate";
    case TraceCat::kMetaAppend: return "meta_append";
    case TraceCat::kBufMiss: return "buf_miss";
    case TraceCat::kBufEvict: return "buf_evict";
    case TraceCat::kOpSpan: return "op_span";
    case TraceCat::kTxnSpan: return "txn_span";
    case TraceCat::kCreditWait: return "credit_wait";
  }
  return "unknown";
}

TraceShard::TraceShard(uint32_t shard, size_t capacity)
    : shard_(shard), ring_(capacity == 0 ? 1 : capacity) {}

std::vector<TraceEvent> TraceShard::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

TraceRecorder::TraceRecorder(uint32_t num_shards) : num_shards_(num_shards) {
  lanes_.reserve(num_shards + 1);
  for (uint32_t i = 0; i <= num_shards; ++i) {
    lanes_.emplace_back(i, kCapacityPerShard);
  }
}

uint64_t TraceRecorder::total_dropped() const {
  uint64_t n = 0;
  for (const TraceShard& lane : lanes_) n += lane.dropped();
  return n;
}

uint64_t TraceRecorder::total_emitted() const {
  uint64_t n = 0;
  for (const TraceShard& lane : lanes_) n += lane.emitted();
  return n;
}

std::vector<TraceEvent> TraceRecorder::Merged(bool canonical_only) const {
  std::vector<TraceEvent> all;
  for (const TraceShard& lane : lanes_) {
    for (const TraceEvent& e : lane.Snapshot()) {
      if (canonical_only && !TraceCatDeterministic(e.cat)) continue;
      all.push_back(e);
    }
  }
  // (shard, seq) is unique, so this comparator is a strict total order and
  // the merged stream is the same no matter how the lanes were interleaved
  // in wall time.
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
  return all;
}

std::string TraceRecorder::CanonicalBytes() const {
  std::string out;
  char buf[192];
  // Per-lane drop counts first: two runs must agree on what overflowed, not
  // just on the surviving suffix.
  for (uint32_t i = 0; i < num_shards_; ++i) {
    std::snprintf(buf, sizeof(buf),
                  "lane %u emitted=%" PRIu64 " dropped=%" PRIu64 "\n", i,
                  lanes_[i].emitted(), lanes_[i].dropped());
    out += buf;
  }
  for (const TraceEvent& e : Merged(/*canonical_only=*/true)) {
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 " +%" PRIu64 " s%u #%" PRIu64 " %s %" PRIu64
                  " %" PRIu64 " %" PRIu64 "\n",
                  e.ts_us, e.dur_us, e.shard, e.seq, TraceCatName(e.cat), e.a0,
                  e.a1, e.a2);
    out += buf;
  }
  return out;
}

namespace {

/// Track id inside a shard's process: flash spans get one row per plane
/// (occupancy reads directly off the timeline); everything else gets one row
/// per category above the plane rows.
int TrackOf(const TraceEvent& e) {
  switch (e.cat) {
    case TraceCat::kFlashRead:
    case TraceCat::kFlashProgram:
    case TraceCat::kFlashProgramSpare:
    case TraceCat::kFlashCacheProgram:
    case TraceCat::kFlashErase:
      return static_cast<int>(e.a0);  // plane index
    case TraceCat::kFlashEraseMulti:
      return 0;  // spans several planes; show on the first row
    default:
      return 64 + static_cast<int>(e.cat);
  }
}

std::string TrackName(const TraceEvent& e) {
  const int track = TrackOf(e);
  if (track < 64) return "plane" + std::to_string(track);
  return TraceCatName(e.cat);
}

}  // namespace

void TraceRecorder::WriteChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata so the tracks are labeled; emitted once per
  // (pid, tid) pair actually used.
  std::vector<TraceEvent> events = Merged(/*canonical_only=*/false);
  std::vector<std::pair<uint32_t, int>> named;
  for (const TraceEvent& e : events) {
    const std::pair<uint32_t, int> key(e.shard, TrackOf(e));
    if (std::find(named.begin(), named.end(), key) != named.end()) continue;
    named.push_back(key);
    os << (first ? "" : ",") << "\n{\"name\":\"thread_name\",\"ph\":\"M\","
       << "\"pid\":" << e.shard << ",\"tid\":" << key.second
       << ",\"args\":{\"name\":\"" << TrackName(e) << "\"}}";
    first = false;
  }
  for (const TraceEvent& e : events) {
    const char* ph = e.dur_us == 0 ? "i" : "X";
    os << (first ? "" : ",") << "\n{\"name\":\"" << TraceCatName(e.cat)
       << "\",\"cat\":\"" << (TraceCatDeterministic(e.cat) ? "vt" : "wall")
       << "\",\"ph\":\"" << ph << "\",\"ts\":" << e.ts_us;
    if (e.dur_us != 0) os << ",\"dur\":" << e.dur_us;
    if (e.dur_us == 0) os << ",\"s\":\"t\"";
    os << ",\"pid\":" << e.shard << ",\"tid\":" << TrackOf(e)
       << ",\"args\":{\"seq\":" << e.seq << ",\"a0\":" << e.a0
       << ",\"a1\":" << e.a1 << ",\"a2\":" << e.a2 << "}}";
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"shards\":" << num_shards_
     << ",\"emitted\":" << total_emitted()
     << ",\"dropped\":" << total_dropped() << "}}\n";
}

Status TraceRecorder::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write trace file: " + path);
  WriteChromeTrace(out);
  out.flush();
  if (!out) return Status::IOError("short write on trace file: " + path);
  return Status::OK();
}

}  // namespace flashdb::obs
