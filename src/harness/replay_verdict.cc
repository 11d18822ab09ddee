#include "harness/replay_verdict.h"

#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "common/bytes.h"
#include "flash/flash_device.h"
#include "ftl/sharded_store.h"
#include "obs/trace_recorder.h"

namespace flashdb::harness {

namespace {

std::string Vs(uint64_t a, uint64_t b) {
  return std::to_string(a) + " vs " + std::to_string(b);
}

std::optional<Divergence> CompareChip(uint32_t i, const flash::FlashDevice& a,
                                      const flash::FlashDevice& b) {
  const std::string chip = "chip " + std::to_string(i);
  const uint64_t pages = a.geometry().total_pages();
  const std::vector<uint32_t>& ea = a.stats().block_erase_counts;
  const std::vector<uint32_t>& eb = b.stats().block_erase_counts;
  if (pages != b.geometry().total_pages() || ea.size() != eb.size()) {
    return Divergence{"pages", i, 0, 0,
                      chip + " pages: " +
                          Vs(pages, b.geometry().total_pages())};
  }
  for (flash::PhysAddr p = 0; p < pages; ++p) {
    for (const bool spare : {false, true}) {
      const ConstBytes x = spare ? a.RawSpare(p) : a.RawData(p);
      const ConstBytes y = spare ? b.RawSpare(p) : b.RawData(p);
      const size_t at = FirstMismatch(x, y);
      if (at == x.size()) continue;
      char values[64];
      std::snprintf(values, sizeof(values), " byte %zu: 0x%02x vs 0x%02x", at,
                    x[at], y[at]);
      const char* what = spare ? "spare" : "data";
      return Divergence{what, i, p, 0,
                        chip + " page " + std::to_string(p) + " " + what +
                            values};
    }
  }
  for (uint32_t blk = 0; blk < ea.size(); ++blk) {
    if (ea[blk] != eb[blk]) {
      return Divergence{"erase count", i, blk, 0,
                        chip + " block " + std::to_string(blk) +
                            " erase count: " + Vs(ea[blk], eb[blk])};
    }
  }
  if (a.clock().now_us() != b.clock().now_us()) {
    return Divergence{"clock", i, 0, 0,
                      chip + " clock: " +
                          Vs(a.clock().now_us(), b.clock().now_us()) + " us"};
  }
  return std::nullopt;
}

/// The first field two events differ in, or null when they are equal.
const char* FirstEventField(const obs::TraceEvent& x,
                            const obs::TraceEvent& y) {
  if (x.ts_us != y.ts_us) return "ts_us";
  if (x.dur_us != y.dur_us) return "dur_us";
  if (x.shard != y.shard) return "shard";
  if (x.seq != y.seq) return "seq";
  if (x.cat != y.cat) return "cat";
  if (x.a0 != y.a0) return "a0";
  if (x.a1 != y.a1) return "a1";
  if (x.a2 != y.a2) return "a2";
  return nullptr;
}

std::string Describe(const obs::TraceEvent* e) {
  if (e == nullptr) return "none";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "[shard %u seq %" PRIu64 " at %" PRIu64 " us +%" PRIu64
                " %s %" PRIu64 " %" PRIu64 " %" PRIu64 "]",
                e->shard, e->seq, e->ts_us, e->dur_us,
                obs::TraceCatName(e->cat), e->a0, e->a1, e->a2);
  return buf;
}

/// The twins' events at merge position `k` (null past a stream's end)
/// differ in `field`. Names the one that sorts first: an event one twin
/// lacks, or the one whose field changed.
Divergence AtEvent(size_t k, const obs::TraceEvent* x,
                   const obs::TraceEvent* y, const std::string& field) {
  const auto key = [](const obs::TraceEvent* e) {
    return std::tuple(e->ts_us, e->shard, e->seq);
  };
  const obs::TraceEvent* first =
      y == nullptr || (x != nullptr && key(x) <= key(y)) ? x : y;
  return Divergence{"event " + field, first->shard, first->seq, first->ts_us,
                    "trace event " + std::to_string(k) + " " + field + ": " +
                        Describe(x) + " vs " + Describe(y)};
}

std::optional<Divergence> CompareTraces(const obs::TraceRecorder* a,
                                        const obs::TraceRecorder* b) {
  if (a == nullptr && b == nullptr) return std::nullopt;
  if (a == nullptr || b == nullptr || a->num_shards() != b->num_shards()) {
    return Divergence{"trace", 0, 0, 0,
                      "trace lanes (0: untraced): " +
                          Vs(a ? a->num_shards() : 0, b ? b->num_shards() : 0)};
  }
  const std::vector<obs::TraceEvent> ea = a->Merged(/*canonical_only=*/true);
  const std::vector<obs::TraceEvent> eb = b->Merged(/*canonical_only=*/true);
  for (size_t k = 0; k < ea.size() || k < eb.size(); ++k) {
    if (k == ea.size()) return AtEvent(k, nullptr, &eb[k], "end");
    if (k == eb.size()) return AtEvent(k, &ea[k], nullptr, "end");
    if (const char* field = FirstEventField(ea[k], eb[k])) {
      return AtEvent(k, &ea[k], &eb[k], field);
    }
  }
  // Equal surviving events but unequal counts: the rings dropped unequally.
  for (uint32_t i = 0; i < a->num_shards(); ++i) {
    const obs::TraceShard& x = *a->shard(i);
    const obs::TraceShard& y = *b->shard(i);
    if (x.emitted() != y.emitted() || x.dropped() != y.dropped()) {
      return Divergence{"lane counts", i, 0, 0,
                        "trace lane " + std::to_string(i) +
                            " emitted, dropped: " +
                            Vs(x.emitted(), y.emitted()) + ", " +
                            Vs(x.dropped(), y.dropped())};
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<const flash::FlashDevice*> ChipsOf(ftl::ShardedStore* store) {
  std::vector<const flash::FlashDevice*> chips;
  for (uint32_t i = 0; i < store->num_shards(); ++i) {
    chips.push_back(store->shard_device(i));
  }
  return chips;
}

std::optional<Divergence> FirstDivergence(const Twin& a, const Twin& b) {
  if (a.chips.size() != b.chips.size()) {
    return Divergence{"chips", 0, 0, 0,
                      "chips: " + Vs(a.chips.size(), b.chips.size())};
  }
  for (uint32_t i = 0; i < a.chips.size(); ++i) {
    if (auto d = CompareChip(i, *a.chips[i], *b.chips[i])) return d;
  }
  return CompareTraces(a.trace, b.trace);
}

}  // namespace flashdb::harness
