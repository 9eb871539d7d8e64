// curb::obs::res unit tests: counter bookkeeping via the detail hooks (which
// work whether or not the process-wide latch is on), the mem-profile JSON
// round-trip, mem_diff thresholds, the collapsed-stack memory export, and —
// when the binary runs with CURB_MEM_ACCOUNT=1 (the res_tests ctest
// registration does) — the real interposed-allocator path.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "curb/obs/res/account.hpp"
#include "curb/obs/res/report.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::obs::res {
namespace {

constexpr std::size_t kBft = static_cast<std::size_t>(prof::ComponentTag::kBft);
constexpr std::size_t kChain =
    static_cast<std::size_t>(prof::ComponentTag::kChain);
constexpr std::size_t kCrypto =
    static_cast<std::size_t>(prof::ComponentTag::kCrypto);

// Counters are process-global, so tests assert on snapshot *deltas* for a tag
// no concurrent allocation can touch (per-tag counters only move via these
// hooks or allocations inside a matching prof::Scope — the test opens none).

TEST(ResAccount, HooksTrackCumulativeAndLiveCounters) {
  const MemSnapshot before = snapshot();
  detail::record_alloc(1000, prof::ComponentTag::kBft);
  detail::record_alloc(24, prof::ComponentTag::kBft);
  detail::record_free(1000, prof::ComponentTag::kBft);
  const MemSnapshot after = snapshot();

  EXPECT_EQ(after.tags[kBft].allocs - before.tags[kBft].allocs, 2u);
  EXPECT_EQ(after.tags[kBft].frees - before.tags[kBft].frees, 1u);
  EXPECT_EQ(after.tags[kBft].alloc_bytes - before.tags[kBft].alloc_bytes, 1024u);
  EXPECT_EQ(after.tags[kBft].freed_bytes - before.tags[kBft].freed_bytes, 1000u);
  EXPECT_EQ(after.tags[kBft].live_bytes - before.tags[kBft].live_bytes, 24u);

  detail::record_free(24, prof::ComponentTag::kBft);
  const MemSnapshot settled = snapshot();
  EXPECT_EQ(settled.tags[kBft].live_bytes, before.tags[kBft].live_bytes);
}

TEST(ResAccount, PeakIsHighWaterAndResetsToLive) {
  detail::record_alloc(1 << 20, prof::ComponentTag::kChain);
  const MemSnapshot high = snapshot();
  EXPECT_GE(high.tags[kChain].peak_live_bytes, high.tags[kChain].live_bytes);

  detail::record_free(1 << 20, prof::ComponentTag::kChain);
  const MemSnapshot dropped = snapshot();
  // Peak holds the high-water mark across the free...
  EXPECT_EQ(dropped.tags[kChain].peak_live_bytes,
            high.tags[kChain].peak_live_bytes);

  reset_peaks();
  const MemSnapshot reset = snapshot();
  // ...until reset_peaks() rebases it to current live.
  EXPECT_EQ(reset.tags[kChain].peak_live_bytes, reset.tags[kChain].live_bytes);
}

MemSnapshot sample_snapshot() {
  MemSnapshot snap;
  snap.total = {100, 60, 50000, 30000, 20000, 26000};
  snap.tags[kCrypto] = {40, 30, 20000, 15000, 5000, 9000};
  snap.tags[kBft] = {50, 25, 25000, 12000, 13000, 15000};
  snap.header_bytes = 100 * 32;
  return snap;
}

TEST(ResReport, JsonRoundTripPreservesEveryCounter) {
  const MemSnapshot snap = sample_snapshot();
  std::ostringstream json;
  write_mem_profile_json(snap, json);
  std::istringstream in{json.str()};
  const MemSnapshot back = parse_mem_profile_json(in);

  EXPECT_EQ(back.total.allocs, snap.total.allocs);
  EXPECT_EQ(back.total.peak_live_bytes, snap.total.peak_live_bytes);
  EXPECT_EQ(back.header_bytes, snap.header_bytes);
  for (std::size_t i = 0; i < kTagCount; ++i) {
    EXPECT_EQ(back.tags[i].allocs, snap.tags[i].allocs) << "tag " << i;
    EXPECT_EQ(back.tags[i].frees, snap.tags[i].frees) << "tag " << i;
    EXPECT_EQ(back.tags[i].alloc_bytes, snap.tags[i].alloc_bytes) << "tag " << i;
    EXPECT_EQ(back.tags[i].freed_bytes, snap.tags[i].freed_bytes) << "tag " << i;
    EXPECT_EQ(back.tags[i].live_bytes, snap.tags[i].live_bytes) << "tag " << i;
    EXPECT_EQ(back.tags[i].peak_live_bytes, snap.tags[i].peak_live_bytes)
        << "tag " << i;
  }
  EXPECT_EQ(snap.tagged_alloc_bytes(), 45000u);
}

TEST(ResReport, ParseRejectsMalformedInput) {
  std::istringstream garbage{"not json at all"};
  EXPECT_THROW((void)parse_mem_profile_json(garbage), std::exception);

  std::istringstream unknown_tag{
      R"({"total":{"allocs":1,"frees":0,"alloc_bytes":8,"freed_bytes":0,)"
      R"("live_bytes":8,"peak_live_bytes":8},"header_bytes":32,)"
      R"("tags":[{"tag":"warp_drive","counters":{"allocs":1,"frees":0,)"
      R"("alloc_bytes":8,"freed_bytes":0,"live_bytes":8,"peak_live_bytes":8}}]})"};
  EXPECT_THROW((void)parse_mem_profile_json(unknown_tag), std::exception);

  // Counters are integers: a fractional or negative value throws instead of
  // being truncated.
  std::istringstream fractional{
      R"({"total":{"allocs":1.5,"frees":0,"alloc_bytes":8,"freed_bytes":0,)"
      R"("live_bytes":8,"peak_live_bytes":8},"tags":[]})"};
  EXPECT_THROW((void)parse_mem_profile_json(fractional), std::runtime_error);
  std::istringstream negative{
      R"({"total":{"allocs":1,"frees":0,"alloc_bytes":8,"freed_bytes":0,)"
      R"("live_bytes":8,"peak_live_bytes":8},"header_bytes":-32,"tags":[]})"};
  EXPECT_THROW((void)parse_mem_profile_json(negative), std::runtime_error);
}

TEST(ResReport, MemReportShowsAttributionCoverage) {
  std::ostringstream out;
  write_mem_report(sample_snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("crypto"), std::string::npos) << text;
  EXPECT_NE(text.find("bft"), std::string::npos) << text;
  // 45000 tagged of 50000 allocated = 90% coverage.
  EXPECT_NE(text.find("90.00% of allocated bytes tagged"), std::string::npos)
      << text;
}

TEST(ResDiff, GrowthBeyondThresholdRegresses) {
  const MemSnapshot base = sample_snapshot();
  MemSnapshot candidate = base;
  candidate.tags[kCrypto].alloc_bytes = 40000;  // +100% > 25%, > 4096 floor
  candidate.total.alloc_bytes = 70000;

  const prof::PerfDiffResult diff = mem_diff(base, candidate);
  EXPECT_GT(diff.regressions(), 0u);
  // total + every tag, three metrics each, zeros included.
  EXPECT_EQ(diff.metrics_compared, 3 * (kTagCount + 1));
  ASSERT_EQ(diff.deltas.size(), 2u);
  for (const prof::MetricDelta& d : diff.deltas) {
    EXPECT_TRUE(d.metric == "crypto.alloc_bytes" || d.metric == "total.alloc_bytes")
        << d.metric;
    EXPECT_EQ(d.status, prof::MetricDelta::Status::kRegressed) << d.metric;
  }

  prof::PerfDiffOptions warn = kMemDiffOptions;
  warn.warn_only = true;
  EXPECT_EQ(mem_diff(base, candidate, warn).regressions(), 0u);
  EXPECT_EQ(mem_diff(base, candidate, warn).warnings(), 2u);
}

TEST(ResDiff, ShrinkageAndJitterDoNotRegress) {
  const MemSnapshot base = sample_snapshot();

  MemSnapshot shrunk = base;
  shrunk.tags[kBft].alloc_bytes = 8000;  // big improvement — report, no fail
  EXPECT_EQ(mem_diff(base, shrunk).regressions(), 0u);
  EXPECT_EQ(mem_diff(base, shrunk).improvements(), 1u);

  MemSnapshot jitter = base;
  jitter.tags[kCrypto].alloc_bytes += 2048;  // below the 4096-byte floor
  EXPECT_EQ(mem_diff(base, jitter).regressions(), 0u);

  MemSnapshot small_pct = base;
  small_pct.tags[kBft].alloc_bytes += 5000;  // +20% < 25% threshold
  EXPECT_EQ(mem_diff(base, small_pct).regressions(), 0u);
}

TEST(ResReport, CollapsedExportEmitsFramePathsWithBytes) {
  prof::Profiler profiler;
  const std::uint32_t outer = profiler.enter("solver.cap");
  const std::uint32_t inner = profiler.enter("crypto.sign");
  profiler.leave(inner, 10);
  profiler.leave(outer, 20);

  std::vector<FrameAlloc> frames(profiler.nodes().size());
  frames[inner] = {3, 4096};
  frames[outer] = {1, 512};
  frames.push_back({9, 999});  // out of range: must be ignored, not crash

  std::ostringstream out;
  write_mem_collapsed(profiler, frames, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("solver.cap;crypto.sign 4096"), std::string::npos) << text;
  EXPECT_NE(text.find("solver.cap 512"), std::string::npos) << text;
  EXPECT_EQ(text.find("999"), std::string::npos) << text;
}

// The real interposed-allocator path: only meaningful when the process-wide
// latch is on (ctest registers res_tests with CURB_MEM_ACCOUNT=1; a plain
// run of the binary skips).
TEST(ResAccount, InterposedAllocatorAttributesToActiveScope) {
  if (!enabled()) {
    GTEST_SKIP() << "CURB_MEM_ACCOUNT not set; interposition latch is off";
  }
  ASSERT_TRUE(prof::component_tags_enabled())
      << "the accounting latch must also latch component tags on";

  constexpr std::size_t kBytes = 1 << 17;
  const MemSnapshot before = snapshot();
  // A volatile pointer variable keeps the compiler from eliding the paired
  // new/delete ([expr.new]/12 would otherwise allow it).
  char* volatile block = nullptr;
  {
    prof::Scope scope{"crypto.test_alloc"};
    block = new char[kBytes];
  }
  const MemSnapshot mid = snapshot();
  EXPECT_EQ(mid.tags[kCrypto].alloc_bytes - before.tags[kCrypto].alloc_bytes,
            kBytes);
  EXPECT_EQ(mid.tags[kCrypto].live_bytes - before.tags[kCrypto].live_bytes,
            kBytes);
  EXPECT_GT(mid.header_bytes, before.header_bytes);

  // The free attributes to the tag stored at allocation time, even though no
  // scope is open here.
  delete[] block;
  const MemSnapshot after = snapshot();
  EXPECT_EQ(after.tags[kCrypto].live_bytes, before.tags[kCrypto].live_bytes);
  EXPECT_EQ(after.tags[kCrypto].frees - mid.tags[kCrypto].frees, 1u);
}

TEST(ResAccount, InterposedAllocatorRecordsPerFrameAllocations) {
  if (!enabled()) {
    GTEST_SKIP() << "CURB_MEM_ACCOUNT not set; interposition latch is off";
  }
  prof::Profiler profiler;
  prof::Session session{profiler};
  clear_frame_allocations();

  std::uint32_t node = 0;
  char* volatile block = nullptr;
  {
    prof::Scope scope{"solver.frame_alloc_test"};
    node = profiler.current_node();
    block = new char[4096];
  }
  delete[] block;
  const std::vector<FrameAlloc> frames = frame_allocations();
  ASSERT_GT(frames.size(), node);
  EXPECT_GE(frames[node].allocs, 1u);
  EXPECT_GE(frames[node].bytes, 4096u);
  clear_frame_allocations();
}

}  // namespace
}  // namespace curb::obs::res
