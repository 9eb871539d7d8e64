#pragma once

// Memory-profile reporting: serialize a res::MemSnapshot to JSON, render the
// human top-allocator table, export per-frame allocation flamegraphs in the
// same collapsed-stack format as host-time profiles, and diff two profiles
// with regression thresholds (`curb-prof mem-report` / `mem-diff`).
//
// Everything here reports *host* measurements — profiles go to their own
// files and never into the deterministic trace/telemetry streams.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "curb/obs/res/account.hpp"
#include "curb/prof/bench_diff.hpp"

namespace curb::obs::res {

/// Serialize a snapshot as a standalone JSON document (tags in enum order;
/// all-zero tags are skipped). Round-trips through parse_mem_profile_json.
void write_mem_profile_json(const MemSnapshot& snap, std::ostream& out);

/// Parse a mem-profile JSON document (throws std::runtime_error on malformed
/// input; unknown tag names throw, missing tags read as zero).
[[nodiscard]] MemSnapshot parse_mem_profile_json(std::istream& in);

/// Human report: totals, attribution coverage, and the per-tag allocator
/// table sorted by cumulative bytes.
void write_mem_report(const MemSnapshot& snap, std::ostream& out);

/// Collapsed-stack memory flamegraph: one line per attribution-tree frame
/// with nonzero allocated bytes, `frame;frame <bytes>` — flamegraph.pl's
/// `--countname=bytes` renders it directly. `frames` is indexed like
/// `profiler.nodes()` (see frame_allocations()); out-of-range entries are
/// ignored so a stale table cannot crash the export.
void write_mem_collapsed(const prof::Profiler& profiler,
                         const std::vector<FrameAlloc>& frames, std::ostream& out);

/// mem-diff defaults: a 25% relative gate on per-tag cumulative bytes,
/// allocation counts and peak-live bytes, ignoring absolute changes of up to
/// 4096 (malloc jitter).
inline constexpr prof::PerfDiffOptions kMemDiffOptions{.threshold_pct = 25.0,
                                                       .floor = 4096.0};

/// Compare candidate against baseline on the perf-diff engine: each snapshot
/// flattens into one BenchEntry carrying `<tag>.{alloc_bytes,allocs,
/// peak_live_bytes}` for "total" and every tag (zeros included), all
/// lower-is-better, so growth beyond the threshold regresses and shrinkage
/// reports as improved.
[[nodiscard]] prof::PerfDiffResult mem_diff(
    const MemSnapshot& base, const MemSnapshot& candidate,
    const prof::PerfDiffOptions& options = kMemDiffOptions);

/// File-path conveniences; false when the file cannot be opened.
bool export_mem_profile(const MemSnapshot& snap, const std::string& path);
bool export_mem_collapsed(const prof::Profiler& profiler,
                          const std::vector<FrameAlloc>& frames,
                          const std::string& path);

}  // namespace curb::obs::res
