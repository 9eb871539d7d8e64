#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "curb/prof/profiler.hpp"

namespace curb::prof {

/// One collapsed-stack frame: `label` with ';' and whitespace replaced by
/// '_', or "(anonymous)" when empty. Host-time and memory flamegraphs share
/// this format.
[[nodiscard]] std::string sanitize_frame(const std::string& label);

/// Collapsed-stack export, flamegraph.pl-compatible: one line per tree node
/// with nonzero self time, `frame;frame;frame <exclusive_ns>`. Frames are the
/// attribution labels root-to-leaf; ';' and whitespace inside labels are
/// replaced with '_'. Feed straight into flamegraph.pl (or speedscope).
void write_collapsed(const Profiler& profiler, std::ostream& out);

/// Chrome trace_event JSON of the attribution tree: synthetic "X" events laid
/// out as an icicle (children packed left-to-right inside their parent), with
/// calls and exclusive time in args. Aggregated host time, not a timeline —
/// event order within a parent is first-entry order, not call order.
void write_chrome_profile(const Profiler& profiler, std::ostream& out);

/// One parsed collapsed-stack line: the frame path and its self-time value.
struct FoldedLine {
  std::vector<std::string> frames;
  std::uint64_t value = 0;
};

/// Parse a collapsed-stack file (round-trip of write_collapsed). Throws
/// std::runtime_error on malformed lines. An empty stream parses to {}.
[[nodiscard]] std::vector<FoldedLine> parse_collapsed(std::istream& in);

/// Render a top-N self-time report over parsed collapsed stacks: a component
/// share table (exclusive time aggregated by the leaf frame's prefix before
/// the first '.', shares summing to 100%) followed by the top `top_n` leaf
/// labels by self time.
void write_profile_report(const std::vector<FoldedLine>& lines, std::ostream& out,
                          std::size_t top_n = 20);

}  // namespace curb::prof
