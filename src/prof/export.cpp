#include "curb/prof/export.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "curb/json/json.hpp"

namespace curb::prof {

std::string sanitize_frame(const std::string& label) {
  std::string out = label.empty() ? std::string{"(anonymous)"} : label;
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  return out;
}

namespace {

void collapsed_walk(const Profiler& profiler, std::uint32_t node,
                    const std::string& prefix, std::ostream& out) {
  const auto& n = profiler.nodes()[node];
  const std::string path =
      prefix.empty() ? sanitize_frame(n.label) : prefix + ";" + sanitize_frame(n.label);
  const std::uint64_t self = profiler.exclusive_ns(node);
  if (self > 0) out << path << " " << self << "\n";
  for (const std::uint32_t child : n.children) {
    collapsed_walk(profiler, child, path, out);
  }
}

void chrome_walk(const Profiler& profiler, std::uint32_t node, std::uint64_t start_ns,
                 bool& first, std::ostream& out) {
  const auto& n = profiler.nodes()[node];
  if (!first) out << ",\n";
  first = false;
  char buf[64];
  out << "{\"name\":\"" << json::escape(sanitize_frame(n.label))
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(start_ns) / 1000.0);
  out << buf << ",\"dur\":";
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(n.inclusive_ns) / 1000.0);
  out << buf << ",\"args\":{\"calls\":" << n.calls
      << ",\"exclusive_ns\":" << profiler.exclusive_ns(node) << "}}";
  std::uint64_t child_start = start_ns;
  for (const std::uint32_t child : n.children) {
    chrome_walk(profiler, child, child_start, first, out);
    child_start += profiler.nodes()[child].inclusive_ns;
  }
}

}  // namespace

void write_collapsed(const Profiler& profiler, std::ostream& out) {
  for (const std::uint32_t top : profiler.nodes()[0].children) {
    collapsed_walk(profiler, top, "", out);
  }
}

void write_chrome_profile(const Profiler& profiler, std::ostream& out) {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  std::uint64_t start = 0;
  for (const std::uint32_t top : profiler.nodes()[0].children) {
    chrome_walk(profiler, top, start, first, out);
    start += profiler.nodes()[top].inclusive_ns;
  }
  out << (first ? "" : "\n") << "]}\n";
}

std::vector<FoldedLine> parse_collapsed(std::istream& in) {
  std::vector<FoldedLine> lines;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      throw std::runtime_error{"collapsed line " + std::to_string(lineno) +
                               ": expected 'frames value'"};
    }
    FoldedLine folded;
    std::size_t parsed = 0;
    try {
      folded.value = std::stoull(line.substr(space + 1), &parsed);
    } catch (const std::exception&) {
      parsed = 0;
    }
    if (parsed != line.size() - space - 1) {
      throw std::runtime_error{"collapsed line " + std::to_string(lineno) +
                               ": bad value"};
    }
    std::size_t begin = 0;
    while (begin <= space) {
      std::size_t end = line.find(';', begin);
      if (end == std::string::npos || end > space) end = space;
      if (end == begin) {
        throw std::runtime_error{"collapsed line " + std::to_string(lineno) +
                                 ": empty frame"};
      }
      folded.frames.push_back(line.substr(begin, end - begin));
      begin = end + 1;
    }
    lines.push_back(std::move(folded));
  }
  return lines;
}

void write_profile_report(const std::vector<FoldedLine>& lines, std::ostream& out,
                          std::size_t top_n) {
  std::uint64_t total = 0;
  std::map<std::string, std::uint64_t> by_component;
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> by_leaf;  // ns, stacks
  for (const FoldedLine& line : lines) {
    if (line.frames.empty()) continue;
    total += line.value;
    const std::string& leaf = line.frames.back();
    const std::size_t dot = leaf.find('.');
    by_component[dot == std::string::npos ? leaf : leaf.substr(0, dot)] += line.value;
    auto& entry = by_leaf[leaf];
    entry.first += line.value;
    entry.second += 1;
  }

  out << "host-time profile: " << lines.size() << " stacks, total "
      << static_cast<double>(total) / 1e6 << " ms\n\n";
  if (total == 0) {
    out << "(empty profile)\n";
    return;
  }

  out << "component shares (exclusive time)\n";
  std::vector<std::pair<std::string, std::uint64_t>> components{by_component.begin(),
                                                                by_component.end()};
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  char buf[160];
  for (const auto& [component, ns] : components) {
    std::snprintf(buf, sizeof buf, "  %-12s %10.3f ms  %6.2f%%\n", component.c_str(),
                  static_cast<double>(ns) / 1e6,
                  100.0 * static_cast<double>(ns) / static_cast<double>(total));
    out << buf;
  }

  out << "\ntop self-time labels\n";
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::size_t>>> leaves{
      by_leaf.begin(), by_leaf.end()};
  std::sort(leaves.begin(), leaves.end(), [](const auto& a, const auto& b) {
    return a.second.first > b.second.first;
  });
  if (top_n != 0 && leaves.size() > top_n) leaves.resize(top_n);
  for (const auto& [label, entry] : leaves) {
    std::snprintf(buf, sizeof buf, "  %-28s %10.3f ms  %6.2f%%  (%zu stacks)\n",
                  label.c_str(), static_cast<double>(entry.first) / 1e6,
                  100.0 * static_cast<double>(entry.first) / static_cast<double>(total),
                  entry.second);
    out << buf;
  }
}

}  // namespace curb::prof
