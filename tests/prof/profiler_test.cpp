// Tests for curb::prof: attribution-tree invariants, the disabled path, the
// collapsed-stack / Chrome exporters, and the report renderer.

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "curb/json/json.hpp"
#include "curb/prof/export.hpp"
#include "curb/prof/profiler.hpp"

namespace json = curb::json;
namespace prof = curb::prof;

namespace {

void spin_ns(std::uint64_t ns) {
  const std::uint64_t start = prof::now_ns();
  while (prof::now_ns() - start < ns) {
  }
}

TEST(Profiler, NoProfilerInstalledByDefault) {
  EXPECT_EQ(prof::thread_profiler(), nullptr);
}

TEST(Profiler, DisabledScopesAreNoOps) {
  // Without an installed profiler a Scope must not record anything and must
  // not require one: this is the zero-cost-when-off contract every hot path
  // relies on (same discipline as a null obs::Observatory*).
  ASSERT_EQ(prof::thread_profiler(), nullptr);
  for (int i = 0; i < 1000; ++i) {
    const prof::Scope scope{"crypto.sign"};
  }
  prof::Profiler probe;
  EXPECT_EQ(probe.total_ns(), 0u);
  EXPECT_EQ(probe.nodes().size(), 1u);  // just the synthetic root
  EXPECT_EQ(probe.depth(), 0u);
}

TEST(Profiler, SessionInstallsAndUninstalls) {
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    EXPECT_EQ(prof::thread_profiler(), &profiler);
  }
  EXPECT_EQ(prof::thread_profiler(), nullptr);
}

TEST(Profiler, RecordsCallsAndNesting) {
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    for (int i = 0; i < 3; ++i) {
      const prof::Scope outer{"bft.pbft_msg"};
      const prof::Scope inner{"crypto.verify"};
    }
    {
      const prof::Scope other{"crypto.verify"};
    }
  }
  EXPECT_EQ(profiler.calls("bft.pbft_msg"), 3u);
  // Same label in two contexts: nested under bft.pbft_msg and at top level.
  EXPECT_EQ(profiler.calls("crypto.verify"), 4u);
  std::size_t verify_nodes = 0;
  for (const auto& node : profiler.nodes()) {
    if (node.label == "crypto.verify") ++verify_nodes;
  }
  EXPECT_EQ(verify_nodes, 2u);
  EXPECT_EQ(profiler.depth(), 0u);
}

TEST(Profiler, ExclusiveNeverExceedsInclusive) {
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    const prof::Scope outer{"sim.event"};
    spin_ns(200'000);
    {
      const prof::Scope inner{"crypto.sha256"};
      spin_ns(200'000);
    }
    {
      const prof::Scope inner{"bus.deliver"};
      spin_ns(200'000);
    }
  }
  const auto& nodes = profiler.nodes();
  std::uint64_t exclusive_sum = 0;
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    EXPECT_LE(profiler.exclusive_ns(i), nodes[i].inclusive_ns) << nodes[i].label;
    std::uint64_t child_sum = 0;
    for (const std::uint32_t c : nodes[i].children) child_sum += nodes[c].inclusive_ns;
    EXPECT_LE(child_sum, nodes[i].inclusive_ns) << nodes[i].label;
    exclusive_sum += profiler.exclusive_ns(i);
  }
  // Total measured time is exactly the partition into exclusive slices.
  EXPECT_EQ(exclusive_sum, profiler.total_ns());
  EXPECT_GT(profiler.total_ns(), 0u);
}

TEST(Profiler, StackBalancedAfterException) {
  prof::Profiler profiler;
  const prof::Session session{profiler};
  try {
    const prof::Scope outer{"sim.event"};
    const prof::Scope middle{"bus.deliver"};
    const prof::Scope inner{"bft.pbft_msg"};
    throw std::runtime_error{"boom"};
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(profiler.depth(), 0u);
  // All three frames were closed by unwinding and recorded one call each.
  EXPECT_EQ(profiler.calls("sim.event"), 1u);
  EXPECT_EQ(profiler.calls("bus.deliver"), 1u);
  EXPECT_EQ(profiler.calls("bft.pbft_msg"), 1u);
  // The profiler stays usable after the unwind.
  {
    const prof::Scope again{"sim.event"};
  }
  EXPECT_EQ(profiler.calls("sim.event"), 2u);
  EXPECT_EQ(profiler.depth(), 0u);
}

TEST(Profiler, ComponentAggregation) {
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    {
      const prof::Scope a{"crypto.sign"};
      spin_ns(100'000);
    }
    {
      const prof::Scope b{"crypto.verify"};
      spin_ns(100'000);
    }
    {
      const prof::Scope c{"solver.cap"};
      spin_ns(100'000);
    }
  }
  const auto by_component = profiler.exclusive_by_component();
  ASSERT_EQ(by_component.size(), 2u);
  EXPECT_GT(by_component.at("crypto"), 0u);
  EXPECT_GT(by_component.at("solver"), 0u);
  std::uint64_t sum = 0;
  for (const auto& [component, ns] : by_component) sum += ns;
  EXPECT_EQ(sum, profiler.total_ns());
}

TEST(ProfExport, CollapsedRoundTrip) {
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    const prof::Scope outer{"sim.event"};
    spin_ns(100'000);
    const prof::Scope inner{"crypto.sha256"};
    spin_ns(100'000);
  }
  std::ostringstream out;
  prof::write_collapsed(profiler, out);
  std::istringstream in{out.str()};
  const auto lines = prof::parse_collapsed(in);
  ASSERT_EQ(lines.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& line : lines) {
    ASSERT_FALSE(line.frames.empty());
    total += line.value;
  }
  EXPECT_EQ(total, profiler.total_ns());
  // The nested line carries the full root-to-leaf path.
  bool found_nested = false;
  for (const auto& line : lines) {
    if (line.frames.size() == 2) {
      EXPECT_EQ(line.frames[0], "sim.event");
      EXPECT_EQ(line.frames[1], "crypto.sha256");
      found_nested = true;
    }
  }
  EXPECT_TRUE(found_nested);
}

TEST(ProfExport, EmptyProfileEmitsValidOutputs) {
  const prof::Profiler profiler;  // never installed, never entered
  std::ostringstream collapsed;
  prof::write_collapsed(profiler, collapsed);
  EXPECT_TRUE(collapsed.str().empty());
  std::istringstream in{collapsed.str()};
  EXPECT_TRUE(prof::parse_collapsed(in).empty());

  std::ostringstream chrome;
  prof::write_chrome_profile(profiler, chrome);
  const json::Value doc = json::parse(chrome.str());
  ASSERT_EQ(doc.type, json::Value::Type::kObject);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->type, json::Value::Type::kArray);
  EXPECT_TRUE(events->array.empty());

  // An empty report is still renderable.
  std::ostringstream report;
  prof::write_profile_report({}, report);
  EXPECT_FALSE(report.str().empty());
}

TEST(ProfExport, ChromeProfileIsValidJson) {
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    const prof::Scope outer{"sim.event"};
    const prof::Scope inner{"bft.hotstuff_msg"};
    spin_ns(100'000);
  }
  std::ostringstream chrome;
  prof::write_chrome_profile(profiler, chrome);
  const json::Value doc = json::parse(chrome.str());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  for (const auto& event : events->array) {
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("dur"), nullptr);
  }
}

TEST(ProfExport, ChromeProfileEscapesLabels) {
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    const prof::Scope scope{"a\"b\\c"};
  }
  std::ostringstream chrome;
  prof::write_chrome_profile(profiler, chrome);
  const json::Value doc = json::parse(chrome.str());
  ASSERT_EQ(doc.find("traceEvents")->array.size(), 1u);
  EXPECT_EQ(doc.find("traceEvents")->array[0].find("name")->str, "a\"b\\c");
}

TEST(ProfExport, MalformedCollapsedThrows) {
  std::istringstream no_value{"a;b;c\n"};
  EXPECT_THROW(prof::parse_collapsed(no_value), std::runtime_error);
  std::istringstream bad_value{"a;b not_a_number\n"};
  EXPECT_THROW(prof::parse_collapsed(bad_value), std::runtime_error);
}

TEST(ProfExport, ReportSharesSumToHundred) {
  prof::Profiler profiler;
  {
    const prof::Session session{profiler};
    {
      const prof::Scope a{"crypto.sign"};
      spin_ns(300'000);
    }
    {
      const prof::Scope b{"solver.cap"};
      spin_ns(300'000);
    }
    {
      const prof::Scope c{"sim.event"};
      spin_ns(300'000);
    }
  }
  std::ostringstream out;
  prof::write_collapsed(profiler, out);
  std::istringstream in{out.str()};
  std::ostringstream report;
  prof::write_profile_report(prof::parse_collapsed(in), report);
  const std::string text = report.str();
  EXPECT_NE(text.find("crypto"), std::string::npos);
  EXPECT_NE(text.find("solver"), std::string::npos);
  EXPECT_NE(text.find("sim"), std::string::npos);

  // The component share column must sum to ~100%.
  std::istringstream lines{text};
  std::string line;
  bool in_components = false;
  double share_sum = 0.0;
  while (std::getline(lines, line)) {
    if (line.rfind("component shares", 0) == 0) {
      in_components = true;
      continue;
    }
    if (in_components && line.empty()) break;
    if (!in_components) continue;
    const std::size_t pct = line.rfind('%');
    ASSERT_NE(pct, std::string::npos) << line;
    const std::size_t start = line.rfind(' ', pct);
    share_sum += std::stod(line.substr(start + 1, pct - start - 1));
  }
  EXPECT_NEAR(share_sum, 100.0, 0.1);
}

}  // namespace
