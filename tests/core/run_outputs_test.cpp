// write_run_outputs: the artifacts it writes are byte-equal to the in-memory
// writers (the Chrome trace includes the metric counter events on every
// path), ts_out alone enables windowed telemetry, and an unwritable path
// fails loudly, naming the path.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "curb/core/settings.hpp"
#include "curb/core/simulation.hpp"
#include "curb/obs/export.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::core {
namespace {

using namespace curb::sim::literals;

CurbOptions small_options(const RunOutputs& outputs) {
  CurbOptions opts;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.controller_capacity = 8.0;
  opts.op_time_mode = OpTimeMode::kFixed;
  enable_outputs(opts, outputs);
  return opts;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(RunOutputs, TraceMatchesInMemoryWriterWithCounters) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::filesystem::path trace = dir / "curb_run_outputs_trace.json";
  RunOutputs outputs;
  outputs.trace = trace.string();
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), small_options(outputs)};
  (void)sim.run_packet_in_round();
  ASSERT_TRUE(write_run_outputs(sim.network(), outputs, "test"));

  obs::Observatory* obsy = sim.network().observatory();
  ASSERT_NE(obsy, nullptr);
  std::ostringstream expected;
  obs::write_chrome_trace(obsy->tracer, &obsy->metrics, expected);
  const std::string written = read_file(trace);
  EXPECT_EQ(written, expected.str());
  EXPECT_NE(written.find("\"ph\":\"C\""), std::string::npos);
  std::filesystem::remove(trace);
}

TEST(RunOutputs, UnwritablePathFailsAndNamesIt) {
  RunOutputs outputs;
  outputs.trace = "/nonexistent-dir/t.json";
  outputs.metrics_json = "/nonexistent-dir/m.json";
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), small_options(outputs)};
  (void)sim.run_packet_in_round();
  testing::internal::CaptureStderr();
  const bool ok = write_run_outputs(sim.network(), outputs, "bench");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_NE(err.find("bench: cannot write /nonexistent-dir/t.json"), std::string::npos) << err;
  EXPECT_NE(err.find("bench: cannot write /nonexistent-dir/m.json"), std::string::npos) << err;

  // Process artifacts fail the same way.
  RunOutputs process;
  process.prof = "/nonexistent-dir/p.folded";
  prof::Profiler profiler;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(write_run_outputs(profiler, 0.0, process, "bench"));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("cannot write /nonexistent-dir/p.folded"),
            std::string::npos);
}

TEST(RunOutputs, TsOutAloneDefaultsTheWindow) {
  const std::filesystem::path ts = std::filesystem::temp_directory_path() / "curb_run_outputs_ts.jsonl";
  CurbOptions opts = small_options(RunOutputs{});
  opts.ts_out = ts.string();
  CurbSimulation sim{net::random_geo_topology(8, 10, 99), opts};
  ASSERT_NE(sim.network().ts(), nullptr);
  EXPECT_EQ(sim.network().options().ts_window, 100_ms);
  EXPECT_NE(sim.network().observatory(), nullptr);
  (void)sim.run_packet_in_round();
  ASSERT_TRUE(write_run_outputs(sim.network(), RunOutputs{}, "test"));
  EXPECT_FALSE(read_file(ts).empty());
  std::filesystem::remove(ts);
}

}  // namespace
}  // namespace curb::core
