#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "curb/obs/observatory.hpp"
#include "curb/obs/timeseries.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::obs {
namespace {

using namespace curb::sim::literals;

class TimeseriesTest : public ::testing::Test {
 protected:
  sim::Simulator sim{7};
  Observatory obs;

  TsCollector make(sim::SimTime window, std::size_t retention = 64) {
    obs.enable(sim);
    return TsCollector{obs, sim, TsOptions{window, retention}};
  }
};

TEST_F(TimeseriesTest, CountersBecomePerWindowRates) {
  TsCollector ts = make(100_ms);
  Counter& reqs = obs.metrics.counter("test.requests");
  ts.start();

  sim.schedule(30_ms, [&] { reqs.inc(3); });
  sim.schedule(250_ms, [&] { reqs.inc(5); });
  sim.run_until(300_ms);

  ASSERT_EQ(ts.windows_closed(), 3u);
  const auto& w = ts.windows();
  const TsValue* v0 = w[0].find("test.requests");
  ASSERT_NE(v0, nullptr);
  EXPECT_EQ(v0->kind, TsValue::Kind::kRate);
  EXPECT_DOUBLE_EQ(v0->value, 3.0);
  // Window 1 saw no increments: the series is absent, not zero.
  EXPECT_EQ(w[1].find("test.requests"), nullptr);
  const TsValue* v2 = w[2].find("test.requests");
  ASSERT_NE(v2, nullptr);
  EXPECT_DOUBLE_EQ(v2->value, 5.0);
}

TEST_F(TimeseriesTest, GaugesSampledEveryWindow) {
  TsCollector ts = make(100_ms);
  Gauge& depth = obs.metrics.gauge("test.depth");
  depth.set(4.0);
  ts.start();

  sim.schedule(150_ms, [&] { depth.set(9.0); });
  sim.run_until(300_ms);

  ASSERT_EQ(ts.windows_closed(), 3u);
  for (const auto& window : ts.windows()) {
    ASSERT_NE(window.find("test.depth"), nullptr) << "w=" << window.index;
  }
  EXPECT_DOUBLE_EQ(ts.windows()[0].find("test.depth")->value, 4.0);
  EXPECT_DOUBLE_EQ(ts.windows()[1].find("test.depth")->value, 9.0);
  EXPECT_DOUBLE_EQ(ts.windows()[2].find("test.depth")->value, 9.0);
}

TEST_F(TimeseriesTest, HistogramWindowStatsComeFromDeltas) {
  TsCollector ts = make(100_ms);
  Histogram& lat = obs.metrics.histogram("test.latency_us");
  ts.start();

  sim.schedule(10_ms, [&] {
    lat.record(100.0);
    lat.record(200.0);
  });
  sim.schedule(110_ms, [&] {
    for (int i = 0; i < 100; ++i) lat.record(1000.0);
  });
  sim.run_until(200_ms);

  ASSERT_EQ(ts.windows_closed(), 2u);
  const TsValue* v0 = ts.windows()[0].find("test.latency_us");
  ASSERT_NE(v0, nullptr);
  EXPECT_EQ(v0->kind, TsValue::Kind::kHist);
  EXPECT_EQ(v0->count, 2u);
  EXPECT_DOUBLE_EQ(v0->sum, 300.0);

  // Window 1's stats reflect only its own 100 samples at ~1000, not the
  // cumulative distribution (which would drag the percentiles down).
  const TsValue* v1 = ts.windows()[1].find("test.latency_us");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->count, 100u);
  EXPECT_DOUBLE_EQ(v1->sum, 100'000.0);
  EXPECT_GT(v1->p50, 500.0);
  EXPECT_LE(v1->p99, 1024.0);  // containing bucket's upper bound
}

TEST_F(TimeseriesTest, EmptyWindowsStillClose) {
  TsCollector ts = make(50_ms);
  ts.start();
  sim.run_until(250_ms);
  EXPECT_EQ(ts.windows_closed(), 5u);
  for (const auto& window : ts.windows()) {
    EXPECT_TRUE(window.series.empty());
    EXPECT_FALSE(window.partial);
  }
}

TEST_F(TimeseriesTest, EventExactlyOnBoundaryLandsInFollowingWindow) {
  TsCollector ts = make(100_ms);
  Counter& c = obs.metrics.counter("test.edge");
  ts.start();

  // The tick for t=100ms was scheduled at t=0; an event scheduled later for
  // the same instant runs after it, so the increment belongs to window 1.
  sim.schedule(100_ms, [&] { c.inc(); });
  sim.run_until(200_ms);

  ASSERT_EQ(ts.windows_closed(), 2u);
  EXPECT_EQ(ts.windows()[0].find("test.edge"), nullptr);
  const TsValue* v1 = ts.windows()[1].find("test.edge");
  ASSERT_NE(v1, nullptr);
  EXPECT_DOUBLE_EQ(v1->value, 1.0);
}

TEST_F(TimeseriesTest, FinalizeClosesPartialWindow) {
  TsCollector ts = make(100_ms);
  Counter& c = obs.metrics.counter("test.tail");
  ts.start();
  sim.schedule(130_ms, [&] { c.inc(7); });
  sim.run_until(130_ms);
  ts.finalize();

  ASSERT_EQ(ts.windows_closed(), 2u);
  const TsWindow& tail = ts.windows().back();
  EXPECT_TRUE(tail.partial);
  EXPECT_EQ(tail.start, sim::SimTime::millis(100));
  EXPECT_EQ(tail.end, sim::SimTime::millis(130));
  const TsValue* v = tail.find("test.tail");
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->value, 7.0);
}

TEST_F(TimeseriesTest, FinalizeKeepsSampleRecordedAtExactBoundary) {
  TsCollector ts = make(100_ms);
  Counter& c = obs.metrics.counter("test.boundary");
  ts.start();
  // Runs after window 0's tick (scheduled earlier for the same instant);
  // the run then ends with the clock exactly on the boundary. The sample
  // must survive in a zero-length partial window.
  sim.schedule(100_ms, [&] { c.inc(); });
  sim.run_until(100_ms);
  ts.finalize();

  ASSERT_EQ(ts.windows_closed(), 2u);
  const TsWindow& tail = ts.windows().back();
  EXPECT_TRUE(tail.partial);
  EXPECT_EQ(tail.start, tail.end);
  ASSERT_NE(tail.find("test.boundary"), nullptr);
}

TEST_F(TimeseriesTest, FinalizeSkipsEmptyZeroLengthWindow) {
  TsCollector ts = make(100_ms);
  (void)obs.metrics.counter("test.idle");
  ts.start();
  sim.run_until(100_ms);
  ts.finalize();
  EXPECT_EQ(ts.windows_closed(), 1u);  // no second, zero-length window
}

TEST_F(TimeseriesTest, FinalizeIsIdempotent) {
  TsCollector ts = make(100_ms);
  Counter& c = obs.metrics.counter("test.c");
  ts.start();
  sim.schedule(150_ms, [&] { c.inc(); });
  sim.run_until(150_ms);
  ts.finalize();
  const std::uint64_t closed = ts.windows_closed();
  ts.finalize();
  EXPECT_EQ(ts.windows_closed(), closed);
}

TEST_F(TimeseriesTest, RetentionEvictsOldWindowsAfterCallback) {
  TsCollector ts = make(10_ms, /*retention=*/3);
  std::vector<std::size_t> ring_sizes;
  ts.set_window_callback([&](const TsCollector& c, const TsWindow&) {
    ring_sizes.push_back(c.windows().size());
  });
  ts.start();
  sim.run_until(100_ms);

  EXPECT_EQ(ts.windows_closed(), 10u);
  ASSERT_EQ(ts.windows().size(), 3u);
  EXPECT_EQ(ts.windows().front().index, 7u);
  EXPECT_EQ(ts.windows().back().index, 9u);
  // The callback always sees the just-closed window (eviction runs after).
  for (std::size_t i = 0; i < ring_sizes.size(); ++i) {
    EXPECT_EQ(ring_sizes[i], std::min<std::size_t>(i + 1, 4u)) << "close " << i;
  }
}

TEST_F(TimeseriesTest, PresampleHookRunsBeforeSampling) {
  TsCollector ts = make(100_ms);
  Gauge& pushed = obs.metrics.gauge("test.pushed");
  int calls = 0;
  ts.set_presample_hook([&] {
    ++calls;
    pushed.set(static_cast<double>(calls));
  });
  ts.start();
  sim.run_until(200_ms);

  ASSERT_EQ(ts.windows_closed(), 2u);
  EXPECT_DOUBLE_EQ(ts.windows()[0].find("test.pushed")->value, 1.0);
  EXPECT_DOUBLE_EQ(ts.windows()[1].find("test.pushed")->value, 2.0);
}

TEST_F(TimeseriesTest, JsonlRoundTrip) {
  const std::string path = ::testing::TempDir() + "/curb_ts_roundtrip.jsonl";
  obs.enable(sim);
  {
    TsCollector ts{obs, sim, TsOptions{100_ms, 64}};
    ASSERT_TRUE(ts.set_output(path));
    Counter& c = obs.metrics.counter("test.c", {{"label", "va\"lue"}});
    Gauge& g = obs.metrics.gauge("test.g");
    Histogram& h = obs.metrics.histogram("test.h");
    ts.start();
    sim.schedule(10_ms, [&] {
      c.inc(2);
      g.set(-1.5);
      h.record(300.0);
      h.record(700.0);
    });
    sim.schedule(150_ms, [&] { c.inc(); });
    sim.run_until(150_ms);
    ts.finalize();

    std::ifstream in{path, std::ios::binary};
    ASSERT_TRUE(in);
    const std::vector<TsWindow> parsed = parse_ts_jsonl(in);
    ASSERT_EQ(parsed.size(), ts.windows().size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_EQ(parsed[i].index, ts.windows()[i].index);
      EXPECT_EQ(parsed[i].start, ts.windows()[i].start);
      EXPECT_EQ(parsed[i].end, ts.windows()[i].end);
      EXPECT_EQ(parsed[i].partial, ts.windows()[i].partial);
      EXPECT_EQ(parsed[i].series, ts.windows()[i].series);
    }
  }
  std::remove(path.c_str());
}

TEST_F(TimeseriesTest, ParserToleratesTrailingIncompleteLine) {
  std::istringstream in{
      "{\"w\":0,\"start_us\":0,\"end_us\":1000,\"partial\":false,\"series\":{}}\n"
      "{\"w\":1,\"start_us\":1000,\"end_"};
  const std::vector<TsWindow> parsed = parse_ts_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].index, 0u);

  // Complete lines decode \u escapes to UTF-8, exactly as json::parse does.
  std::istringstream escaped{
      R"({"w":2,"start_us":0,"end_us":1,"partial":false,)"
      R"("series":{"caf\u00e9":{"kind":"rate","value":1}}})"};
  const std::vector<TsWindow> decoded = parse_ts_jsonl(escaped);
  ASSERT_EQ(decoded.size(), 1u);
  ASSERT_EQ(decoded[0].series.size(), 1u);
  EXPECT_EQ(decoded[0].series[0].first, "caf\xC3\xA9");
}

TEST_F(TimeseriesTest, ParserRejectsMalformedLines) {
  // Complete (closed) lines that are malformed throw std::runtime_error, as
  // documented — never a std::invalid_argument from a number conversion.
  for (const char* line :
       {R"({"w":-})", R"({"series":{"a\uzzzz":{"kind":"rate","value":1}}})",
        R"({"w":1.5})", R"({"w":-1})", R"({"start_us":9007199254740994})",
        R"({"end_us":0.5})", R"({"series":{"s":{"kind":"hist","count":2.5}}})",
        R"({"series":{"s":{"kind":"bogus"}}})", R"({"series":{"s":{"value":"1"}}})",
        R"({"partial":1})", R"({"bogus":1})"}) {
    std::istringstream in{std::string{line} + "\n"};
    EXPECT_THROW((void)parse_ts_jsonl(in), std::runtime_error) << line;
  }
}

TEST_F(TimeseriesTest, RejectsBadOptions) {
  obs.enable(sim);
  EXPECT_THROW((TsCollector{obs, sim, TsOptions{sim::SimTime::zero(), 4}}),
               std::invalid_argument);
  EXPECT_THROW((TsCollector{obs, sim, TsOptions{100_ms, 0}}), std::invalid_argument);
}

}  // namespace
}  // namespace curb::obs
