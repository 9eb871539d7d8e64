// curb_perfbench — the repository benchmark.
//
// Drives one core::CurbSimulation per pass from this single-threaded
// process as a closed loop: a round issues every active switch's requests
// and runs the simulator until they settle (accepted, or timed out at the
// s-agent); the next round starts only after that. --seed is the
// deployment seed, and it also draws the workload inputs: per-request send
// offsets and the phase of the PKT-IN destination rotation. OpTimeMode::kFixed
// keeps host speed out of virtual time, so the virtual metrics are a pure
// function of (workload, seed, seconds).
//
// Layers are measured from outside, through public interfaces only:
//   * the untraced pass gives every end-to-end metric, plus the host-time
//     figures the program exposes without tracing (round times, simulator
//     event rate, RSS per round);
//   * with --trace 1 a second, traced pass (observability on, curb::prof
//     profiler installed) gives the per-layer ledger, and must reproduce
//     the untraced pass's virtual outcome exactly.
// End-to-end host times are scaled to a reference kernel timed before every
// round (see kReferenceMs).
//
// Usage:
//   curb_perfbench --workload NAME --seed N --seconds S --trace 0|1
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is nonzero when the correctness gate fails.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "curb/core/simulation.hpp"
#include "curb/obs/analysis.hpp"
#include "curb/opt/solver.hpp"
#include "curb/prof/profiler.hpp"
#include "curb/sim/rng.hpp"

namespace {

using namespace curb;
using core::CurbOptions;
using core::CurbSimulation;

// ---------------------------------------------------------------------------
// Workloads

/// Virtual instant of the injected crash on pktin_crash. outage_ms is
/// measured from this mark on every workload, so fault-free workloads report
/// the normal time-to-service after an arbitrary instant.
constexpr double kMarkMs = 6000.0;
/// Per-request send offsets are uniform in [0, kJitterUs) after round start.
/// Kept narrow: from ~25 ms on, pktin_crash loses all service after the
/// crash on most seeds, and wider spreads push pktin_steady's tail latency
/// past the lazy threshold into false accusations (perfbench/README.md).
constexpr std::int64_t kJitterUs = 5'000;

struct Workload {
  const char* name;
  /// Issue forced empty-accusation RE-ASS probes instead of PKT-INs.
  bool reassign = false;
  /// Requests each active switch issues per round (host packets for PKT-IN
  /// workloads; each may add an egress PKT-IN at its destination switch).
  std::size_t per_switch = 1;
  /// Rounds per requested second of measurement, sized so the untraced pass
  /// takes about --seconds of host time and accepts >= 1000 requests.
  double rounds_per_second = 1.0;
  /// The fault plan crashes ctrl0 at kMarkMs, so chains need only agree on
  /// their common prefix.
  bool crash = false;
  CurbOptions (*options)();
};

/// The paper calibration shared by every workload (Internet2, f = 1).
CurbOptions paper_options() {
  CurbOptions opts;
  opts.f = 1;
  opts.max_cs_delay_ms = 14.0;
  opts.controller_capacity = 12.0;
  opts.link_model.per_message_overhead = sim::SimTime::millis(15);
  opts.lazy_threshold = sim::SimTime::millis(350);
  opts.max_silent_rounds = 3;
  opts.op_time_mode = core::OpTimeMode::kFixed;
  return opts;
}

CurbOptions crash_options() {
  CurbOptions opts = paper_options();
  opts.controller_capacity = 40.0;
  opts.max_cs_delay_ms = opt::CapInstance::kNoLimit;
  opts.fault_spec = "crash(node=ctrl0,at=" + std::to_string(static_cast<int>(kMarkMs)) +
                    ",down=1000000)";
  return opts;
}

CurbOptions reass_options() {
  CurbOptions opts = paper_options();
  opts.reass_always_solve = true;
  opts.reassign_objective = opt::CapObjective::kTrivial;
  opts.controller_capacity = 1e9;
  opts.max_cs_delay_ms = 10.0;
  opts.op_wall_limit_ms = 400.0;
  return opts;
}

const Workload kWorkloads[] = {
    {"pktin_steady", false, 3, 10.0, false, paper_options},
    {"reass_tcr", true, 1, 2.7, false, reass_options},
    {"pktin_crash", false, 3, 12.0, true, crash_options},
};

// ---------------------------------------------------------------------------
// Host-side helpers

/// The host's speed drifts by tens of percent over minutes, most of all for
/// allocation- and pointer-heavy code like the simulator's, and a whole run
/// can fall in a slow stretch. So a fixed kernel of that kind, owned by the
/// benchmark, is timed before every round, and the end-to-end host times
/// are scaled by kReferenceMs over its mean time in the untraced pass:
/// seconds at reference speed. On a 4-core Xeon VM this cut the 10-run
/// spread of host_req_per_s from 0.25 to 0.06 on reass_tcr and from 0.07 to
/// 0.03 on pktin_steady.
constexpr double kReferenceMs = 3.4;
volatile std::size_t g_reference_sink = 0;

/// One run of the reference kernel: ordered-map churn over small heap blocks.
double reference_ms() {
  const prof::StopWatch watch;
  std::map<std::uint64_t, std::vector<char>> blocks;
  std::uint64_t x = 7;
  for (int i = 0; i < 8000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    blocks[x % 4096].assign(64 + x % 512, 'a');
    if (i % 3 == 0) blocks.erase((x >> 5) % 4096);
  }
  g_reference_sink = blocks.size();
  return watch.elapsed_ms();
}

/// Resident-set figures of this process from /proc/self/status, in KiB.
std::uint64_t proc_status_kb(const char* field) {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Sum of a counter over all its label sets.
double counter_total(const obs::MetricsRegistry& registry, std::string_view name) {
  double total = 0.0;
  for (const auto& [key, m] : registry.metrics()) {
    if (m.name == name && m.counter) total += static_cast<double>(m.counter->value());
  }
  return total;
}

// ---------------------------------------------------------------------------
// One pass: construct, run the closed loop, collect

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  std::size_t issued = 0;
  std::size_t accepted = 0;
  std::size_t unserved = 0;
  std::size_t rounds_with_no_accept = 0;
  std::vector<double> latencies_ms;
  double round_virtual_s = 0.0;
  double outage_ms = 0.0;
  bool all_restored = true;
  /// FNV-1a over every request's (switch, send, accept) triple: two passes
  /// with equal digests saw byte-identical virtual outcomes.
  std::uint64_t digest = 1469598103934665603ULL;
};

struct Pass {
  Outcome outcome;
  std::vector<double> round_host_ms;
  double round_host_s = 0.0;
  /// Reference kernel time next to each round, summed.
  double reference_ms = 0.0;
  /// Host seconds of throwaway deployments built between rounds.
  std::vector<double> setup_s;
  /// Resident set after each round, KiB.
  std::vector<std::uint64_t> rss_kb;
  std::uint64_t events = 0;
  std::uint64_t sim_host_ns = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t op_solves = 0;
  double op_solve_ms = 0.0;
  std::uint64_t blocks = 0;
  bool chains_ok = false;
  // Traced pass only: the program's own view of the run, and the ledger.
  std::size_t traced_requests = 0;
  std::size_t traced_complete = 0;
  std::vector<Metric> layer;
};

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

/// Issue one closed-loop round and run the simulator until it settles, with
/// the settle deadline CurbSimulation::run_packet_in_round uses. PKT-IN
/// destinations follow run_packet_in_round's rotation, shifted by `cycle`;
/// each request leaves at a seeded offset into the round.
void run_round(CurbSimulation& sim, const Workload& w, std::uint64_t cycle, sim::Rng& rng,
               std::vector<std::optional<double>>& restored_at, Outcome& out) {
  core::CurbNetwork& net = sim.network();
  sim::Simulator& clock = net.simulator();
  const sim::SimTime start = clock.now();
  const auto switches = static_cast<std::uint32_t>(net.num_switches());
  for (std::uint32_t sw = 0; sw < sim.active_switches(); ++sw) {
    core::SwitchNode& node = net.switch_node(sw);
    node.reset_flow_table();
    node.clear_records();
    for (std::size_t r = 0; r < w.per_switch; ++r) {
      const auto offset = sim::SimTime::micros(rng.next_in(0, kJitterUs - 1));
      if (w.reassign) {
        clock.schedule(offset, [&node] { node.request_reassignment({}, /*force=*/true); });
        continue;
      }
      auto dst = static_cast<std::uint32_t>((sw + cycle + r * 7 + 1) % switches);
      if (dst == sw) dst = (dst + 1) % switches;
      clock.schedule(offset, [&node, dst] { node.host_send(dst); });
    }
  }
  clock.run_until(start + net.options().request_timeout * 4 + sim::SimTime::seconds(2));

  std::size_t accepted = 0;
  sim::SimTime last_accept = start;
  for (std::uint32_t sw = 0; sw < switches; ++sw) {
    for (const auto& rec : net.switch_node(sw).records()) {
      if (rec.sent < start) continue;
      ++out.issued;
      mix(out.digest, sw);
      mix(out.digest, static_cast<std::uint64_t>(rec.sent.as_micros()));
      if (!rec.accepted) {
        ++out.unserved;
        mix(out.digest, ~0ULL);
        continue;
      }
      ++accepted;
      mix(out.digest, static_cast<std::uint64_t>(rec.accepted->as_micros()));
      out.latencies_ms.push_back((*rec.accepted - rec.sent).as_millis_f());
      last_accept = std::max(last_accept, *rec.accepted);
      const double at_ms = rec.accepted->as_millis_f();
      if (sw < sim.active_switches() && rec.sent.as_millis_f() >= kMarkMs &&
          (!restored_at[sw] || at_ms < *restored_at[sw])) {
        restored_at[sw] = at_ms;
      }
    }
  }
  out.accepted += accepted;
  if (accepted == 0) ++out.rounds_with_no_accept;
  out.round_virtual_s += (last_accept - start).as_seconds_f();
}

std::uint64_t live_chain_height(const core::CurbNetwork& net, std::uint32_t id) {
  const core::Controller& c = net.controller(id);
  return c.crashed() || !c.has_blockchain() ? 0 : c.blockchain().height();
}

std::unique_ptr<CurbSimulation> construct(const Workload& w, std::uint64_t seed,
                                          bool traced, double& setup_s) {
  CurbOptions opts = w.options();
  opts.seed = seed;
  opts.fault_seed = seed;
  opts.observability = traced;
  const prof::StopWatch watch;
  auto sim = std::make_unique<CurbSimulation>(opts);
  setup_s = watch.elapsed_ms() / 1000.0;
  return sim;
}

/// Run `rounds` closed-loop rounds on `sim`. A traced pass needs a deployment
/// built with observability on; it installs a profiler and fills the ledger.
/// With `setup_every` > 0, a throwaway deployment is built and timed before
/// every setup_every-th round, so set-up samples span the whole run.
Pass run_pass(CurbSimulation& sim, const Workload& w, std::uint64_t seed, std::size_t rounds,
              bool traced, std::size_t setup_every = 0) {
  Pass pass;
  core::CurbNetwork& net = sim.network();
  const auto controllers = static_cast<std::uint32_t>(net.num_controllers());

  std::vector<std::uint64_t> height0(controllers);
  for (std::uint32_t c = 0; c < controllers; ++c) {
    height0[c] = live_chain_height(net, c);
    pass.op_solves -= net.controller(c).stats().op_solves;
    pass.op_solve_ms -= net.controller(c).stats().op_solve_time_ms_total;
  }
  const std::uint64_t events0 = net.simulator().events_executed();
  const std::uint64_t sim_ns0 = net.simulator().host_run_ns();
  const std::uint64_t msgs0 = net.bus().stats().total_messages();
  const std::uint64_t bytes0 = net.bus().stats().total_bytes();

  prof::Profiler profiler;
  if (traced) prof::set_thread_profiler(&profiler);
  sim::Rng rng{seed ^ 0x6375726250424E43ULL};
  const std::uint64_t phase = rng.next_below(net.num_switches());
  std::vector<std::optional<double>> restored_at(net.num_switches());
  for (std::size_t r = 0; r < rounds; ++r) {
    if (setup_every != 0 && r % setup_every == 0) {
      double s = 0.0;
      (void)construct(w, seed, /*traced=*/false, s);
      pass.setup_s.push_back(s);
    }
    pass.reference_ms += reference_ms();
    const prof::StopWatch watch;
    run_round(sim, w, phase + r + 1, rng, restored_at, pass.outcome);
    pass.round_host_ms.push_back(watch.elapsed_ms());
    pass.rss_kb.push_back(proc_status_kb("VmRSS"));
  }
  if (traced) prof::set_thread_profiler(nullptr);
  for (const double ms : pass.round_host_ms) pass.round_host_s += ms / 1000.0;

  Outcome& out = pass.outcome;
  for (std::size_t sw = 0; sw < sim.active_switches(); ++sw) {
    if (!restored_at[sw]) {
      out.all_restored = false;
      continue;
    }
    out.outage_ms = std::max(out.outage_ms, *restored_at[sw] - kMarkMs);
  }
  pass.events = net.simulator().events_executed() - events0;
  pass.sim_host_ns = net.simulator().host_run_ns() - sim_ns0;
  pass.messages = net.bus().stats().total_messages() - msgs0;
  pass.bytes = net.bus().stats().total_bytes() - bytes0;
  for (std::uint32_t c = 0; c < controllers; ++c) {
    pass.op_solves += net.controller(c).stats().op_solves;
    pass.op_solve_ms += net.controller(c).stats().op_solve_time_ms_total;
  }
  // Chain growth of the first live controller (ctrl0 may be the crashed one).
  for (std::uint32_t c = 0; c < controllers; ++c) {
    if (live_chain_height(net, c) == 0) continue;
    pass.blocks = live_chain_height(net, c) - height0[c];
    break;
  }
  pass.chains_ok = w.crash ? sim.chains_prefix_consistent() : sim.chains_consistent();

  if (!traced) return pass;
  obs::Observatory& obsy = *net.observatory();
  net.snapshot_runtime_metrics();
  const obs::MetricsRegistry& reg = obsy.metrics;
  auto& layer = pass.layer;
  const double issued = static_cast<double>(out.issued);

  const obs::TraceAnalysis analysis = obs::TraceAnalysis::from_tracer(obsy.tracer);
  pass.traced_requests = analysis.transactions().size();
  pass.traced_complete = static_cast<std::size_t>(std::count_if(
      analysis.transactions().begin(), analysis.transactions().end(),
      [](const obs::TransactionTrace& t) { return t.complete; }));
  const double e2e_us = static_cast<double>(analysis.e2e().sum_us);
  for (const obs::Phase phase : obs::kPhaseOrder) {
    const auto it = analysis.phase_stats().find(phase);
    const double us =
        it == analysis.phase_stats().end() ? 0.0 : static_cast<double>(it->second.sum_us);
    layer.push_back({"core.phase_share." + std::string{obs::to_string(phase)},
                     e2e_us > 0 ? us / e2e_us : 0.0, "ratio"});
  }

  const std::map<std::string, std::uint64_t> self_ns = profiler.exclusive_by_component();
  const double total_ns = static_cast<double>(profiler.total_ns());
  // Module name in this ledger -> curb::prof component label.
  const std::pair<std::string, const char*> modules[] = {
      {"crypto", "crypto"}, {"net", "bus"},     {"opt", "solver"},
      {"bft", "bft"},       {"chain", "chain"}, {"sim", "sim"},
  };
  for (const auto& [module, component] : modules) {
    const auto it = self_ns.find(component);
    const double ns = it == self_ns.end() ? 0.0 : static_cast<double>(it->second);
    layer.push_back({module + ".host_ns_per_request", ns / issued, "ns"});
    layer.push_back({module + ".host_share", total_ns > 0 ? ns / total_ns : 0.0, "ratio"});
  }
  layer.push_back({"crypto.sha256_calls_per_request",
                   static_cast<double>(profiler.calls("crypto.sha256")) / issued, "count"});
  layer.push_back({"crypto.merkle_builds_per_request",
                   static_cast<double>(profiler.calls("crypto.merkle_build")) / issued,
                   "count"});

  double slot_p50_us = 0.0;
  double block_txs = 0.0;
  double block_count = 0.0;
  for (const auto& [key, m] : reg.metrics()) {
    if (!m.histogram) continue;
    if (m.name == "bft.slot_us" && m.labels == obs::Labels{{"layer", "intra_pbft"}}) {
      slot_p50_us = m.histogram->percentile(50.0);
    } else if (m.name == "chain.txs_per_block") {
      block_txs += m.histogram->sum();
      block_count += static_cast<double>(m.histogram->count());
    }
  }
  layer.push_back({"bft.slot_us_p50", slot_p50_us, "us"});
  layer.push_back({"bft.view_changes", counter_total(reg, "bft.view_changes"), "count"});
  layer.push_back({"bft.timeouts_fired", counter_total(reg, "bft.timeouts_fired"), "count"});
  layer.push_back({"chain.blocks_per_round",
                   static_cast<double>(pass.blocks) / static_cast<double>(rounds), "count"});
  layer.push_back({"chain.txs_per_block_mean",
                   block_count > 0 ? block_txs / block_count : 0.0, "count"});
  layer.push_back({"sdn.accusations", counter_total(reg, "core.accusations"), "count"});
  layer.push_back({"sdn.request_timeouts", static_cast<double>(out.unserved), "count"});
  layer.push_back({"fault.injected", counter_total(reg, "fault.injected"), "count"});
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics, gate, output

/// Accepted requests per host second of the timed rounds, at reference speed.
double host_req_per_s(const Pass& p) {
  const double rounds = static_cast<double>(p.round_host_ms.size());
  return static_cast<double>(p.outcome.accepted) * p.reference_ms /
         (p.round_host_s * kReferenceMs * rounds);
}

/// Virtual-time metrics: a pure function of (workload, seed, rounds).
std::vector<Metric> virtual_metrics(const Pass& p) {
  const Outcome& o = p.outcome;
  return {
      {"latency_p50_ms", percentile(o.latencies_ms, 50.0), "ms"},
      {"latency_p99_ms", percentile(o.latencies_ms, 99.0), "ms"},
      {"virtual_tps",
       o.round_virtual_s > 0 ? static_cast<double>(o.accepted) / o.round_virtual_s : 0.0,
       "1/s"},
      {"served_ratio",
       o.issued > 0 ? static_cast<double>(o.accepted) / static_cast<double>(o.issued) : 0.0,
       "ratio"},
      {"outage_ms", o.outage_ms, "ms"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "curb_perfbench: %s\nusage: curb_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage("bad value for " + flag + ": " + text);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage("--trace must be 0 or 1");
      args.trace = t == 1;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.seconds <= 0) usage("--seconds must be positive");
  return args;
}

/// Host time of the opt layer on its own: the workload's backend and wall
/// budget on the deployment's genesis CAP instance, outside the protocol.
std::pair<double, bool> probe_solver(const core::CurbNetwork& net) {
  opt::CapSolverOptions options;
  options.milp.max_wall_ms = net.options().op_wall_limit_ms;
  options.reuse_last_assignment = false;
  const auto solver = opt::make_cap_solver(net.options().op_solver, options);
  const opt::CapInstance instance = net.build_cap_instance({});
  const prof::StopWatch watch;
  const opt::CapResult result = solver->solve(instance, opt::CapObjective::kTrivial);
  return {watch.elapsed_ms(), result.feasible && result.stats.proven};
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) usage("unknown workload " + args.workload);
  const auto rounds = std::max<std::size_t>(
      3, static_cast<std::size_t>(std::ceil(w->rounds_per_second * args.seconds)));

  std::vector<std::string> failures;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

  // Set-up time is the median of 3 to 40 builds, as many as fit in ~1.5 s.
  // The host's speed moves in phases, so all but the first build are spread
  // over the untraced pass.
  double first_setup_s = 0.0;
  std::unique_ptr<CurbSimulation> sim =
      construct(*w, args.seed, /*traced=*/false, first_setup_s);
  std::size_t setup_every = 0;
  if (!args.trace) {
    const auto builds = std::clamp<std::size_t>(
        static_cast<std::size_t>(1.5 / first_setup_s), 3, 40);
    setup_every = (rounds + builds - 2) / (builds - 1);
  }

  if (w->crash) {
    const auto& groups = sim->network().genesis_state().groups();
    check(std::any_of(groups.begin(), groups.end(),
                      [](const core::GroupInfo& g) { return g.leader == 0; }),
          "the crashed controller ctrl0 leads no group");
  }
  std::pair<double, bool> probe{0.0, false};
  if (args.trace) probe = probe_solver(sim->network());
  const Pass plain =
      run_pass(*sim, *w, args.seed, rounds, /*traced=*/false, setup_every);
  std::vector<double> setups = plain.setup_s;
  setups.push_back(first_setup_s);
  sim.reset();
  const double peak_rss_mb = static_cast<double>(proc_status_kb("VmHWM")) / 1024.0;
  const Outcome& out = plain.outcome;

  check(plain.chains_ok, w->crash ? "controller chains forked" : "controller chains diverged");
  check(out.issued == out.accepted + out.unserved, "issued != accepted + unserved");
  check(out.all_restored, "an active switch was never served after the mark");
  check(out.latencies_ms.size() >= 1000, "fewer than 1000 accepted requests");

  const std::vector<Metric> virt = virtual_metrics(plain);

  std::optional<Pass> traced;
  if (args.trace) {
    double setup_s = 0.0;
    sim = construct(*w, args.seed, /*traced=*/true, setup_s);
    traced = run_pass(*sim, *w, args.seed, rounds, /*traced=*/true);
    const Outcome& t = traced->outcome;
    check(traced->chains_ok, "traced pass: controller chains disagree");
    check(t.digest == out.digest, "traced pass: virtual outcome differs from untraced pass");
    const std::vector<Metric> again = virtual_metrics(*traced);
    for (std::size_t i = 0; i < virt.size(); ++i) {
      check(std::memcmp(&again[i].value, &virt[i].value, sizeof(double)) == 0,
            "traced pass: " + virt[i].name + " differs from untraced pass");
    }
    // The program's own trace must account for every request the benchmark
    // counted: one root span per request, closed exactly when accepted.
    check(traced->traced_requests == t.issued, "traced pass: request spans != issued");
    check(traced->traced_complete == t.accepted, "traced pass: closed spans != accepted");
  }

  std::fprintf(stderr,
               "%s seed=%llu rounds=%zu issued=%zu accepted=%zu latency_samples=%zu "
               "setup_samples=%zu round_host_s=%.3f p50=%.3f\n",
               w->name, static_cast<unsigned long long>(args.seed), rounds, out.issued,
               out.accepted, out.latencies_ms.size(), setups.size(), plain.round_host_s,
               virt[0].value);
  for (const std::string& f : failures) std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());

  std::vector<Metric> report;
  const double n = static_cast<double>(rounds);
  if (!args.trace) {
    report = virt;
    report.push_back({"host_req_per_s", host_req_per_s(plain), "1/s"});
    // At reference speed, scaled by the kernel times of the untraced pass.
    report.push_back(
        {"setup_s", median(setups) * kReferenceMs * n / plain.reference_ms, "s"});
    report.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    const double issued = static_cast<double>(out.issued);
    report = {
        {"core.round_host_ms_p50", percentile(plain.round_host_ms, 50.0), "ms"},
        {"core.round_host_ms_p90", percentile(plain.round_host_ms, 90.0), "ms"},
        // Growth after the first round, whose warm-up allocations it skips.
        {"core.rss_kb_per_round",
         (static_cast<double>(plain.rss_kb.back()) - static_cast<double>(plain.rss_kb[0])) /
             (n - 1),
         "KiB"},
        {"core.latency_samples", static_cast<double>(out.latencies_ms.size()), "count"},
        {"sim.events_per_request", static_cast<double>(plain.events) / issued, "count"},
        {"sim.events_per_host_s",
         static_cast<double>(plain.events) * 1e9 /
             static_cast<double>(std::max<std::uint64_t>(plain.sim_host_ns, 1)),
         "1/s"},
        {"net.msgs_per_request", static_cast<double>(plain.messages) / issued, "count"},
        {"net.bytes_per_request", static_cast<double>(plain.bytes) / issued, "B"},
        {"opt.solves_per_round", static_cast<double>(plain.op_solves) / n, "count"},
        {"opt.solve_ms_mean",
         plain.op_solves > 0 ? plain.op_solve_ms / static_cast<double>(plain.op_solves) : 0.0,
         "ms"},
        {"opt.probe_solve_ms", probe.first, "ms"},
        {"opt.probe_proven", probe.second ? 1.0 : 0.0, "bool"},
        {"trace.overhead_ratio", host_req_per_s(*traced) / host_req_per_s(plain), "ratio"},
        {"host.reference_ms", plain.reference_ms / n, "ms"},
    };
    report.insert(report.end(), traced->layer.begin(), traced->layer.end());
  }
  const bool correct = failures.empty();
  print_json(correct, rounds, out.rounds_with_no_accept, report);
  return correct ? 0 : 1;
}
