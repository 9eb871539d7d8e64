// curb-sim: command-line experiment runner for the Curb control plane.
//
//   curb-sim [flags]
//
// `curb-sim --help` lists every flag and CURB_* environment variable; the
// listing is generated from the settings table in curb/core/settings.hpp, which
// also parses both. The environment is applied first and flags override it.
//
// Exit codes (curb/core/exit_codes.hpp): 0 ok, 1 run/output failure, 2 usage,
// 3 SLO watchdog breach.
//
// Example: curb-sim --engine hotstuff --rounds 10 --load 3 --csv
// Example: curb-sim --rounds 5 --trace t.json --metrics-out m.json
// Example: curb-sim --rounds 5 --fault "delay(p=0.3,min=20,max=120,src=ctrl1)"
// Example: curb-sim --rounds 20 --ts-out ts.jsonl --slo 'rate(bft.view_changes) == 0'

#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "curb/core/exit_codes.hpp"
#include "curb/core/settings.hpp"
#include "curb/core/simulation.hpp"
#include "curb/obs/slo.hpp"
#include "curb/prof/profiler.hpp"

int main(int argc, char** argv) {
  // curb-sim runs the paper's Internet2 calibration unless told otherwise.
  curb::core::RunSettings settings;
  settings.options.controller_capacity = 12.0;
  settings.options.max_cs_delay_ms = 14.0;
  std::string error;
  if (!curb::core::apply_env(settings, &error) ||
      !curb::core::apply_flags(settings, {argv + 1, argv + argc}, &error)) {
    std::fprintf(stderr, "curb-sim: %s (see %s --help)\n", error.c_str(), argv[0]);
    return curb::core::kExitUsage;
  }
  const curb::core::Experiment& cli = settings.experiment;
  const curb::core::RunOutputs& outputs = settings.outputs;
  curb::core::CurbOptions& options = settings.options;
  if (cli.help) {
    curb::core::print_settings_help(stdout, argv[0]);
    return curb::core::kExitOk;
  }
  curb::core::enable_outputs(options, outputs);

  // Host-time profiling: installed before the simulation is built so setup
  // (keygen, topology, genesis) is attributed too. Host time never touches
  // the virtual clock, so --prof cannot change the run's outputs.
  curb::prof::Profiler profiler;
  curb::prof::StopWatch wall;
  if (curb::core::wants_profiler(outputs)) curb::prof::set_thread_profiler(&profiler);

  auto topology = cli.topology == "random"
                      ? curb::net::random_geo_topology(cli.controllers, cli.switches,
                                                       options.seed)
                      : curb::net::internet2();

  std::optional<curb::core::CurbSimulation> sim_storage;
  try {
    sim_storage.emplace(std::move(topology), options,
                        curb::core::CurbSimulation::DeferInit{});
  } catch (const std::exception& e) {
    // Unopenable --ts-out, a too-small topology, and the like: no network
    // exists yet, nothing to flush.
    std::fprintf(stderr, "curb-sim: %s\n", e.what());
    return curb::core::kExitFinding;
  }
  curb::core::CurbSimulation& sim = *sim_storage;

  // Every requested output is written through here, on every exit path —
  // an aborted run (infeasible assignment, SLO breach) still flushes and
  // closes its metrics/telemetry files, truncated to what actually ran.
  auto flush_outputs = [&] {
    return curb::core::write_run_outputs(sim.network(), outputs, "curb-sim");
  };

  // OP() throws when no feasible initial assignment exists — easy to hit
  // with --topology random at low controller counts, or --solver heuristic
  // on the marginally-feasible default Internet2 instance (the heuristic
  // has no optimality proof and can miss groupings the exact backends
  // find). Surface it as a clean error, not an abort — and still flush the
  // requested outputs from the constructed network.
  try {
    sim.initialize();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "curb-sim: %s\n", e.what());
    (void)flush_outputs();
    (void)curb::core::write_run_outputs(profiler, wall.elapsed_ms() / 1000.0, outputs,
                                        "curb-sim");
    return curb::core::kExitFinding;
  }

  const auto& state = sim.network().genesis_state();
  if (!cli.csv) {
    std::printf("curb-sim: %zu controllers, %zu switches, %zu groups, engine=%s\n",
                sim.network().num_controllers(), sim.network().num_switches(),
                state.groups().size(),
                std::string{curb::bft::to_string(options.consensus_engine)}.c_str());
    std::printf("%-8s%-10s%-10s%-14s%-12s%-12s\n", "round", "issued", "served",
                "latency_ms", "tps", "messages");
  } else {
    std::printf("round,issued,served,latency_ms,tps,messages\n");
  }

  bool watchdog_fired = false;
  for (std::size_t round = 1; round <= cli.rounds; ++round) {
    const curb::core::RoundMetrics m =
        options.reass_always_solve ? sim.run_reassignment_round(sim.active_switches())
                                   : sim.run_packet_in_round(cli.load);
    if (cli.csv) {
      std::printf("%zu,%zu,%zu,%.3f,%.3f,%llu\n", round, m.issued, m.accepted,
                  m.mean_latency_ms, m.throughput_tps,
                  static_cast<unsigned long long>(m.messages));
    } else {
      std::printf("%-8zu%-10zu%-10zu%-14.1f%-12.1f%-12llu\n", round, m.issued,
                  m.accepted, m.mean_latency_ms, m.throughput_tps,
                  static_cast<unsigned long long>(m.messages));
    }
    // Watchdog: an SLO breach aborts the remaining rounds. Outputs are still
    // flushed below, so the breach report and partial telemetry survive.
    if (curb::obs::SloEngine* slo = sim.network().slo();
        slo != nullptr && slo->breached()) {
      watchdog_fired = true;
      std::fprintf(stderr, "curb-sim: SLO watchdog fired after round %zu\n", round);
      break;
    }
  }
  if (!cli.csv && !watchdog_fired) {
    std::printf("\nchain height %llu, consistent: %s, no fork: %s, "
                "total messages %llu\n",
                static_cast<unsigned long long>(sim.chain_height()),
                sim.chains_consistent() ? "yes" : "NO",
                sim.chains_prefix_consistent() ? "yes" : "NO",
                static_cast<unsigned long long>(sim.total_messages()));
  }

  const bool outputs_ok = flush_outputs();

  if (!curb::core::write_run_outputs(profiler, wall.elapsed_ms() / 1000.0, outputs,
                                     "curb-sim")) {
    return curb::core::kExitFinding;
  }
  if (watchdog_fired) return curb::core::kExitSloBreach;
  if (!outputs_ok) return curb::core::kExitFinding;

  // Clean runs must end fully converged (equal tips). A faulted run may
  // legitimately stop with live controllers lagging (deliveries still in
  // flight) or crashed without recovery, so only a genuine fork — diverging
  // blocks at a common height — fails it.
  const bool ok_chains = options.fault_spec.empty() ? sim.chains_consistent()
                                                    : sim.chains_prefix_consistent();
  return ok_chains ? curb::core::kExitOk : curb::core::kExitFinding;
}
