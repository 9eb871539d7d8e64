#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "curb/opt/cap.hpp"
#include "curb/opt/milp.hpp"

namespace curb::opt {

/// Interchangeable CAP solver backends (DESIGN.md §12).
enum class CapSolverBackend : std::uint8_t {
  /// Exact branch-and-bound over the dense-tableau simplex — the original
  /// paper-scale path and the byte-stable default for simulations.
  kDense,
  /// Exact branch-and-bound over the sparse revised simplex with a warm
  /// basis shared across nodes and incumbent seeding from the previous
  /// assignment. Objective-identical to kDense, scales far past Internet2.
  kSparse,
  /// Partition-based grouping heuristic (LazyCtrl-style). No optimality
  /// proof; solves 1000 switches x 100 controllers in milliseconds.
  kHeuristic,
};

[[nodiscard]] constexpr const char* to_string(CapSolverBackend b) {
  switch (b) {
    case CapSolverBackend::kDense: return "dense";
    case CapSolverBackend::kSparse: return "sparse";
    case CapSolverBackend::kHeuristic: return "heuristic";
  }
  return "?";
}

/// Parses "dense" | "sparse" | "heuristic" (as accepted by curb-sim
/// --solver and the CURB_SOLVER env var); nullopt on anything else.
[[nodiscard]] std::optional<CapSolverBackend> parse_cap_solver_backend(
    std::string_view name);

struct CapSolverOptions {
  /// Branch-and-bound limits for the exact backends.
  MilpOptions milp;
  /// Cache the last feasible assignment inside the solver and use it as the
  /// warm start when the caller passes no `previous`. Lets a long-lived
  /// solver make successive reassignments near-incremental without the
  /// caller threading state. The dense backend ignores the cache for
  /// kTrivial solves (incumbent choice would perturb the byte-stable
  /// baseline path).
  bool reuse_last_assignment = true;
};

/// Common interface over the interchangeable backends. Stateful on purpose:
/// a Curb leader keeps one solver alive across OP() invocations so warm
/// starts compound.
class CapSolver {
 public:
  virtual ~CapSolver() = default;

  [[nodiscard]] virtual CapSolverBackend backend() const = 0;
  [[nodiscard]] std::string_view name() const { return to_string(backend()); }

  /// Solve `instance` under `objective`. When `previous` is null and an
  /// earlier solve succeeded, the cached assignment stands in (see
  /// CapSolverOptions::reuse_last_assignment).
  [[nodiscard]] CapResult solve(const CapInstance& instance,
                                CapObjective objective = CapObjective::kTrivial,
                                const Assignment* previous = nullptr);

  /// Drop the cached warm-start assignment.
  void reset() { last_.reset(); }
  [[nodiscard]] const std::optional<Assignment>& last_assignment() const {
    return last_;
  }

 protected:
  explicit CapSolver(CapSolverOptions options) : options_{std::move(options)} {}
  [[nodiscard]] virtual CapResult do_solve(const CapInstance& instance,
                                           CapObjective objective,
                                           const Assignment* previous) = 0;

  CapSolverOptions options_;

 private:
  std::optional<Assignment> last_;
};

[[nodiscard]] std::unique_ptr<CapSolver> make_cap_solver(
    CapSolverBackend backend, CapSolverOptions options = {});

/// One-shot convenience: construct the backend, solve, discard.
[[nodiscard]] CapResult solve_cap_with(CapSolverBackend backend,
                                       const CapInstance& instance,
                                       CapObjective objective = CapObjective::kTrivial,
                                       const Assignment* previous = nullptr,
                                       const MilpOptions& milp_options = {});

/// Optimality gap of `achieved_objective` versus the exact optimum of
/// `instance` (solved with the sparse exact backend): (achieved - opt) /
/// max(opt, 1). Returns nullopt when the exact solve fails to prove an
/// optimum within `milp_options` limits. Intended for instances small
/// enough to solve exactly — this is how the heuristic backend's quality is
/// audited in tests and benches.
[[nodiscard]] std::optional<double> optimality_gap(
    const CapInstance& instance, CapObjective objective, const Assignment* previous,
    double achieved_objective, const MilpOptions& milp_options = {});

}  // namespace curb::opt
