#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "curb/opt/lp.hpp"

namespace curb::opt {

/// Mixed-integer solution and solver statistics.
struct MilpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  std::size_t nodes_explored = 0;
  std::size_t lp_iterations = 0;
  /// Nodes whose LP relaxation resumed from the cached parent basis without
  /// a phase-1 pass (sparse backend only; the dense tableau is stateless).
  std::size_t lp_warm_hits = 0;
  bool hit_node_limit = false;
  bool hit_time_limit = false;
};

/// Which simplex implementation solves the node relaxations.
enum class LpBackend : std::uint8_t {
  /// Dense two-phase tableau (lp.cpp). O(m * (n + 2m)) per pivot and the
  /// whole tableau in memory — the right choice only at paper scale.
  kDense,
  /// Sparse revised simplex (sparse_lp.hpp) with a persistent basis shared
  /// across branch-and-bound nodes, so most child nodes skip phase 1.
  kSparse,
};

struct MilpOptions {
  std::size_t max_nodes = 200'000;
  /// Wall-clock budget in milliseconds (0 = unlimited). When exceeded the
  /// search stops and returns the incumbent found so far.
  double max_wall_ms = 0.0;
  /// Optional warm-start incumbent objective (e.g. from a greedy heuristic):
  /// nodes whose LP bound cannot beat it are pruned immediately. When set,
  /// solve() only returns solutions STRICTLY better than this value — a
  /// kInfeasible result then means "keep your heuristic solution".
  std::optional<double> incumbent_objective;
};

/// Branch-and-bound over LP relaxations for problems whose integer
/// variables are binary (0/1) — which covers every OP() program in the
/// paper (A_ij and x_j are all binary). Branching fixes a fractional
/// variable to 0 / 1 via bounds; depth-first with best-bound tie-breaking.
/// When every objective coefficient is integral, node bounds are rounded up
/// before pruning. `backend` picks the simplex for the node relaxations.
class MilpSolver {
 public:
  explicit MilpSolver(LpProblem problem, LpBackend backend = LpBackend::kDense)
      : problem_{std::move(problem)}, backend_{backend} {}

  /// Mark a variable as integer (must have bounds within [0, 1]).
  void set_binary(int var);
  void set_binary(const std::vector<int>& vars);

  /// Variables to branch on first while any of them is fractional. For
  /// covering-style models (like CAP) branching the "is this controller
  /// used" x_j variables before the A_ij assignment variables collapses the
  /// tree by orders of magnitude.
  void set_branch_priority(const std::vector<int>& vars);

  /// A proven lower bound on the optimal objective: the search stops as
  /// soon as its incumbent reaches it, with the incumbent proven optimal.
  void set_objective_lower_bound(double bound) { lower_bound_ = bound; }

  [[nodiscard]] MilpSolution solve(const MilpOptions& options = {});

 private:
  LpProblem problem_;
  LpBackend backend_;
  std::vector<int> binaries_;
  std::vector<int> priority_;
  double lower_bound_ = -LpProblem::kInf;
};

}  // namespace curb::opt
