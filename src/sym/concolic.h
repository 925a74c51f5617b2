// ConcolicDriver: the generic record -> negate -> solve -> re-execute loop.
//
// This is the engine-room of DiCE (§2.3): run the program on the observed
// (seed) input recording constraints, then repeatedly pick a recorded
// predicate to negate, ask the solver for concrete inputs, and re-execute —
// updating the aggregate constraint set after every run "since the previous
// runs might not have reached all branches".
//
// The driver is program-agnostic: DiCE instantiates it with "process one
// UPDATE against a clone of the router checkpoint"; unit tests instantiate it
// with small branchy functions.

#ifndef SRC_SYM_CONCOLIC_H_
#define SRC_SYM_CONCOLIC_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sym/engine.h"
#include "src/sym/solver.h"
#include "src/sym/strategy.h"

namespace dice::sym {

// The instrumented program: reads inputs through engine.MakeSymbolic(...),
// branches through engine.Branch(...). Called once per exploration run.
using Program = std::function<void(Engine&)>;

struct ConcolicOptions {
  size_t max_runs = 1000;          // exploration budget (runs, incl. the seed run)
  std::string strategy = "generational";
  uint64_t seed = 7;
  SolverOptions solver;
};

struct ConcolicStats {
  uint64_t runs = 0;
  uint64_t unique_paths = 0;
  uint64_t duplicate_paths = 0;
  uint64_t solver_sat = 0;
  uint64_t solver_unsat = 0;
  uint64_t solver_unknown = 0;
  uint64_t branches_covered = 0;  // distinct (site, outcome) pairs
  uint64_t max_path_depth = 0;
  // Solver fast-path counters, mirrored from SolverStats after each solve so
  // reports built from ConcolicStats can surface them directly.
  uint64_t solver_cache_hits = 0;
  uint64_t solver_cache_misses = 0;
  uint64_t solver_cache_preloaded_hits = 0;  // hits served from a loaded snapshot
  uint64_t solver_atoms_sliced = 0;
};

// The record -> negate -> solve -> re-execute driver: one serial solve per
// candidate, in strategy order, on one Solver.
class ConcolicDriver {
 public:
  // `shared_solver` (optional) lets a long-lived host reuse one Solver — and
  // its cross-run query cache — across many driver instances: DiCE explores
  // a fresh seed every checkpoint interval, and consecutive explorations of
  // the same router state re-pose mostly identical queries. When null the
  // driver owns a private solver built from `options.solver`.
  explicit ConcolicDriver(ConcolicOptions options = {}, Solver* shared_solver = nullptr);

  // Runs the exploration loop. `on_run` (optional) observes every completed
  // run with the assignment that produced it — DiCE's checkers hang off this.
  using RunObserver = std::function<void(const Assignment&, const Path&)>;
  size_t Explore(const Program& program, RunObserver on_run = nullptr);

  // Executes exactly one additional candidate if available (incremental mode:
  // lets a caller interleave exploration with other work, which is how the
  // live router shares its core with DiCE in the overhead benchmarks).
  // Requires StartIncremental() first. Returns false when exhausted.
  void StartIncremental(const Program& program, RunObserver on_run = nullptr);
  bool StepIncremental();
  bool incremental_active() const { return incremental_active_; }

  const ConcolicStats& stats() const { return stats_; }
  const SolverStats& solver_stats() const { return solver_->stats(); }
  Engine& engine() { return engine_; }

 private:
  void RunOnce(const Assignment& assignment, size_t bound);
  void MirrorSolverCounters();

  ConcolicOptions options_;
  Engine engine_;
  std::unique_ptr<Solver> owned_solver_;  // null when a shared solver is used
  Solver* solver_;
  std::unique_ptr<SearchStrategy> strategy_;
  ConcolicStats stats_;
  std::set<uint64_t> seen_paths_;
  std::set<std::pair<uint64_t, bool>> covered_;

  Program program_;
  RunObserver on_run_;
  bool incremental_active_ = false;
  // Reused per-candidate constraint buffer (prefix + flipped predicate).
  std::vector<ExprPtr> constraints_scratch_;
  // Solver counter values at StartIncremental: with a shared solver they are
  // lifetime totals, and the mirrored ConcolicStats must cover only this
  // exploration.
  uint64_t solver_cache_hits_base_ = 0;
  uint64_t solver_cache_misses_base_ = 0;
  uint64_t solver_cache_preloaded_hits_base_ = 0;
  uint64_t solver_atoms_sliced_base_ = 0;
};

}  // namespace dice::sym

#endif  // SRC_SYM_CONCOLIC_H_
