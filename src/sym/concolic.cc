#include "src/sym/concolic.h"

#include <algorithm>

namespace dice::sym {

ConcolicDriver::ConcolicDriver(ConcolicOptions options, Solver* shared_solver)
    : options_(options),
      owned_solver_(shared_solver == nullptr ? std::make_unique<Solver>(options.solver)
                                             : nullptr),
      solver_(shared_solver == nullptr ? owned_solver_.get() : shared_solver),
      strategy_(MakeStrategy(options.strategy, options.seed)) {}

void ConcolicDriver::RunOnce(const Assignment& assignment, size_t bound) {
  engine_.BeginRun(assignment);
  program_(engine_);
  ++stats_.runs;

  const Path& path = engine_.path();
  stats_.max_path_depth = std::max<uint64_t>(stats_.max_path_depth, path.size());
  uint64_t hash = HashDecisions(path);
  if (seen_paths_.insert(hash).second) {
    ++stats_.unique_paths;
  } else {
    ++stats_.duplicate_paths;
  }
  for (const BranchRecord& b : path) {
    covered_.insert({b.site, b.taken});
  }
  stats_.branches_covered = covered_.size();

  Assignment effective = engine_.EffectiveAssignment();
  strategy_->AddPath(path, effective, bound);
  if (on_run_) {
    on_run_(effective, path);
  }
}

void ConcolicDriver::MirrorSolverCounters() {
  stats_.solver_cache_hits = solver_->stats().cache_hits - solver_cache_hits_base_;
  stats_.solver_cache_misses = solver_->stats().cache_misses - solver_cache_misses_base_;
  stats_.solver_cache_preloaded_hits =
      solver_->stats().cache_preloaded_hits - solver_cache_preloaded_hits_base_;
  stats_.solver_atoms_sliced = solver_->stats().atoms_sliced - solver_atoms_sliced_base_;
}

void ConcolicDriver::StartIncremental(const Program& program, RunObserver on_run) {
  program_ = program;
  on_run_ = std::move(on_run);
  incremental_active_ = true;
  solver_cache_hits_base_ = solver_->stats().cache_hits;
  solver_cache_misses_base_ = solver_->stats().cache_misses;
  solver_cache_preloaded_hits_base_ = solver_->stats().cache_preloaded_hits;
  solver_atoms_sliced_base_ = solver_->stats().atoms_sliced;
  // Seed run on the originally observed input (empty assignment = seeds).
  RunOnce(Assignment{}, /*bound=*/0);
}

bool ConcolicDriver::StepIncremental() {
  if (!incremental_active_) {
    return false;
  }
  if (stats_.runs >= options_.max_runs) {
    incremental_active_ = false;
    return false;
  }
  while (auto candidate = strategy_->Next()) {
    constraints_scratch_.clear();
    candidate->AppendConstraints(constraints_scratch_);
    SolveResult solved =
        solver_->Solve(constraints_scratch_, engine_.vars(), *candidate->parent_assignment);
    MirrorSolverCounters();
    switch (solved.kind) {
      case SolveKind::kSat: {
        ++stats_.solver_sat;
        RunOnce(solved.model, candidate->bound);
        return true;
      }
      case SolveKind::kUnsat:
        ++stats_.solver_unsat;
        continue;  // infeasible flip: try the next candidate
      case SolveKind::kUnknown:
        ++stats_.solver_unknown;
        continue;
    }
  }
  incremental_active_ = false;
  return false;  // frontier exhausted
}

size_t ConcolicDriver::Explore(const Program& program, RunObserver on_run) {
  StartIncremental(program, std::move(on_run));
  while (stats_.runs < options_.max_runs && StepIncremental()) {
  }
  incremental_active_ = false;
  return stats_.runs;
}

}  // namespace dice::sym
