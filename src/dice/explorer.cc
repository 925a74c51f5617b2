#include "src/dice/explorer.h"

#include <algorithm>

#include "src/util/strings.h"

namespace dice {

std::string ExplorationReport::Summary() const {
  std::string out = StrFormat(
      "runs=%llu unique_paths=%llu branches=%llu accepted=%llu rejected=%llu "
      "intercepted=%llu clones=%llu detections=%zu",
      static_cast<unsigned long long>(concolic.runs),
      static_cast<unsigned long long>(concolic.unique_paths),
      static_cast<unsigned long long>(concolic.branches_covered),
      static_cast<unsigned long long>(runs_accepted),
      static_cast<unsigned long long>(runs_rejected),
      static_cast<unsigned long long>(intercepted_messages),
      static_cast<unsigned long long>(clones_made), detections.size());
  out += StrFormat(" clones_avoided=%llu clones_materialized=%llu",
                   static_cast<unsigned long long>(clones_avoided),
                   static_cast<unsigned long long>(clones_materialized));
  out += StrFormat(" cache_hits=%llu cache_misses=%llu sliced_atoms=%llu",
                   static_cast<unsigned long long>(concolic.solver_cache_hits),
                   static_cast<unsigned long long>(concolic.solver_cache_misses),
                   static_cast<unsigned long long>(concolic.solver_atoms_sliced));
  if (concolic.solver_cache_preloaded_hits > 0) {
    out += StrFormat(" preloaded_hits=%llu",
                     static_cast<unsigned long long>(concolic.solver_cache_preloaded_hits));
  }
  if (first_detection_run.has_value()) {
    out += StrFormat(" first_detection_run=%llu",
                     static_cast<unsigned long long>(*first_detection_run));
  }
  return out;
}

Explorer::Explorer(ExplorerOptions options)
    : options_(std::move(options)), solver_(options_.concolic.solver) {}

namespace {

// Per-exploration view of the long-lived solver's counters.
sym::SolverStats SubtractStats(const sym::SolverStats& now, const sym::SolverStats& base) {
  sym::SolverStats d;
  d.queries = now.queries - base.queries;
  d.sat = now.sat - base.sat;
  d.unsat = now.unsat - base.unsat;
  d.unknown = now.unknown - base.unknown;
  d.fallback_used = now.fallback_used - base.fallback_used;
  d.atoms_linearized = now.atoms_linearized - base.atoms_linearized;
  d.atoms_nonlinear = now.atoms_nonlinear - base.atoms_nonlinear;
  d.atoms_sliced = now.atoms_sliced - base.atoms_sliced;
  d.cache_hits = now.cache_hits - base.cache_hits;
  d.cache_misses = now.cache_misses - base.cache_misses;
  d.cache_unsat_shortcuts = now.cache_unsat_shortcuts - base.cache_unsat_shortcuts;
  d.cache_preloaded_hits = now.cache_preloaded_hits - base.cache_preloaded_hits;
  return d;
}

}  // namespace

void Explorer::AddChecker(std::unique_ptr<Checker> checker) {
  checkers_.push_back(std::move(checker));
}

void Explorer::TakeCheckpoint(const bgp::Router& router, net::SimTime now) {
  TakeCheckpoint(router.CheckpointState(), router.PeerViews(), now);
}

void Explorer::TakeCheckpoint(const bgp::Router& router, const net::ShardedEventLoop& loop) {
  DICE_CHECK(!loop.in_window())
      << "checkpoint taken mid-window: shard threads may be mutating router state";
  TakeCheckpoint(router, loop.now());
}

void Explorer::TakeCheckpoint(const bgp::RouterState& state, std::vector<bgp::PeerView> peers,
                              net::SimTime now) {
  checkpoints_.Take(state, std::move(peers), now);
  for (auto& checker : checkers_) {
    checker->OnCheckpoint(checkpoints_.current().state);
  }
}

sym::Program Explorer::MakeProgram(bgp::UpdateMessage seed, bgp::PeerId from) {
  // Each invocation is one exploration run: fresh clone, isolated sink, the
  // instrumented processing path, then the checkers.
  return [this, seed = std::move(seed), from](sym::Engine& engine) {
    checkpoint::CloneHandle handle = checkpoints_.CloneLazy();
    if (!options_.lazy_clones) {
      handle.Mutable();  // eager baseline: pay the copy up front, as before
    }
    ++report_.clones_made;

    const checkpoint::Checkpoint& cp = checkpoints_.current();
    const bgp::PeerView* from_view = nullptr;
    for (const bgp::PeerView& peer : cp.peers) {
      if (peer.id == from) {
        from_view = &peer;
      }
    }
    bgp::PeerView fallback;
    if (from_view == nullptr) {
      fallback.id = from;
      fallback.established = true;
      from_view = &fallback;
    }

    size_t intercepted_before = intercepted_.size();
    bgp::UpdateSink sink = [this](bgp::PeerId to, const bgp::UpdateMessage& update) {
      intercepted_.push_back(InterceptedMessage{to, update});
    };

    ExplorationOutcome outcome = ExploreUpdateOnClone(engine, handle, cp.peers, *from_view, seed,
                                                      options_.spec, sink);
    report_.intercepted_messages += intercepted_.size() - intercepted_before;
    if (outcome.installed) {
      ++report_.runs_accepted;
    } else {
      ++report_.runs_rejected;
    }
    if (handle.materialized()) {
      ++report_.clones_materialized;
    } else {
      ++report_.clones_avoided;
    }

    if (options_.measure_memory) {
      checkpoint::MemoryStats stats = checkpoints_.CloneSharing(handle.read());
      double fraction = stats.UniquePageFraction();
      report_.memory.runs_measured += 1;
      report_.memory.unique_page_fraction_sum += fraction;
      report_.memory.unique_page_fraction_max =
          std::max(report_.memory.unique_page_fraction_max, fraction);
      report_.memory.unique_pages_sum += stats.unique_pages;
      report_.memory.unique_pages_max =
          std::max(report_.memory.unique_pages_max, stats.unique_pages);
      // Engine-side memory for this run's recorded constraints (the analogue
      // of the Oasis bookkeeping the exploring children carry).
      uint64_t constraint_bytes = 0;
      for (const sym::BranchRecord& b : engine.path()) {
        constraint_bytes += b.predicate->NodeCount() * sizeof(sym::Expr);
      }
      report_.memory.constraint_bytes_sum += constraint_bytes;
      report_.memory.constraint_bytes_max =
          std::max(report_.memory.constraint_bytes_max, constraint_bytes);
    }

    RunInfo info;
    info.run_index = run_counter_;
    info.outcome = &outcome;
    info.clone_after = &handle.read();
    info.from = from_view;
    info.peers = &cp.peers;
    size_t before = report_.detections.size();
    for (auto& checker : checkers_) {
      checker->OnRun(info, &report_.detections);
    }
    if (report_.detections.size() > before && !report_.first_detection_run.has_value()) {
      report_.first_detection_run = run_counter_;
    }
    ++run_counter_;
  };
}

void Explorer::StartExploration(const bgp::UpdateMessage& seed, bgp::PeerId from) {
  solver_stats_base_ = solver_.stats();
  driver_ = std::make_unique<sym::ConcolicDriver>(options_.concolic, &solver_);
  driver_->StartIncremental(MakeProgram(seed, from));
  report_.concolic = driver_->stats();
  report_.solver = SubtractStats(driver_->solver_stats(), solver_stats_base_);
}

bool Explorer::Step() {
  if (driver_ == nullptr) {
    return false;
  }
  bool more = driver_->StepIncremental();
  report_.concolic = driver_->stats();
  report_.solver = SubtractStats(driver_->solver_stats(), solver_stats_base_);
  return more;
}

size_t Explorer::ExploreSeed(const bgp::UpdateMessage& seed, bgp::PeerId from) {
  StartExploration(seed, from);
  while (Step()) {
  }
  return report_.concolic.runs;
}

}  // namespace dice
