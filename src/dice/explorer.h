// dice::Explorer — the top-level DiCE loop (§2.3):
//
//   1. take a checkpoint of the live router (O(1), copy-on-write);
//   2. feed a recently observed UPDATE to a clone of the checkpoint, with
//      selected fields marked symbolic, recording path constraints;
//   3. negate recorded predicates one at a time, solve for concrete inputs,
//      and explore each on a *fresh clone*, updating the aggregate constraint
//      set after every run;
//   4. intercept all messages clones emit (isolation from the live system);
//   5. run fault checkers against every run's outcome.
//
// The Explorer supports both batch exploration (ExploreSeed) and incremental
// stepping (Step), which the overhead benchmarks use to interleave
// exploration with live update processing on one core, as the paper's testbed
// does.

#ifndef SRC_DICE_EXPLORER_H_
#define SRC_DICE_EXPLORER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/bgp/router.h"
#include "src/checkpoint/checkpoint.h"
#include "src/dice/checkers.h"
#include "src/dice/instrumented.h"
#include "src/sym/concolic.h"

namespace dice {

struct ExplorerOptions {
  SymbolicUpdateSpec spec;
  sym::ConcolicOptions concolic;
  // When set, every run's clone is measured against the checkpoint (COW
  // sharing statistics) — the instrumentation behind the E1 memory bench.
  bool measure_memory = false;
  // Copy-on-first-write clones (default): a run's RouterState is copied only
  // when the run installs a route, so rejected runs read the checkpoint
  // directly and cost zero copies. Off = eager per-run clones (the
  // pre-fast-path behavior, kept for head-to-head benches and regression
  // gates). Results are identical either way.
  bool lazy_clones = true;
};

// Aggregated copy-on-write statistics over all exploration clones.
struct CloneMemoryStats {
  uint64_t runs_measured = 0;
  double unique_page_fraction_sum = 0;  // per-run unique/total pages vs checkpoint
  double unique_page_fraction_max = 0;
  uint64_t unique_pages_sum = 0;
  uint64_t unique_pages_max = 0;
  uint64_t constraint_bytes_sum = 0;  // engine-side expression memory per run
  uint64_t constraint_bytes_max = 0;

  double AvgUniquePageFraction() const {
    return runs_measured == 0 ? 0.0 : unique_page_fraction_sum / static_cast<double>(runs_measured);
  }
};

struct ExplorationReport {
  sym::ConcolicStats concolic;
  sym::SolverStats solver;  // this exploration only (the Explorer's solver
                            // is long-lived; lifetime totals are subtracted)
  std::vector<Detection> detections;
  uint64_t runs_accepted = 0;   // exploratory inputs that passed the import policy
  uint64_t runs_rejected = 0;
  uint64_t intercepted_messages = 0;
  uint64_t clones_made = 0;          // logical clones (one per run)
  uint64_t clones_materialized = 0;  // runs whose state was actually copied
  uint64_t clones_avoided = 0;       // zero-copy runs (read the checkpoint only)
  std::optional<uint64_t> first_detection_run;  // run index of the first fault found
  CloneMemoryStats memory;                      // filled when measure_memory is set

  std::string Summary() const;
};

class Explorer {
 public:
  explicit Explorer(ExplorerOptions options = {});

  // Checkers run on every exploration run after the next TakeCheckpoint.
  void AddChecker(std::unique_ptr<Checker> checker);

  // Snapshots `router`'s state as the exploration base (the paper's fork()).
  void TakeCheckpoint(const bgp::Router& router, net::SimTime now);

  // Sharded-simulation variant: checkpoints must be taken at a window
  // barrier, when no shard thread is mutating router state. Uses the loop's
  // (min-shard) clock as the checkpoint time.
  void TakeCheckpoint(const bgp::Router& router, const net::ShardedEventLoop& loop);

  // Direct-state variant for tests/benches that drive RouterState manually.
  void TakeCheckpoint(const bgp::RouterState& state, std::vector<bgp::PeerView> peers,
                      net::SimTime now);

  // Batch exploration of one observed input from peer `from`. Returns the
  // number of runs executed.
  size_t ExploreSeed(const bgp::UpdateMessage& seed, bgp::PeerId from);

  // Incremental: prime with a seed, then call Step() repeatedly; each Step
  // executes at most one exploration run. Returns false when exhausted.
  void StartExploration(const bgp::UpdateMessage& seed, bgp::PeerId from);
  bool Step();
  bool exploring() const { return driver_ != nullptr && driver_->incremental_active(); }

  const ExplorationReport& report() const { return report_; }
  const checkpoint::CheckpointManager& checkpoints() const { return checkpoints_; }

  // The long-lived solver's cross-run query cache — the warm state the
  // persistence layer (src/persist) snapshots and reloads across restarts.
  const std::shared_ptr<sym::QueryCache>& query_cache() const { return solver_.cache(); }

  // Messages exploration clones attempted to send, in order (never delivered
  // to the live network).
  struct InterceptedMessage {
    bgp::PeerId to = 0;
    bgp::UpdateMessage update;
  };
  const std::vector<InterceptedMessage>& intercepted() const { return intercepted_; }

 private:
  sym::Program MakeProgram(bgp::UpdateMessage seed, bgp::PeerId from);

  ExplorerOptions options_;
  checkpoint::CheckpointManager checkpoints_;
  std::vector<std::unique_ptr<Checker>> checkers_;
  // One solver for the Explorer's lifetime: its cross-run query cache
  // persists across seed explorations, which re-pose mostly identical
  // queries against the same router state.
  sym::Solver solver_;
  // Solver counter values at StartExploration, so report_.solver covers only
  // the current exploration.
  sym::SolverStats solver_stats_base_;
  std::unique_ptr<sym::ConcolicDriver> driver_;
  ExplorationReport report_;
  std::vector<InterceptedMessage> intercepted_;
  uint64_t run_counter_ = 0;
};

}  // namespace dice

#endif  // SRC_DICE_EXPLORER_H_
