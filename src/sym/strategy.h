// Path-exploration strategies: which recorded predicate to negate next.
//
// Each explored run hands its path condition to the strategy; the strategy
// yields candidate "negation points" — a prefix of the path plus the negated
// predicate at the chosen index — which the driver feeds to the solver. This
// is the scheduling half of Fig. 1's "negate the predicates to systematically
// explore code paths"; Oasis's default strategy "attempts to cover all
// execution paths" (§3.1), which GenerationalStrategy reproduces (it is
// SAGE-style generational search with branch-coverage scoring).

#ifndef SRC_SYM_STRATEGY_H_
#define SRC_SYM_STRATEGY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/sym/engine.h"
#include "src/util/rng.h"

namespace dice::sym {

// A candidate input to synthesize: satisfy the path constraints before the
// negation point and the negation of the branch at `depth` (as taken in the
// parent run). Candidates born from the same path share one immutable copy of
// it (and of the parent assignment) instead of materializing a prefix vector
// each — a path of length L used to cost O(L^2) records across its
// candidates.
struct NegationCandidate {
  std::shared_ptr<const Path> path;                  // the parent run's path
  std::shared_ptr<const Assignment> parent_assignment;  // hint for the solver
  size_t depth = 0;                  // index of the negation point
  // Children of the resulting run may only negate at indices > `bound`
  // (generational search bound; prevents re-deriving the same flips).
  size_t bound = 0;

  const BranchRecord& negated() const { return (*path)[depth]; }

  // Appends all constraints to satisfy — prefix + flipped branch — into a
  // caller-owned (typically reused) buffer.
  void AppendConstraints(std::vector<ExprPtr>& out) const {
    out.reserve(out.size() + depth + 1);
    for (size_t i = 0; i < depth; ++i) {
      out.push_back((*path)[i].Constraint());
    }
    // Flip: require the branch to go the *other* way.
    const BranchRecord& flip = negated();
    out.push_back(flip.taken ? Expr::Negate(flip.predicate) : flip.predicate);
  }

  // Convenience form for tests and one-off callers.
  std::vector<ExprPtr> Constraints() const {
    std::vector<ExprPtr> out;
    AppendConstraints(out);
    return out;
  }
};

// Stable hash of a decision sequence (site, taken)*, used to dedupe paths and
// candidates across runs.
uint64_t HashDecisions(const Path& path);
uint64_t HashDecisionsWithFlip(const Path& path, size_t flip_index);

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  virtual std::string name() const = 0;

  // Registers an executed path (with the assignment that produced it and the
  // generational bound it inherited). Implementations enqueue candidates.
  virtual void AddPath(const Path& path, const Assignment& assignment, size_t bound) = 0;

  // Next candidate to try, or nullopt when the frontier is exhausted.
  virtual std::optional<NegationCandidate> Next() = 0;

  virtual size_t FrontierSize() const = 0;
};

// SAGE-style generational search: every branch after the parent's bound
// produces a child candidate; candidates that would cover a (site, outcome)
// pair not yet seen are dequeued first.
//
// The frontier is indexed so Next() is O(log n): candidates are keyed by
// insertion order, and a side index tracks which still target an uncovered
// (site, outcome) pair. Coverage only grows, so candidates move fresh->stale
// exactly once — when AddPath first covers their target pair — which keeps
// the index maintenance incremental while picking the same candidate the
// original linear re-scan picked (first fresh in insertion order, else the
// overall FIFO head).
class GenerationalStrategy : public SearchStrategy {
 public:
  GenerationalStrategy() = default;

  std::string name() const override { return "generational"; }
  void AddPath(const Path& path, const Assignment& assignment, size_t bound) override;
  std::optional<NegationCandidate> Next() override;
  size_t FrontierSize() const override { return queue_.size(); }

 private:
  using SiteOutcome = std::pair<uint64_t, bool>;

  std::map<uint64_t, NegationCandidate> queue_;  // insertion order -> candidate
  std::set<uint64_t> fresh_;                     // orders targeting uncovered pairs
  std::map<SiteOutcome, std::set<uint64_t>> fresh_by_target_;
  std::set<uint64_t> attempted_;       // flip hashes already queued/tried
  std::set<SiteOutcome> covered_;      // (site, outcome)
  uint64_t next_order_ = 0;
};

// Depth-first: always negate the deepest unexplored branch of the most recent
// path (classic Crest DFS).
class DfsStrategy : public SearchStrategy {
 public:
  std::string name() const override { return "dfs"; }
  void AddPath(const Path& path, const Assignment& assignment, size_t bound) override;
  std::optional<NegationCandidate> Next() override;
  size_t FrontierSize() const override { return stack_.size(); }

 private:
  std::vector<NegationCandidate> stack_;
  std::set<uint64_t> attempted_;
};

// Breadth-first over negation depth.
class BfsStrategy : public SearchStrategy {
 public:
  std::string name() const override { return "bfs"; }
  void AddPath(const Path& path, const Assignment& assignment, size_t bound) override;
  std::optional<NegationCandidate> Next() override;
  size_t FrontierSize() const override { return queue_.size(); }

 private:
  std::deque<NegationCandidate> queue_;
  std::set<uint64_t> attempted_;
};

// Uniform random choice from the frontier (baseline for F1).
class RandomStrategy : public SearchStrategy {
 public:
  explicit RandomStrategy(uint64_t seed) : rng_(seed) {}

  std::string name() const override { return "random"; }
  void AddPath(const Path& path, const Assignment& assignment, size_t bound) override;
  std::optional<NegationCandidate> Next() override;
  size_t FrontierSize() const override { return pool_.size(); }

 private:
  std::vector<NegationCandidate> pool_;
  std::set<uint64_t> attempted_;
  Rng rng_;
};

std::unique_ptr<SearchStrategy> MakeStrategy(const std::string& name, uint64_t seed);

}  // namespace dice::sym

#endif  // SRC_SYM_STRATEGY_H_
