#include "src/sym/solver.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>

#include "src/util/logging.h"

namespace dice::sym {

using solver_internal::Interval;
using solver_internal::LinCmp;
using solver_internal::LinearAtom;
using solver_internal::LinearTerm;
using solver_internal::Linearize;
using solver_internal::PropagateIntervals;
using solver_internal::SliceConstraints;
using solver_internal::SliceResult;

namespace solver_internal {
namespace {

// Floor/ceil division for int64 (C++ division truncates toward zero).
int64_t FloorDiv(int64_t a, int64_t b) {
  DICE_CHECK_NE(b, 0);
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) {
    --q;
  }
  return q;
}

int64_t CeilDiv(int64_t a, int64_t b) {
  DICE_CHECK_NE(b, 0);
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) == (b < 0))) {
    ++q;
  }
  return q;
}

// Linear form under construction: coefficient map + constant.
struct LinForm {
  std::map<VarId, int64_t> coefs;
  int64_t constant = 0;
};

// Magnitude guards chosen so every intermediate fits comfortably in int64:
// coefficients stay below 2^20, variable values below 2^33 (our variables are
// at most 32-bit), constants below 2^40 (prefix bounds like 0xffffffff are
// common); any per-atom sum is then < 64 terms * 2^20 * 2^33 < 2^60.
constexpr int64_t kCoefLimit = int64_t{1} << 20;
constexpr int64_t kConstLimit = int64_t{1} << 40;

bool ExtractLinear(const ExprPtr& e, LinForm& out, int64_t scale) {
  if (std::abs(scale) > kCoefLimit) {
    return false;
  }
  switch (e->op()) {
    case Op::kConst: {
      if (e->imm() > static_cast<uint64_t>(kConstLimit)) {
        return false;
      }
      __int128 c = static_cast<__int128>(scale) * static_cast<int64_t>(e->imm());
      __int128 acc = static_cast<__int128>(out.constant) + c;
      if (acc > (static_cast<__int128>(1) << 62) || acc < -(static_cast<__int128>(1) << 62)) {
        return false;
      }
      out.constant = static_cast<int64_t>(acc);
      return true;
    }
    case Op::kVar: {
      int64_t& coef = out.coefs[static_cast<VarId>(e->imm())];
      coef += scale;
      if (std::abs(coef) > kCoefLimit) {
        return false;
      }
      return true;
    }
    case Op::kAdd:
      return ExtractLinear(e->lhs(), out, scale) && ExtractLinear(e->rhs(), out, scale);
    case Op::kSub:
      return ExtractLinear(e->lhs(), out, scale) && ExtractLinear(e->rhs(), out, -scale);
    case Op::kMul: {
      if (e->lhs()->IsConst()) {
        int64_t c = static_cast<int64_t>(e->lhs()->imm());
        if (std::abs(c) > kCoefLimit) {
          return false;
        }
        return ExtractLinear(e->rhs(), out, scale * c);
      }
      if (e->rhs()->IsConst()) {
        int64_t c = static_cast<int64_t>(e->rhs()->imm());
        if (std::abs(c) > kCoefLimit) {
          return false;
        }
        return ExtractLinear(e->lhs(), out, scale * c);
      }
      return false;  // variable * variable is non-linear
    }
    case Op::kShl: {
      if (e->rhs()->IsConst() && e->rhs()->imm() < 20) {
        return ExtractLinear(e->lhs(), out, scale * (int64_t{1} << e->rhs()->imm()));
      }
      return false;
    }
    default:
      return false;  // masks, xor, shr: non-linear for our purposes
  }
}

}  // namespace

std::optional<LinearAtom> Linearize(const ExprPtr& cmp_expr) {
  LinCmp cmp;
  switch (cmp_expr->op()) {
    case Op::kEq: cmp = LinCmp::kEq; break;
    case Op::kNe: cmp = LinCmp::kNe; break;
    case Op::kULt: cmp = LinCmp::kLt; break;
    case Op::kULe: cmp = LinCmp::kLe; break;
    case Op::kUGt: cmp = LinCmp::kGt; break;
    case Op::kUGe: cmp = LinCmp::kGe; break;
    default:
      return std::nullopt;
  }
  LinForm lhs;
  if (!ExtractLinear(cmp_expr->lhs(), lhs, 1) || !ExtractLinear(cmp_expr->rhs(), lhs, -1)) {
    return std::nullopt;
  }
  LinearAtom atom;
  atom.cmp = cmp;
  atom.rhs = -lhs.constant;  // move the constant to the right-hand side
  for (const auto& [var, coef] : lhs.coefs) {
    if (coef != 0) {
      atom.terms.push_back(LinearTerm{var, coef});
    }
  }
  // Normalize strict comparisons to non-strict over integers.
  if (atom.cmp == LinCmp::kLt) {
    atom.cmp = LinCmp::kLe;
    atom.rhs -= 1;
  } else if (atom.cmp == LinCmp::kGt) {
    atom.cmp = LinCmp::kGe;
    atom.rhs += 1;
  }
  return atom;
}

namespace {

// Minimum/maximum achievable value of sum(terms) under the given domains,
// excluding the term at `skip` (SIZE_MAX to include all).
void SumBounds(const LinearAtom& atom, const std::vector<Interval>& domains, size_t skip,
               int64_t& min_sum, int64_t& max_sum) {
  min_sum = 0;
  max_sum = 0;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i == skip) {
      continue;
    }
    const LinearTerm& t = atom.terms[i];
    const Interval& d = domains[t.var];
    int64_t lo = static_cast<int64_t>(d.lo);
    int64_t hi = static_cast<int64_t>(d.hi);
    if (t.coef >= 0) {
      min_sum += t.coef * lo;
      max_sum += t.coef * hi;
    } else {
      min_sum += t.coef * hi;
      max_sum += t.coef * lo;
    }
  }
}

// Tightens the domain of atom.terms[idx] using the other terms' bounds.
// Returns false if the domain becomes empty.
bool TightenOne(const LinearAtom& atom, size_t idx, std::vector<Interval>& domains) {
  const LinearTerm& t = atom.terms[idx];
  Interval& d = domains[t.var];
  int64_t min_rest;
  int64_t max_rest;
  SumBounds(atom, domains, idx, min_rest, max_rest);

  auto apply_le = [&](int64_t bound_rhs) {
    // t.coef * x <= bound_rhs - min_rest
    int64_t avail = bound_rhs - min_rest;
    if (t.coef > 0) {
      int64_t ub = FloorDiv(avail, t.coef);
      if (ub < static_cast<int64_t>(d.lo)) {
        d = Interval{1, 0};
        return;
      }
      d.hi = std::min<uint64_t>(d.hi, static_cast<uint64_t>(std::max<int64_t>(ub, 0)));
      if (ub < 0) {
        d = Interval{1, 0};
      }
    } else {
      int64_t lb = CeilDiv(avail, t.coef);  // dividing by negative flips
      if (lb > static_cast<int64_t>(d.hi)) {
        d = Interval{1, 0};
        return;
      }
      if (lb > 0) {
        d.lo = std::max<uint64_t>(d.lo, static_cast<uint64_t>(lb));
      }
    }
  };
  auto apply_ge = [&](int64_t bound_rhs) {
    // t.coef * x >= bound_rhs - max_rest
    int64_t need = bound_rhs - max_rest;
    if (t.coef > 0) {
      int64_t lb = CeilDiv(need, t.coef);
      if (lb > static_cast<int64_t>(d.hi)) {
        d = Interval{1, 0};
        return;
      }
      if (lb > 0) {
        d.lo = std::max<uint64_t>(d.lo, static_cast<uint64_t>(lb));
      }
    } else {
      int64_t ub = FloorDiv(need, t.coef);
      if (ub < static_cast<int64_t>(d.lo)) {
        d = Interval{1, 0};
        return;
      }
      d.hi = std::min<uint64_t>(d.hi, static_cast<uint64_t>(std::max<int64_t>(ub, 0)));
      if (ub < 0) {
        d = Interval{1, 0};
      }
    }
  };

  switch (atom.cmp) {
    case LinCmp::kLe:
      apply_le(atom.rhs);
      break;
    case LinCmp::kGe:
      apply_ge(atom.rhs);
      break;
    case LinCmp::kEq:
      apply_le(atom.rhs);
      if (!d.Empty()) {
        apply_ge(atom.rhs);
      }
      break;
    case LinCmp::kNe:
      // Only prunes when the domain is a single point equal to the only
      // solution; handled by the search instead.
      break;
    case LinCmp::kLt:
    case LinCmp::kGt:
      DICE_LOG(kFatal) << "strict comparisons are normalized away";
  }
  return !d.Empty();
}

}  // namespace

bool PropagateIntervals(const std::vector<LinearAtom>& atoms, std::vector<Interval>& domains,
                        const std::vector<VarInfo>& vars) {
  (void)vars;
  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    for (const LinearAtom& atom : atoms) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        Interval before = domains[atom.terms[i].var];
        if (!TightenOne(atom, i, domains)) {
          return false;
        }
        const Interval& after = domains[atom.terms[i].var];
        if (after.lo != before.lo || after.hi != before.hi) {
          changed = true;
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  return true;
}

SliceResult SliceConstraints(const std::vector<ExprPtr>& constraints,
                             const std::vector<uint64_t>& base_dense) {
  SliceResult out;
  const size_t n = constraints.size();
  // Union-find over constraint indices, linked through shared variables.
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&parent](size_t i) -> size_t {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  auto unite = [&](size_t a, size_t b) { parent[find(a)] = find(b); };

  std::unordered_map<VarId, size_t> var_owner;  // variable -> first constraint seen
  for (size_t i = 0; i < n; ++i) {
    for (VarId v : constraints[i]->vars()) {
      auto [it, inserted] = var_owner.emplace(v, i);
      if (!inserted) {
        unite(i, it->second);
      }
    }
  }

  // A component must be solved iff the hint-completed base violates at least
  // one of its constraints. Variable-free constraints are constants: a false
  // one refutes the whole conjunction, a true one is dropped outright.
  std::vector<char> component_violated(n, 0);
  for (size_t i = 0; i < n; ++i) {
    bool satisfied = constraints[i]->EvalDense(base_dense) != 0;
    if (constraints[i]->vars().empty()) {
      if (!satisfied) {
        out.trivially_unsat = true;
        out.active.clear();
        out.sliced_away = 0;
        return out;
      }
      continue;
    }
    if (!satisfied) {
      component_violated[find(i)] = 1;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (constraints[i]->vars().empty()) {
      ++out.sliced_away;  // constant-true
      continue;
    }
    if (component_violated[find(i)] != 0) {
      out.active.push_back(constraints[i]);
    } else {
      ++out.sliced_away;
    }
  }
  return out;
}

}  // namespace solver_internal

namespace {

// Fingerprint of the variable universe (ids, widths, domain bounds): cached
// verdicts are only sound for the domains they were computed under.
uint64_t VarsFingerprint(const std::vector<VarInfo>& vars) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const VarInfo& v : vars) {
    h = HashCombine(h, v.id);
    h = HashCombine(h, v.bits);
    h = HashCombine(h, v.lo);
    h = HashCombine(h, v.hi);
  }
  return h;
}

}  // namespace

// --- QueryCache --------------------------------------------------------------

QueryCache::QueryCache(size_t max_entries, size_t max_cores)
    : max_entries_(std::max<size_t>(1, max_entries)), max_cores_(max_cores) {}

void QueryCache::ResetIfVarsChanged(const std::vector<VarInfo>& vars) {
  const uint64_t h = VarsFingerprint(vars);
  if (vars_fingerprint_ == h) {
    return;
  }
  entries_.clear();
  cores_.clear();
  vars_fingerprint_ = h;
}

const QueryCache::Entry* QueryCache::Find(const QueryKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

bool QueryCache::MatchesUnsatCore(const QueryKey& key, bool* matched_preloaded) const {
  for (const Core& core : cores_) {
    if (core.key.size() <= key.size() &&
        std::includes(key.begin(), key.end(), core.key.begin(), core.key.end())) {
      if (matched_preloaded != nullptr) {
        *matched_preloaded = core.preloaded;
      }
      return true;
    }
  }
  return false;
}

void QueryCache::Store(QueryKey key, Entry entry) {
  if (entries_.size() >= max_entries_) {
    entries_.clear();
  }
  entries_.insert_or_assign(std::move(key), std::move(entry));
}

void QueryCache::PublishCores(std::vector<Core> cores) {
  for (Core& core : cores) {
    bool duplicate = false;
    for (const Core& existing : cores_) {
      if (existing.key == core.key) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    cores_.push_back(std::move(core));
    if (cores_.size() > max_cores_) {
      cores_.pop_front();
    }
  }
}

QueryCache::Exported QueryCache::Export() const {
  Exported out;
  out.vars_fingerprint = vars_fingerprint_;
  out.entries.reserve(entries_.size());
  // dice-lint: unordered-iteration-ok(collected wholesale; the snapshot serializer orders them)
  for (const auto& [key, entry] : entries_) {
    out.entries.emplace_back(key, entry);
  }
  out.cores.assign(cores_.begin(), cores_.end());
  return out;
}

void QueryCache::Import(Exported snapshot) {
  entries_.clear();
  cores_.clear();
  for (Core& core : snapshot.cores) {
    if (cores_.size() >= max_cores_) {
      break;
    }
    core.preloaded = true;
    cores_.push_back(std::move(core));
  }
  for (auto& [key, entry] : snapshot.entries) {
    if (entries_.size() >= max_entries_) {
      break;  // capacity-capped import: keep what fits, stay warm
    }
    entry.preloaded = true;
    entries_.insert_or_assign(std::move(key), std::move(entry));
  }
  // The first ResetIfVarsChanged after a warm start keeps these entries iff
  // the live variable universe matches the one the snapshot was computed
  // under.
  vars_fingerprint_ = snapshot.vars_fingerprint;
}

// --- Solver ------------------------------------------------------------------

Solver::Solver(SolverOptions options)
    : options_(options),
      rng_(options.seed),
      cache_(std::make_shared<QueryCache>(options.max_cache_entries, options.max_unsat_cores)) {}

namespace {

struct AtomSet {
  std::vector<ExprPtr> all;           // every atom (for final verification)
  std::vector<LinearAtom> linear;
  std::vector<ExprPtr> nonlinear;
};

// Expands a conjunction with disjunction choice points into atom sets, depth
// first, invoking `visit` for each complete choice. Returns false once the
// path budget is exhausted.
//
// Disjunct order is guided by `guide` (the solver hint, i.e. the parent run's
// assignment, as a dense VarId-indexed table): the disjunct the guide
// satisfies is tried first. In concolic use the hint satisfies every
// constraint except the flipped one, so the first expansion is feasible for
// all non-flipped disjunctions and the cartesian choice space collapses to a
// handful of visits.
bool ExpandChoices(std::vector<ExprPtr> pending, AtomSet atoms, size_t& budget,
                   const std::vector<uint64_t>& guide,
                   const std::function<bool(AtomSet&)>& visit) {
  while (!pending.empty()) {
    ExprPtr e = pending.back();
    pending.pop_back();
    switch (e->op()) {
      case Op::kConst:
        if (e->imm() == 0) {
          return true;  // this choice path is infeasible; keep exploring others
        }
        continue;
      case Op::kLAnd:
        pending.push_back(e->lhs());
        pending.push_back(e->rhs());
        continue;
      case Op::kLNot:
        pending.push_back(Expr::Negate(e->lhs()));
        continue;
      case Op::kLOr: {
        if (budget == 0) {
          return false;
        }
        --budget;
        ExprPtr first = e->lhs();
        ExprPtr second = e->rhs();
        if (first->EvalDense(guide) == 0 && second->EvalDense(guide) != 0) {
          std::swap(first, second);
        }
        {
          std::vector<ExprPtr> preferred = pending;
          preferred.push_back(std::move(first));
          if (!ExpandChoices(std::move(preferred), atoms, budget, guide, visit)) {
            return false;
          }
        }
        pending.push_back(std::move(second));
        continue;
      }
      default: {
        atoms.all.push_back(e);
        continue;
      }
    }
  }
  return visit(atoms);
}

// Evaluates all atoms against the dense model; returns the number satisfied.
size_t CountSatisfiedDense(const std::vector<ExprPtr>& atoms,
                           const std::vector<uint64_t>& model) {
  size_t n = 0;
  for (const ExprPtr& a : atoms) {
    if (a->EvalDense(model) != 0) {
      ++n;
    }
  }
  return n;
}

// True iff every disjunct expansion of `constraints` is refuted by interval
// propagation alone (all atoms linear, some domain emptied). A conservative
// UNSAT proof for a small constraint subset; used to learn reusable cores.
bool RefutedByIntervals(const std::vector<ExprPtr>& constraints, const std::vector<VarInfo>& vars,
                        const std::vector<uint64_t>& guide, size_t max_id) {
  size_t budget = 8;  // tiny subsets only; cap the disjunct expansion hard
  bool all_refuted = true;
  bool completed =
      ExpandChoices(constraints, AtomSet{}, budget, guide, [&](AtomSet& atoms) {
        std::vector<LinearAtom> linear;
        linear.reserve(atoms.all.size());
        for (const ExprPtr& a : atoms.all) {
          std::optional<LinearAtom> lin = Linearize(a);
          if (!lin.has_value()) {
            all_refuted = false;
            return false;  // non-linear: no interval proof; stop
          }
          linear.push_back(std::move(*lin));
        }
        std::vector<Interval> domains(max_id + 1);
        for (const VarInfo& v : vars) {
          uint64_t width_max = v.bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << v.bits) - 1);
          domains[v.id] = Interval{v.lo, std::min(v.hi, width_max)};
        }
        if (PropagateIntervals(linear, domains, vars)) {
          all_refuted = false;
          return false;  // a path survived propagation: not provably UNSAT
        }
        return true;
      });
  return completed && all_refuted;
}

}  // namespace

SolveResult Solver::SolveCore(const std::vector<ExprPtr>& query, const std::vector<VarInfo>& vars,
                              const std::vector<uint64_t>& base_dense) {
  SolveResult result;

  // The candidate search and the stochastic fallback run entirely on flat
  // VarId-indexed vectors (no per-candidate hash-map churn); an Assignment is
  // materialized only for a found model.
  const size_t max_id = base_dense.empty() ? 0 : base_dense.size() - 1;

  auto verify_query = [&](const std::vector<uint64_t>& model) {
    for (const ExprPtr& c : query) {
      if (c->EvalDense(model) == 0) {
        return false;
      }
    }
    return true;
  };

  // Domain ceiling from variable widths.
  auto domain_of = [&](const VarInfo& v) {
    uint64_t width_max = v.bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << v.bits) - 1);
    Interval d;
    d.lo = v.lo;
    d.hi = std::min(v.hi, width_max);
    return d;
  };

  bool every_path_refuted_by_intervals = true;
  bool found = false;
  std::vector<uint64_t> found_model;
  size_t disjunct_budget = options_.max_disjunct_paths;

  // State for the single post-expansion stochastic fallback.
  bool have_fallback_set = false;
  std::vector<ExprPtr> fallback_atoms;
  std::vector<VarId> fallback_order;
  std::vector<Interval> fallback_domains;

  // Search-node budget shared across all disjunct choice paths of this query,
  // so deeply disjunctive path conditions cannot multiply the search cost.
  size_t search_nodes_used = 0;

  // Linearization results are pure per expression node; cache them across
  // disjunct choice paths (most atoms are common to all paths).
  std::unordered_map<const Expr*, std::optional<LinearAtom>> lin_cache;
  auto linearize_cached = [&](const ExprPtr& e) -> const std::optional<LinearAtom>& {
    auto it = lin_cache.find(e.get());
    if (it == lin_cache.end()) {
      it = lin_cache.emplace(e.get(), Linearize(e)).first;
    }
    return it->second;
  };

  auto try_atom_set = [&](AtomSet& atoms) -> bool {
    // Returning false stops the expansion (we found a model).
    atoms.linear.clear();
    atoms.nonlinear.clear();
    for (const ExprPtr& a : atoms.all) {
      const std::optional<LinearAtom>& lin = linearize_cached(a);
      if (lin.has_value()) {
        ++stats_.atoms_linearized;
        atoms.linear.push_back(*lin);
      } else {
        ++stats_.atoms_nonlinear;
        atoms.nonlinear.push_back(a);
      }
    }

    // Interval propagation over a dense domain table indexed by VarId.
    std::vector<Interval> domains(max_id + 1);
    for (const VarInfo& v : vars) {
      domains[v.id] = domain_of(v);
    }
    if (!PropagateIntervals(atoms.linear, domains, vars)) {
      return true;  // refuted; continue with other disjunct choices
    }
    every_path_refuted_by_intervals = false;

    // Exclusion points from single-variable Ne atoms.
    std::map<VarId, std::set<uint64_t>> excluded;
    for (const LinearAtom& atom : atoms.linear) {
      if (atom.cmp == LinCmp::kNe && atom.SingleVar()) {
        const LinearTerm& t = atom.terms[0];
        if (atom.rhs % t.coef == 0) {
          int64_t v = atom.rhs / t.coef;
          if (v >= 0) {
            excluded[t.var].insert(static_cast<uint64_t>(v));
          }
        }
      }
    }

    // Candidate values per variable: domain endpoints, the hint, and boundary
    // solutions of each atom with other variables fixed to the hint.
    std::map<VarId, std::vector<uint64_t>> candidates;
    auto add_candidate = [&](VarId var, int64_t value) {
      const Interval& d = domains[var];
      if (value < 0) {
        return;
      }
      uint64_t v = static_cast<uint64_t>(value);
      if (v < d.lo || v > d.hi) {
        return;
      }
      auto ex = excluded.find(var);
      if (ex != excluded.end() && ex->second.count(v) != 0) {
        return;
      }
      candidates[var].push_back(v);
    };

    std::set<VarId> constrained;
    for (const LinearAtom& atom : atoms.linear) {
      for (const LinearTerm& t : atom.terms) {
        constrained.insert(t.var);
      }
    }
    for (const ExprPtr& nl : atoms.nonlinear) {
      constrained.insert(nl->vars().begin(), nl->vars().end());
    }

    for (VarId var : constrained) {
      const Interval& d = domains[var];
      add_candidate(var, static_cast<int64_t>(d.lo));
      add_candidate(var, static_cast<int64_t>(d.hi));
      add_candidate(var, static_cast<int64_t>(base_dense[var]));
    }
    for (const LinearAtom& atom : atoms.linear) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        const LinearTerm& t = atom.terms[i];
        // rest evaluated at the hint.
        int64_t rest = 0;
        for (size_t j = 0; j < atom.terms.size(); ++j) {
          if (j != i) {
            rest += atom.terms[j].coef * static_cast<int64_t>(base_dense[atom.terms[j].var]);
          }
        }
        int64_t target = atom.rhs - rest;
        int64_t exact = solver_internal::FloorDiv(target, t.coef);
        for (int64_t delta = -1; delta <= 1; ++delta) {
          add_candidate(t.var, exact + delta);
        }
      }
    }
    // Excluded points suggest neighbours.
    for (const auto& [var, points] : excluded) {
      for (uint64_t p : points) {
        add_candidate(var, static_cast<int64_t>(p) - 1);
        add_candidate(var, static_cast<int64_t>(p) + 1);
      }
    }

    // Dedupe and cap candidate lists. Order by distance from the hint value:
    // concolic exploration wants the new input to stay as close to the parent
    // run as the constraints allow, so unconstrained variables keep their
    // seed values instead of collapsing to domain bounds.
    std::vector<VarId> order(constrained.begin(), constrained.end());
    for (VarId var : order) {
      auto& list = candidates[var];
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      uint64_t anchor = base_dense[var];
      std::stable_sort(list.begin(), list.end(), [anchor](uint64_t a, uint64_t b) {
        uint64_t da = a > anchor ? a - anchor : anchor - a;
        uint64_t db = b > anchor ? b - anchor : anchor - b;
        return da < db;
      });
      if (list.size() > 24) {
        list.resize(24);
      }
      if (list.empty()) {
        // Domain may be non-empty but all candidates excluded; sample a few.
        core_used_rng_ = true;
        const Interval& d = domains[var];
        for (int k = 0; k < 8 && list.size() < 4; ++k) {
          uint64_t v = d.lo + rng_.NextBelow(d.hi - d.lo + 1);
          auto ex = excluded.find(var);
          if (ex == excluded.end() || ex->second.count(v) == 0) {
            list.push_back(v);
          }
        }
        if (list.empty()) {
          return true;  // fully excluded domain: refuted for this path
        }
      }
    }
    // Most-constrained (fewest candidates) first.
    std::sort(order.begin(), order.end(), [&](VarId a, VarId b) {
      return candidates[a].size() < candidates[b].size();
    });
    // O(1) "assigned by this depth" lookups for the partial pruning below.
    std::vector<size_t> var_pos(max_id + 1, SIZE_MAX);
    for (size_t k = 0; k < order.size(); ++k) {
      var_pos[order[k]] = k;
    }

    // DFS over candidate assignments, on a flat scratch model.
    std::vector<uint64_t> model = base_dense;
    std::function<bool(size_t)> dfs = [&](size_t depth) -> bool {
      if (search_nodes_used >= options_.max_search_nodes) {
        return false;
      }
      if (depth == order.size()) {
        ++search_nodes_used;
        return CountSatisfiedDense(atoms.all, model) == atoms.all.size();
      }
      VarId var = order[depth];
      for (uint64_t v : candidates[var]) {
        model[var] = v;
        ++search_nodes_used;
        // Partial pruning: check linear atoms whose variables are all set.
        bool feasible = true;
        for (const LinearAtom& atom : atoms.linear) {
          bool ready = true;
          int64_t sum = 0;
          for (const LinearTerm& t : atom.terms) {
            if (var_pos[t.var] > depth) {  // SIZE_MAX for unordered vars
              ready = false;
              break;
            }
            sum += t.coef * static_cast<int64_t>(model[t.var]);
          }
          if (!ready) {
            continue;
          }
          bool ok = true;
          switch (atom.cmp) {
            case LinCmp::kEq: ok = sum == atom.rhs; break;
            case LinCmp::kNe: ok = sum != atom.rhs; break;
            case LinCmp::kLe: ok = sum <= atom.rhs; break;
            case LinCmp::kGe: ok = sum >= atom.rhs; break;
            default: ok = true; break;
          }
          if (!ok) {
            feasible = false;
            break;
          }
        }
        if (feasible && dfs(depth + 1)) {
          return true;
        }
      }
      model[var] = base_dense[var];
      return false;
    };

    if (dfs(0)) {
      if (verify_query(model)) {
        found = true;
        found_model = std::move(model);
        return false;  // stop expansion
      }
    }

    // Remember one unresolved atom set for the (single, post-expansion)
    // stochastic fallback — running it per disjunct path would multiply its
    // cost by the number of choice combinations. Only non-linear leftovers
    // warrant it: when every atom is linear, the boundary search failing
    // means the set is (near-)infeasible and hill climbing will not help.
    if (!have_fallback_set && !atoms.nonlinear.empty()) {
      have_fallback_set = true;
      fallback_atoms = atoms.all;
      fallback_order.assign(order.begin(), order.end());
      fallback_domains = domains;
    }
    return true;  // keep trying other disjunct choices
  };

  std::vector<ExprPtr> pending = query;
  bool completed = ExpandChoices(std::move(pending), AtomSet{}, disjunct_budget, base_dense,
                                 [&](AtomSet& atoms) { return try_atom_set(atoms); });

  // Single stochastic fallback over one representative unresolved atom set
  // (hill climbing on the number of satisfied atoms; the last resort for
  // non-linear leftovers).
  if (!found && have_fallback_set && !fallback_order.empty()) {
    ++stats_.fallback_used;
    core_used_rng_ = true;
    std::vector<uint64_t> best = base_dense;
    for (VarId var : fallback_order) {
      const Interval& d = fallback_domains[var];
      best[var] = std::clamp(best[var], d.lo, d.hi);
    }
    size_t best_score = CountSatisfiedDense(fallback_atoms, best);
    std::vector<uint64_t> cur = best;
    for (size_t iter = 0; iter < options_.max_fallback_iterations; ++iter) {
      if (best_score == fallback_atoms.size()) {
        break;
      }
      cur = best;
      VarId var = fallback_order[rng_.NextBelow(fallback_order.size())];
      const Interval& d = fallback_domains[var];
      uint64_t span = d.hi - d.lo;
      uint64_t v;
      switch (rng_.NextBelow(4)) {
        case 0:
          v = d.lo + (span == ~uint64_t{0} ? rng_.NextU64() : rng_.NextBelow(span + 1));
          break;
        case 1:
          v = cur[var] + 1;
          break;
        case 2:
          v = cur[var] == 0 ? 0 : cur[var] - 1;
          break;
        default:
          v = cur[var] ^ (uint64_t{1} << rng_.NextBelow(32));
          break;
      }
      cur[var] = std::clamp(v, d.lo, d.hi);
      size_t score = CountSatisfiedDense(fallback_atoms, cur);
      if (score >= best_score) {
        best_score = score;
        best = cur;
      }
    }
    if (best_score == fallback_atoms.size() && verify_query(best)) {
      found = true;
      found_model = std::move(best);
    }
  }

  if (found) {
    result.kind = SolveKind::kSat;
    for (const VarInfo& v : vars) {
      result.model[v.id] = found_model[v.id];
    }
    return result;
  }
  if (completed && every_path_refuted_by_intervals) {
    result.kind = SolveKind::kUnsat;
    return result;
  }
  result.kind = SolveKind::kUnknown;
  return result;
}

void Solver::LearnUnsatCores(const std::vector<ExprPtr>& query, const std::vector<VarInfo>& vars,
                             const std::vector<uint64_t>& base_dense,
                             std::vector<QueryCache::Core>& out) {
  constexpr size_t kMaxQueryForLearning = 128;
  if (query.size() > kMaxQueryForLearning || query.empty()) {
    return;
  }
  const size_t max_id = base_dense.empty() ? 0 : base_dense.size() - 1;
  // In concolic use the base violates exactly the flipped predicate; a core,
  // if one exists, must contain a violated constraint.
  std::vector<size_t> violated;
  for (size_t i = 0; i < query.size(); ++i) {
    if (query[i]->EvalDense(base_dense) == 0) {
      violated.push_back(i);
      if (violated.size() > 2) {
        return;  // unusual query shape; learning pairs would be a poor fit
      }
    }
  }
  auto add_core = [&](QueryKey core_key, std::vector<ExprPtr> owners) {
    std::sort(core_key.begin(), core_key.end());
    for (const QueryCache::Core& existing : out) {
      if (existing.key == core_key) {
        return;
      }
    }
    out.push_back(QueryCache::Core{std::move(core_key), std::move(owners)});
  };
  for (size_t v_idx : violated) {
    const ExprPtr& v = query[v_idx];
    if (RefutedByIntervals({v}, vars, base_dense, max_id)) {
      add_core({v->id()}, {v});
      continue;
    }
    for (size_t j = 0; j < query.size(); ++j) {
      if (j == v_idx) {
        continue;
      }
      if (RefutedByIntervals({v, query[j]}, vars, base_dense, max_id)) {
        add_core({v->id(), query[j]->id()}, {v, query[j]});
        break;  // one learned pair per violated constraint
      }
    }
  }
}

SolveResult Solver::Solve(const std::vector<ExprPtr>& constraints,
                          const std::vector<VarInfo>& vars, const Assignment& hint) {
  ++stats_.queries;
  SolveResult result;

  // Base assignment: hint completed with seeds, in dense VarId-indexed form —
  // the whole fast path (verify, slicing, cache validation) runs without
  // hash-map lookups; Assignments are materialized only for returned models.
  size_t max_id = 0;
  for (const VarInfo& v : vars) {
    max_id = std::max<size_t>(max_id, v.id);
  }
  std::vector<uint64_t> base_dense(max_id + 1, 0);
  for (const VarInfo& v : vars) {
    auto it = hint.find(v.id);
    base_dense[v.id] = it != hint.end() ? Expr::MaskTo(it->second, v.bits) : v.seed;
  }

  auto verify_full = [&](const std::vector<uint64_t>& model) {
    for (const ExprPtr& c : constraints) {
      if (c->EvalDense(model) == 0) {
        return false;
      }
    }
    return true;
  };
  auto to_assignment = [&](const std::vector<uint64_t>& model) {
    Assignment dense_as_map;
    dense_as_map.reserve(vars.size());
    for (const VarInfo& v : vars) {
      dense_as_map.emplace(v.id, model[v.id]);
    }
    return dense_as_map;
  };

  // Fast path: maybe the hint already satisfies everything.
  if (verify_full(base_dense)) {
    ++stats_.sat;
    result.kind = SolveKind::kSat;
    result.model = to_assignment(base_dense);
    return result;
  }

  // Independence slicing: keep only the connected components the base
  // assignment violates; the untouched components' variables carry their
  // hint/seed values straight into any model.
  const std::vector<ExprPtr>* query = &constraints;
  SliceResult slice;
  if (options_.enable_slicing) {
    slice = SliceConstraints(constraints, base_dense);
    stats_.atoms_sliced += slice.sliced_away;
    if (slice.trivially_unsat) {
      ++stats_.unsat;
      result.kind = SolveKind::kUnsat;
      return result;
    }
    query = &slice.active;
  }

  // Cross-run query cache over the canonicalized (sorted interned-id) slice.
  QueryKey key;
  if (options_.enable_cache) {
    cache_->ResetIfVarsChanged(vars);
    key.reserve(query->size());
    for (const ExprPtr& c : *query) {
      key.push_back(c->id());
    }
    std::sort(key.begin(), key.end());
    key.erase(std::unique(key.begin(), key.end()), key.end());

    std::vector<uint64_t> scratch;
    auto serve_sat = [&](const QueryCache::Entry& entry) -> bool {
      scratch = base_dense;
      // Order-insensitive: keys are unique, each write lands in a distinct
      // dense slot, and the result is read only after the loop completes.
      // dice-lint: unordered-iteration-ok(unique keys scatter into distinct dense slots)
      for (const auto& [var, value] : entry.model) {
        if (var < scratch.size()) {
          scratch[var] = value;
        }
      }
      if (!verify_full(scratch)) {
        return false;  // not a model of this query under this hint
      }
      ++stats_.sat;
      result.kind = SolveKind::kSat;
      result.model = to_assignment(scratch);
      return true;
    };
    auto same_hint = [&](const QueryCache::Entry& entry) {
      // Order-insensitive: a pure conjunction over all entries — the verdict
      // does not depend on which mismatch is seen first.
      // dice-lint: unordered-iteration-ok(pure conjunction, no early-exit side effects)
      for (const auto& [var, value] : entry.hint) {
        if (var >= base_dense.size() || base_dense[var] != value) {
          return false;
        }
      }
      return true;
    };

    const QueryCache::Entry* entry = cache_->Find(key);
    if (entry != nullptr) {
      // UNSAT is served as is. SAT and budget-exhausted verdicts are served
      // only when the anchoring hint matches on the query's support (and the
      // original solve drew no randomness — enforced at store time): under
      // those conditions the cached verdict replays a fresh solve
      // bit-for-bit.
      bool served = false;
      if (entry->kind == SolveKind::kUnsat) {
        ++stats_.unsat;
        result.kind = SolveKind::kUnsat;
        served = true;
      } else if (same_hint(*entry)) {
        if (entry->kind == SolveKind::kUnknown) {
          ++stats_.unknown;
          result.kind = SolveKind::kUnknown;
          served = true;
        } else {
          served = serve_sat(*entry);
        }
      }
      if (served) {
        ++stats_.cache_hits;
        if (entry->preloaded) {
          ++stats_.cache_preloaded_hits;
        }
        return result;
      }
    } else {
      // Any superset of a proven-UNSAT constraint set is UNSAT.
      bool core_preloaded = false;
      if (cache_->MatchesUnsatCore(key, &core_preloaded)) {
        ++stats_.cache_hits;
        ++stats_.cache_unsat_shortcuts;
        ++stats_.unsat;
        if (core_preloaded) {
          ++stats_.cache_preloaded_hits;
        }
        result.kind = SolveKind::kUnsat;
        // Promote to an exact entry so repeats of this query skip the
        // linear core scan; the entry inherits the core's snapshot
        // provenance so later hits keep counting as warm.
        QueryCache::Entry promoted;
        promoted.kind = SolveKind::kUnsat;
        promoted.constraints = *query;
        promoted.preloaded = core_preloaded;
        cache_->Store(std::move(key), std::move(promoted));
        return result;
      }
    }
    ++stats_.cache_misses;
  }

  auto verify_full_model = [&](const Assignment& model) {
    for (const ExprPtr& c : constraints) {
      if (c->Eval(model) == 0) {
        return false;
      }
    }
    return true;
  };
  core_used_rng_ = false;
  result = SolveCore(*query, vars, base_dense);
  if (result.kind == SolveKind::kSat && options_.enable_slicing &&
      !verify_full_model(result.model)) {
    // Safety net — component disjointness should make this unreachable, but a
    // sliced model must never be trusted without the full-conjunction check.
    result = SolveCore(constraints, vars, base_dense);
    if (result.kind == SolveKind::kSat && !verify_full_model(result.model)) {
      result.kind = SolveKind::kUnknown;
      result.model.clear();
    }
  }

  // SAT and UNKNOWN verdicts are replayable (and thus cacheable) only when
  // the solve drew no randomness; UNSAT is hint- and rng-independent because
  // it is proven by interval refutation, not search.
  const bool cacheable = result.kind == SolveKind::kUnsat || !core_used_rng_;
  if (options_.enable_cache && cacheable) {
    QueryCache::Entry entry;
    entry.kind = result.kind;
    entry.constraints = *query;
    if (result.kind != SolveKind::kUnsat) {
      // Remember the anchoring hint over the query's support.
      for (const ExprPtr& c : *query) {
        for (VarId v : c->vars()) {
          entry.hint.emplace(v, base_dense[v]);
        }
      }
    }
    if (result.kind == SolveKind::kSat) {
      for (const ExprPtr& c : *query) {
        for (VarId v : c->vars()) {
          auto it = result.model.find(v);
          if (it != result.model.end()) {
            entry.model.emplace(v, it->second);
          }
        }
      }
    } else if (result.kind == SolveKind::kUnsat) {
      // The full query is itself a proven-UNSAT core; the learner then tries
      // to shrink it to reusable 1-2 atom cores.
      std::vector<QueryCache::Core> learned;
      learned.push_back(QueryCache::Core{key, *query});
      LearnUnsatCores(*query, vars, base_dense, learned);
      cache_->PublishCores(std::move(learned));
    }
    cache_->Store(std::move(key), std::move(entry));
  }

  switch (result.kind) {
    case SolveKind::kSat: ++stats_.sat; break;
    case SolveKind::kUnsat: ++stats_.unsat; break;
    case SolveKind::kUnknown: ++stats_.unknown; break;
  }
  return result;
}

}  // namespace dice::sym
