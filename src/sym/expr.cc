#include "src/sym/expr.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice::sym {

const char* OpName(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kVar: return "var";
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kMul: return "*";
    case Op::kAndBits: return "&";
    case Op::kOrBits: return "|";
    case Op::kXorBits: return "^";
    case Op::kShl: return "<<";
    case Op::kShr: return ">>";
    case Op::kEq: return "==";
    case Op::kNe: return "!=";
    case Op::kULt: return "<";
    case Op::kULe: return "<=";
    case Op::kUGt: return ">";
    case Op::kUGe: return ">=";
    case Op::kLAnd: return "&&";
    case Op::kLOr: return "||";
    case Op::kLNot: return "!";
  }
  return "?";
}

bool Expr::IsBool() const { return bits_ == 1; }

// --- Hash-consing ------------------------------------------------------------
//
// One per-process table interns every node; children are themselves interned,
// so a node's identity is (op, bits, imm, lhs pointer, rhs pointer). Entries
// hold weak_ptrs and a node's shared_ptr deleter erases its entry, so the
// table tracks exactly the live nodes. The table is heap-allocated and never
// destroyed so that statically stored ExprPtrs can outlive it safely.
//
// Thread safety (the table is process-wide, so every thread that builds an
// expression interns through it): the table is split into lock-striped
// shards keyed by the structural hash of the node identity, one mutex per
// shard. Interning the same key from two threads serializes on the
// shard mutex, so both get the same node — pointer identity is preserved.
// Node ids come from one atomic counter: unique and stable, though the
// *order* ids are handed out in depends on thread interleaving; nothing
// result-bearing depends on id order (cache keys are sorted id *sets*).
//
// Deleter race: a node's refcount can hit zero on one thread while another
// thread's Intern finds its (now expired) entry. The finder treats an
// unlockable entry as a miss and replaces it; the straggling deleter only
// erases an entry that is still expired, so it never removes the
// replacement.

struct ExprInternAccess {
  struct Key {
    Op op;
    uint8_t bits;
    uint64_t imm;
    const Expr* lhs;
    const Expr* rhs;

    bool operator==(const Key& o) const {
      return op == o.op && bits == o.bits && imm == o.imm && lhs == o.lhs && rhs == o.rhs;
    }
  };

  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      h = HashCombine(h, static_cast<uint64_t>(k.op));
      h = HashCombine(h, k.bits);
      h = HashCombine(h, k.imm);
      h = HashCombine(h, reinterpret_cast<uintptr_t>(k.lhs));
      h = HashCombine(h, reinterpret_cast<uintptr_t>(k.rhs));
      return static_cast<size_t>(h);
    }
  };

  // Determinism audit: probed and size()-summed only, never iterated — expr
  // ids come from the atomic counter, not table order. dice_lint's
  // unordered-iteration check keeps it that way.
  using Table = std::unordered_map<Key, std::weak_ptr<const Expr>, KeyHash>;

  static constexpr size_t kShards = 16;

  struct Shard {
    std::mutex mu;
    Table table;
  };

  static Shard* shards() {
    static Shard* s = new Shard[kShards];  // intentionally leaked: see above
    return s;
  }

  static Shard& ShardFor(const Key& key) {
    return shards()[KeyHash{}(key) % kShards];
  }

  static std::atomic<uint64_t>& next_id() {
    static std::atomic<uint64_t> id{1};
    return id;
  }

  static Key KeyOf(const Expr& e) {
    return Key{e.op_, e.bits_, e.imm_, e.lhs_.get(), e.rhs_.get()};
  }

  static void Erase(const Expr* e) {
    Key key = KeyOf(*e);
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.table.find(key);
      // A live entry under this key is a replacement interned after our
      // refcount hit zero — leave it alone.
      if (it != shard.table.end() && it->second.expired()) {
        shard.table.erase(it);
      }
    }
    // Deleting outside the lock: the destructor drops child references,
    // which can cascade into Erase on this or another shard.
    delete e;
  }
};

size_t Expr::InternTableSize() {
  size_t n = 0;
  for (size_t i = 0; i < ExprInternAccess::kShards; ++i) {
    ExprInternAccess::Shard& shard = ExprInternAccess::shards()[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.table.size();
  }
  return n;
}

ExprPtr Expr::Intern(Op op, uint8_t bits, uint64_t imm, ExprPtr lhs, ExprPtr rhs) {
  ExprInternAccess::Key key{op, bits, imm, lhs.get(), rhs.get()};
  ExprInternAccess::Shard& shard = ExprInternAccess::ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.table.find(key);
  if (it != shard.table.end()) {
    if (ExprPtr existing = it->second.lock()) {
      return existing;
    }
    // Expired: the node died on another thread but its deleter has not
    // erased the entry yet. Take its place; the deleter skips live entries.
    shard.table.erase(it);
  }
  Expr* node = new Expr(op, bits, imm, std::move(lhs), std::move(rhs));
  node->id_ = ExprInternAccess::next_id().fetch_add(1, std::memory_order_relaxed);
  uint64_t h = 0x2545f4914f6cdd1dULL;
  h = HashCombine(h, static_cast<uint64_t>(op));
  h = HashCombine(h, bits);
  h = HashCombine(h, imm);
  h = HashCombine(h, node->lhs_ != nullptr ? node->lhs_->hash_ : 0);
  h = HashCombine(h, node->rhs_ != nullptr ? node->rhs_->hash_ : 0);
  node->hash_ = h;
  // Eager sorted-merge of the children's supports; interning means this runs
  // once per distinct node, not once per use.
  if (op == Op::kVar) {
    node->vars_.push_back(static_cast<VarId>(imm));
  } else if (node->lhs_ != nullptr && node->rhs_ != nullptr) {
    const std::vector<VarId>& a = node->lhs_->vars_;
    const std::vector<VarId>& b = node->rhs_->vars_;
    node->vars_.resize(a.size() + b.size());
    auto end = std::set_union(a.begin(), a.end(), b.begin(), b.end(), node->vars_.begin());
    node->vars_.resize(static_cast<size_t>(end - node->vars_.begin()));
  } else if (node->lhs_ != nullptr) {
    node->vars_ = node->lhs_->vars_;
  }
  ExprPtr shared(node, [](const Expr* e) { ExprInternAccess::Erase(e); });
  shard.table.emplace(key, shared);
  return shared;
}

ExprPtr Expr::MakeConst(uint64_t value, uint8_t bits) {
  return Intern(Op::kConst, bits, MaskTo(value, bits), nullptr, nullptr);
}

ExprPtr Expr::MakeVar(VarId id, uint8_t bits) {
  return Intern(Op::kVar, bits, id, nullptr, nullptr);
}

ExprPtr Expr::MakeBinary(Op op, uint8_t bits, ExprPtr a, ExprPtr b) {
  return Intern(op, bits, 0, std::move(a), std::move(b));
}

namespace {

uint64_t ApplyBinary(Op op, uint64_t a, uint64_t b, uint8_t bits) {
  uint64_t r = 0;
  switch (op) {
    case Op::kAdd: r = a + b; break;
    case Op::kSub: r = a - b; break;
    case Op::kMul: r = a * b; break;
    case Op::kAndBits: r = a & b; break;
    case Op::kOrBits: r = a | b; break;
    case Op::kXorBits: r = a ^ b; break;
    case Op::kShl: r = b >= 64 ? 0 : a << b; break;
    case Op::kShr: r = b >= 64 ? 0 : a >> b; break;
    case Op::kEq: return a == b ? 1 : 0;
    case Op::kNe: return a != b ? 1 : 0;
    case Op::kULt: return a < b ? 1 : 0;
    case Op::kULe: return a <= b ? 1 : 0;
    case Op::kUGt: return a > b ? 1 : 0;
    case Op::kUGe: return a >= b ? 1 : 0;
    case Op::kLAnd: return (a != 0 && b != 0) ? 1 : 0;
    case Op::kLOr: return (a != 0 || b != 0) ? 1 : 0;
    default:
      DICE_LOG(kFatal) << "ApplyBinary on non-binary op " << OpName(op);
  }
  return Expr::MaskTo(r, bits);
}

}  // namespace

#define DICE_SYM_BINOP(Name, OPK)                                                       \
  ExprPtr Expr::Name(ExprPtr a, ExprPtr b) {                                            \
    DICE_CHECK(a != nullptr && b != nullptr);                                           \
    uint8_t bits = std::max(a->bits(), b->bits());                                      \
    if (a->IsConst() && b->IsConst()) {                                                 \
      return MakeConst(ApplyBinary(Op::OPK, a->imm(), b->imm(), bits), bits);           \
    }                                                                                   \
    return MakeBinary(Op::OPK, bits, std::move(a), std::move(b));                       \
  }

DICE_SYM_BINOP(Add, kAdd)
DICE_SYM_BINOP(Sub, kSub)
DICE_SYM_BINOP(Mul, kMul)
DICE_SYM_BINOP(AndBits, kAndBits)
DICE_SYM_BINOP(OrBits, kOrBits)
DICE_SYM_BINOP(XorBits, kXorBits)
DICE_SYM_BINOP(Shl, kShl)
DICE_SYM_BINOP(Shr, kShr)
#undef DICE_SYM_BINOP

#define DICE_SYM_CMPOP(Name, OPK)                                                       \
  ExprPtr Expr::Name(ExprPtr a, ExprPtr b) {                                            \
    DICE_CHECK(a != nullptr && b != nullptr);                                           \
    if (a->IsConst() && b->IsConst()) {                                                 \
      return MakeConst(ApplyBinary(Op::OPK, a->imm(), b->imm(), 1), 1);                 \
    }                                                                                   \
    return MakeBinary(Op::OPK, 1, std::move(a), std::move(b));                          \
  }

DICE_SYM_CMPOP(Eq, kEq)
DICE_SYM_CMPOP(Ne, kNe)
DICE_SYM_CMPOP(ULt, kULt)
DICE_SYM_CMPOP(ULe, kULe)
DICE_SYM_CMPOP(UGt, kUGt)
DICE_SYM_CMPOP(UGe, kUGe)
#undef DICE_SYM_CMPOP

ExprPtr Expr::LAnd(ExprPtr a, ExprPtr b) {
  DICE_CHECK(a != nullptr && b != nullptr);
  if (a->IsConst()) {
    return a->imm() != 0 ? b : MakeConst(0, 1);
  }
  if (b->IsConst()) {
    return b->imm() != 0 ? a : MakeConst(0, 1);
  }
  return MakeBinary(Op::kLAnd, 1, std::move(a), std::move(b));
}

ExprPtr Expr::LOr(ExprPtr a, ExprPtr b) {
  DICE_CHECK(a != nullptr && b != nullptr);
  if (a->IsConst()) {
    return a->imm() != 0 ? MakeConst(1, 1) : b;
  }
  if (b->IsConst()) {
    return b->imm() != 0 ? MakeConst(1, 1) : a;
  }
  return MakeBinary(Op::kLOr, 1, std::move(a), std::move(b));
}

ExprPtr Expr::LNot(ExprPtr a) {
  DICE_CHECK(a != nullptr);
  if (a->IsConst()) {
    return MakeConst(a->imm() != 0 ? 0 : 1, 1);
  }
  return Intern(Op::kLNot, 1, 0, std::move(a), nullptr);
}

ExprPtr Expr::Negate(const ExprPtr& e) {
  DICE_CHECK(e != nullptr);
  switch (e->op()) {
    case Op::kConst:
      return MakeConst(e->imm() != 0 ? 0 : 1, 1);
    case Op::kEq:
      return MakeBinary(Op::kNe, 1, e->lhs(), e->rhs());
    case Op::kNe:
      return MakeBinary(Op::kEq, 1, e->lhs(), e->rhs());
    case Op::kULt:
      return MakeBinary(Op::kUGe, 1, e->lhs(), e->rhs());
    case Op::kULe:
      return MakeBinary(Op::kUGt, 1, e->lhs(), e->rhs());
    case Op::kUGt:
      return MakeBinary(Op::kULe, 1, e->lhs(), e->rhs());
    case Op::kUGe:
      return MakeBinary(Op::kULt, 1, e->lhs(), e->rhs());
    case Op::kLAnd:
      return LOr(Negate(e->lhs()), Negate(e->rhs()));
    case Op::kLOr:
      return LAnd(Negate(e->lhs()), Negate(e->rhs()));
    case Op::kLNot:
      return e->lhs();
    default:
      // Negation of a non-boolean expression means "e == 0".
      return MakeBinary(Op::kEq, 1, e, MakeConst(0, e->bits()));
  }
}

uint64_t Expr::Eval(const Assignment& assignment) const {
  switch (op_) {
    case Op::kConst:
      return imm_;
    case Op::kVar: {
      auto it = assignment.find(static_cast<VarId>(imm_));
      return it == assignment.end() ? 0 : MaskTo(it->second, bits_);
    }
    case Op::kLNot:
      return lhs_->Eval(assignment) != 0 ? 0 : 1;
    default:
      return ApplyBinary(op_, lhs_->Eval(assignment), rhs_->Eval(assignment), bits_);
  }
}

uint64_t Expr::EvalDense(const std::vector<uint64_t>& values) const {
  switch (op_) {
    case Op::kConst:
      return imm_;
    case Op::kVar:
      return imm_ < values.size() ? MaskTo(values[imm_], bits_) : 0;
    case Op::kLNot:
      return lhs_->EvalDense(values) != 0 ? 0 : 1;
    default:
      return ApplyBinary(op_, lhs_->EvalDense(values), rhs_->EvalDense(values), bits_);
  }
}

void Expr::CollectVars(std::set<VarId>& out) const {
  out.insert(vars_.begin(), vars_.end());
}

size_t Expr::NodeCount() const {
  size_t n = 1;
  if (lhs_ != nullptr) {
    n += lhs_->NodeCount();
  }
  if (rhs_ != nullptr) {
    n += rhs_->NodeCount();
  }
  return n;
}

std::string Expr::ToString() const {
  switch (op_) {
    case Op::kConst:
      return std::to_string(imm_);
    case Op::kVar:
      return "v" + std::to_string(imm_);
    case Op::kLNot:
      return "!(" + lhs_->ToString() + ")";
    default:
      return "(" + lhs_->ToString() + " " + OpName(op_) + " " + rhs_->ToString() + ")";
  }
}

bool Expr::Identical(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) {
    return true;  // interning makes this the common case
  }
  if (a == nullptr || b == nullptr) {
    return false;
  }
  if (a->op_ != b->op_ || a->bits_ != b->bits_ || a->imm_ != b->imm_) {
    return false;
  }
  return Identical(a->lhs_, b->lhs_) && Identical(a->rhs_, b->rhs_);
}

}  // namespace dice::sym
