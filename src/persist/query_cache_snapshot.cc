#include "src/persist/query_cache_snapshot.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/frame.h"
#include "src/util/strings.h"

namespace dice::persist {

namespace {

using ::dice::ByteReader;
using ::dice::ByteWriter;
using ::dice::InvalidArgumentError;
using ::dice::StrFormat;
using ::dice::sym::Assignment;
using ::dice::sym::Expr;
using ::dice::sym::ExprPtr;
using ::dice::sym::Op;
using ::dice::sym::QueryCache;
using ::dice::sym::QueryKey;
using ::dice::sym::SolveKind;
using ::dice::sym::VarId;

constexpr uint32_t kNoChild = 0xFFFFFFFFu;
constexpr uint8_t kMaxOp = static_cast<uint8_t>(Op::kLNot);

// Bottom-up (children-first) node table builder. Index assignment is
// deterministic: nodes are visited in the order serialization encounters
// them — entries in structural order (see SerializeQueryCache), cores in
// publication order.
class NodeTable {
 public:
  uint32_t IndexOf(const ExprPtr& e) {
    auto it = index_.find(e->id());
    if (it != index_.end()) {
      return it->second;
    }
    // Post-order: children get indices before the parent.
    uint32_t lhs = e->lhs() ? IndexOf(e->lhs()) : kNoChild;
    uint32_t rhs = e->rhs() ? IndexOf(e->rhs()) : kNoChild;
    uint32_t idx = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{e, lhs, rhs});
    index_.emplace(e->id(), idx);
    return idx;
  }

  void Serialize(ByteWriter& w) const {
    w.PutU32(static_cast<uint32_t>(nodes_.size()));
    for (const Node& n : nodes_) {
      w.PutU8(static_cast<uint8_t>(n.expr->op()));
      w.PutU8(n.expr->bits());
      w.PutU64(n.expr->imm());
      w.PutU32(n.lhs);
      w.PutU32(n.rhs);
    }
  }

 private:
  struct Node {
    ExprPtr expr;
    uint32_t lhs;
    uint32_t rhs;
  };
  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, uint32_t> index_;  // expr id -> table index
};

// Each serialized node costs u8 op + u8 bits + u64 imm + 2 * u32 children.
constexpr size_t kNodeWireSize = 1 + 1 + 8 + 4 + 4;

void PutAssignment(ByteWriter& w, const Assignment& m) {
  // Canonical form: sorted by VarId. The vector constructor (not iteration
  // with side effects) drains the unordered map; order is fixed by the sort.
  std::vector<std::pair<VarId, uint64_t>> sorted(m.begin(), m.end());
  std::sort(sorted.begin(), sorted.end());
  w.PutU32(static_cast<uint32_t>(sorted.size()));
  for (const auto& [var, value] : sorted) {
    w.PutU32(var);
    w.PutU64(value);
  }
}

Status ReadAssignment(ByteReader& r, const char* what, Assignment& into) {
  DICE_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (count > r.remaining() / (4 + 8)) {
    return InvalidArgumentError(
        StrFormat("%s: assignment count %u exceeds buffer capacity", what, count));
  }
  into.reserve(count);
  uint64_t previous = 0;
  for (uint32_t i = 0; i < count; ++i) {
    DICE_ASSIGN_OR_RETURN(uint32_t var, r.ReadU32());
    DICE_ASSIGN_OR_RETURN(uint64_t value, r.ReadU64());
    if (i > 0 && var <= previous) {
      return InvalidArgumentError(
          StrFormat("%s: assignment vars not strictly ascending", what));
    }
    previous = var;
    into.emplace(var, value);
  }
  return Status::Ok();
}

Status ReadNodeRefs(ByteReader& r, const std::vector<ExprPtr>& nodes, const char* what,
                    std::vector<ExprPtr>& out) {
  DICE_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (count > r.remaining() / 4) {
    return InvalidArgumentError(
        StrFormat("%s: reference count %u exceeds buffer capacity", what, count));
  }
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DICE_ASSIGN_OR_RETURN(uint32_t idx, r.ReadU32());
    if (idx >= nodes.size()) {
      return InvalidArgumentError(
          StrFormat("%s: node reference %u out of range (%zu nodes)", what, idx,
                    nodes.size()));
    }
    out.push_back(nodes[idx]);
  }
  return Status::Ok();
}

// Rebuilds one node from its wire record through the public smart
// constructors, re-interning it in this process.
StatusOr<ExprPtr> RebuildNode(uint8_t op_raw, uint8_t bits, uint64_t imm, const ExprPtr& lhs,
                              const ExprPtr& rhs) {
  const Op op = static_cast<Op>(op_raw);
  switch (op) {
    case Op::kConst:
      return Expr::MakeConst(imm, bits);
    case Op::kVar:
      if (imm > 0xFFFFFFFFu) {
        return InvalidArgumentError("query cache snapshot: var id exceeds 32 bits");
      }
      return Expr::MakeVar(static_cast<VarId>(imm), bits);
    case Op::kLNot:
      if (lhs == nullptr || rhs != nullptr) {
        return InvalidArgumentError("query cache snapshot: kLNot arity mismatch");
      }
      return Expr::LNot(lhs);
    default:
      break;
  }
  if (lhs == nullptr || rhs == nullptr) {
    return InvalidArgumentError("query cache snapshot: binary node missing a child");
  }
  switch (op) {
    case Op::kAdd: return Expr::Add(lhs, rhs);
    case Op::kSub: return Expr::Sub(lhs, rhs);
    case Op::kMul: return Expr::Mul(lhs, rhs);
    case Op::kAndBits: return Expr::AndBits(lhs, rhs);
    case Op::kOrBits: return Expr::OrBits(lhs, rhs);
    case Op::kXorBits: return Expr::XorBits(lhs, rhs);
    case Op::kShl: return Expr::Shl(lhs, rhs);
    case Op::kShr: return Expr::Shr(lhs, rhs);
    case Op::kEq: return Expr::Eq(lhs, rhs);
    case Op::kNe: return Expr::Ne(lhs, rhs);
    case Op::kULt: return Expr::ULt(lhs, rhs);
    case Op::kULe: return Expr::ULe(lhs, rhs);
    case Op::kUGt: return Expr::UGt(lhs, rhs);
    case Op::kUGe: return Expr::UGe(lhs, rhs);
    case Op::kLAnd: return Expr::LAnd(lhs, rhs);
    case Op::kLOr: return Expr::LOr(lhs, rhs);
    default:
      return InvalidArgumentError(
          StrFormat("query cache snapshot: bad op code %u", op_raw));
  }
}

// Appends `e` in post-order — children first, then (op, bits, imm). Arity
// follows from the op, so the encoding of a constraint sequence is unique
// and, unlike an interned id, the same in every process.
void PutTree(ByteWriter& w, const ExprPtr& e) {
  if (e->lhs()) {
    PutTree(w, e->lhs());
  }
  if (e->rhs()) {
    PutTree(w, e->rhs());
  }
  w.PutU8(static_cast<uint8_t>(e->op()));
  w.PutU8(e->bits());
  w.PutU64(e->imm());
}

QueryKey KeyOf(const std::vector<ExprPtr>& constraints) {
  QueryKey key;
  key.reserve(constraints.size());
  for (const ExprPtr& c : constraints) {
    key.push_back(c->id());
  }
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

}  // namespace

Bytes SerializeQueryCache(const sym::QueryCache& cache) {
  QueryCache::Exported exported = cache.Export();

  // Entries are ordered by their constraint trees, not by interned ids: ids
  // are process-local, so an id order would not survive a reload into a
  // process whose ids were handed out differently. Distinct entries have
  // distinct constraint sequences, so the order is total.
  struct EntryRecord {
    Bytes trees;
    const QueryCache::Entry* entry;
  };
  std::vector<EntryRecord> records;
  records.reserve(exported.entries.size());
  for (const auto& [key, entry] : exported.entries) {
    ByteWriter trees;
    for (const ExprPtr& c : entry.constraints) {
      PutTree(trees, c);
    }
    records.push_back(EntryRecord{trees.Take(), &entry});
  }
  // Compared as string_views: GCC 12 rejects the equivalent Bytes operator<
  // with a false -Wstringop-overread under -Werror.
  auto view = [](const Bytes& b) {
    return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
  };
  std::sort(records.begin(), records.end(), [&view](const EntryRecord& a, const EntryRecord& b) {
    return view(a.trees) < view(b.trees);
  });

  // Pass 1: assign node-table indices in deterministic serialization order.
  NodeTable table;
  for (const EntryRecord& record : records) {
    for (const ExprPtr& c : record.entry->constraints) {
      table.IndexOf(c);
    }
  }
  for (const QueryCache::Core& core : exported.cores) {
    for (const ExprPtr& owner : core.owners) {
      table.IndexOf(owner);
    }
  }

  ByteWriter body;
  body.PutU64(exported.vars_fingerprint);
  table.Serialize(body);

  body.PutU32(static_cast<uint32_t>(records.size()));
  for (const EntryRecord& record : records) {
    const QueryCache::Entry& entry = *record.entry;
    body.PutU8(static_cast<uint8_t>(entry.kind));
    body.PutU32(static_cast<uint32_t>(entry.constraints.size()));
    for (const ExprPtr& c : entry.constraints) {
      body.PutU32(table.IndexOf(c));
    }
    PutAssignment(body, entry.model);
    PutAssignment(body, entry.hint);
  }

  body.PutU32(static_cast<uint32_t>(exported.cores.size()));
  for (const QueryCache::Core& core : exported.cores) {
    body.PutU32(static_cast<uint32_t>(core.owners.size()));
    for (const ExprPtr& owner : core.owners) {
      body.PutU32(table.IndexOf(owner));
    }
  }

  return FrameMessage(kQueryCacheSnapshotMagic, kQueryCacheSnapshotVersion, body.bytes());
}

Status LoadQueryCache(const Bytes& bytes, sym::QueryCache& cache) {
  DICE_ASSIGN_OR_RETURN(
      ByteReader r, dice::OpenFrame(bytes, kQueryCacheSnapshotMagic,
                                    kQueryCacheSnapshotVersion, "query cache snapshot"));

  QueryCache::Exported snapshot;
  DICE_ASSIGN_OR_RETURN(snapshot.vars_fingerprint, r.ReadU64());

  DICE_ASSIGN_OR_RETURN(uint32_t node_count, r.ReadU32());
  if (node_count > r.remaining() / kNodeWireSize) {
    return InvalidArgumentError(StrFormat(
        "query cache snapshot: node count %u exceeds buffer capacity", node_count));
  }
  std::vector<ExprPtr> nodes;
  nodes.reserve(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    DICE_ASSIGN_OR_RETURN(uint8_t op_raw, r.ReadU8());
    DICE_ASSIGN_OR_RETURN(uint8_t bits, r.ReadU8());
    DICE_ASSIGN_OR_RETURN(uint64_t imm, r.ReadU64());
    DICE_ASSIGN_OR_RETURN(uint32_t lhs_idx, r.ReadU32());
    DICE_ASSIGN_OR_RETURN(uint32_t rhs_idx, r.ReadU32());
    if (op_raw > kMaxOp) {
      return InvalidArgumentError(
          StrFormat("query cache snapshot: bad op code %u at node %u", op_raw, i));
    }
    // Children must point strictly backwards — enforces bottom-up order and
    // rules out cycles by construction.
    if ((lhs_idx != kNoChild && lhs_idx >= i) || (rhs_idx != kNoChild && rhs_idx >= i)) {
      return InvalidArgumentError(
          StrFormat("query cache snapshot: forward child reference at node %u", i));
    }
    ExprPtr lhs = lhs_idx == kNoChild ? nullptr : nodes[lhs_idx];
    ExprPtr rhs = rhs_idx == kNoChild ? nullptr : nodes[rhs_idx];
    DICE_ASSIGN_OR_RETURN(ExprPtr node, RebuildNode(op_raw, bits, imm, lhs, rhs));
    nodes.push_back(std::move(node));
  }

  DICE_ASSIGN_OR_RETURN(uint32_t entry_count, r.ReadU32());
  // An entry costs at least kind + three counts.
  if (entry_count > r.remaining() / (1 + 4 + 4 + 4)) {
    return InvalidArgumentError(StrFormat(
        "query cache snapshot: entry count %u exceeds buffer capacity", entry_count));
  }
  snapshot.entries.reserve(entry_count);
  for (uint32_t i = 0; i < entry_count; ++i) {
    DICE_ASSIGN_OR_RETURN(uint8_t kind_raw, r.ReadU8());
    if (kind_raw > static_cast<uint8_t>(SolveKind::kUnknown)) {
      return InvalidArgumentError(
          StrFormat("query cache snapshot: bad solve kind %u", kind_raw));
    }
    QueryCache::Entry entry;
    entry.kind = static_cast<SolveKind>(kind_raw);
    DICE_RETURN_IF_ERROR(ReadNodeRefs(r, nodes, "query cache snapshot entry",
                                      entry.constraints));
    DICE_RETURN_IF_ERROR(ReadAssignment(r, "query cache snapshot model", entry.model));
    DICE_RETURN_IF_ERROR(ReadAssignment(r, "query cache snapshot hint", entry.hint));
    // Keys are recomputed from this process's interned ids, never trusted
    // from disk.
    snapshot.entries.emplace_back(KeyOf(entry.constraints), std::move(entry));
  }

  DICE_ASSIGN_OR_RETURN(uint32_t core_count, r.ReadU32());
  if (core_count > r.remaining() / 4) {
    return InvalidArgumentError(StrFormat(
        "query cache snapshot: core count %u exceeds buffer capacity", core_count));
  }
  snapshot.cores.reserve(core_count);
  for (uint32_t i = 0; i < core_count; ++i) {
    QueryCache::Core core;
    DICE_RETURN_IF_ERROR(ReadNodeRefs(r, nodes, "query cache snapshot core", core.owners));
    core.key = KeyOf(core.owners);
    snapshot.cores.push_back(std::move(core));
  }

  if (!r.AtEnd()) {
    return InvalidArgumentError(StrFormat(
        "query cache snapshot: %zu trailing bytes after last core", r.remaining()));
  }

  cache.Import(std::move(snapshot));
  return Status::Ok();
}

}  // namespace dice::persist
