// Hash-consed (interned) BGP path attributes.
//
// Every Route in the RIB and every Adj-RIB-Out entry used to hold a
// PathAttributes by value, so each copy-on-write path-copy of a trie node
// deep-copied AS-path segments and community vectors. InternedAttrs stores
// one immutable PathAttributes per distinct value in a per-process table
// (mirroring the sym::Expr intern table) and hands out
// shared_ptr<const PathAttributes>: structurally equal attributes are
// pointer-equal, node path-copies and route comparisons become O(1) in
// attribute size, and an attribute set referenced by thousands of routes is
// stored once.
//
// Entries hold weak_ptrs; a node's shared_ptr deleter erases its table entry,
// so the table tracks exactly the live attribute sets. Thread-safe, like the
// Expr table: the table is split into lock-striped shards (hash -> shard, one
// mutex each), so concurrent interning from the sharded simulator's shard
// threads preserves pointer identity. The table is heap-allocated and never
// destroyed so statically stored handles can outlive it safely.

#ifndef SRC_BGP_ATTR_INTERN_H_
#define SRC_BGP_ATTR_INTERN_H_

#include <cstdint>
#include <memory>

#include "src/bgp/message.h"

namespace dice::bgp {

// Structural hash over every PathAttributes field (AS-path segments,
// communities, unknown attributes included).
uint64_t HashAttrs(const PathAttributes& attrs);

// Deterministic heap footprint of one attribute set: the struct itself plus
// the storage its vectors own (size-based, not capacity-based, so tests and
// the checkpoint page accounting get stable numbers).
size_t AttrsHeapBytes(const PathAttributes& attrs);

// A handle to one interned, immutable attribute set. Construction interns;
// equality is pointer equality (== structural equality, by construction).
class InternedAttrs {
 public:
  // The interned empty attribute set.
  InternedAttrs();
  // Implicit on purpose: `route.attrs = built_attrs;` is the idiom at every
  // construction site.
  InternedAttrs(const PathAttributes& attrs);  // NOLINT(google-explicit-constructor)
  InternedAttrs(PathAttributes&& attrs);       // NOLINT(google-explicit-constructor)

  const PathAttributes& operator*() const { return *ptr_; }
  const PathAttributes* operator->() const { return ptr_.get(); }
  const PathAttributes& get() const { return *ptr_; }
  const std::shared_ptr<const PathAttributes>& ptr() const { return ptr_; }

  friend bool operator==(const InternedAttrs& a, const InternedAttrs& b) {
    return a.ptr_ == b.ptr_;
  }

 private:
  std::shared_ptr<const PathAttributes> ptr_;
};

// Intern table statistics (test and bench hooks).
struct AttrInternStats {
  size_t live_entries = 0;  // distinct attribute sets currently alive
  uint64_t hits = 0;        // interning requests resolved to an existing node
  uint64_t misses = 0;      // interning requests that allocated a new node
};
AttrInternStats AttrInternTableStats();

}  // namespace dice::bgp

#endif  // SRC_BGP_ATTR_INTERN_H_
