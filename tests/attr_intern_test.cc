// Tests for the hash-consed PathAttributes table: structural equality must
// mean pointer equality, the table must stay stable under repeated interning,
// and dead attribute sets must be evicted.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/bgp/attr_intern.h"
#include "src/bgp/rib.h"

namespace dice::bgp {
namespace {

PathAttributes SampleAttrs(std::vector<AsNumber> path, uint32_t community_tag = 0) {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.as_path = AsPath::Sequence(std::move(path));
  attrs.next_hop = *Ipv4Address::Parse("10.0.0.9");
  attrs.local_pref = 150;
  if (community_tag != 0) {
    attrs.communities.push_back(MakeCommunity(65000, static_cast<uint16_t>(community_tag)));
  }
  return attrs;
}

TEST(AttrInternTest, StructuralEqualityIsPointerEquality) {
  InternedAttrs a = SampleAttrs({1, 2, 3});
  InternedAttrs b = SampleAttrs({1, 2, 3});  // built independently
  EXPECT_EQ(a.ptr().get(), b.ptr().get());
  EXPECT_TRUE(a == b);
}

TEST(AttrInternTest, DistinctValuesGetDistinctNodes) {
  InternedAttrs a = SampleAttrs({1, 2, 3});
  InternedAttrs b = SampleAttrs({1, 2, 4});
  InternedAttrs c = SampleAttrs({1, 2, 3}, /*community_tag=*/7);
  EXPECT_NE(a.ptr().get(), b.ptr().get());
  EXPECT_NE(a.ptr().get(), c.ptr().get());
  EXPECT_FALSE(a == b);
  // The payloads really differ (equality is not vacuously false).
  EXPECT_FALSE(*a == *b);
}

TEST(AttrInternTest, DefaultHandleIsInternedEmptySet) {
  InternedAttrs a;
  InternedAttrs b;
  EXPECT_EQ(a.ptr().get(), b.ptr().get());
  EXPECT_TRUE(*a == PathAttributes{});
  EXPECT_TRUE(a == InternedAttrs(PathAttributes{}));
}

TEST(AttrInternTest, TableStableUnderRepeatedInterning) {
  InternedAttrs keep = SampleAttrs({64500, 64501});
  AttrInternStats before = AttrInternTableStats();
  for (int i = 0; i < 100; ++i) {
    InternedAttrs again = SampleAttrs({64500, 64501});
    EXPECT_EQ(again.ptr().get(), keep.ptr().get());
  }
  AttrInternStats after = AttrInternTableStats();
  EXPECT_EQ(after.live_entries, before.live_entries) << "re-interning must not grow the table";
  EXPECT_GE(after.hits, before.hits + 100);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(AttrInternTest, DeadEntriesAreEvicted) {
  AttrInternStats before = AttrInternTableStats();
  {
    InternedAttrs transient = SampleAttrs({59999, 59998, 59997});  // unique to this test
    EXPECT_EQ(AttrInternTableStats().live_entries, before.live_entries + 1);
  }
  EXPECT_EQ(AttrInternTableStats().live_entries, before.live_entries)
      << "the last handle dying must erase the table entry";
}

TEST(AttrInternTest, RouteCopiesShareTheNode) {
  Route route;
  route.peer = 1;
  route.peer_as = 65000;
  route.attrs = SampleAttrs({65000, 64496});
  Route copy = route;
  EXPECT_EQ(copy.attrs.ptr().get(), route.attrs.ptr().get());
  EXPECT_TRUE(copy == route);
}

TEST(AttrInternTest, HeapBytesCountOwnedStorage) {
  PathAttributes empty;
  PathAttributes big = SampleAttrs({1, 2, 3, 4, 5, 6}, /*community_tag=*/3);
  EXPECT_EQ(AttrsHeapBytes(empty), sizeof(PathAttributes));
  EXPECT_GT(AttrsHeapBytes(big),
            sizeof(PathAttributes) + 6 * sizeof(AsNumber))
      << "AS path elements and communities must be charged";
}

// --- Concurrent interning (the lock-striped table) ----------------------------

TEST(AttrInternTest, ConcurrentInterningAgreesOnPointerIdentity) {
  // N threads interning the same overlapping attribute sets must converge on
  // one node per distinct value: cross-thread pointer equality, and the live
  // count grows by exactly the distinct-value count. AS numbers 58xxx keep
  // this universe disjoint from every other test's attribute sets.
  constexpr size_t kThreads = 8;
  constexpr uint32_t kValues = 64;
  const AttrInternStats before = AttrInternTableStats();
  std::vector<std::vector<InternedAttrs>> built(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &built] {
        built[t].reserve(kValues);
        for (uint32_t v = 0; v < kValues; ++v) {
          built[t].push_back(
              SampleAttrs({58000, static_cast<AsNumber>(58001 + v)}, /*community_tag=*/v + 1));
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
  }
  for (size_t t = 1; t < kThreads; ++t) {
    ASSERT_EQ(built[t].size(), kValues);
    for (uint32_t v = 0; v < kValues; ++v) {
      EXPECT_EQ(built[0][v].ptr().get(), built[t][v].ptr().get())
          << "thread " << t << " value " << v << " must share the interned node";
    }
  }
  AttrInternStats held = AttrInternTableStats();
  EXPECT_EQ(held.live_entries, before.live_entries + kValues)
      << "no duplicated and no lost entries";
  built.clear();
  EXPECT_EQ(AttrInternTableStats().live_entries, before.live_entries)
      << "released attribute sets must be evicted";
}

TEST(AttrInternTest, ConcurrentChurnLeavesNoResidue) {
  // Intern-and-drop churn across threads exercises the expired-entry /
  // deleter race (a set dying on one thread while another re-interns it).
  // The table must end exactly where it started. (Run under TSan in CI.)
  constexpr size_t kThreads = 8;
  const size_t before = AttrInternTableStats().live_entries;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint32_t i = 0; i < 300; ++i) {
        InternedAttrs transient =
            SampleAttrs({57000, static_cast<AsNumber>(57001 + (i % 16))});
        (void)transient;  // dropped immediately: exercises the deleter path
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(AttrInternTableStats().live_entries, before);
}

}  // namespace
}  // namespace dice::bgp
