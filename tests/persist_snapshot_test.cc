// Tests for the durable snapshot formats (src/persist): the query-cache and
// router-state containers must round-trip bit-exactly, serve warm restarts
// whose detections are identical to the uninterrupted run, and answer every
// malformed byte — truncation at each length, each single-bit flip, version
// skew, magic confusion, trailing garbage, fingerprint mismatch — with a
// Status, never a crash. Same discipline as exploration_wire_test, because
// these bytes cross a process lifetime instead of a network.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/dice/explorer.h"
#include "src/persist/query_cache_snapshot.h"
#include "src/persist/router_state_snapshot.h"
#include "src/util/frame.h"

namespace dice {
namespace {

bgp::Prefix P(const char* s) { return *bgp::Prefix::Parse(s); }

bgp::UpdateMessage SeedUpdate() {
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = bgp::AsPath::Sequence({1, 100});
  u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
  u.nlri.push_back(P("10.1.7.0/24"));
  return u;
}

// The Fig. 2 provider with the fat-fingered filter entry that leaks foreign
// address space — the same scenario dice_test explores, so the snapshot
// layer is exercised by a cache that actually holds verdicts and cores.
struct ProviderFixture {
  ProviderFixture() {
    auto config = std::make_shared<bgp::RouterConfig>();
    config->name = "provider";
    config->local_as = 3;
    config->router_id = *bgp::Ipv4Address::Parse("10.0.0.3");

    bgp::PrefixList customers;
    customers.name = "customers";
    customers.entries.push_back(bgp::PrefixListEntry{P("10.1.0.0/16"), 0, 24});
    customers.entries.push_back(bgp::PrefixListEntry{P("208.65.152.0/22"), 0, 24});
    EXPECT_TRUE(config->policies.AddPrefixList(std::move(customers)).ok());
    EXPECT_TRUE(config->policies
                    .AddFilter(bgp::MakeCustomerImportFilter("customer-in", "customers"))
                    .ok());

    bgp::NeighborConfig customer;
    customer.address = *bgp::Ipv4Address::Parse("10.0.0.1");
    customer.remote_as = 1;
    customer.import_filter = "customer-in";
    config->neighbors.push_back(customer);

    bgp::NeighborConfig internet;
    internet.address = *bgp::Ipv4Address::Parse("10.0.0.9");
    internet.remote_as = 9;
    config->neighbors.push_back(internet);

    state.config = config;

    AddRoute("208.65.152.0/22", 9, 9, {9, 36561});
    AddRoute("198.51.100.0/24", 9, 9, {9, 64501});
    AddRoute("10.1.7.0/24", 1, 1, {1, 100});

    customer_view.id = 1;
    customer_view.remote_as = 1;
    customer_view.address = *bgp::Ipv4Address::Parse("10.0.0.1");
    customer_view.established = true;
    internet_view.id = 9;
    internet_view.remote_as = 9;
    internet_view.address = *bgp::Ipv4Address::Parse("10.0.0.9");
    internet_view.established = true;
  }

  void AddRoute(const char* prefix, bgp::PeerId peer, bgp::AsNumber peer_as,
                std::vector<bgp::AsNumber> path) {
    bgp::Route route;
    route.peer = peer;
    route.peer_as = peer_as;
    bgp::PathAttributes attrs;
    attrs.origin = bgp::Origin::kIgp;
    attrs.as_path = bgp::AsPath::Sequence(std::move(path));
    attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
    route.attrs = std::move(attrs);
    state.rib.AddRoute(P(prefix), std::move(route));
  }

  std::vector<bgp::PeerView> Peers() const { return {customer_view, internet_view}; }

  bgp::RouterState state;
  bgp::PeerView customer_view;
  bgp::PeerView internet_view;
};

std::vector<std::string> DetectionStrings(const ExplorationReport& report) {
  std::vector<std::string> out;
  for (const Detection& d : report.detections) {
    out.push_back(d.ToString());
  }
  return out;
}

// Runs one full exploration over the fixture and returns the explorer (whose
// solver cache now holds this exploration's verdicts and cores).
std::unique_ptr<Explorer> Explore(const ProviderFixture& fixture) {
  ExplorerOptions options;
  options.concolic.max_runs = 200;
  auto explorer = std::make_unique<Explorer>(options);
  explorer->AddChecker(std::make_unique<HijackChecker>());
  explorer->TakeCheckpoint(fixture.state, fixture.Peers(), 0);
  explorer->ExploreSeed(SeedUpdate(), /*from=*/1);
  return explorer;
}

// --- query cache: warm restart --------------------------------------------

TEST(QueryCacheSnapshotTest, WarmRestartIsBitIdenticalAndServedPreloaded) {
  ProviderFixture fixture;
  std::unique_ptr<Explorer> cold = Explore(fixture);
  ASSERT_FALSE(cold->report().detections.empty()) << "scenario must find the leak";
  Bytes snapshot = persist::SerializeQueryCache(*cold->query_cache());

  // "Restart": a fresh explorer — new process in miniature — warmed from the
  // snapshot, exploring the identical checkpoint and seed.
  ProviderFixture fixture2;
  ExplorerOptions options;
  options.concolic.max_runs = 200;
  Explorer warm(options);
  ASSERT_TRUE(persist::LoadQueryCache(snapshot, *warm.query_cache()).ok());
  warm.AddChecker(std::make_unique<HijackChecker>());
  warm.TakeCheckpoint(fixture2.state, fixture2.Peers(), 0);
  warm.ExploreSeed(SeedUpdate(), 1);

  EXPECT_EQ(DetectionStrings(warm.report()), DetectionStrings(cold->report()))
      << "warm restart changed what exploration finds";
  EXPECT_EQ(warm.report().concolic.runs, cold->report().concolic.runs);
  EXPECT_EQ(warm.report().concolic.unique_paths, cold->report().concolic.unique_paths);
  EXPECT_EQ(warm.report().solver.cache_misses, 0u)
      << "identical workload must be fully served from the reloaded cache";
  EXPECT_GT(warm.report().solver.cache_preloaded_hits, 0u)
      << "warm hits must be attributed to the snapshot";
  EXPECT_EQ(cold->report().solver.cache_preloaded_hits, 0u)
      << "a cold run has nothing preloaded to hit";
}

TEST(QueryCacheSnapshotTest, SecondSerializationIsDeterministic) {
  ProviderFixture fixture;
  std::unique_ptr<Explorer> explorer = Explore(fixture);
  Bytes a = persist::SerializeQueryCache(*explorer->query_cache());
  Bytes b = persist::SerializeQueryCache(*explorer->query_cache());
  EXPECT_EQ(a, b);

  // Load into a fresh cache and re-serialize: the round trip is bit-stable
  // (entries sorted by key, nodes in canonical bottom-up order).
  sym::QueryCache reloaded(4096, 256);
  ASSERT_TRUE(persist::LoadQueryCache(a, reloaded).ok());
  EXPECT_EQ(persist::SerializeQueryCache(reloaded), a);
}

TEST(QueryCacheSnapshotTest, ReloadAfterWriterIsGoneSerializesIdentically) {
  Bytes snapshot;
  {
    ProviderFixture fixture;
    snapshot = persist::SerializeQueryCache(*Explore(fixture)->query_cache());
  }
  // The writing explorer and its expressions are gone. Intern unrelated
  // expressions — constants in descending order, some of which the snapshot
  // also uses — so the reloaded nodes get ids in another relative order than
  // the writer's did.
  std::vector<sym::ExprPtr> unrelated;
  for (uint64_t i = 4096; i-- > 0;) {
    unrelated.push_back(sym::Expr::MakeConst(i, 32));
    unrelated.push_back(sym::Expr::MakeConst(i, 8));
  }
  sym::QueryCache reloaded(4096, 256);
  ASSERT_TRUE(persist::LoadQueryCache(snapshot, reloaded).ok());
  EXPECT_EQ(persist::SerializeQueryCache(reloaded), snapshot)
      << "snapshot bytes depend on process-local expression ids";
}

TEST(QueryCacheSnapshotTest, ImportMarksCoresPreloaded) {
  sym::QueryCache source(64, 8);
  sym::ExprPtr x = sym::Expr::MakeVar(0, 32);
  sym::ExprPtr a = sym::Expr::ULt(x, sym::Expr::MakeConst(10, 32));
  sym::ExprPtr b = sym::Expr::UGt(x, sym::Expr::MakeConst(20, 32));
  sym::QueryKey key{a->id(), b->id()};
  std::sort(key.begin(), key.end());
  source.PublishCores({sym::QueryCache::Core{key, {a, b}}});

  sym::QueryCache reloaded(64, 8);
  ASSERT_TRUE(
      persist::LoadQueryCache(persist::SerializeQueryCache(source), reloaded).ok());
  bool preloaded = false;
  EXPECT_TRUE(reloaded.MatchesUnsatCore(key, &preloaded));
  EXPECT_TRUE(preloaded);
  bool source_preloaded = true;
  EXPECT_TRUE(source.MatchesUnsatCore(key, &source_preloaded));
  EXPECT_FALSE(source_preloaded) << "the origin cache learned its core locally";
}

// --- query cache: malformed bytes -----------------------------------------

class QueryCacheCorruption : public ::testing::Test {
 protected:
  QueryCacheCorruption() {
    ProviderFixture fixture;
    snapshot_ = persist::SerializeQueryCache(*Explore(fixture)->query_cache());
  }

  Status Load(const Bytes& bytes) {
    sym::QueryCache scratch(4096, 256);
    return persist::LoadQueryCache(bytes, scratch);
  }

  Bytes snapshot_;
};

TEST_F(QueryCacheCorruption, EveryTruncationIsAnError) {
  ASSERT_TRUE(Load(snapshot_).ok());
  for (size_t len = 0; len < snapshot_.size(); ++len) {
    Bytes truncated(snapshot_.begin(), snapshot_.begin() + len);
    EXPECT_FALSE(Load(truncated).ok()) << "length " << len << " parsed";
  }
}

TEST_F(QueryCacheCorruption, EverySingleBitFlipIsAnError) {
  for (size_t byte = 0; byte < snapshot_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = snapshot_;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(Load(flipped).ok()) << "bit " << bit << " of byte " << byte << " parsed";
    }
  }
}

TEST_F(QueryCacheCorruption, VersionSkewMagicConfusionAndTrailingGarbage) {
  // A future version must be rejected, not misread.
  Bytes body(snapshot_.begin() + kFrameHeaderSize, snapshot_.end());
  Bytes reframed = FrameMessage(persist::kQueryCacheSnapshotMagic,
                                persist::kQueryCacheSnapshotVersion + 1, body);
  EXPECT_FALSE(Load(reframed).ok());

  // A router-state snapshot can never load as a query cache.
  ProviderFixture fixture;
  EXPECT_FALSE(Load(persist::SerializeRouterState(fixture.state, 1)).ok());

  // Bytes past the body are an error even when re-checksummed.
  Bytes padded_body = body;
  padded_body.push_back(0);
  EXPECT_FALSE(Load(FrameMessage(persist::kQueryCacheSnapshotMagic,
                                 persist::kQueryCacheSnapshotVersion, padded_body))
                   .ok());
}

TEST_F(QueryCacheCorruption, FailedLoadLeavesCacheUntouched) {
  sym::QueryCache cache(4096, 256);
  ASSERT_TRUE(persist::LoadQueryCache(snapshot_, cache).ok());
  Bytes before = persist::SerializeQueryCache(cache);

  Bytes corrupt = snapshot_;
  corrupt[snapshot_.size() - 1] ^= 0x40u;
  EXPECT_FALSE(persist::LoadQueryCache(corrupt, cache).ok());
  EXPECT_EQ(persist::SerializeQueryCache(cache), before)
      << "a rejected snapshot must not clobber the warm cache";
}

// --- router state ----------------------------------------------------------

constexpr uint64_t kFingerprint = 0x5eedf00d;

// A state with every persisted feature live: shared interned attributes,
// Adj-RIB-Out entries, and non-zero processing counters (ProcessUpdate runs
// the real import/selection/export path).
bgp::RouterState PopulatedState() {
  ProviderFixture fixture;
  bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = bgp::AsPath::Sequence({1, 100});
  u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
  u.attrs.med = 30;
  u.attrs.local_pref = 120;
  u.attrs.communities.push_back(0x00030001);
  u.nlri.push_back(P("10.1.9.0/24"));
  bgp::ProcessUpdate(fixture.state, fixture.Peers(), fixture.customer_view,
                     fixture.state.config->neighbors.front(), u, discard);
  return std::move(fixture.state);
}

TEST(RouterStateSnapshotTest, RoundTripIsBitIdentical) {
  bgp::RouterState state = PopulatedState();
  Bytes snapshot = persist::SerializeRouterState(state, kFingerprint);
  StatusOr<bgp::RouterState> restored =
      persist::LoadRouterState(snapshot, state.config, kFingerprint);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->rib.PrefixCount(), state.rib.PrefixCount());
  EXPECT_EQ(restored->updates_processed, state.updates_processed);
  EXPECT_EQ(restored->routes_accepted, state.routes_accepted);
  EXPECT_EQ(persist::SerializeRouterState(*restored, kFingerprint), snapshot)
      << "restored state must re-serialize to the identical bytes";
}

TEST(RouterStateSnapshotTest, FingerprintMismatchIsFailedPrecondition) {
  bgp::RouterState state = PopulatedState();
  Bytes snapshot = persist::SerializeRouterState(state, kFingerprint);
  StatusOr<bgp::RouterState> restored =
      persist::LoadRouterState(snapshot, state.config, kFingerprint + 1);
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition)
      << "state computed under another config/table must never load";
}

class RouterStateCorruption : public ::testing::Test {
 protected:
  RouterStateCorruption() : state_(PopulatedState()) {
    snapshot_ = persist::SerializeRouterState(state_, kFingerprint);
  }

  Status Load(const Bytes& bytes) {
    return persist::LoadRouterState(bytes, state_.config, kFingerprint).status();
  }

  bgp::RouterState state_;
  Bytes snapshot_;
};

TEST_F(RouterStateCorruption, EveryTruncationIsAnError) {
  ASSERT_TRUE(Load(snapshot_).ok());
  for (size_t len = 0; len < snapshot_.size(); ++len) {
    Bytes truncated(snapshot_.begin(), snapshot_.begin() + len);
    EXPECT_FALSE(Load(truncated).ok()) << "length " << len << " parsed";
  }
}

TEST_F(RouterStateCorruption, EverySingleBitFlipIsAnError) {
  for (size_t byte = 0; byte < snapshot_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = snapshot_;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(Load(flipped).ok()) << "bit " << bit << " of byte " << byte << " parsed";
    }
  }
}

TEST_F(RouterStateCorruption, VersionSkewMagicConfusionAndTrailingGarbage) {
  Bytes body(snapshot_.begin() + kFrameHeaderSize, snapshot_.end());
  EXPECT_FALSE(Load(FrameMessage(persist::kRouterStateSnapshotMagic,
                                 persist::kRouterStateSnapshotVersion + 1, body))
                   .ok());

  sym::QueryCache cache(64, 8);
  EXPECT_FALSE(Load(persist::SerializeQueryCache(cache)).ok())
      << "a query-cache snapshot can never load as router state";

  Bytes padded_body = body;
  padded_body.push_back(0);
  EXPECT_FALSE(Load(FrameMessage(persist::kRouterStateSnapshotMagic,
                                 persist::kRouterStateSnapshotVersion, padded_body))
                   .ok());
}

}  // namespace
}  // namespace dice
