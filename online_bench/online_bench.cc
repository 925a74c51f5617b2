// The online-testing benchmark: one workload of the whole DiCE loop, run in
// one process, with its outputs checked and every metric printed.
//
//   .dtrc corpus -> live bgp::Router on the serial net::EventLoop
//     -> DistributedExplorer checkpoint + exploration (hijack and route-leak
//        checkers) -> confirmation by remote domains served by an in-process
//        transport::ExplorationServer over one Unix-domain socket.
//
// The load is a closed loop in simulated time: the benchmark injects the next
// UPDATE only after the previous one and the DiCE work it triggered have
// finished, and nothing is paced by the wall clock. An UPDATE's latency is its
// service time, and the work of a run is fixed by the workload seed; the run
// length only sets how many identical rounds of it are measured.
//
// Usage: online_bench --workload <steady_state|full_load|federated>
//                     --seed <n> --seconds <s> --trace <0|1>
// The last line of standard output is one JSON object. A failed output check
// or setup error exits 1 without it; a bad flag exits 2.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.h"
#include "src/bgp/router.h"
#include "src/dice/distributed.h"
#include "src/net/network.h"
#include "src/persist/query_cache_snapshot.h"
#include "src/persist/router_state_snapshot.h"
#include "src/trace/dtrc.h"
#include "src/trace/feed.h"
#include "src/transport/client.h"
#include "src/transport/server.h"
#include "src/util/frame.h"
#include "src/util/strings.h"

namespace dice::online_bench {
namespace {

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  size_t table_prefixes;    // generated table the feeds announce
  size_t feeds;             // feed sessions the table arrives on
  size_t stream_events;     // update-stream events after the dump
  bool table_in_setup;      // the table loads in setup (else in every round)
  bool filtered;            // customer sessions carry the fat-fingered prefix lists
  bool large_customer;      // a second customer with eight blocks ahead of the /22
  size_t domains;           // remote domains confirming each verdict
  size_t domain_prefixes;   // each remote domain's generated table
  uint64_t run_budget;      // exploration runs per seed
  size_t seeds_per_round;   // observed customer UPDATEs per round (steady_state, federated)
  size_t stream_per_seed;   // update-stream UPDATEs the feed sends before each of them
  size_t checkpoint_every;  // full_load: router UPDATEs between checkpoints
  bool carry_cache;         // the query cache carries across rounds through snapshots
};

// Why these three: steady_state puts the time in exploration (sym, dice,
// checkpoint clones) with a warm solver cache; full_load puts it in the router
// (bgp import, RIB, export) with checkpoints written against; federated puts
// it in federation (RPC, batch codec, remote screening) with a cold cache.
constexpr Workload kWorkloads[] = {
    {"steady_state", 25000, 1, 4096, true, true, true, 2, 4000, 1000, 6, 32, 0, true},
    {"full_load", 30000, 4, 6000, false, true, false, 1, 1000, 24, 0, 0, 300, false},
    {"federated", 25000, 1, 4096, true, false, false, 8, 10000, 24, 8, 32, 0, false},
};

const bgp::Prefix kVictim = *bgp::Prefix::Parse("208.65.152.0/22");
constexpr bgp::AsNumber kVictimOrigin = 36561;
// The benchmark owns 0.0.0.0/4: generated routes there are dropped and fixed
// aggregates planted instead, one /8 per first octet and 10.64.0.0/10 in the
// 10/8 the generator never uses. Exploration of the federated customer's
// prefixes (inside 10.64/10) ranges over this space, so what it meets is the
// same for every seed.
const bgp::Prefix kOwnedSpace = *bgp::Prefix::Parse("0.0.0.0/4");
const bgp::Prefix kAggregate = *bgp::Prefix::Parse("10.64.0.0/10");
constexpr bgp::AsNumber kAggregateOrigin = 64700;
constexpr bgp::AsNumber kProviderAs = 3;
constexpr bgp::AsNumber kFeedAs = 65000;
constexpr bgp::AsNumber kSmallAs = 1;
constexpr bgp::AsNumber kLargeAs = 2;
constexpr bgp::AsNumber kDownstreamAs = 99;
// dice_cli's defaults for --snapshot_every and --remote_batch_size.
constexpr size_t kSnapshotEvery = 64;
constexpr size_t kRemoteBatchSize = 64;
constexpr int kSetups = 7;

constexpr net::NodeId kRouterNode = 1;
constexpr net::NodeId kFeedNode0 = 10;
constexpr net::NodeId kSmallNode = 20;
constexpr net::NodeId kLargeNode = 21;
// Oracle session bits: feeds 0..7, then the customers.
constexpr uint32_t kSmallBit = 1u << 8;
constexpr uint32_t kLargeBit = 1u << 9;

// The small customer owns two /16 blocks, the large one eight; both lists end
// in the fat-fingered victim /22.
std::vector<bgp::Prefix> CustomerBlocks(bool large) {
  std::vector<bgp::Prefix> blocks;
  const int first = large ? 11 : 1;
  const int count = large ? 8 : 2;
  for (int k = 0; k < count; ++k) {
    blocks.push_back(bgp::Prefix::Make(
        bgp::Ipv4Address(0x0a000000u | (static_cast<uint32_t>(first + k) << 16)), 16));
  }
  return blocks;
}

// The prefixes a customer re-announces in turn.
std::vector<bgp::Prefix> CustomerPrefixes(bool large) {
  return large ? std::vector<bgp::Prefix>{*bgp::Prefix::Parse("10.11.7.0/24"),
                                          *bgp::Prefix::Parse("10.15.9.0/24")}
               : std::vector<bgp::Prefix>{*bgp::Prefix::Parse("10.1.7.0/24"),
                                          *bgp::Prefix::Parse("10.2.9.0/24")};
}

bgp::Ipv4Address CustomerAddress(bool large) {
  return bgp::Ipv4Address(large ? 0x0a000002u : 0x0a000001u);
}
bgp::Ipv4Address FeedAddress(size_t index) {
  return bgp::Ipv4Address(0x0a000100u + static_cast<uint32_t>(index) + 1);
}
bgp::AsNumber DomainAs(size_t index) { return static_cast<bgp::AsNumber>(100 + index); }

// Space every remote domain refuses from the provider.
const std::vector<bgp::Prefix>& GuardedSpace() {
  static const std::vector<bgp::Prefix> kGuarded = {*bgp::Prefix::Parse("203.0.113.0/24"),
                                                    *bgp::Prefix::Parse("85.0.0.0/8")};
  return kGuarded;
}

bgp::UpdateMessage Announce(bgp::AsNumber as, bgp::Ipv4Address next_hop,
                            const bgp::Prefix& prefix) {
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = bgp::AsPath::Sequence({as});
  u.attrs.next_hop = next_hop;
  u.nlri.push_back(prefix);
  return u;
}

bgp::UpdateMessage Withdraw(const bgp::Prefix& prefix) {
  bgp::UpdateMessage u;
  u.withdrawn.push_back(prefix);
  return u;
}

// The planted routes, announced by the first feed ahead of the table.
std::vector<bgp::UpdateMessage> PlantedUpdates() {
  auto route = [](const bgp::Prefix& prefix, std::vector<bgp::AsNumber> path) {
    bgp::UpdateMessage u;
    u.attrs.origin = bgp::Origin::kIgp;
    u.attrs.as_path = bgp::AsPath::Sequence(std::move(path));
    u.attrs.next_hop = FeedAddress(0);
    u.nlri.push_back(prefix);
    return u;
  };
  std::vector<bgp::UpdateMessage> planted = {route(kVictim, {kFeedAs, 3549, kVictimOrigin})};
  for (uint32_t octet = 1; octet < 16; ++octet) {
    planted.push_back(octet == 10 ? route(kAggregate, {kFeedAs, kAggregateOrigin})
                                  : route(bgp::Prefix::Make(bgp::Ipv4Address(octet << 24), 8),
                                          {kFeedAs, kAggregateOrigin + octet}));
  }
  return planted;
}

// The federated customer's seed prefixes: distinct /24s inside the aggregate.
std::vector<bgp::Prefix> FederatedSeeds(size_t count) {
  std::vector<bgp::Prefix> seeds;
  for (uint32_t k = 0; k < count; ++k) {
    seeds.push_back(bgp::Prefix::Make(
        bgp::Ipv4Address(0x0a000000u | ((64 + 8 * k) << 16) | ((7 + 2 * k) << 8)), 24));
  }
  return seeds;
}

void AddPrefixList(bgp::RouterConfig& config, const std::string& name,
                   const std::vector<bgp::Prefix>& prefixes, uint8_t le) {
  bgp::PrefixList list;
  list.name = name;
  for (const bgp::Prefix& p : prefixes) {
    list.entries.push_back(bgp::PrefixListEntry{p, 0, le});
  }
  DICE_CHECK(config.policies.AddPrefixList(std::move(list)).ok());
}

bgp::RouterConfig ProviderConfig(const Workload& w) {
  bgp::RouterConfig config;
  config.name = "provider";
  config.local_as = kProviderAs;
  config.router_id = bgp::Ipv4Address(0x0a000003u);
  for (bool large : {false, true}) {
    if (large && !w.large_customer) {
      continue;
    }
    const std::string tag = large ? "large" : "small";
    bgp::NeighborConfig customer;
    customer.address = CustomerAddress(large);
    customer.remote_as = large ? kLargeAs : kSmallAs;
    customer.relationship = bgp::PeerRelationship::kCustomer;
    if (w.filtered) {
      std::vector<bgp::Prefix> listed = CustomerBlocks(large);
      listed.push_back(kVictim);
      AddPrefixList(config, tag + "-routes", listed, 24);
      DICE_CHECK(config.policies
                     .AddFilter(bgp::MakeCustomerImportFilter(tag + "-in", tag + "-routes"))
                     .ok());
      customer.import_filter = tag + "-in";
    }
    config.neighbors.push_back(customer);
  }
  for (size_t i = 0; i < w.feeds; ++i) {
    bgp::NeighborConfig feed;
    feed.address = FeedAddress(i);
    feed.remote_as = kFeedAs;
    feed.relationship = bgp::PeerRelationship::kProvider;
    config.neighbors.push_back(feed);
  }
  return config;
}

// --- Inputs (generated before the timed set-up) ------------------------------

uint64_t PrefixKey(const bgp::Prefix& p) {
  return (static_cast<uint64_t>(p.address().bits()) << 8) | p.length();
}

// The benchmark's own replay of what the router's RIB must hold: per prefix,
// the set of sessions that currently announce it.
class RibOracle {
 public:
  void Apply(uint32_t session_bit, const bgp::UpdateMessage& u) {
    for (const bgp::Prefix& p : u.withdrawn) {
      auto it = present_.find(PrefixKey(p));
      if (it != present_.end() && (it->second &= ~session_bit) == 0) {
        present_.erase(it);
      }
    }
    for (const bgp::Prefix& p : u.nlri) {
      present_[PrefixKey(p)] |= session_bit;
    }
  }
  size_t prefixes() const { return present_.size(); }

 private:
  std::unordered_map<uint64_t, uint32_t> present_;
};

struct Corpus {
  Bytes dtrc;  // the table dump (victim first), then the update stream
  size_t dump_events = 0;
  // Every origin each prefix is announced with anywhere in the inputs.
  std::unordered_map<uint64_t, std::vector<bgp::AsNumber>> origins;
  std::vector<trace::Trace> domain_tables;
  size_t full_load_rib = 0;  // expected RIB after one full_load round
};

uint32_t FeedBit(size_t event_index, size_t feeds) { return 1u << (event_index % feeds); }

void NoteOrigin(Corpus& corpus, const bgp::Prefix& p, bgp::AsNumber origin) {
  std::vector<bgp::AsNumber>& list = corpus.origins[PrefixKey(p)];
  if (std::find(list.begin(), list.end(), origin) == list.end()) {
    list.push_back(origin);
  }
}

// Drops generated prefixes inside the victim /22 and the benchmark-owned
// space, so the planted routes are the only ones there.
void DropPlantedSpace(bgp::UpdateMessage& u) {
  auto inside = [](const bgp::Prefix& p) { return kVictim.Covers(p) || kOwnedSpace.Covers(p); };
  u.nlri.erase(std::remove_if(u.nlri.begin(), u.nlri.end(), inside), u.nlri.end());
  u.withdrawn.erase(std::remove_if(u.withdrawn.begin(), u.withdrawn.end(), inside),
                    u.withdrawn.end());
}

Corpus MakeCorpus(const Workload& w, uint64_t seed) {
  Corpus corpus;
  trace::TraceGeneratorOptions gen;
  gen.seed = seed;
  gen.prefix_count = w.table_prefixes;
  gen.feed_as = kFeedAs;
  gen.updates_per_second = 100;
  // A quarter more than needed: events in the planted space are dropped.
  gen.update_duration =
      static_cast<net::SimTime>(w.stream_events * 5 / 4 + 200) * net::kSecond / 100;
  trace::TraceGenerator generator(gen);

  // The planted routes come first, so every checkpoint of a loading table
  // holds them.
  trace::Trace all;
  for (bgp::UpdateMessage& planted : PlantedUpdates()) {
    all.events.push_back(trace::TraceEvent{0, std::move(planted)});
  }
  for (trace::TraceEvent& ev : generator.FullDump().events) {
    DropPlantedSpace(ev.update);
    if (!ev.update.nlri.empty()) {
      all.events.push_back(std::move(ev));
    }
  }
  corpus.dump_events = all.events.size();
  if (w.stream_events > 0) {
    for (trace::TraceEvent& ev : generator.UpdateTrace().events) {
      DropPlantedSpace(ev.update);
      if (ev.update.nlri.empty() && ev.update.withdrawn.empty()) {
        continue;
      }
      ev.at += net::kSecond;
      all.events.push_back(std::move(ev));
      if (all.events.size() == corpus.dump_events + w.stream_events) {
        break;
      }
    }
    DICE_CHECK_EQ(all.events.size(), corpus.dump_events + w.stream_events);
  }

  RibOracle oracle;
  for (size_t i = 0; i < all.events.size(); ++i) {
    const bgp::UpdateMessage& u = all.events[i].update;
    for (const bgp::Prefix& p : u.nlri) {
      NoteOrigin(corpus, p, u.attrs.as_path.OriginAs());
    }
    oracle.Apply(FeedBit(i, w.feeds), u);
  }
  for (bool large : {false, true}) {
    for (const bgp::Prefix& p : CustomerPrefixes(large)) {
      NoteOrigin(corpus, p, large ? kLargeAs : kSmallAs);
    }
  }
  for (const bgp::Prefix& p : CustomerPrefixes(false)) {
    oracle.Apply(kSmallBit, Announce(kSmallAs, CustomerAddress(false), p));
  }
  corpus.full_load_rib = oracle.prefixes();

  auto encoded = trace::SerializeTraceBinary(all);
  DICE_CHECK(encoded.ok()) << encoded.status().ToString();
  corpus.dtrc = std::move(encoded).value();

  for (size_t d = 0; d < w.domains; ++d) {
    trace::TraceGeneratorOptions domain_gen;
    domain_gen.seed = seed * 7919 + 101 + d;
    domain_gen.prefix_count = w.domain_prefixes;
    trace::Trace table = trace::TraceGenerator(domain_gen).FullDump();
    std::vector<trace::TraceEvent> kept;
    for (trace::TraceEvent& ev : table.events) {
      DropPlantedSpace(ev.update);
      if (!ev.update.nlri.empty()) {
        kept.push_back(std::move(ev));
      }
    }
    table.events = std::move(kept);
    for (bgp::UpdateMessage& planted : PlantedUpdates()) {
      table.events.push_back(trace::TraceEvent{0, std::move(planted)});
    }
    corpus.domain_tables.push_back(std::move(table));
  }

  for (const bgp::Prefix& p : FederatedSeeds(w.seeds_per_round)) {
    NoteOrigin(corpus, p, kSmallAs);
  }
  return corpus;
}

// --- Measurement --------------------------------------------------------------

// What the end-to-end metrics need; taken in every run, traced or not.
struct Meter {
  bool measuring = false;
  std::vector<float> update_us;
  int64_t busy_ns = 0;
  uint64_t routes = 0;
  uint64_t events = 0;
  uint64_t exports = 0;
  int64_t explore_ns = 0;
  uint64_t runs = 0;
  std::vector<float> verdict_ms;
};

// Counts the per-layer metrics report, summed over the measured phase.
struct Counters {
  uint64_t takes = 0;
  uint64_t seeds = 0;
  uint64_t unique_paths = 0;
  uint64_t detections = 0;  // appended by the checkers
  uint64_t clones_materialized = 0;
  uint64_t clones_avoided = 0;
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t unknown = 0;
  uint64_t atoms_sliced = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t reshipped = 0;
  uint64_t remote_materialized = 0;
  uint64_t remote_avoided = 0;
  uint64_t screen_cache_hits = 0;
  FederationCounters federation;
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "online_bench: check failed: %s\n", what.c_str());
  std::exit(1);
}

// --- The live network ----------------------------------------------------------

class Live {
 public:
  using Handler = std::function<void(net::NodeId from)>;

  Live(const Workload& w, const bgp::RouterConfig& config, Tracer* tracer, Meter* meter)
      : net_(&loop_), router_(kRouterNode, config, &net_), tracer_(tracer), meter_(meter) {
    net_.AddNode(&router_);
    for (size_t i = 0; i < w.feeds; ++i) {
      feeds_.push_back(std::make_unique<trace::BgpFeedNode>(
          kFeedNode0 + static_cast<net::NodeId>(i), "feed" + std::to_string(i), kFeedAs,
          FeedAddress(i), &net_));
      Attach(*feeds_.back(), FeedAddress(i));
    }
    small_ = std::make_unique<trace::BgpFeedNode>(kSmallNode, "small", kSmallAs,
                                                  CustomerAddress(false), &net_);
    Attach(*small_, CustomerAddress(false));
    if (w.large_customer) {
      large_ = std::make_unique<trace::BgpFeedNode>(kLargeNode, "large", kLargeAs,
                                                    CustomerAddress(true), &net_);
      Attach(*large_, CustomerAddress(true));
    }
    router_.set_update_observer([this](net::NodeId from, const bgp::UpdateMessage& u) {
      observed_from_ = from;
      observed_routes_ += u.nlri.size() + u.withdrawn.size();
    });
  }

  // Starts every session and runs until all are established.
  Status Establish() {
    router_.Start();
    for (trace::BgpFeedNode* node : nodes_) {
      net_.Connect(kRouterNode, node->id(), net::kMillisecond);
    }
    RunFor(5 * net::kSecond, nullptr);
    for (trace::BgpFeedNode* node : nodes_) {
      if (!router_.Established(node->id()) || !node->established()) {
        return InternalError("session with " + node->name() + " did not establish");
      }
    }
    return Status::Ok();
  }

  // Has `node` send `update` after `delay` of simulated time.
  void SendAt(trace::BgpFeedNode* node, net::SimTime delay, const bgp::UpdateMessage* update) {
    loop_.At(loop_.now() + delay, [node, update] { node->SendUpdate(*update); });
  }

  // Steps the loop through `duration` of simulated time; `on_update` runs after
  // every step that delivered an UPDATE to the router.
  void RunFor(net::SimTime duration, const Handler& on_update) {
    const net::SimTime deadline = loop_.now() + duration;
    for (auto next = loop_.NextEventTime(); next.has_value() && *next <= deadline;
         next = loop_.NextEventTime()) {
      net::NodeId from = Step();
      if (from != 0 && on_update) {
        on_update(from);
      }
    }
    loop_.RunUntil(deadline);
  }

  bgp::Router& router() { return router_; }
  net::SimTime now() const { return loop_.now(); }
  trace::BgpFeedNode* feed(size_t i) { return feeds_[i].get(); }
  trace::BgpFeedNode* customer(bool large) { return large ? large_.get() : small_.get(); }

 private:
  void Attach(trace::BgpFeedNode& node, bgp::Ipv4Address address) {
    net_.AddNode(&node);
    router_.RegisterPeerNode(address, node.id());
    node.SetPeer(kRouterNode);
    nodes_.push_back(&node);
  }

  // One EventLoop::Step, attributed to the router when it delivered an UPDATE.
  net::NodeId Step() {
    const uint64_t received = router_.updates_received();
    const uint64_t sent = router_.updates_sent();
    observed_from_ = 0;
    observed_routes_ = 0;
    ScopedSpan span(*tracer_, Layer::kNetStep);
    const int64_t start = NowNs();
    loop_.Step();
    const int64_t elapsed = NowNs() - start;
    if (meter_->measuring) {
      ++meter_->events;
      meter_->exports += router_.updates_sent() - sent;
    }
    if (router_.updates_received() == received) {
      return 0;
    }
    span.Relabel(meter_->measuring ? Layer::kBgpUpdate : Layer::kBgpLoad);
    if (meter_->measuring) {
      meter_->busy_ns += elapsed;
      meter_->routes += observed_routes_;
      meter_->update_us.push_back(static_cast<float>(elapsed) * 1e-3f);
    }
    return observed_from_;
  }

  net::EventLoop loop_;
  net::Network net_;
  bgp::Router router_;
  std::vector<std::unique_ptr<trace::BgpFeedNode>> feeds_;
  std::unique_ptr<trace::BgpFeedNode> small_;
  std::unique_ptr<trace::BgpFeedNode> large_;
  std::vector<trace::BgpFeedNode*> nodes_;
  Tracer* tracer_;
  Meter* meter_;
  net::NodeId observed_from_ = 0;
  uint64_t observed_routes_ = 0;
};

// --- Remote domains ---------------------------------------------------------

// A remote domain: its own table, an import filter on the provider session
// that refuses the guarded space, and a downstream peer so adoption shows
// spread.
std::unique_ptr<ExplorationService> BuildDomain(size_t index, const trace::Trace& table) {
  bgp::RouterConfig config;
  config.name = "domain" + std::to_string(index);
  config.local_as = DomainAs(index);
  config.router_id = bgp::Ipv4Address(0x0a000200u + static_cast<uint32_t>(index) + 1);
  AddPrefixList(config, "guarded", GuardedSpace(), 32);
  bgp::Filter filter;
  filter.name = "provider-in";
  bgp::FilterTerm deny;
  bgp::Match match;
  match.kind = bgp::MatchKind::kPrefixInList;
  match.list_name = "guarded";
  deny.matches.push_back(match);
  bgp::Action reject;
  reject.kind = bgp::ActionKind::kReject;
  deny.actions.push_back(reject);
  filter.terms.push_back(deny);
  filter.default_accept = true;
  DICE_CHECK(config.policies.AddFilter(std::move(filter)).ok());

  const bgp::PeerView provider{1, kProviderAs, bgp::Ipv4Address(0x0a000003u), true};
  const bgp::PeerView downstream{2, kDownstreamAs, bgp::Ipv4Address(0x0a000401u), true};
  const bgp::PeerView feed{3, kFeedAs, bgp::Ipv4Address(0x0a000301u), true};
  bgp::NeighborConfig from_provider;
  from_provider.address = provider.address;
  from_provider.remote_as = kProviderAs;
  from_provider.import_filter = "provider-in";
  config.neighbors.push_back(from_provider);
  bgp::NeighborConfig to_downstream;
  to_downstream.address = downstream.address;
  to_downstream.remote_as = kDownstreamAs;
  config.neighbors.push_back(to_downstream);
  bgp::NeighborConfig from_feed;
  from_feed.address = feed.address;
  from_feed.remote_as = kFeedAs;
  config.neighbors.push_back(from_feed);

  bgp::RouterState state;
  state.config = std::make_shared<const bgp::RouterConfig>(std::move(config));
  const bgp::NeighborConfig& feed_neighbor = state.config->neighbors.back();
  bgp::UpdateSink discard = [](bgp::PeerId, const bgp::UpdateMessage&) {};
  for (const trace::TraceEvent& ev : table.events) {
    bgp::ProcessUpdate(state, {feed}, feed, feed_neighbor, ev.update, discard);
  }
  std::string name = state.config->name;
  return std::make_unique<InProcessExplorationService>(
      std::move(name), std::move(state), std::vector<bgp::PeerView>{provider, downstream, feed},
      provider.id);
}

// The server and the client stubs of one federation: one socket, one
// connection, the server's reactor thread answering inline.
struct Federation {
  transport::ExplorationServer server;
  std::vector<std::unique_ptr<ExplorationService>> stubs;

  ~Federation() {
    stubs.clear();
    server.Stop();
  }

  uint64_t WireBytes() const {
    uint64_t bytes = 0;
    for (uint32_t id = 1; id <= stubs.size(); ++id) {
      transport::ExplorationServer::DomainStats stats = server.domain_stats(id);
      bytes += stats.request_bytes + stats.reply_bytes;
    }
    return bytes;
  }
  uint64_t BusyUs() const {
    uint64_t busy = 0;
    for (uint32_t id = 1; id <= stubs.size(); ++id) {
      busy += server.domain_stats(id).busy_us;
    }
    return busy;
  }
};

// --- The benchmark's own output checks ------------------------------------------

bool Martian(const bgp::Prefix& p) {
  static const bgp::Prefix kLoopback = *bgp::Prefix::Parse("127.0.0.0/8");
  static const bgp::Prefix kClassDE = *bgp::Prefix::Parse("224.0.0.0/3");
  return p.length() == 0 || kLoopback.Covers(p) || kClassDE.Covers(p);
}

bool PathHas(const bgp::AsPath& path, bgp::AsNumber as) {
  for (const bgp::AsSegment& segment : path.segments()) {
    if (std::find(segment.asns.begin(), segment.asns.end(), as) != segment.asns.end()) {
      return true;
    }
  }
  return false;
}

bool Listed(const std::vector<bgp::Prefix>& entries, uint8_t le, const bgp::Prefix& p) {
  for (const bgp::Prefix& entry : entries) {
    if (entry.Covers(p) && p.length() >= entry.length() && p.length() <= le) {
      return true;
    }
  }
  return false;
}

// (b) A detection's input must be one the session admits, and a hijack's
// victim must be a route the inputs hold, with a different origin.
void CheckDetection(const Workload& w, const Corpus& corpus, bool large, const Detection& d) {
  const bgp::Prefix& p = d.input.nlri.empty() ? d.prefix : d.input.nlri.front();
  bool admitted = !Martian(p) && !PathHas(d.input.attrs.as_path, kProviderAs);
  if (w.filtered) {
    std::vector<bgp::Prefix> listed = CustomerBlocks(large);
    listed.push_back(kVictim);
    admitted = admitted && Listed(listed, 24, p);
  }
  if (!admitted) {
    Fail("detection outside the session's admitted space: " + d.ToString());
  }
  if (d.checker != "hijack") {
    return;
  }
  if (!d.victim.has_value() || d.new_origin == d.old_origin) {
    Fail("hijack without a victim of another origin: " + d.ToString());
  }
  auto it = corpus.origins.find(PrefixKey(*d.victim));
  const bool known = it != corpus.origins.end() &&
                     std::find(it->second.begin(), it->second.end(), d.old_origin) !=
                         it->second.end();
  if (!known) {
    Fail("hijack victim is no route of the inputs: " + d.ToString());
  }
}

// (c) Each remote verdict's `accepted` must match the domain's filter,
// recomputed here.
void CheckRemoteBatch(const ExplorationService& domain, const ExploratoryBatchRequest& request,
                      const ExploratoryBatchReply& reply) {
  const size_t index = std::stoul(domain.domain_name().substr(6));
  if (reply.replies.size() != request.updates.size()) {
    Fail(domain.domain_name() + ": reply count differs from request");
  }
  for (size_t i = 0; i < reply.replies.size(); ++i) {
    const bgp::UpdateMessage& u = request.updates[i];
    const NarrowReply& r = reply.replies[i];
    if (u.nlri.empty() || r.prefix != u.nlri.front()) {
      Fail(domain.domain_name() + ": reply prefix differs from request");
    }
    const bool expect = !Martian(r.prefix) && !PathHas(u.attrs.as_path, DomainAs(index)) &&
                        !Listed(GuardedSpace(), 32, r.prefix);
    if (r.accepted != expect) {
      Fail(domain.domain_name() + ": accepted=" + (r.accepted ? "1" : "0") + " for " +
           u.ToString());
    }
  }
}

uint32_t Digest(const std::string& text) {
  return BodyChecksum(reinterpret_cast<const uint8_t*>(text.data()), text.size());
}

// --- One run ------------------------------------------------------------------

struct Setup {
  std::vector<trace::TraceEvent> events;
  std::unique_ptr<Live> live;  // steady_state and federated; full_load builds one per round
  std::unique_ptr<Federation> federation;
  RibOracle oracle;
};

class Bench {
 public:
  Bench(const Workload& w, uint64_t seed, bool traced)
      : w_(w), seed_(seed), tracer_(traced), corpus_(MakeCorpus(w, seed)),
        config_(ProviderConfig(w)) {}

  int Run(double seconds);

 private:
  StatusOr<std::unique_ptr<Setup>> DoSetup();
  std::unique_ptr<DistributedExplorer> NewExplorer();
  void Verdict(DistributedExplorer& explorer, Live& live, net::NodeId from);
  void SendStream(Setup& s);
  void SteadyRound(Setup& s);
  void FullLoadRound(Setup& s);
  void FederatedRound(Setup& s);
  void Snapshot(DistributedExplorer& explorer);
  void CheckSnapshotRoundTrip() const;
  void PrintResult(double setup_s, const Tracer::Totals& setup_totals, double wall_s,
                   double cpu_s) const;

  const Workload& w_;
  const uint64_t seed_;
  Tracer tracer_;
  const Corpus corpus_;
  const bgp::RouterConfig config_;
  std::string socket_path_;
  Meter meter_;
  Counters counters_;
  Setup* setup_ = nullptr;

  TimedService::Verifier verifier_;
  Bytes last_snapshot_;
  std::vector<std::unique_ptr<bgp::UpdateMessage>> messages_;  // stable sends
  size_t stream_cursor_ = 0;
  uint32_t verdicts_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string round_text_;  // this round's verdicts, for the replay digest
  uint64_t rounds_ = 0;  // rounds completed so far
  uint64_t wire_bytes_ = 0;
  uint64_t server_busy_us_ = 0;
  size_t rib_prefixes_ = 0;
};

StatusOr<std::unique_ptr<Setup>> Bench::DoSetup() {
  auto s = std::make_unique<Setup>();
  auto reader = trace::TraceReader::Open(corpus_.dtrc);
  if (!reader.ok()) {
    return reader.status();
  }
  s->events.reserve(reader->event_count());
  while (!reader->Done()) {
    ScopedSpan span(tracer_, Layer::kDecode);
    auto event = reader->Next();
    if (!event.ok()) {
      return event.status();
    }
    s->events.push_back(std::move(event).value());
  }

  if (w_.table_in_setup) {
    s->live = std::make_unique<Live>(w_, config_, &tracer_, &meter_);
    if (Status st = s->live->Establish(); !st.ok()) {
      return st;
    }
    for (size_t i = 0; i < corpus_.dump_events; ++i) {
      s->live->SendAt(s->live->feed(i % w_.feeds), net::kMillisecond, &s->events[i].update);
      s->oracle.Apply(FeedBit(i, w_.feeds), s->events[i].update);
    }
    if (w_.filtered) {
      for (bool large : {false, true}) {
        if (large && !w_.large_customer) {
          continue;
        }
        for (const bgp::Prefix& p : CustomerPrefixes(large)) {
          messages_.push_back(std::make_unique<bgp::UpdateMessage>(
              Announce(large ? kLargeAs : kSmallAs, CustomerAddress(large), p)));
          s->live->SendAt(s->live->customer(large), 2 * net::kMillisecond,
                          messages_.back().get());
          s->oracle.Apply(large ? kLargeBit : kSmallBit, *messages_.back());
        }
      }
    }
    s->live->RunFor(10 * net::kSecond, nullptr);
  }

  std::vector<std::unique_ptr<ExplorationService>> domains;
  for (const trace::Trace& table : corpus_.domain_tables) {
    domains.push_back(BuildDomain(domains.size(), table));
  }
  s->federation = std::make_unique<Federation>();
  for (std::unique_ptr<ExplorationService>& domain : domains) {
    s->federation->server.AddDomain(std::move(domain));
  }
  auto address = transport::Address::Parse("unix:" + socket_path_);
  if (!address.ok()) {
    return address.status();
  }
  if (Status st = s->federation->server.AddEndpoint(*address); !st.ok()) {
    return st;
  }
  if (Status st = s->federation->server.Start(); !st.ok()) {
    return st;
  }
  auto stubs = transport::ConnectRemoteDomains(*address);
  if (!stubs.ok()) {
    return stubs.status();
  }
  s->federation->stubs = std::move(stubs).value();
  return s;
}

std::unique_ptr<DistributedExplorer> Bench::NewExplorer() {
  ExplorerOptions options;
  options.concolic.max_runs = w_.run_budget;
  auto explorer = std::make_unique<DistributedExplorer>(options);
  explorer->set_remote_batch_size(kRemoteBatchSize);
  explorer->AddChecker(std::make_unique<TimedChecker>(std::make_unique<HijackChecker>(),
                                                      &tracer_, &counters_.detections));
  explorer->AddChecker(std::make_unique<TimedChecker>(std::make_unique<RouteLeakChecker>(),
                                                      &tracer_, &counters_.detections));
  for (size_t d = 0; d < w_.domains; ++d) {
    explorer->AddRemoteService(std::make_unique<TimedService>(
        setup_->federation->stubs[d].get(), &tracer_, &counters_.federation, &verifier_));
  }
  if (w_.carry_cache && !last_snapshot_.empty()) {
    ScopedSpan span(tracer_, Layer::kSnapshotLoad);
    Status loaded = persist::LoadQueryCache(last_snapshot_, *explorer->local().query_cache());
    if (!loaded.ok()) {
      Fail("query-cache snapshot does not load: " + loaded.ToString());
    }
  }
  return explorer;
}

// (d) The last query-cache snapshot, loaded into a fresh cache, serialises
// back to the same bytes. Snapshot entries are ordered by process-local
// expression ids, so this runs while the cache that wrote the snapshot is
// alive and keeps those ids in use.
void Bench::CheckSnapshotRoundTrip() const {
  sym::SolverOptions defaults;
  sym::QueryCache fresh(defaults.max_cache_entries, defaults.max_unsat_cores);
  Status loaded = persist::LoadQueryCache(last_snapshot_, fresh);
  if (!loaded.ok()) {
    Fail("(d) query-cache snapshot does not load: " + loaded.ToString());
  }
  if (persist::SerializeQueryCache(fresh) != last_snapshot_) {
    Fail("(d) query-cache snapshot does not serialise back to the same bytes");
  }
}

void Bench::Snapshot(DistributedExplorer& explorer) {
  ScopedSpan span(tracer_, Layer::kSnapshot);
  last_snapshot_ = persist::SerializeQueryCache(*explorer.local().query_cache());
  ++counters_.snapshots;
  counters_.snapshot_bytes += last_snapshot_.size();
}

// Carries the UPDATE the router just received from `from` to its system-wide
// verdict: checkpoint (local and remote), exploration to exhaustion under the
// run budget with query-cache snapshots, then remote confirmation.
void Bench::Verdict(DistributedExplorer& explorer, Live& live, net::NodeId from) {
  const int64_t observed = NowNs();
  tracer_.set_verdict(++verdicts_);
  {
    ScopedSpan span(tracer_, Layer::kCheckpoint);
    explorer.TakeCheckpoint(live.router(), live.now());
  }
  const ExplorationReport& report = explorer.local_report();
  const size_t detections_before = report.detections.size();
  const uint64_t materialized_before = report.clones_materialized;
  const uint64_t avoided_before = report.clones_avoided;
  const bgp::UpdateMessage& seed = live.router().last_updates().at(from);
  {
    const int64_t start = NowNs();
    ScopedSpan span(tracer_, Layer::kExplore);
    explorer.local().StartExploration(seed, from);
    meter_.explore_ns += NowNs() - start;
  }
  for (size_t steps = 1;; ++steps) {
    const int64_t start = NowNs();
    bool more;
    {
      ScopedSpan span(tracer_, Layer::kExplore);
      more = explorer.local().Step();
    }
    meter_.explore_ns += NowNs() - start;
    if (!more) {
      break;
    }
    if (steps % kSnapshotEvery == 0) {
      Snapshot(explorer);
    }
  }
  Snapshot(explorer);
  {
    ScopedSpan span(tracer_, Layer::kConfirm);
    explorer.ConfirmRemotely();
  }
  meter_.verdict_ms.push_back(static_cast<float>(NowNs() - observed) * 1e-6f);
  tracer_.set_verdict(0);

  // Bookkeeping and checks, outside the timed verdict.
  const RemoteBatchStats& remote = explorer.remote_stats();
  const size_t fresh = report.detections.size() - detections_before;
  meter_.runs += report.concolic.runs;
  ++counters_.takes;
  ++counters_.seeds;
  counters_.unique_paths += report.concolic.unique_paths;
  counters_.clones_materialized += report.clones_materialized - materialized_before;
  counters_.clones_avoided += report.clones_avoided - avoided_before;
  counters_.queries += report.solver.queries;
  counters_.cache_hits += report.solver.cache_hits;
  counters_.cache_misses += report.solver.cache_misses;
  counters_.unknown += report.solver.unknown;
  counters_.atoms_sliced += report.solver.atoms_sliced;
  counters_.reshipped += remote.updates_sent - fresh * w_.domains;
  counters_.remote_materialized += remote.counters.clones_materialized;
  counters_.remote_avoided += remote.counters.clones_avoided;
  counters_.screen_cache_hits += remote.counters.screen_cache_hits;

  const bool large = from == kLargeNode;
  bool leak_found = false;
  std::string text = seed.ToString() + StrFormat(" runs=%llu shipped=%llu replies=%llu\n",
                                                 static_cast<unsigned long long>(
                                                     report.concolic.runs),
                                                 static_cast<unsigned long long>(
                                                     remote.updates_sent),
                                                 static_cast<unsigned long long>(
                                                     remote.replies_received));
  for (size_t i = detections_before; i < report.detections.size(); ++i) {
    const Detection& d = report.detections[i];
    CheckDetection(w_, corpus_, large, d);
    leak_found = leak_found || d.victim == (w_.filtered ? kVictim : kAggregate);
    text += d.ToString() + "\n";
  }
  if (fresh > 0) {
    const uint64_t first_run = report.detections[detections_before].run_index;
    for (const SystemWideDetection& sw : explorer.system_wide()) {
      if (sw.local.run_index >= first_run) {
        text += sw.local.prefix.ToString() + " adopted by";
        for (const std::string& domain : sw.adopting_domains) {
          text += " " + domain;
        }
        text += StrFormat(" spread %llu\n", static_cast<unsigned long long>(sw.total_spread));
      }
    }
  }
  round_text_ += text;
  attempted_ += 1 + remote.batches_sent;
  failed_ += (leak_found ? 0 : 1) + remote.batch_errors;
}

// Has the table feed send the next stream_per_seed UPDATEs of the update
// stream, cycling through it.
void Bench::SendStream(Setup& s) {
  const size_t stream = s.events.size() - corpus_.dump_events;
  for (size_t i = 0; i < w_.stream_per_seed; ++i) {
    const size_t index = corpus_.dump_events + stream_cursor_++ % stream;
    s.live->SendAt(s.live->feed(0), net::kMillisecond, &s.events[index].update);
    s.oracle.Apply(FeedBit(0, w_.feeds), s.events[index].update);
  }
}

// steady_state: per round, six observed customer UPDATEs, two small ones to
// each large one (the large customer's verdicts take about twice as long, so
// the verdict median falls among the small ones and p90 among the large),
// each after stream_per_seed UPDATEs from the table feed. The explorer lives
// for the round; its query cache comes from the last snapshot.
void Bench::SteadyRound(Setup& s) {
  std::unique_ptr<DistributedExplorer> explorer = NewExplorer();
  Live& live = *s.live;
  for (size_t k = 0; k < w_.seeds_per_round; ++k) {
    SendStream(s);
    // messages_: small customer's two prefixes, then the large customer's.
    const bool large = k % 3 == 2;
    live.SendAt(live.customer(large), 2 * net::kMillisecond,
                messages_[large ? 2 + k / 3 : k % 3].get());
    live.RunFor(10 * net::kMillisecond, [&](net::NodeId from) {
      if (from == kSmallNode || from == kLargeNode) {
        Verdict(*explorer, live, from);
      }
    });
  }
  if (rounds_ == 0) {
    CheckSnapshotRoundTrip();
  }
}

// full_load: per round, a fresh router takes the whole table from the feed
// sessions, then the churn; every checkpoint_every router UPDATEs it is
// checkpointed and the small customer's latest UPDATE is explored.
void Bench::FullLoadRound(Setup& s) {
  Live live(w_, config_, &tracer_, &meter_);
  if (Status st = live.Establish(); !st.ok()) {
    Fail(st.ToString());
  }
  std::unique_ptr<DistributedExplorer> explorer = NewExplorer();
  for (size_t i = 0; i < messages_.size(); ++i) {
    live.SendAt(live.customer(false), net::kMillisecond, messages_[i].get());
  }
  for (size_t i = 0; i < s.events.size(); ++i) {
    live.SendAt(live.feed(i % w_.feeds), 2 * net::kMillisecond + s.events[i].at,
                &s.events[i].update);
  }
  uint64_t updates = 0;
  live.RunFor(s.events.back().at + 2 * net::kSecond, [&](net::NodeId) {
    if (++updates % w_.checkpoint_every == 0) {
      Verdict(*explorer, live, kSmallNode);
    }
  });
  rib_prefixes_ = live.router().rib().PrefixCount();
  if (rib_prefixes_ != corpus_.full_load_rib) {
    Fail(StrFormat("(a) RIB holds %zu prefixes, the replay of the inputs %zu",
                   live.router().rib().PrefixCount(), corpus_.full_load_rib));
  }
  if (rounds_ == 0) {
    CheckSnapshotRoundTrip();
  }
}

// federated: per round, the unfiltered customer announces and withdraws each
// of its seed prefixes in turn; every announcement is explored and confirmed
// with all remote domains. The explorer, and so its solver cache, is new each
// round.
void Bench::FederatedRound(Setup& s) {
  std::unique_ptr<DistributedExplorer> explorer = NewExplorer();
  Live& live = *s.live;
  for (size_t k = 0; k < w_.seeds_per_round; ++k) {
    const bgp::UpdateMessage* announce = messages_[2 * k].get();
    const bgp::UpdateMessage* withdraw = messages_[2 * k + 1].get();
    SendStream(s);
    live.SendAt(live.customer(false), 2 * net::kMillisecond, announce);
    s.oracle.Apply(kSmallBit, *announce);
    live.RunFor(10 * net::kMillisecond, [&](net::NodeId from) {
      if (from == kSmallNode) {
        Verdict(*explorer, live, from);
      }
    });
    live.SendAt(live.customer(false), net::kMillisecond, withdraw);
    s.oracle.Apply(kSmallBit, *withdraw);
    live.RunFor(10 * net::kMillisecond, nullptr);
  }
  if (rounds_ == 0) {
    CheckSnapshotRoundTrip();
  }
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<float> values, double p) {
  if (values.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

int Bench::Run(double seconds) {
  ::mkdir(".bench_run", 0755);
  socket_path_ = StrFormat(".bench_run/%s-%d.sock", w_.name, static_cast<int>(::getpid()));
  if (!w_.filtered) {
    for (const bgp::Prefix& p : FederatedSeeds(w_.seeds_per_round)) {
      messages_.push_back(
          std::make_unique<bgp::UpdateMessage>(Announce(kSmallAs, CustomerAddress(false), p)));
      messages_.push_back(std::make_unique<bgp::UpdateMessage>(Withdraw(p)));
    }
  } else if (!w_.table_in_setup) {
    for (const bgp::Prefix& p : CustomerPrefixes(false)) {
      messages_.push_back(
          std::make_unique<bgp::UpdateMessage>(Announce(kSmallAs, CustomerAddress(false), p)));
    }
  }
  const size_t premade = messages_.size();

  // Set up kSetups times; keep the last. Every set-up must reach the same state.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  Tracer::Totals setup_totals;
  uint32_t setup_digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    messages_.resize(premade);
    tracer_.ResetTotals();
    const int64_t start = NowNs();
    auto made = DoSetup();
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (!made.ok()) {
      std::fprintf(stderr, "online_bench: set-up failed: %s\n", made.status().ToString().c_str());
      return 1;
    }
    setup = std::move(made).value();
    setup_totals = tracer_.totals();
    uint32_t digest = static_cast<uint32_t>(setup->events.size());
    if (setup->live != nullptr) {
      Bytes state = persist::SerializeRouterState(setup->live->router().CheckpointState(), 0);
      digest ^= BodyChecksum(state.data(), state.size());
      if (setup->live->router().rib().PrefixCount() != setup->oracle.prefixes()) {
        Fail(StrFormat("(a) RIB holds %zu prefixes after set-up, the replay of the inputs %zu",
                       setup->live->router().rib().PrefixCount(), setup->oracle.prefixes()));
      }
    }
    if (i > 0 && digest != setup_digest) {
      Fail("(e) two set-ups from the same seed reached different states");
    }
    setup_digest = digest;
  }
  setup_ = setup.get();

  tracer_.ResetTotals();
  meter_.measuring = true;
  const uint64_t wire_before = setup_->federation->WireBytes();
  const uint64_t busy_before = setup_->federation->BusyUs();
  const double cpu_start = CpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  uint32_t first_round_digest = 0;
  uint64_t ops_first_round = 0;
  do {
    verifier_ = rounds_ == 0 ? TimedService::Verifier(CheckRemoteBatch) : nullptr;
    round_text_.clear();
    const uint64_t attempted_before = attempted_;
    if (std::string(w_.name) == "steady_state") {
      SteadyRound(*setup_);
    } else if (std::string(w_.name) == "full_load") {
      FullLoadRound(*setup_);
    } else {
      FederatedRound(*setup_);
    }
    const uint32_t digest = Digest(round_text_);
    if (rounds_ == 0) {
      first_round_digest = digest;
      ops_first_round = attempted_ - attempted_before;
    } else if (digest != first_round_digest) {
      Fail(StrFormat("(e) round %llu's verdicts differ from round 1's",
                     static_cast<unsigned long long>(rounds_ + 1)));
    }
    ++rounds_;
  } while (NowNs() < deadline);
  const double wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  const double cpu_s = CpuSeconds() - cpu_start;
  const uint64_t wire = setup_->federation->WireBytes() - wire_before;
  const uint64_t busy_us = setup_->federation->BusyUs() - busy_before;

  // (a) the live RIB against the benchmark's replay of every input sent.
  if (setup_->live != nullptr) {
    rib_prefixes_ = setup_->live->router().rib().PrefixCount();
  }
  if (setup_->live != nullptr && rib_prefixes_ != setup_->oracle.prefixes()) {
    Fail(StrFormat("(a) RIB holds %zu prefixes, the replay of the inputs %zu",
                   setup_->live->router().rib().PrefixCount(), setup_->oracle.prefixes()));
  }
  std::printf("digest workload=%s seed=%llu setup=%08x round=%08x ops_per_round=%llu\n",
              w_.name, static_cast<unsigned long long>(seed_), setup_digest, first_round_digest,
              static_cast<unsigned long long>(ops_first_round));
  std::fprintf(stderr, "rounds=%llu verdicts=%zu updates=%zu wall=%.2fs\n",
               static_cast<unsigned long long>(rounds_), meter_.verdict_ms.size(),
               meter_.update_us.size(), wall_s);

  if (tracer_.enabled()) {
    const std::string path =
        StrFormat(".bench_run/spans-%s-%llu.tsv", w_.name, static_cast<unsigned long long>(seed_));
    if (!tracer_.Write(path)) {
      std::fprintf(stderr, "online_bench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  wire_bytes_ = wire;
  server_busy_us_ = busy_us;
  PrintResult(Median(setup_s), setup_totals, wall_s, cpu_s);
  return 0;
}

void Bench::PrintResult(double setup_s, const Tracer::Totals& setup_totals, double wall_s,
                        double cpu_s) const {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  auto add = [&](const char* name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  const double rounds = static_cast<double>(rounds_);
  const double seeds = static_cast<double>(std::max<uint64_t>(1, counters_.seeds));
  if (!tracer_.enabled()) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    add("setup_s", setup_s, "s");
    add("routes_per_s",
        static_cast<double>(meter_.routes) / (static_cast<double>(meter_.busy_ns) * 1e-9),
        "1/s");
    add("update_p50_us", Percentile(meter_.update_us, 0.50), "us");
    add("update_p99_us", Percentile(meter_.update_us, 0.99), "us");
    add("runs_per_s",
        static_cast<double>(meter_.runs) / (static_cast<double>(meter_.explore_ns) * 1e-9),
        "1/s");
    add("verdict_p50_ms", Percentile(meter_.verdict_ms, 0.50), "ms");
    add("verdict_p90_ms", Percentile(meter_.verdict_ms, 0.90), "ms");
    add("wire_kb",
        static_cast<double>(wire_bytes_) / 1024.0 /
            static_cast<double>(std::max<size_t>(1, meter_.verdict_ms.size())),
        "KB");
    add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  } else {
    const Tracer::Totals& t = tracer_.totals();
    const Counters& c = counters_;
    auto per_round = [&](double v) { return v / rounds; };
    add("trace.decode_s", setup_totals.total_s(Layer::kDecode), "s");
    add("trace.events", static_cast<double>(setup_totals.count[static_cast<size_t>(Layer::kDecode)]),
        "count");
    add("net.events", per_round(static_cast<double>(meter_.events)), "count/round");
    add("net.other_step_s", per_round(t.self_s(Layer::kNetStep)), "s/round");
    add("bgp.update_s", per_round(t.total_s(Layer::kBgpUpdate)), "s/round");
    add("bgp.updates", per_round(static_cast<double>(meter_.update_us.size())), "count/round");
    add("bgp.routes", per_round(static_cast<double>(meter_.routes)), "count/round");
    add("bgp.exports", per_round(static_cast<double>(meter_.exports)), "count/round");
    add("bgp.rib_prefixes", static_cast<double>(rib_prefixes_), "count");
    add("bgp.load_s", setup_totals.total_s(Layer::kBgpLoad), "s");
    add("checkpoint.take_s", per_round(t.self_s(Layer::kCheckpoint)), "s/round");
    add("checkpoint.takes", per_round(static_cast<double>(c.takes)), "count/round");
    add("checkpoint.clones_materialized", per_round(static_cast<double>(c.clones_materialized)),
        "count/round");
    add("checkpoint.clones_avoided", per_round(static_cast<double>(c.clones_avoided)),
        "count/round");
    add("sym.queries", per_round(static_cast<double>(c.queries)), "count/round");
    add("sym.cache_hits", per_round(static_cast<double>(c.cache_hits)), "count/round");
    add("sym.cache_misses", per_round(static_cast<double>(c.cache_misses)), "count/round");
    add("sym.cache_hit_ratio",
        static_cast<double>(c.cache_hits) /
            static_cast<double>(std::max<uint64_t>(1, c.cache_hits + c.cache_misses)),
        "ratio");
    add("sym.unknown", per_round(static_cast<double>(c.unknown)), "count/round");
    add("sym.atoms_sliced", per_round(static_cast<double>(c.atoms_sliced)), "count/round");
    add("dice.explore_s", per_round(t.self_s(Layer::kExplore)), "s/round");
    add("dice.runs", per_round(static_cast<double>(meter_.runs)), "count/round");
    add("dice.unique_paths", per_round(static_cast<double>(c.unique_paths)), "count/round");
    add("dice.seeds", per_round(static_cast<double>(c.seeds)), "count/round");
    add("dice.detections", static_cast<double>(c.detections) / seeds, "count/seed");
    add("dice.checker_s", per_round(t.total_s(Layer::kChecker)), "s/round");
    add("dice.confirm_s", per_round(t.self_s(Layer::kConfirm)), "s/round");
    add("dice.reshipped", per_round(static_cast<double>(c.reshipped)), "count/round");
    add("transport.checkpoint_rpc_s", per_round(t.total_s(Layer::kRpcCheckpoint)), "s/round");
    add("transport.batch_s", per_round(t.total_s(Layer::kRpcBatch)), "s/round");
    add("transport.batch_p50_us", Percentile(c.federation.batch_us, 0.50), "us");
    add("transport.batches", per_round(static_cast<double>(c.federation.batches)), "count/round");
    add("transport.replies", per_round(static_cast<double>(c.federation.replies)), "count/round");
    add("transport.server_busy_s", per_round(static_cast<double>(server_busy_us_) * 1e-6),
        "s/round");
    add("transport.remote_clones_materialized",
        per_round(static_cast<double>(c.remote_materialized)), "count/round");
    add("transport.remote_clones_avoided", per_round(static_cast<double>(c.remote_avoided)),
        "count/round");
    add("transport.screen_cache_hits", per_round(static_cast<double>(c.screen_cache_hits)),
        "count/round");
    add("persist.snapshot_s", per_round(t.total_s(Layer::kSnapshot)), "s/round");
    add("persist.snapshots", per_round(static_cast<double>(c.snapshots)), "count/round");
    add("persist.snapshot_kb",
        static_cast<double>(c.snapshot_bytes) / 1024.0 /
            static_cast<double>(std::max<uint64_t>(1, c.snapshots)),
        "KB");
    add("persist.load_s", per_round(t.total_s(Layer::kSnapshotLoad)), "s/round");
    add("process.cpu_s", per_round(cpu_s), "s/round");
    add("process.wall_s", per_round(wall_s), "s/round");
  }
  std::string json = StrFormat("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                               static_cast<unsigned long long>(attempted_),
                               static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                      metrics[i].first.c_str(), metrics[i].second.first, metrics[i].second.second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "usage: online_bench --workload W --seed N --seconds S --trace 0|1\n");
      return 2;
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || flags.size() != 4 || !flags.count("workload") || !flags.count("seed") ||
      !flags.count("seconds") || !flags.count("trace")) {
    std::fprintf(stderr, "usage: online_bench --workload W --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags["workload"] == w.name) {
      workload = &w;
    }
  }
  auto seed = ParseUint64(flags["seed"]);
  auto seconds = ParseUint64(flags["seconds"]);
  if (workload == nullptr || !seed.has_value() || !seconds.has_value() || *seconds == 0 ||
      (flags["trace"] != "0" && flags["trace"] != "1")) {
    std::fprintf(stderr, "online_bench: bad flag value\n");
    return 2;
  }
  Bench bench(*workload, *seed, flags["trace"] == "1");
  return bench.Run(static_cast<double>(*seconds));
}

}  // namespace
}  // namespace dice::online_bench

int main(int argc, char** argv) { return dice::online_bench::Main(argc, argv); }
