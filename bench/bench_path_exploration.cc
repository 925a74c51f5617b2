// F1 — Figure 1: "A concolic execution engine negates the predicates to try
// to systematically explore code paths."
//
// The figure is qualitative; the measurable claim behind it is that concolic
// negation covers distinct paths *systematically* — every run targets a new
// path — while random input generation keeps re-executing old ones. This
// bench prints coverage-vs-runs series for the concolic strategies and a
// random-value baseline, on (a) a synthetic branchy handler and (b) the real
// provider import path with a multi-entry customer filter.
//
// It also runs the solver fast path head-to-head: the same exploration at the
// same run budget with constraint-independence slicing + the cross-run query
// cache disabled (the pre-optimization solve pipeline) vs enabled. The two
// must produce bit-identical unique_paths / branches_covered / detections —
// the optimizations are only allowed to be faster, never different — and the
// bench exits non-zero if they diverge.
//
// Flags: --runs=N, --seed=S, --branches=N (head-to-head synthetic width),
// --hh_reps=N (head-to-head repetitions), --prefixes=N; F1e (federated
// fan-out): --remote_domains=N, --remote_batch=N, --rpc_inputs=N.

#include <cstdio>
#include <memory>

#include "bench/common.h"
#include "bench/federation.h"
#include "bench/topology.h"
#include "src/dice/exploration_service.h"
#include "src/dice/explorer.h"
#include "src/persist/query_cache_snapshot.h"
#include "src/sym/concolic.h"
#include "src/util/rng.h"

namespace dice::bench {
namespace {

// (a) Synthetic handler: 6 independent range checks -> 64 paths.
sym::Program MakeSyntheticProgram() {
  return [](sym::Engine& engine) {
    for (uint64_t i = 0; i < 6; ++i) {
      sym::Value x =
          engine.MakeSymbolic("f" + std::to_string(i), 16, 10 * (i + 1), 0, 1000);
      engine.Branch(x > sym::Value(500), i + 1);
    }
  };
}

void SyntheticSeries(uint64_t runs, uint64_t seed) {
  std::printf("F1a — synthetic handler (6 branches, 64 feasible paths)\n");
  Table table({"strategy", "runs", "unique paths", "branch outcomes covered"});
  for (const char* strategy : {"generational", "dfs", "bfs", "random"}) {
    sym::ConcolicOptions options;
    options.max_runs = runs;
    options.strategy = strategy;
    options.seed = seed;
    sym::ConcolicDriver driver(options);
    driver.Explore(MakeSyntheticProgram());
    table.AddRow({strategy,
                  StrFormat("%llu", static_cast<unsigned long long>(driver.stats().runs)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(driver.stats().unique_paths)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(driver.stats().branches_covered))});
  }
  // Random *values* baseline (not path-guided at all): how many distinct
  // paths do uniformly random inputs cover in the same budget?
  {
    Rng rng(seed);
    std::set<uint64_t> paths;
    sym::Engine engine;
    for (uint64_t r = 0; r < runs; ++r) {
      sym::Assignment a;
      for (sym::VarId v = 0; v < 6; ++v) {
        a[v] = rng.NextBelow(1001);
      }
      engine.BeginRun(a);
      MakeSyntheticProgram()(engine);
      paths.insert(sym::HashDecisions(engine.path()));
    }
    table.AddRow({"random values (no solver)",
                  StrFormat("%llu", static_cast<unsigned long long>(runs)),
                  StrFormat("%zu", paths.size()), "-"});
  }
  table.Print();
  std::printf("\n");
}

void RealFilterSeries(uint64_t runs, uint64_t seed, size_t prefixes) {
  std::printf("F1b — real import path: coverage growth per run (provider, erroneous filter)\n");
  Fig2Options options;
  options.prefixes = prefixes;
  options.seed = seed;
  options.misconfig = Misconfig::kErroneousEntry;
  Fig2 fig2(options);
  fig2.LoadTable();

  ExplorerOptions explorer_options;
  explorer_options.concolic.max_runs = runs;
  Explorer explorer(explorer_options);
  explorer.AddChecker(std::make_unique<HijackChecker>());
  explorer.TakeCheckpoint(fig2.provider(), fig2.loop().now());
  explorer.StartExploration(fig2.CustomerSeedUpdate(), Fig2::kCustomerNode);

  Table table({"run", "unique paths", "branch outcomes", "detections"});
  uint64_t next_report = 1;
  uint64_t run = 1;
  do {
    if (run == next_report) {
      table.AddRow(
          {StrFormat("%llu", static_cast<unsigned long long>(run)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(explorer.report().concolic.unique_paths)),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 explorer.report().concolic.branches_covered)),
           StrFormat("%zu", explorer.report().detections.size())});
      next_report = next_report < 8 ? next_report + 1 : next_report * 2;
    }
    ++run;
  } while (explorer.Step());
  table.AddRow({StrFormat("%llu (final)",
                          static_cast<unsigned long long>(explorer.report().concolic.runs)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      explorer.report().concolic.unique_paths)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      explorer.report().concolic.branches_covered)),
                StrFormat("%zu", explorer.report().detections.size())});
  table.Print();
  std::printf("\nshape check vs Fig. 1: unique paths grow ~1 per run (systematic\n"
              "negation), and the random baseline plateaus far below the concolic\n"
              "strategies on the synthetic handler.\n");
}

// --- Solver fast-path head-to-head ------------------------------------------

struct HeadToHeadSide {
  double seconds = 0;
  sym::ConcolicStats concolic;
  size_t detections = 0;
};

// Wide synthetic handler: every branch tests an independent variable, so each
// negation query slices to a single atom and the cross-run cache sees the
// same handful of canonical queries over and over.
HeadToHeadSide RunSyntheticSide(bool fast, uint64_t branches, uint64_t budget, uint64_t reps) {
  HeadToHeadSide side;
  Stopwatch timer;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    sym::ConcolicOptions options;
    options.max_runs = budget;
    options.solver.enable_slicing = fast;
    options.solver.enable_cache = fast;
    sym::ConcolicDriver driver(options);
    driver.Explore([branches](sym::Engine& engine) {
      for (uint64_t i = 0; i < branches; ++i) {
        sym::Value x =
            engine.MakeSymbolic("f" + std::to_string(i), 16, 10 * (i + 1), 0, 1000);
        engine.Branch(x > sym::Value(500), i + 1);
      }
    });
    side.concolic = driver.stats();
  }
  side.seconds = timer.Seconds();
  return side;
}

// The real provider import path (erroneous multi-entry customer filter),
// explored under the same budget, `reps` times on one long-lived Explorer —
// DiCE's steady-state loop, which re-explores a seed against the router
// state every checkpoint interval. The per-exploration results must not
// depend on the repetition (cached or not), and only the explorations
// themselves are timed — checkpointing is benched separately
// (bench_checkpoint_vs_replay).
HeadToHeadSide RunRealSide(bool fast, uint64_t budget, uint64_t seed, size_t prefixes,
                           size_t entries, uint64_t reps) {
  Fig2Options options;
  options.prefixes = prefixes;
  options.seed = seed;
  options.misconfig = Misconfig::kErroneousEntry;
  options.filter_entries = entries;
  Fig2 fig2(options);
  fig2.LoadTable();

  ExplorerOptions explorer_options;
  explorer_options.concolic.max_runs = budget;
  explorer_options.concolic.solver.enable_slicing = fast;
  explorer_options.concolic.solver.enable_cache = fast;
  Explorer explorer(explorer_options);
  explorer.AddChecker(std::make_unique<HijackChecker>());
  explorer.TakeCheckpoint(fig2.provider(), fig2.loop().now());

  HeadToHeadSide side;
  size_t detections_before = 0;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    explorer.StartExploration(fig2.CustomerSeedUpdate(), Fig2::kCustomerNode);
    while (explorer.Step()) {
    }
    side.seconds += timer.Seconds();
    side.concolic = explorer.report().concolic;
    side.detections = explorer.report().detections.size() - detections_before;
    detections_before = explorer.report().detections.size();
  }
  return side;
}

bool SidesIdentical(const HeadToHeadSide& a, const HeadToHeadSide& b) {
  return a.concolic.runs == b.concolic.runs && a.concolic.unique_paths == b.concolic.unique_paths &&
         a.concolic.branches_covered == b.concolic.branches_covered &&
         a.detections == b.detections;
}

// --- State-layer fast path head-to-head (F1d) -------------------------------
//
// Clone cost is proportional to the peering fanout (the Adj-RIB-Out map is
// copied per eager clone), so F1d explores against a provider with `fanout`
// extra established sessions — a realistic transit router shape — under an
// adversarial seed whose runs are mostly rejected. Lazy clones answer those
// reject runs straight from the checkpoint: zero copies.

struct StateSide {
  double seconds = 0;
  sym::ConcolicStats concolic;
  size_t detections = 0;
  uint64_t runs_accepted = 0;
  uint64_t runs_rejected = 0;
  uint64_t clones_avoided = 0;
  uint64_t clones_materialized = 0;
  uint64_t bytes_cloned = 0;
  uint64_t total_runs = 0;  // across all reps
};

// Widens the provider's peering: `fanout` extra established sessions, each
// with an Adj-RIB-Out entry. They are PeerViews without NeighborConfigs, so
// accepted-run propagation skips them — only the per-clone state cost grows,
// which is exactly the term this head-to-head isolates.
void AddFanoutPeers(bgp::RouterState& state, std::vector<bgp::PeerView>& peers,
                    size_t fanout) {
  bgp::PathAttributes advertised;
  advertised.as_path = bgp::AsPath::Sequence({3, 65000});
  advertised.next_hop = *bgp::Ipv4Address::Parse("10.0.0.3");
  bgp::InternedAttrs advertised_interned(std::move(advertised));
  for (size_t i = 0; i < fanout; ++i) {
    bgp::PeerView pv;
    pv.id = static_cast<bgp::PeerId>(1000 + i);
    pv.remote_as = static_cast<bgp::AsNumber>(20000 + (i % 40000));
    pv.address = bgp::Ipv4Address(0x0b000001u + static_cast<uint32_t>(i));
    pv.established = true;
    peers.push_back(pv);
    state.adj_out[pv.id].Insert(*bgp::Prefix::Parse("203.0.113.0/24"), advertised_interned);
  }
}

StateSide RunStateSide(bool lazy, uint64_t budget, uint64_t seed, size_t prefixes,
                       size_t entries, size_t fanout, uint64_t reps) {
  Fig2Options options;
  options.prefixes = prefixes;
  options.seed = seed;
  options.misconfig = Misconfig::kErroneousEntry;
  options.filter_entries = entries;
  Fig2 fig2(options);
  fig2.LoadTable();

  bgp::RouterState state = fig2.provider().CheckpointState();
  std::vector<bgp::PeerView> peers = fig2.provider().PeerViews();
  AddFanoutPeers(state, peers, fanout);

  ExplorerOptions explorer_options;
  explorer_options.concolic.max_runs = budget;
  explorer_options.lazy_clones = lazy;
  Explorer explorer(explorer_options);
  explorer.AddChecker(std::make_unique<HijackChecker>());
  explorer.TakeCheckpoint(state, peers, fig2.loop().now());

  // Adversarial seed: the customer announces foreign space, so the vast
  // majority of explored inputs are rejected by the import filter (the
  // paper's leak-hunting posture) — and a rejected run should cost no copy.
  bgp::UpdateMessage seed_update;
  seed_update.attrs.origin = bgp::Origin::kIgp;
  seed_update.attrs.as_path = bgp::AsPath::Sequence({1, 17557});
  seed_update.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
  seed_update.nlri.push_back(*bgp::Prefix::Parse("198.51.100.0/24"));

  StateSide side;
  size_t detections_before = 0;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    explorer.StartExploration(seed_update, Fig2::kCustomerNode);
    while (explorer.Step()) {
    }
    side.seconds += timer.Seconds();
    side.concolic = explorer.report().concolic;
    side.detections = explorer.report().detections.size() - detections_before;
    detections_before = explorer.report().detections.size();
    side.total_runs += explorer.report().concolic.runs;
  }
  side.runs_accepted = explorer.report().runs_accepted;
  side.runs_rejected = explorer.report().runs_rejected;
  side.clones_avoided = explorer.report().clones_avoided;
  side.clones_materialized = explorer.report().clones_materialized;
  side.bytes_cloned = explorer.checkpoints().bytes_cloned();
  return side;
}

bool StateSidesIdentical(const StateSide& a, const StateSide& b) {
  return a.concolic.runs == b.concolic.runs &&
         a.concolic.unique_paths == b.concolic.unique_paths &&
         a.concolic.branches_covered == b.concolic.branches_covered &&
         a.detections == b.detections && a.runs_accepted == b.runs_accepted &&
         a.runs_rejected == b.runs_rejected;
}

// The steady-state per-run state cost, measured on the real concrete import
// path with the solver entirely out of the loop (the perfectly-warm limit of
// F1c): per exploratory input, clone the checkpoint, run the import pipeline,
// propagate. Eager = the pre-fast-path shape (copy the state every run);
// lazy = copy-on-first-write (reject runs are zero-copy reads).
struct ReplaySide {
  double seconds = 0;
  uint64_t runs = 0;
  uint64_t accepted = 0;
  uint64_t emitted = 0;
  uint64_t clones_avoided = 0;
  uint64_t bytes_cloned = 0;
};

ReplaySide RunReplaySide(bool lazy, const bgp::RouterState& state,
                         const std::vector<bgp::PeerView>& peers,
                         const std::vector<bgp::UpdateMessage>& inputs) {
  checkpoint::CheckpointManager manager;
  manager.Take(state, peers, 0);

  const bgp::PeerView& from = peers.front();  // the customer session
  const bgp::NeighborConfig* neighbor = state.config->FindNeighbor(from.address);
  DICE_CHECK(neighbor != nullptr);
  uint64_t emitted = 0;
  bgp::UpdateSink sink = [&emitted](bgp::PeerId, const bgp::UpdateMessage&) { ++emitted; };

  ReplaySide side;
  Stopwatch timer;
  for (const bgp::UpdateMessage& update : inputs) {
    checkpoint::CloneHandle handle = manager.CloneLazy();
    if (!lazy) {
      // The pre-fast-path discipline: one state copy per run, up front.
      bgp::RouterState& clone = handle.Mutable();
      uint64_t accepted_before = clone.routes_accepted;
      bgp::ProcessUpdate(clone, peers, from, *neighbor, update, sink);
      side.accepted += clone.routes_accepted - accepted_before;
    } else {
      // Zero-copy screen (same logic ImportRoute applies), then materialize
      // only when the input actually mutates routing state.
      bool mutates = false;
      for (const bgp::Prefix& announced : update.nlri) {
        if (bgp::ClassifyImport(handle.read(), *neighbor, announced, update.attrs)
                .disposition == bgp::ImportDisposition::kAccepted) {
          mutates = true;
          break;
        }
      }
      if (mutates) {
        bgp::RouterState& clone = handle.Mutable();
        uint64_t accepted_before = clone.routes_accepted;
        bgp::ProcessUpdate(clone, peers, from, *neighbor, update, sink);
        side.accepted += clone.routes_accepted - accepted_before;
      }
    }
    ++side.runs;
  }
  side.seconds = timer.Seconds();
  side.emitted = emitted;
  side.clones_avoided = manager.clones_avoided();
  side.bytes_cloned = manager.bytes_cloned();
  return side;
}

// The steady-state input mix is shared with F1i (bench/federation.h) so the
// two RPC benches measure the same workload.
std::vector<bgp::UpdateMessage> MakeReplayInputs(uint64_t count, uint64_t seed) {
  return MakeFederationInputs(count, seed);
}

int StateHeadToHead(uint64_t runs, uint64_t seed, size_t prefixes, size_t entries,
                    size_t fanout, uint64_t reps, uint64_t replay_count, JsonLine& json) {
  std::printf(
      "\nF1d — state-layer fast path head-to-head (lazy+interned vs eager clones,\n"
      "      %zu-session fanout)\n\n",
      fanout);

  // Gate: full exploration with lazy clones on vs off must be bit-identical
  // (paths, coverage, detections, accept/reject split) at equal budgets.
  StateSide eager = RunStateSide(/*lazy=*/false, runs, seed, prefixes, entries, fanout, reps);
  StateSide lazy = RunStateSide(/*lazy=*/true, runs, seed, prefixes, entries, fanout, reps);
  bool identical = StateSidesIdentical(eager, lazy);
  std::printf("exploration gate (%llu reps, budget %llu): results %s, "
              "reject runs zero-copy: %llu of %llu\n",
              static_cast<unsigned long long>(reps), static_cast<unsigned long long>(runs),
              identical ? "identical" : "DIVERGED",
              static_cast<unsigned long long>(lazy.clones_avoided),
              static_cast<unsigned long long>(lazy.clones_avoided + lazy.clones_materialized));

  // Timing: the real import path per run, steady state (no solver in the
  // loop — the warm-cache limit), on the same wide-fanout provider.
  Fig2Options options;
  options.prefixes = prefixes;
  options.seed = seed;
  options.misconfig = Misconfig::kErroneousEntry;
  options.filter_entries = entries;
  Fig2 fig2(options);
  fig2.LoadTable();
  bgp::RouterState state = fig2.provider().CheckpointState();
  std::vector<bgp::PeerView> peers = fig2.provider().PeerViews();
  AddFanoutPeers(state, peers, fanout);
  std::vector<bgp::UpdateMessage> inputs = MakeReplayInputs(replay_count, seed);
  ReplaySide replay_eager = RunReplaySide(false, state, peers, inputs);
  ReplaySide replay_lazy = RunReplaySide(true, state, peers, inputs);

  auto runs_per_sec = [](const ReplaySide& s) {
    return s.seconds <= 0 ? 0.0 : static_cast<double>(s.runs) / s.seconds;
  };
  auto bytes_per_run = [](const ReplaySide& s) {
    return s.runs == 0 ? 0.0
                       : static_cast<double>(s.bytes_cloned) / static_cast<double>(s.runs);
  };
  Table table({"clone config", "wall s", "runs/s", "bytes copied/run", "clones avoided",
               "accepted", "emitted"});
  auto row = [&](const char* config, const ReplaySide& s) {
    table.AddRow({config, StrFormat("%.4f", s.seconds), StrFormat("%.0f", runs_per_sec(s)),
                  StrFormat("%.0f", bytes_per_run(s)),
                  StrFormat("%llu", static_cast<unsigned long long>(s.clones_avoided)),
                  StrFormat("%llu", static_cast<unsigned long long>(s.accepted)),
                  StrFormat("%llu", static_cast<unsigned long long>(s.emitted))});
  };
  row("eager (pre-fast-path)", replay_eager);
  row("lazy + interned", replay_lazy);
  table.Print();

  bool replay_identical = replay_eager.accepted == replay_lazy.accepted &&
                          replay_eager.emitted == replay_lazy.emitted &&
                          replay_eager.runs == replay_lazy.runs;
  double speedup = replay_eager.seconds / std::max(replay_lazy.seconds, 1e-9);
  std::printf("state: %.2fx steady-state speedup on the import path (%llu runs), "
              "replay results %s\n",
              speedup, static_cast<unsigned long long>(replay_lazy.runs),
              replay_identical ? "identical" : "DIVERGED");

  json.Add("f1d_fanout", static_cast<uint64_t>(fanout))
      .Add("f1d_identical", identical)
      .Add("f1d_replay_identical", replay_identical)
      .Add("f1d_eager_seconds", replay_eager.seconds)
      .Add("f1d_lazy_seconds", replay_lazy.seconds)
      .Add("f1d_speedup", speedup)
      .Add("f1d_runs_per_sec", runs_per_sec(replay_lazy))
      .Add("f1d_runs_per_sec_eager", runs_per_sec(replay_eager))
      .Add("bytes_copied_per_run", bytes_per_run(replay_lazy))
      .Add("bytes_copied_per_run_eager", bytes_per_run(replay_eager))
      .Add("clones_avoided", lazy.clones_avoided + replay_lazy.clones_avoided)
      .Add("clones_materialized", lazy.clones_materialized);
  if (!identical || !replay_identical) {
    std::printf("\nFAIL: lazy clones changed exploration results\n");
    return 1;
  }
  return 0;
}

// --- Federated fan-out head-to-head (F1e) ------------------------------------
//
// The distributed layer's cost model: every exploratory input the provider
// wants confirmed crosses the narrow interface to N remote domains, as real
// serialized bytes (WireExplorationService). Batched requests amortize the
// frame, the per-batch session/policy resolution, and the screen cache across
// many updates; the per-message side replays the old point-to-point shape
// (batch_size=1, one RPC per update). Verdicts must be identical either way.

// The remote-domain fixture is shared with F1i (bench/federation.h).
std::unique_ptr<WireExplorationService> MakeRemoteDomain(size_t index) {
  return MakeWireFederationDomain(index);
}

struct FanoutSide {
  double seconds = 0;
  std::vector<NarrowReply> verdicts;  // domain-major, input order within
  uint64_t batches = 0;
  uint64_t errors = 0;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;
  BatchCounters counters;
};

FanoutSide RunFanoutSide(size_t domains, size_t batch_size,
                         const std::vector<bgp::UpdateMessage>& inputs) {
  std::vector<std::unique_ptr<WireExplorationService>> services;
  std::vector<uint64_t> epochs;
  services.reserve(domains);
  for (size_t d = 0; d < domains; ++d) {
    services.push_back(MakeRemoteDomain(d));
    epochs.push_back(services.back()->TakeCheckpoint(0));
  }

  FanoutSide side;
  side.verdicts.reserve(domains * inputs.size());
  Stopwatch timer;
  for (size_t d = 0; d < domains; ++d) {
    for (size_t begin = 0; begin < inputs.size(); begin += batch_size) {
      size_t end = std::min(begin + batch_size, inputs.size());
      ExploratoryBatchRequest request;
      request.checkpoint_epoch = epochs[d];
      request.updates.assign(inputs.begin() + static_cast<ptrdiff_t>(begin),
                             inputs.begin() + static_cast<ptrdiff_t>(end));
      StatusOr<ExploratoryBatchReply> reply = services[d]->ExecuteBatch(request);
      ++side.batches;
      if (!reply.ok()) {
        ++side.errors;
        continue;
      }
      side.verdicts.insert(side.verdicts.end(), reply->replies.begin(),
                           reply->replies.end());
      side.counters.clones_materialized += reply->counters.clones_materialized;
      side.counters.clones_avoided += reply->counters.clones_avoided;
      side.counters.screen_cache_hits += reply->counters.screen_cache_hits;
    }
  }
  side.seconds = timer.Seconds();
  for (const auto& service : services) {
    side.request_bytes += service->request_bytes();
    side.reply_bytes += service->reply_bytes();
  }
  return side;
}

int FanoutHeadToHead(size_t domains, size_t batch_size, uint64_t input_count, uint64_t seed,
                     JsonLine& json) {
  std::printf(
      "\nF1e — batched narrow-interface fan-out (%zu remote domains, wire-serialized)\n\n",
      domains);
  std::vector<bgp::UpdateMessage> inputs = MakeReplayInputs(input_count, seed);

  FanoutSide per_message = RunFanoutSide(domains, 1, inputs);
  FanoutSide batched = RunFanoutSide(domains, batch_size, inputs);

  bool identical = per_message.verdicts == batched.verdicts &&
                   per_message.errors == 0 && batched.errors == 0 &&
                   batched.verdicts.size() == domains * inputs.size();
  auto replies_per_sec = [](const FanoutSide& s) {
    return s.seconds <= 0 ? 0.0 : static_cast<double>(s.verdicts.size()) / s.seconds;
  };
  auto bytes_per_reply = [](const FanoutSide& s) {
    return s.verdicts.empty() ? 0.0
                              : static_cast<double>(s.request_bytes + s.reply_bytes) /
                                    static_cast<double>(s.verdicts.size());
  };

  Table table({"rpc shape", "wall s", "batches", "replies", "replies/s", "wire bytes/reply",
               "clones avoided", "screen hits"});
  auto row = [&](const char* shape, const FanoutSide& s) {
    table.AddRow({shape, StrFormat("%.4f", s.seconds),
                  StrFormat("%llu", static_cast<unsigned long long>(s.batches)),
                  StrFormat("%zu", s.verdicts.size()), StrFormat("%.0f", replies_per_sec(s)),
                  StrFormat("%.1f", bytes_per_reply(s)),
                  StrFormat("%llu", static_cast<unsigned long long>(s.counters.clones_avoided)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(s.counters.screen_cache_hits))});
  };
  row("per-message (batch=1)", per_message);
  row(StrFormat("batched (batch=%zu)", batch_size).c_str(), batched);
  table.Print();

  double speedup = per_message.seconds / std::max(batched.seconds, 1e-9);
  std::printf("fan-out: %.2fx replies/s from batching, verdicts %s\n", speedup,
              identical ? "identical" : "DIVERGED");

  json.Add("f1e_domains", static_cast<uint64_t>(domains))
      .Add("f1e_inputs", input_count)
      .Add("batch_size", static_cast<uint64_t>(batch_size))
      .Add("f1e_identical", identical)
      .Add("replies_per_sec", replies_per_sec(batched))
      .Add("replies_per_sec_per_message", replies_per_sec(per_message))
      .Add("bytes_per_reply", bytes_per_reply(batched))
      .Add("bytes_per_reply_per_message", bytes_per_reply(per_message))
      .Add("f1e_speedup", speedup)
      .Add("f1e_clones_avoided", batched.counters.clones_avoided)
      .Add("f1e_screen_cache_hits", batched.counters.screen_cache_hits);
  if (!identical) {
    std::printf("\nFAIL: batched narrow replies diverged from per-message replies\n");
    return 1;
  }
  return 0;
}

void AddHeadToHeadRows(Table& table, const char* workload, const HeadToHeadSide& base,
                       const HeadToHeadSide& fast) {
  auto row = [&](const char* config, const HeadToHeadSide& s) {
    table.AddRow({workload, config, StrFormat("%.4f", s.seconds),
                  StrFormat("%llu", static_cast<unsigned long long>(s.concolic.runs)),
                  StrFormat("%llu", static_cast<unsigned long long>(s.concolic.unique_paths)),
                  StrFormat("%llu", static_cast<unsigned long long>(s.concolic.branches_covered)),
                  StrFormat("%zu", s.detections),
                  StrFormat("%llu", static_cast<unsigned long long>(s.concolic.solver_cache_hits)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(s.concolic.solver_atoms_sliced))});
  };
  row("baseline (pre-opt solver)", base);
  row("slicing+cache", fast);
}

int HeadToHead(uint64_t runs, uint64_t seed, size_t prefixes, size_t entries, uint64_t branches,
               uint64_t reps, JsonLine& json) {
  std::printf("F1c — solver fast path head-to-head (equal budgets, %llu reps each)\n",
              static_cast<unsigned long long>(reps));

  HeadToHeadSide synth_base = RunSyntheticSide(false, branches, runs, reps);
  HeadToHeadSide synth_fast = RunSyntheticSide(true, branches, runs, reps);
  HeadToHeadSide real_base = RunRealSide(false, runs, seed, prefixes, entries, reps);
  HeadToHeadSide real_fast = RunRealSide(true, runs, seed, prefixes, entries, reps);

  Table table({"workload", "solver config", "wall s", "runs", "unique paths", "branch outcomes",
               "detections", "cache hits", "atoms sliced"});
  AddHeadToHeadRows(table, "synthetic handler", synth_base, synth_fast);
  AddHeadToHeadRows(table, "real import path", real_base, real_fast);
  table.Print();

  bool synth_ok = SidesIdentical(synth_base, synth_fast);
  bool real_ok = SidesIdentical(real_base, real_fast);
  double synth_speedup = synth_base.seconds / std::max(synth_fast.seconds, 1e-9);
  double real_speedup = real_base.seconds / std::max(real_fast.seconds, 1e-9);
  std::printf("\nsynthetic: %.2fx speedup, results %s\n", synth_speedup,
              synth_ok ? "identical" : "DIVERGED");
  std::printf("real:      %.2fx speedup, results %s\n", real_speedup,
              real_ok ? "identical" : "DIVERGED");

  json.Add("hh_budget_runs", runs)
      .Add("hh_reps", reps)
      .Add("synthetic_branches", branches)
      .Add("synthetic_baseline_seconds", synth_base.seconds)
      .Add("synthetic_fast_seconds", synth_fast.seconds)
      .Add("synthetic_speedup", synth_speedup)
      .Add("synthetic_identical", synth_ok)
      .Add("synthetic_cache_hits", synth_fast.concolic.solver_cache_hits)
      .Add("synthetic_atoms_sliced", synth_fast.concolic.solver_atoms_sliced)
      .Add("real_baseline_seconds", real_base.seconds)
      .Add("real_fast_seconds", real_fast.seconds)
      .Add("real_speedup", real_speedup)
      .Add("real_identical", real_ok)
      .Add("real_cache_hits", real_fast.concolic.solver_cache_hits)
      .Add("real_atoms_sliced", real_fast.concolic.solver_atoms_sliced);
  if (!synth_ok || !real_ok) {
    std::printf("\nFAIL: optimized solver changed exploration results\n");
    return 1;
  }
  return 0;
}

// --- Durable-state warm restart (F1g) ----------------------------------------
//
// The restart story, measured: explore the wide-fanout provider cold, persist
// the solver's query cache through the src/persist snapshot format, then
// explore the identical checkpoint on a *fresh* Explorer warmed from those
// bytes — the same sequence dice_cli --state_dir runs across a kill. The warm
// side must reproduce the cold side bit-identically (runs, paths, branch
// outcomes, detections) and serve the majority of its solver queries from the
// reloaded cache; anything less means persistence changed exploration or
// restored warmth that does not actually hit.

struct RestartSide {
  double seconds = 0;
  sym::ConcolicStats concolic;
  std::vector<std::string> detections;
};

RestartSide RunRestartSide(Explorer& explorer, const bgp::RouterState& state,
                           const std::vector<bgp::PeerView>& peers, net::SimTime now,
                           const bgp::UpdateMessage& seed_update) {
  explorer.TakeCheckpoint(state, peers, now);
  RestartSide side;
  Stopwatch timer;
  explorer.StartExploration(seed_update, Fig2::kCustomerNode);
  while (explorer.Step()) {
  }
  side.seconds = timer.Seconds();
  side.concolic = explorer.report().concolic;
  for (const Detection& d : explorer.report().detections) {
    side.detections.push_back(d.ToString());
  }
  return side;
}

int WarmRestartHeadToHead(uint64_t runs, uint64_t seed, size_t prefixes, size_t entries,
                          size_t fanout, JsonLine& json) {
  std::printf("\nF1g — durable-state warm restart (%zu-session fanout, cold vs reloaded "
              "query cache)\n\n",
              fanout);

  Fig2Options options;
  options.prefixes = prefixes;
  options.seed = seed;
  options.misconfig = Misconfig::kErroneousEntry;
  options.filter_entries = entries;
  Fig2 fig2(options);
  fig2.LoadTable();
  bgp::RouterState state = fig2.provider().CheckpointState();
  std::vector<bgp::PeerView> peers = fig2.provider().PeerViews();
  AddFanoutPeers(state, peers, fanout);

  bgp::UpdateMessage seed_update;
  seed_update.attrs.origin = bgp::Origin::kIgp;
  seed_update.attrs.as_path = bgp::AsPath::Sequence({1, 17557});
  seed_update.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
  seed_update.nlri.push_back(*bgp::Prefix::Parse("198.51.100.0/24"));

  ExplorerOptions explorer_options;
  explorer_options.concolic.max_runs = runs;

  Explorer cold_explorer(explorer_options);
  cold_explorer.AddChecker(std::make_unique<HijackChecker>());
  RestartSide cold =
      RunRestartSide(cold_explorer, state, peers, fig2.loop().now(), seed_update);
  Bytes snapshot = persist::SerializeQueryCache(*cold_explorer.query_cache());

  // The "restarted process": a fresh Explorer warmed from the snapshot bytes.
  Explorer warm_explorer(explorer_options);
  warm_explorer.AddChecker(std::make_unique<HijackChecker>());
  Status loaded = persist::LoadQueryCache(snapshot, *warm_explorer.query_cache());
  RestartSide warm =
      RunRestartSide(warm_explorer, state, peers, fig2.loop().now(), seed_update);

  const sym::ConcolicStats& wc = warm.concolic;
  const uint64_t warm_queries = wc.solver_cache_hits + wc.solver_cache_misses;
  const double hit_rate =
      warm_queries == 0
          ? 0.0
          : static_cast<double>(wc.solver_cache_preloaded_hits) / static_cast<double>(warm_queries);
  bool identical = loaded.ok() && cold.concolic.runs == wc.runs &&
                   cold.concolic.unique_paths == wc.unique_paths &&
                   cold.concolic.branches_covered == wc.branches_covered &&
                   cold.detections == warm.detections;

  Table table({"restart", "wall s", "runs", "runs/s", "detections", "preloaded hits",
               "hit rate", "identical"});
  auto runs_per_sec = [](const RestartSide& s) {
    return s.seconds <= 0 ? 0.0 : static_cast<double>(s.concolic.runs) / s.seconds;
  };
  table.AddRow({"cold", StrFormat("%.4f", cold.seconds),
                StrFormat("%llu", static_cast<unsigned long long>(cold.concolic.runs)),
                StrFormat("%.0f", runs_per_sec(cold)),
                StrFormat("%zu", cold.detections.size()), "-", "-", "yes"});
  table.AddRow(
      {"warm", StrFormat("%.4f", warm.seconds),
       StrFormat("%llu", static_cast<unsigned long long>(wc.runs)),
       StrFormat("%.0f", runs_per_sec(warm)), StrFormat("%zu", warm.detections.size()),
       StrFormat("%llu", static_cast<unsigned long long>(wc.solver_cache_preloaded_hits)),
       StrFormat("%.0f%%", hit_rate * 100.0), identical ? "yes" : "DIVERGED"});
  table.Print();
  std::printf("warm restart: %.0f%% of solver queries served from the reloaded snapshot "
              "(%zu-byte snapshot), results %s\n",
              hit_rate * 100.0, snapshot.size(), identical ? "identical" : "DIVERGED");

  json.Add("f1g_fanout", static_cast<uint64_t>(fanout))
      .Add("f1g_snapshot_bytes", static_cast<uint64_t>(snapshot.size()))
      .Add("warm_cache_hit_rate", hit_rate)
      .Add("f1g_warm_runs_per_sec", runs_per_sec(warm))
      .Add("f1g_preloaded_hits", wc.solver_cache_preloaded_hits)
      .Add("f1g_identical", identical);
  if (!identical) {
    std::printf("\nFAIL: warm restart changed exploration results\n");
    return 1;
  }
  if (hit_rate < 0.5) {
    std::printf("\nFAIL: warm restart served only %.0f%% of queries from the reloaded "
                "cache (need >= 50%%)\n",
                hit_rate * 100.0);
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t runs = flags.GetUint("runs", 128);
  const uint64_t seed = flags.GetUint("seed", 1);
  const size_t prefixes = flags.GetUint("prefixes", 5000);
  const size_t entries = flags.GetUint("entries", 12);
  const uint64_t branches = flags.GetUint("branches", 16);
  const uint64_t hh_reps = flags.GetUint("hh_reps", 5);
  const size_t fanout = flags.GetUint("fanout", 256);
  const uint64_t replay_count = flags.GetUint("replay_runs", 3000);
  const size_t remote_domains = flags.GetUint("remote_domains", 8);
  const size_t remote_batch = flags.GetUint("remote_batch", 64);
  const uint64_t rpc_inputs = flags.GetUint("rpc_inputs", 1000);

  std::printf("F1: systematic path exploration by predicate negation (paper Fig. 1)\n\n");
  SyntheticSeries(runs, seed);
  RealFilterSeries(runs, seed, prefixes);
  std::printf("\n");
  JsonLine json("path_exploration");
  json.Add("runs", runs)
      .Add("prefixes", static_cast<uint64_t>(prefixes))
      .Add("filter_entries", static_cast<uint64_t>(entries));
  int rc = HeadToHead(runs, seed, prefixes, entries, branches, hh_reps, json);
  rc |= StateHeadToHead(runs, seed, prefixes, entries, fanout, hh_reps, replay_count, json);
  rc |= FanoutHeadToHead(remote_domains, std::max<size_t>(remote_batch, 1), rpc_inputs, seed,
                         json);
  rc |= WarmRestartHeadToHead(runs, seed, prefixes, entries, fanout, json);
  json.Print();
  return rc;
}

}  // namespace
}  // namespace dice::bench

int main(int argc, char** argv) { return dice::bench::Run(argc, argv); }
