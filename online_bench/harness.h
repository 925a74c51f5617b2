// Layer timing for the online-testing benchmark, taken from outside the
// program: every span brackets a call into a layer's public functions, and
// the decorators below wrap the program's own extension points (Checker,
// ExplorationService) so the program itself carries no tracing.
//
// A span has a layer name, a start, an end, a parent (the span open around
// it) and the id of the verdict it serves. A layer's self time is its span's
// duration minus the time its child spans cover. Spans live in memory and are
// written out once, when the run ends.

#ifndef ONLINE_BENCH_HARNESS_H_
#define ONLINE_BENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dice/checkers.h"
#include "src/dice/exploration_service.h"

namespace dice::online_bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t {
  kDecode,         // trace::TraceReader::Next
  kNetStep,        // net::EventLoop::Step that delivered no UPDATE to the router
  kBgpUpdate,      // a Step that delivered an UPDATE to the router (measured phase)
  kBgpLoad,        // the same, while the table loads in setup
  kCheckpoint,     // DistributedExplorer::TakeCheckpoint
  kExplore,        // Explorer::StartExploration / Explorer::Step
  kChecker,        // Checker::OnRun
  kSnapshot,       // persist::SerializeQueryCache
  kSnapshotLoad,   // persist::LoadQueryCache
  kConfirm,        // DistributedExplorer::ConfirmRemotely
  kRpcCheckpoint,  // ExplorationService::TakeCheckpoint over the socket
  kRpcBatch,       // ExplorationService::ExecuteBatch over the socket
  kCount,
};
constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

inline const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "trace.decode",   "net.step",          "bgp.update",     "bgp.load",
      "checkpoint.take", "dice.explore",     "dice.checker",   "persist.snapshot",
      "persist.load",   "dice.confirm",      "transport.checkpoint_rpc",
      "transport.batch"};
  return kNames[static_cast<size_t>(layer)];
}

class Tracer {
 public:
  struct Totals {
    std::array<int64_t, kLayerCount> self_ns{};
    std::array<int64_t, kLayerCount> total_ns{};
    std::array<uint64_t, kLayerCount> count{};

    double self_s(Layer layer) const {
      return static_cast<double>(self_ns[static_cast<size_t>(layer)]) * 1e-9;
    }
    double total_s(Layer layer) const {
      return static_cast<double>(total_ns[static_cast<size_t>(layer)]) * 1e-9;
    }
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_verdict(uint32_t verdict) { verdict_ = verdict; }

  void Begin() {
    open_.push_back(Open{next_id_++, open_.empty() ? 0 : open_.back().id, NowNs(), 0});
  }

  // Closes the innermost open span under `layer` (a span may be relabelled
  // when it ends, e.g. an event-loop step turns out to be router work).
  void End(Layer layer) {
    const int64_t end = NowNs();
    const Open span = open_.back();
    open_.pop_back();
    const int64_t duration = end - span.start_ns;
    const size_t index = static_cast<size_t>(layer);
    totals_.self_ns[index] += duration - span.child_ns;
    totals_.total_ns[index] += duration;
    ++totals_.count[index];
    if (!open_.empty()) {
      open_.back().child_ns += duration;
    }
    if (spans_.size() < kMaxStoredSpans) {
      spans_.push_back(Span{span.id, span.parent, verdict_, layer, span.start_ns, end});
    } else {
      ++dropped_;
    }
  }

  const Totals& totals() const { return totals_; }
  void ResetTotals() { totals_ = Totals{}; }

  // Writes every stored span, one per line: id, parent (0 = none), verdict
  // id (0 = none), layer, start and end in ns of the steady clock.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "# id\tparent\tverdict\tlayer\tstart_ns\tend_ns\t(dropped %llu)\n",
                 static_cast<unsigned long long>(dropped_));
    for (const Span& s : spans_) {
      std::fprintf(out, "%llu\t%llu\t%u\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.verdict, LayerName(s.layer),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  // Bounds the span buffer (10 MB in memory); spans beyond it still count
  // in the totals, and the file notes how many were dropped.
  static constexpr size_t kMaxStoredSpans = size_t{1} << 18;

  struct Open {
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint32_t verdict;
    Layer layer;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled_;
  uint32_t verdict_ = 0;
  uint64_t next_id_ = 1;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  Totals totals_;
};

// RAII span; free when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer)
      : tracer_(tracer.enabled() ? &tracer : nullptr), layer_(layer) {
    if (tracer_ != nullptr) {
      tracer_->Begin();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(layer_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Relabel(Layer layer) { layer_ = layer; }

 private:
  Tracer* tracer_;
  Layer layer_;
};

// Times Checker::OnRun and counts the detections the checker appends.
class TimedChecker : public Checker {
 public:
  TimedChecker(std::unique_ptr<Checker> inner, Tracer* tracer, uint64_t* appended)
      : inner_(std::move(inner)), tracer_(tracer), appended_(appended) {}

  std::string name() const override { return inner_->name(); }
  void OnCheckpoint(const bgp::RouterState& checkpoint) override {
    inner_->OnCheckpoint(checkpoint);
  }
  void OnRun(const RunInfo& info, std::vector<Detection>* out) override {
    ScopedSpan span(*tracer_, Layer::kChecker);
    const size_t before = out->size();
    inner_->OnRun(info, out);
    *appended_ += out->size() - before;
  }

 private:
  std::unique_ptr<Checker> inner_;
  Tracer* tracer_;
  uint64_t* appended_;
};

// What crossed the federation boundary, counted at the client.
struct FederationCounters {
  uint64_t batches = 0;
  uint64_t replies = 0;
  std::vector<float> batch_us;  // per-batch round trip, traced runs only
};

// Times a remote domain's calls over the socket. Forwards to a stub the
// benchmark keeps for the whole run, so every explorer shares one connection.
class TimedService : public ExplorationService {
 public:
  // Called with every successful batch while set: the benchmark's own check
  // of the remote domain's verdicts.
  using Verifier =
      std::function<void(const ExplorationService& domain, const ExploratoryBatchRequest&,
                         const ExploratoryBatchReply&)>;

  TimedService(ExplorationService* inner, Tracer* tracer, FederationCounters* counters,
               const Verifier* verifier)
      : inner_(inner), tracer_(tracer), counters_(counters), verifier_(verifier) {}

  const std::string& domain_name() const override { return inner_->domain_name(); }

  uint64_t TakeCheckpoint(net::SimTime now) override {
    ScopedSpan span(*tracer_, Layer::kRpcCheckpoint);
    return inner_->TakeCheckpoint(now);
  }

  StatusOr<ExploratoryBatchReply> ExecuteBatch(const ExploratoryBatchRequest& request) override {
    const int64_t start = tracer_->enabled() ? NowNs() : 0;
    StatusOr<ExploratoryBatchReply> reply = [&] {
      ScopedSpan span(*tracer_, Layer::kRpcBatch);
      return inner_->ExecuteBatch(request);
    }();
    if (tracer_->enabled()) {
      counters_->batch_us.push_back(static_cast<float>(NowNs() - start) * 1e-3f);
    }
    ++counters_->batches;
    if (reply.ok()) {
      counters_->replies += reply->replies.size();
      if (*verifier_) {
        (*verifier_)(*inner_, request, *reply);
      }
    }
    return reply;
  }

 private:
  ExplorationService* inner_;
  Tracer* tracer_;
  FederationCounters* counters_;
  const Verifier* verifier_;
};

}  // namespace dice::online_bench

#endif  // ONLINE_BENCH_HARNESS_H_
