#include "src/transport/server.h"

#include <time.h>

#include <algorithm>
#include <utility>

#include "src/util/bytes.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice::transport {
namespace {

// Service-time telemetry only — nothing deterministic reads these stamps.
int64_t NowUs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

constexpr int kRingPollMs = 20;
constexpr int kRingSendTimeoutMs = 10000;
constexpr int kReactorPollMs = 50;

}  // namespace

ExplorationServer::ExplorationServer() : ExplorationServer(Options()) {}

ExplorationServer::ExplorationServer(Options options) : options_(options) {}

ExplorationServer::~ExplorationServer() { Stop(); }

uint32_t ExplorationServer::AddDomain(std::unique_ptr<ExplorationService> domain,
                                      uint64_t initial_epoch) {
  auto entry = std::make_unique<Domain>();
  entry->service = std::move(domain);
  entry->last_epoch = initial_epoch;
  domains_.push_back(std::move(entry));
  return static_cast<uint32_t>(domains_.size());
}

Status ExplorationServer::AddEndpoint(const Address& address) {
  if (started_) {
    return FailedPreconditionError("endpoints are frozen once the server started");
  }
  if (address.kind == Address::Kind::kShm) {
    DICE_ASSIGN_OR_RETURN(auto ring, ShmRingTransport::Create(address));
    auto endpoint = std::make_unique<ShmEndpoint>();
    endpoint->ring = std::move(ring);
    shm_endpoints_.push_back(std::move(endpoint));
    endpoint_addresses_.push_back(address);
    bound_addresses_.push_back(address);
    return Status::Ok();
  }
  DICE_ASSIGN_OR_RETURN(Reactor::ConnId listener, reactor_.Listen(address));
  DICE_ASSIGN_OR_RETURN(Address bound, reactor_.ListenerAddress(listener));
  listeners_.push_back(listener);
  have_socket_endpoints_ = true;
  endpoint_addresses_.push_back(address);
  bound_addresses_.push_back(bound);
  return Status::Ok();
}

StatusOr<Address> ExplorationServer::BoundAddress(size_t index) const {
  if (index >= bound_addresses_.size()) {
    return NotFoundError(StrFormat("no endpoint with index %zu", index));
  }
  return bound_addresses_[index];
}

Status ExplorationServer::Start() {
  if (started_) {
    return FailedPreconditionError("server already started");
  }
  if (domains_.empty()) {
    return FailedPreconditionError("server hosts no domains");
  }
  if (endpoint_addresses_.empty()) {
    return FailedPreconditionError("server has no endpoints");
  }
  started_ = true;
  stopping_.store(false, std::memory_order_release);
  if (options_.workers > 0) {
    pool_ = std::make_unique<util::WorkerPool>(options_.workers);
  }
  Reactor::Handlers handlers;
  handlers.on_frame = [this](Reactor::ConnId conn, Bytes frame) {
    HandleFrame(/*via_ring=*/false, conn, 0, std::move(frame));
  };
  // Accepts and closes need no bookkeeping: the envelope names the domain,
  // and a dead connection's queued completions are dropped by Send's
  // NotFound, which is exactly the right outcome.
  reactor_.set_handlers(std::move(handlers));
  if (have_socket_endpoints_) {
    reactor_thread_ = std::thread([this] { ReactorMain(); });
  }
  for (size_t i = 0; i < shm_endpoints_.size(); ++i) {
    shm_endpoints_[i]->thread = std::thread([this, i] { RingMain(i); });
  }
  running_.store(true, std::memory_order_release);
  return Status::Ok();
}

void ExplorationServer::Stop() {
  if (!started_) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  // Let in-flight worker tasks queue their replies while the transport
  // threads still run to flush them. The pool itself outlives those threads:
  // they read pool_ and may still submit until they are joined.
  if (pool_ != nullptr) {
    pool_->Drain();
  }
  if (reactor_thread_.joinable()) {
    reactor_.Wakeup();
    reactor_thread_.join();
  }
  for (auto& endpoint : shm_endpoints_) {
    endpoint->ring->Shutdown();
    if (endpoint->thread.joinable()) {
      endpoint->thread.join();
    }
  }
  pool_.reset();
  running_.store(false, std::memory_order_release);
}

ExplorationServer::DomainStats ExplorationServer::domain_stats(
    uint32_t domain_id) const {
  if (domain_id == 0 || domain_id > domains_.size()) {
    return DomainStats{};
  }
  const Domain& domain = *domains_[domain_id - 1];
  std::lock_guard<std::mutex> lock(domain.mu);
  return domain.stats;
}

std::vector<std::string> ExplorationServer::domain_names() const {
  std::vector<std::string> names;
  names.reserve(domains_.size());
  for (const auto& domain : domains_) {
    names.push_back(domain->service->domain_name());
  }
  return names;
}

uint64_t ExplorationServer::connections_accepted() const { return reactor_.accepts(); }

void ExplorationServer::ReactorMain() {
  while (!stopping_.load(std::memory_order_acquire)) {
    StatusOr<int> polled = reactor_.Poll(kReactorPollMs);
    if (!polled.ok()) {
      DICE_LOG(kError) << "transport reactor: " << polled.status().ToString();
      break;
    }
    DrainCompletions(/*via_ring=*/false, 0);
  }
  // Flush whatever completed between the last poll and the stop flag.
  DrainCompletions(/*via_ring=*/false, 0);
}

void ExplorationServer::RingMain(size_t ring_index) {
  ShmRingTransport& ring = *shm_endpoints_[ring_index]->ring;
  while (!stopping_.load(std::memory_order_acquire)) {
    DrainCompletions(/*via_ring=*/true, ring_index);
    StatusOr<Bytes> frame = ring.RecvFrame(kRingPollMs);
    if (frame.ok()) {
      HandleFrame(/*via_ring=*/true, 0, ring_index, std::move(frame).value());
      continue;
    }
    if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      continue;  // idle tick
    }
    // Shutdown or corruption: the ring is gone for good.
    break;
  }
  DrainCompletions(/*via_ring=*/true, ring_index);
}

void ExplorationServer::HandleFrame(bool via_ring, Reactor::ConnId conn,
                                    size_t ring_index, Bytes frame) {
  StatusOr<RpcRequest> parsed = RpcRequest::Parse(frame);
  if (!parsed.ok()) {
    // An envelope that fails magic/version/checksum is not trustworthy
    // enough to answer (its correlation id may be garbage): drop the
    // transport, exactly like a torn stream.
    DICE_LOG(kWarning) << "transport server: dropping connection after bad envelope: "
                      << parsed.status().ToString();
    if (via_ring) {
      shm_endpoints_[ring_index]->ring->Shutdown();
    } else {
      reactor_.Close(conn);
    }
    return;
  }
  RpcRequest request = std::move(parsed).value();
  if (pool_ != nullptr && request.op != RpcOp::kHello) {
    pool_->Submit([this, via_ring, conn, ring_index, request = std::move(request)] {
      RpcReply reply = Execute(request);
      Deliver(via_ring, conn, ring_index, reply.Serialize());
    });
    return;
  }
  RpcReply reply = Execute(request);
  Deliver(via_ring, conn, ring_index, reply.Serialize());
}

RpcReply ExplorationServer::Execute(const RpcRequest& request) {
  if (request.op == RpcOp::kHello) {
    RpcReply reply;
    reply.correlation_id = request.correlation_id;
    reply.domain_id = request.domain_id;
    reply.op = request.op;
    reply.payload = BuildHello();
    return reply;
  }
  if (request.domain_id == 0 || request.domain_id > domains_.size()) {
    return RpcReply::FromStatus(
        request, NotFoundError(StrFormat("no domain with id %u",
                                         static_cast<unsigned>(request.domain_id))));
  }
  Domain& domain = *domains_[request.domain_id - 1];
  const int64_t start_us = NowUs();
  RpcReply reply;
  reply.correlation_id = request.correlation_id;
  reply.domain_id = request.domain_id;
  reply.op = request.op;

  std::lock_guard<std::mutex> lock(domain.mu);
  switch (request.op) {
    case RpcOp::kTakeCheckpoint: {
      ByteReader reader(request.payload);
      StatusOr<uint64_t> now = reader.ReadU64();
      if (!now.ok() || !reader.AtEnd()) {
        reply = RpcReply::FromStatus(
            request, InvalidArgumentError("checkpoint payload must be exactly a u64"));
        break;
      }
      const uint64_t epoch = domain.service->TakeCheckpoint(now.value());
      domain.last_epoch = epoch;
      ByteWriter writer;
      writer.PutU64(epoch);
      reply.payload = writer.Take();
      ++domain.stats.checkpoints;
      break;
    }
    case RpcOp::kExecuteBatch: {
      StatusOr<ExploratoryBatchRequest> batch =
          ExploratoryBatchRequest::Parse(request.payload);
      if (!batch.ok()) {
        reply = RpcReply::FromStatus(request, batch.status());
        break;
      }
      StatusOr<ExploratoryBatchReply> result =
          domain.service->ExecuteBatch(batch.value());
      if (!result.ok()) {
        reply = RpcReply::FromStatus(request, result.status());
        break;
      }
      reply.payload = result.value().Serialize();
      ++domain.stats.batches;
      break;
    }
    case RpcOp::kHello:
      break;  // unreachable: handled above
  }
  const uint64_t elapsed_us = static_cast<uint64_t>(NowUs() - start_us);
  ++domain.stats.requests;
  if (reply.status_code != StatusCode::kOk) {
    ++domain.stats.errors;
  }
  domain.stats.request_bytes += request.payload.size();
  domain.stats.reply_bytes += reply.payload.size();
  domain.stats.busy_us += elapsed_us;
  domain.stats.max_busy_us = std::max(domain.stats.max_busy_us, elapsed_us);
  return reply;
}

Bytes ExplorationServer::BuildHello() {
  HelloReply hello;
  hello.domains.reserve(domains_.size());
  for (size_t i = 0; i < domains_.size(); ++i) {
    Domain& domain = *domains_[i];
    std::lock_guard<std::mutex> lock(domain.mu);
    HelloDomain entry;
    entry.id = static_cast<uint32_t>(i + 1);
    entry.name = domain.service->domain_name();
    entry.epoch = domain.last_epoch;
    hello.domains.push_back(std::move(entry));
  }
  return hello.Serialize();
}

void ExplorationServer::Deliver(bool via_ring, Reactor::ConnId conn, size_t ring_index,
                                Bytes frame) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    Completion completion;
    completion.via_ring = via_ring;
    completion.conn = conn;
    completion.ring_index = ring_index;
    completion.frame = std::move(frame);
    completions_.push_back(std::move(completion));
  }
  if (!via_ring) {
    reactor_.Wakeup();  // the ring thread polls its queue on its own cadence
  }
}

void ExplorationServer::DrainCompletions(bool via_ring, size_t ring_index) {
  while (true) {
    Completion completion;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      auto it = completions_.begin();
      while (it != completions_.end() &&
             (it->via_ring != via_ring || (via_ring && it->ring_index != ring_index))) {
        ++it;
      }
      if (it == completions_.end()) {
        return;
      }
      completion = std::move(*it);
      completions_.erase(it);
    }
    if (via_ring) {
      Status sent = shm_endpoints_[ring_index]->ring->SendFrame(completion.frame,
                                                               kRingSendTimeoutMs);
      if (!sent.ok()) {
        DICE_LOG(kWarning) << "transport server: dropping ring reply: "
                          << sent.ToString();
      }
    } else {
      Status sent = reactor_.Send(completion.conn, completion.frame);
      if (!sent.ok() && sent.code() != StatusCode::kNotFound) {
        // NotFound = the connection died while the worker ran; normal.
        DICE_LOG(kWarning) << "transport server: dropping reply: " << sent.ToString();
      }
    }
  }
}

}  // namespace dice::transport
