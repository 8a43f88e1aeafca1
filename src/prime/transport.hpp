// Replica-to-replica transport abstraction.
//
// In deployments, Prime replicas talk over the isolated internal Spines
// network (spire::scada wires that up); unit and property tests use the
// in-memory LoopbackTransport to drive thousands of protocol rounds
// without a network stack.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "prime/messages.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace spire::prime {

class ReplicaTransport {
 public:
  virtual ~ReplicaTransport() = default;

  /// Sends envelope bytes to one replica (best-effort). Takes the
  /// bytes by value so hot paths can move freshly sealed wires straight
  /// into the transport's in-flight storage without a copy.
  virtual void send(ReplicaId to, util::Bytes envelope) = 0;

  /// Sends to every replica except the caller.
  virtual void broadcast(util::Bytes envelope) = 0;
};

/// In-memory transport for tests: delivers through the simulator with a
/// configurable delay, with optional per-link drop/partition control,
/// probabilistic loss, and delivery jitter (fault injection).
class LoopbackFabric {
 public:
  LoopbackFabric(sim::Simulator& sim, std::size_t n,
                 sim::Time latency = 200 /*us*/)
      : sim_(sim), inboxes_(n), latency_(latency), blocked_(n, std::vector<bool>(n, false)) {}

  /// Drops each message independently with probability `p` and adds
  /// uniform jitter in [0, max_jitter] to survivors.
  void set_fault_injection(double p, sim::Time max_jitter, std::uint64_t seed) {
    loss_probability_ = p;
    max_jitter_ = max_jitter;
    fault_rng_ = sim::Rng(seed);
  }

  using Inbox = std::function<void(const util::Bytes&)>;

  void attach(ReplicaId id, Inbox inbox) { inboxes_.at(id) = std::move(inbox); }

  /// Isolates a replica entirely in both directions.
  void isolate(ReplicaId id, bool isolated) {
    for (std::size_t j = 0; j < inboxes_.size(); ++j) {
      blocked_.at(id).at(j) = isolated;
      blocked_.at(j).at(id) = isolated;
    }
  }

  void deliver(ReplicaId from, ReplicaId to, util::Bytes envelope) {
    deliver_shared(from, to,
                   std::make_shared<const util::Bytes>(std::move(envelope)));
  }

  /// Fans an envelope out to every replica but `from` with ONE copy of
  /// the bytes, shared by all the in-flight delivery closures.
  void deliver_all(ReplicaId from, util::Bytes envelope) {
    const auto shared = std::make_shared<const util::Bytes>(std::move(envelope));
    for (ReplicaId to = 0; to < inboxes_.size(); ++to) {
      if (to != from) deliver_shared(from, to, shared);
    }
  }

  [[nodiscard]] std::uint64_t messages_dropped() const {
    return messages_dropped_;
  }

  [[nodiscard]] std::size_t size() const { return inboxes_.size(); }

  /// Creates the per-replica transport handle.
  std::unique_ptr<ReplicaTransport> transport_for(ReplicaId id);

 private:
  class Handle;

  void deliver_shared(ReplicaId from, ReplicaId to,
                      std::shared_ptr<const util::Bytes> envelope) {
    if (to >= inboxes_.size() || blocked_[from][to]) return;
    if (loss_probability_ > 0 && fault_rng_.chance(loss_probability_)) {
      ++messages_dropped_;
      return;
    }
    sim::Time delay = latency_;
    if (max_jitter_ > 0) delay += fault_rng_.uniform(0, max_jitter_);
    sim_.schedule_after(delay, [this, to, envelope = std::move(envelope)] {
      if (inboxes_[to]) inboxes_[to](*envelope);
    });
  }

  sim::Simulator& sim_;
  std::vector<Inbox> inboxes_;
  sim::Time latency_;
  std::vector<std::vector<bool>> blocked_;
  double loss_probability_ = 0;
  sim::Time max_jitter_ = 0;
  sim::Rng fault_rng_{0};
  std::uint64_t messages_dropped_ = 0;
};

}  // namespace spire::prime
