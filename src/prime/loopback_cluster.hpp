// A Prime replica group on the in-memory LoopbackFabric: the one way
// tests and benches build n = 3f+2k+1 replicas without a network stack.
//
// The cluster owns the fabric, the replicas and their applications.
// Replicas are built in id order from the caller's PrimeConfig and
// keyring, each with the next fork of sim::Rng(seed), so the same
// (config, keyring, seed) always yields the same protocol run. submit()
// plays a client: it signs an update and hands it to every replica
// directly, so fabric fault injection never touches client traffic
// (real Spire clients retransmit). LogApp and first_divergence() are
// the shared total-order safety oracle.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "crypto/keyring.hpp"
#include "prime/application.hpp"
#include "prime/replica.hpp"
#include "prime/transport.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace spire::prime {

/// Deterministic append-only application: one "client#seq" entry per
/// executed update. restore() rewinds the log to the transferred
/// prefix, so a log is exactly the history its state reflects.
class LogApp : public Application {
 public:
  void apply(const ClientUpdate& update, const ExecutionInfo&) override {
    log_.push_back(update.client + "#" + std::to_string(update.client_seq));
  }

  [[nodiscard]] util::Bytes snapshot() const override {
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(log_.size()));
    for (const auto& entry : log_) w.str(entry);
    return w.take();
  }

  void restore(std::span<const std::uint8_t> blob) override {
    util::ByteReader r(blob);
    log_.clear();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) log_.push_back(r.str());
  }

  void on_state_transfer() override { ++state_transfers_; }

  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }
  [[nodiscard]] int state_transfers() const { return state_transfers_; }

 private:
  std::vector<std::string> log_;
  int state_transfers_ = 0;
};

/// The first place a replica's execution history breaks total order.
struct LogDivergence {
  ReplicaId replica = 0;
  std::size_t index = 0;

  bool operator==(const LogDivergence&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const LogDivergence& d) {
  return os << "replica " << d.replica << " diverges at index " << d.index;
}

/// Prefix-consistency oracle: every log must be a prefix of the longest
/// one. No replica is ground truth: logs that are all prefixes of the
/// longest are pairwise consistent, and any two that disagree cannot
/// both be. Returns the lowest replica id (and its first bad index)
/// whose log is not a prefix of the longest, or nullopt.
[[nodiscard]] inline std::optional<LogDivergence> first_divergence(
    std::span<const std::unique_ptr<LogApp>> apps) {
  const std::vector<std::string>* longest = nullptr;
  for (const auto& app : apps) {
    if (longest == nullptr || app->log().size() > longest->size()) {
      longest = &app->log();
    }
  }
  for (ReplicaId i = 0; i < apps.size(); ++i) {
    const auto& log = apps[i]->log();
    for (std::size_t j = 0; j < log.size(); ++j) {
      if (log[j] != (*longest)[j]) return LogDivergence{i, j};
    }
  }
  return std::nullopt;
}

template <class App = LogApp>
class LoopbackCluster {
 public:
  /// Builds replica `id`'s application (default: a default-constructed
  /// App).
  using AppFactory = std::function<std::unique_ptr<App>(ReplicaId)>;
  /// Sees every envelope the fabric delivers, before the replica does.
  using Tap = std::function<void(ReplicaId, const util::Bytes&)>;

  LoopbackCluster(sim::Simulator& sim, PrimeConfig config,
                  const crypto::Keyring& keyring, std::uint64_t seed,
                  const AppFactory& make_app = nullptr)
      : sim_(sim),
        config_(std::move(config)),
        keyring_(keyring),
        fabric_(sim, config_.n()) {
    sim::Rng rng(seed);
    for (ReplicaId i = 0; i < config_.n(); ++i) {
      if constexpr (std::is_default_constructible_v<App>) {
        apps_.push_back(make_app ? make_app(i) : std::make_unique<App>());
      } else {
        apps_.push_back(make_app(i));
      }
      replicas_.push_back(std::make_unique<Replica>(
          sim, i, config_, keyring, *apps_.back(), fabric_.transport_for(i),
          rng.fork()));
    }
    set_tap(nullptr);
  }

  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  /// Starts every replica, in id order.
  void start() {
    for (auto& r : replicas_) r->start();
  }

  /// Signs `client`'s next update and hands it to every replica.
  /// Returns the update's client_seq.
  std::uint64_t submit(const std::string& client, std::string_view payload) {
    Client& c = client_state(client);
    const util::Bytes bytes =
        seal_client_update(c.signer, ++c.seq, util::to_bytes(payload));
    for (auto& r : replicas_) r->on_message(bytes);
    return c.seq;
  }

  /// Consumes `client`'s next sequence number without sending, for a
  /// caller that crafts that update by hand.
  std::uint64_t next_seq(const std::string& client) {
    return ++client_state(client).seq;
  }

  /// Routes every delivery through `tap` first (nullptr removes it).
  void set_tap(Tap tap) {
    for (ReplicaId i = 0; i < replicas_.size(); ++i) {
      Replica* r = replicas_[i].get();
      if (tap) {
        fabric_.attach(i, [r, i, tap](const util::Bytes& bytes) {
          tap(i, bytes);
          r->on_message(bytes);
        });
      } else {
        fabric_.attach(i,
                       [r](const util::Bytes& bytes) { r->on_message(bytes); });
      }
    }
  }

  void run_for(sim::Time t) { sim_.run_until(sim_.now() + t); }

  [[nodiscard]] std::optional<LogDivergence> first_divergence() const
    requires std::is_same_v<App, LogApp>
  {
    return prime::first_divergence(apps_);
  }

  [[nodiscard]] sim::Simulator& sim() const { return sim_; }
  [[nodiscard]] const PrimeConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t n() const { return config_.n(); }
  [[nodiscard]] const crypto::Keyring& keyring() const { return keyring_; }
  [[nodiscard]] LoopbackFabric& fabric() { return fabric_; }
  [[nodiscard]] Replica& replica(ReplicaId id) const { return *replicas_[id]; }
  [[nodiscard]] App& app(ReplicaId id) const { return *apps_[id]; }
  [[nodiscard]] const std::vector<std::unique_ptr<Replica>>& replicas() const {
    return replicas_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<App>>& apps() const {
    return apps_;
  }
  /// The replicas in id order, as ProactiveRecovery takes them.
  [[nodiscard]] std::vector<Replica*> replica_ptrs() const {
    std::vector<Replica*> list;
    for (const auto& r : replicas_) list.push_back(r.get());
    return list;
  }

 private:
  struct Client {
    crypto::Signer signer;
    std::uint64_t seq = 0;
  };

  Client& client_state(const std::string& client) {
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      it = clients_
               .emplace(client,
                        Client{crypto::Signer(client,
                                              keyring_.identity_key(client))})
               .first;
    }
    return it->second;
  }

  sim::Simulator& sim_;
  PrimeConfig config_;
  const crypto::Keyring& keyring_;
  // Declared so replicas are destroyed before the apps and fabric they
  // reference.
  LoopbackFabric fabric_;
  std::vector<std::unique_ptr<App>> apps_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::map<std::string, Client> clients_;
};

}  // namespace spire::prime
