#include "scada/hmi.hpp"

#include <algorithm>
#include <cstring>

#include "prime/messages.hpp"

namespace spire::scada {

Hmi::Hmi(sim::Simulator& sim, HmiConfig config, const crypto::Keyring& keyring,
         crypto::Verifier replica_verifier, ScadaClient::SubmitFn submit)
    : sim_(sim),
      config_(std::move(config)),
      log_("scada.hmi." + config_.identity),
      replica_verifier_(std::move(replica_verifier)),
      client_(config_.identity, keyring, std::move(submit)),
      metrics_("scada.hmi." + config_.identity) {
  metrics_.counter("updates_received", &stats_.updates_received);
  metrics_.counter("updates_rejected_sig", &stats_.updates_rejected_sig);
  metrics_.counter("states_hashed", &stats_.states_hashed);
  metrics_.counter("versions_displayed", &stats_.versions_displayed);
  metrics_.counter("deltas_applied", &stats_.deltas_applied);
  metrics_.counter("resyncs_requested", &stats_.resyncs_requested);
  metrics_.counter("commands_issued", &stats_.commands_issued);
}

void Hmi::on_master_output(std::span<const std::uint8_t> data) {
  const auto update = StateUpdateView::parse_output(data);
  if (!update) return;

  ++stats_.updates_received;
  if (update->version <= version_) {
    // Cannot change the display whether genuine or not, so skip the
    // HMAC. The tracer keeps the earliest time per stage, so reporting
    // a stale arrival never moves a timestamp.
    if (auto* tracer = obs::Tracer::current()) {
      tracer->hmi_recv(update->version);
    }
    return;
  }
  // Copies of one state share its digest; every copy still has its own
  // HMAC checked, so a copy claiming another replica's signature fails.
  Content* match = find_content(*update);
  crypto::Digest digest{};
  if (match != nullptr) {
    digest = match->digest;
  } else {
    digest = crypto::sha256(update->state);
    ++stats_.states_hashed;
  }
  if (!update->verify(replica_verifier_,
                      prime::replica_identity(update->replica), digest)) {
    ++stats_.updates_rejected_sig;
    return;
  }
  if (auto* tracer = obs::Tracer::current()) {
    tracer->hmi_recv(update->version);
  }
  vote(*update, match, digest);

  if (votes_.size() > kMaxPendingVotes) {
    // Far behind the stream; stop buffering and ask for a snapshot.
    votes_.erase(votes_.begin());
    request_resync();
  }
  try_adopt();
}

bool Hmi::Content::matches(const StateUpdateView& update) const {
  return kind == update.kind && base_version == update.base_version &&
         state.size() == update.state.size() &&
         std::memcmp(state.data(), update.state.data(), state.size()) == 0;
}

bool Hmi::Content::has(std::uint32_t replica) const {
  return std::find(replicas.begin(), replicas.end(), replica) !=
         replicas.end();
}

Hmi::Content* Hmi::find_content(const StateUpdateView& update) {
  const auto it = votes_.find(update.version);
  if (it == votes_.end()) return nullptr;
  for (Content& content : it->second) {
    if (content.matches(update)) return &content;
  }
  return nullptr;
}

void Hmi::vote(const StateUpdateView& update, Content* match,
               const crypto::Digest& digest) {
  std::vector<Content>& contents = votes_[update.version];
  for (const Content& content : contents) {
    if (&content != match && content.kind == update.kind &&
        content.has(update.replica)) {
      // A replica already voted for different content of this kind at
      // this version: keep its first vote and drop the newcomer, so a
      // Byzantine replica cannot make the HMI buffer without limit.
      return;
    }
  }
  if (match == nullptr) {
    match = &contents.emplace_back();
    match->kind = update.kind;
    match->base_version = update.base_version;
    match->state.assign(update.state.begin(), update.state.end());
    match->digest = digest;
  }
  if (!match->has(update.replica)) match->replicas.push_back(update.replica);
}

std::size_t Hmi::pending_contents() const {
  std::size_t n = 0;
  for (const auto& [version, contents] : votes_) n += contents.size();
  return n;
}

void Hmi::try_adopt() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = votes_.begin(); it != votes_.end();) {
      if (it->first <= version_) {
        it = votes_.erase(it);
        continue;
      }
      bool adopted = false;
      bool stuck = false;  // a delta reached f+1 but cannot apply
      for (const Content& content : it->second) {
        if (content.replicas.size() < config_.f + 1) continue;
        if (content.kind == StateUpdate::kFull) {
          try {
            adopt_full(it->first, TopologyState::deserialize(content.state));
            adopted = true;
          } catch (const util::SerializationError&) {
          }
        } else if (content.base_version <= version_ && version_ > 0) {
          adopted = adopt_delta(it->first, content.state);
          stuck = !adopted;
        } else {
          // Missed the delta's base publication; keep the vote — it
          // may become applicable once a resync snapshot lands.
          stuck = true;
        }
        if (adopted) break;
      }
      if (adopted) {
        // version_ advanced: restart the scan, earlier buckets prune
        // and later deltas may have become applicable.
        progress = true;
        break;
      }
      if (stuck) request_resync();
      ++it;
    }
  }
}

void Hmi::adopt_full(std::uint64_t version, TopologyState state) {
  // Detect per-breaker display changes (screen redraw events).
  for (std::uint32_t h = 0; h < state.device_count(); ++h) {
    const std::string_view name = state.name(h);
    const auto was = display_.breaker_bytes(display_.handle(name));
    const auto now = state.breaker_bytes(h);
    for (std::size_t i = 0; i < now.size(); ++i) {
      const bool closed = now[i] != 0;
      if ((i < was.size() && was[i] != 0) != closed) {
        last_change_ = sim_.now();
        const std::string device(name);
        for (const auto& observer : observers_) {
          observer(device, i, closed, sim_.now());
        }
      }
    }
  }
  display_ = std::move(state);
  finish_adopt(version);
}

bool Hmi::adopt_delta(std::uint64_t version, const util::Bytes& payload) {
  try {
    display_.apply_delta(
        payload,
        [&](std::uint32_t handle, std::size_t breaker, bool closed) {
          last_change_ = sim_.now();
          const std::string device(display_.name(handle));
          for (const auto& observer : observers_) {
            observer(device, breaker, closed, sim_.now());
          }
        });
  } catch (const util::SerializationError&) {
    // Delta references a device our image does not have — the base
    // snapshot is stale or missing. The caller requests a resync.
    return false;
  }
  ++stats_.deltas_applied;
  finish_adopt(version);
  return true;
}

void Hmi::finish_adopt(std::uint64_t version) {
  version_ = version;
  ++stats_.versions_displayed;
  if (auto* tracer = obs::Tracer::current()) {
    tracer->hmi_display(version);
  }
}

/// Minimum spacing between ResyncRequests (masters answer each one with
/// a full snapshot — keep a confused HMI from flooding them).
constexpr sim::Time kResyncMinInterval = sim::kSecond;

void Hmi::request_resync() {
  const sim::Time now = sim_.now();
  if (resync_requested_ && now < last_resync_ + kResyncMinInterval) {
    return;
  }
  resync_requested_ = true;
  last_resync_ = now;
  ++stats_.resyncs_requested;
  ResyncRequest request;
  request.displayed_version = version_;
  client_.send(ScadaMsgType::kResyncRequest, request.encode());
}

void Hmi::reset_display() {
  display_ = TopologyState{};
  version_ = 0;
  votes_.clear();
  resync_requested_ = false;
  last_resync_ = 0;
}

std::uint64_t Hmi::command_breaker(const std::string& device,
                                   std::uint16_t breaker, bool close) {
  SupervisoryCommand command;
  command.device = device;
  command.breaker = breaker;
  command.close = close;
  command.command_id = next_command_id_++;
  ++stats_.commands_issued;
  client_.send(ScadaMsgType::kSupervisoryCommand, command.encode());
  return command.command_id;
}

}  // namespace spire::scada
