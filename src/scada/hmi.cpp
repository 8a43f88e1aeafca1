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
  if (!update->verify(replica_verifier_,
                      prime::replica_identity(update->replica))) {
    ++stats_.updates_rejected_sig;
    return;
  }
  if (auto* tracer = obs::Tracer::current()) {
    tracer->hmi_recv(update->version);
  }
  vote(*update);

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

void Hmi::vote(const StateUpdateView& update) {
  std::vector<Content>& contents = votes_[update.version];
  Content* match = nullptr;
  for (Content& content : contents) {
    if (content.matches(update)) {
      match = &content;
    } else if (content.kind == update.kind && content.has(update.replica)) {
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

void Hmi::adopt_full(std::uint64_t version, const TopologyState& state) {
  // Detect per-breaker display changes (screen redraw events).
  state.for_each([&](const std::string& device, const DeviceState& new_state) {
    const DeviceState* old_state = display_.device(device);
    for (std::size_t i = 0; i < new_state.breakers.size(); ++i) {
      const bool was =
          old_state && i < old_state->breakers.size() && old_state->breakers[i];
      const bool now = new_state.breakers[i];
      if (was != now) {
        last_change_ = sim_.now();
        for (const auto& observer : observers_) {
          observer(device, i, now, sim_.now());
        }
      }
    }
  });
  display_ = state;
  finish_adopt(version);
}

bool Hmi::adopt_delta(std::uint64_t version, const util::Bytes& payload) {
  try {
    display_.apply_delta(
        payload,
        [&](std::uint32_t handle, std::size_t breaker, bool closed) {
          last_change_ = sim_.now();
          const std::string& device = display_.name(handle);
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

void Hmi::request_resync() {
  const sim::Time now = sim_.now();
  if (resync_requested_ && now < last_resync_ + config_.resync_min_interval) {
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
