#include "scada/master.hpp"

#include "obs/trace.hpp"
#include "prime/messages.hpp"

namespace spire::scada {

ScadaMaster::ScadaMaster(MasterConfig config, const crypto::Keyring& keyring,
                         OutputFn output)
    : replica_id_(config.replica_id),
      device_proxy_(std::move(config.device_proxy)),
      hmis_(std::move(config.hmis)),
      signer_(prime::replica_identity(replica_id_),
              keyring.identity_key(prime::replica_identity(replica_id_))),
      output_(std::move(output)),
      state_(config.scenario) {}

void ScadaMaster::apply(const prime::ClientUpdate& update,
                        const prime::ExecutionInfo& info) {
  (void)info;
  const auto payload = ClientPayload::decode(update.payload);
  if (!payload) return;
  published_this_update_ = false;

  switch (payload->type) {
    case ScadaMsgType::kBatchReport: {
      const auto batch = BatchReport::decode(payload->body);
      if (!batch || batch->reports.empty()) return;
      ++version_;  // one ordered update, one version, every member delta
      ++batches_applied_;
      for (const auto& report : batch->reports) {
        ++reports_applied_;
        visible_since_push_ |=
            state_.apply_report(report.device, report.report_seq,
                                report.breakers, report.readings);
      }
      push_state_to_hmis();
      break;
    }
    case ScadaMsgType::kSupervisoryCommand: {
      const auto command = SupervisoryCommand::decode(payload->body);
      if (!command) return;
      ++version_;
      const auto proxy = device_proxy_.find(command->device);
      if (proxy != device_proxy_.end()) {
        CommandOrder order;
        order.replica = replica_id_;
        order.issuer = update.client;
        order.command = *command;
        order.sign(signer_);
        MasterOutput out;
        out.type = ScadaMsgType::kCommandOrder;
        out.body = order.encode();
        output_(proxy->second, out.encode());
      }
      // The command takes effect in the topology only when the field
      // device reports the new breaker position (ground truth).
      push_state_to_hmis();
      break;
    }
    case ScadaMsgType::kResyncRequest: {
      const auto request = ResyncRequest::decode(payload->body);
      if (!request) return;
      // Read-only side channel: answer the requester with a full
      // snapshot at the current version. No version bump and no
      // publication bookkeeping — the regular delta stream to the
      // other HMIs is unaffected.
      ++resyncs_served_;
      send_full_to(update.client);
      break;
    }
    default:
      break;
  }
  if (published_this_update_) {
    // This update's version was pushed to the HMIs (not throttled):
    // link the state version to the update's trace span.
    if (auto* tracer = obs::Tracer::current()) {
      tracer->master_publish(version_, update.client, update.client_seq);
    }
  }
}

void ScadaMaster::push_state_to_hmis() {
  if (hmis_.empty()) return;
  // A master that has never published is always due: HMIs need the
  // initial full snapshot before deltas mean anything.
  const bool due = visible_since_push_ || full_next_push_ ||
                   version_ >= last_pushed_version_ + kPushEvery;
  if (!due) return;  // nothing an operator could see changed
  if (version_ <= last_pushed_version_) return;  // already published

  StateUpdate su;
  su.replica = replica_id_;
  su.version = version_;
  if (full_next_push_) {
    su.kind = StateUpdate::kFull;
    su.state = state_.serialize();
    full_next_push_ = false;
    ++fulls_published_;
  } else {
    su.kind = StateUpdate::kDelta;
    su.base_version = last_pushed_version_;
    su.state = state_.serialize_changes();
    ++deltas_published_;
  }
  // Either payload carries every accumulated change; start a fresh
  // delta window.
  state_.clear_changes();
  visible_since_push_ = false;
  last_pushed_version_ = version_;
  published_this_update_ = true;

  su.sign(signer_);
  MasterOutput out;
  out.type = ScadaMsgType::kStateUpdate;
  out.body = su.encode();
  const util::Bytes bytes = out.encode();
  for (const auto& hmi : hmis_) output_(hmi, bytes);
}

void ScadaMaster::send_full_to(const std::string& client) {
  StateUpdate su;
  su.replica = replica_id_;
  su.version = version_;
  su.kind = StateUpdate::kFull;
  su.state = state_.serialize();
  su.sign(signer_);
  MasterOutput out;
  out.type = ScadaMsgType::kStateUpdate;
  out.body = su.encode();
  output_(client, out.encode());
}

util::Bytes ScadaMaster::snapshot() const {
  util::ByteWriter w;
  w.u64(version_);
  w.blob(state_.serialize());
  // Publication bookkeeping rides along so a recovered replica resumes
  // the exact delta stream its peers are producing — byte-identical
  // StateUpdates are what keep its output-vote useful.
  w.u64(last_pushed_version_);
  w.boolean(visible_since_push_);
  w.boolean(full_next_push_);
  const auto& masks = state_.changed_masks();
  w.u32(static_cast<std::uint32_t>(masks.size()));
  for (const auto mask : masks) w.u64(mask);
  return w.take();
}

void ScadaMaster::restore(std::span<const std::uint8_t> blob) {
  util::ByteReader r(blob);
  version_ = r.u64();
  const util::Bytes state_bytes = r.blob();
  state_ = TopologyState::deserialize(state_bytes);
  last_pushed_version_ = r.u64();
  visible_since_push_ = r.boolean();
  full_next_push_ = r.boolean();
  const std::uint32_t mask_count = r.u32();
  if (mask_count != state_.shard_count()) {
    throw util::SerializationError("snapshot mask count mismatch");
  }
  std::vector<std::uint64_t> masks(mask_count);
  for (auto& mask : masks) mask = r.u64();
  state_.set_changed_masks(masks);
  r.expect_done();
}

void ScadaMaster::on_state_transfer() {
  // Re-announce the freshly installed state so a restarted HMI
  // converges quickly. Side channel: publication bookkeeping and the
  // delta window are untouched, keeping this replica's regular stream
  // byte-identical to its peers'.
  for (const auto& hmi : hmis_) send_full_to(hmi);
}

}  // namespace spire::scada
