#include "scada/fleet_proxy.hpp"

#include <algorithm>

#include "prime/messages.hpp"

namespace spire::scada {

namespace {
/// How long a field poll (Modbus request pair or DNP3 integrity poll)
/// may take before it counts as a poll failure.
constexpr sim::Time kFieldPollTimeout = 100 * sim::kMillisecond;
}  // namespace

FleetProxy::FleetProxy(sim::Simulator& sim, FleetProxyConfig config,
                       const crypto::Keyring& keyring,
                       crypto::Verifier replica_verifier,
                       ScadaClient::SubmitFn submit)
    : sim_(sim),
      config_(std::move(config)),
      log_("scada.proxy." + config_.identity),
      replica_verifier_(std::move(replica_verifier)),
      client_(config_.identity, keyring, std::move(submit)),
      door_(config_.front_door),
      batcher_(sim, config_.batch,
               [this](std::vector<StatusReport>&& reports) {
                 send_batch(std::move(reports));
               }),
      metrics_("scada.proxy." + config_.identity),
      batch_fill_(obs::MetricsRegistry::current().histogram(
          "scada.proxy." + config_.identity + ".batch_fill")) {
  metrics_.counter("deltas_offered", &stats_.deltas_offered);
  metrics_.counter("polls", &stats_.polls);
  metrics_.counter("poll_failures", &stats_.poll_failures);
  metrics_.counter("reports_sent", &stats_.reports_sent);
  metrics_.counter("batches_sent", &stats_.batches_sent);
  metrics_.counter("orders_received", &stats_.orders_received);
  metrics_.counter("orders_rejected_sig", &stats_.orders_rejected_sig);
  metrics_.counter("commands_forwarded", &stats_.commands_forwarded);
  door_.bind(metrics_);
}

void FleetProxy::register_device(const std::string& device,
                                 CommandFn on_command) {
  auto& entry = devices_[device];
  if (on_command) entry.on_command = std::move(on_command);
}

void FleetProxy::register_polled_device(const std::string& device,
                                        std::unique_ptr<FieldClient> field) {
  FieldClient* client = field.get();
  register_device(device, [client](std::uint16_t breaker, bool close) {
    client->command(breaker, close);
  });
  polled_.push_back(PolledDevice{device, std::move(field), {}, std::nullopt});
}

void FleetProxy::start() {
  if (running_) return;
  running_ = true;
  // Stagger polls across devices (deterministically, by device name) so
  // a substation's proxies do not all hit the network in the same instant.
  for (std::size_t i = 0; i < polled_.size(); ++i) {
    const auto jitter = static_cast<sim::Time>(
        crypto::digest_prefix64(crypto::sha256(polled_[i].name)) %
        config_.poll_interval);
    sim_.schedule_after(jitter, [this, i] { poll_tick(i); });
  }
}

void FleetProxy::poll_tick(std::size_t index) {
  if (!running_) return;
  ++stats_.polls;

  const sim::Time polled_at = sim_.now();
  polled_[index].field->poll(
      [this, index, polled_at](std::optional<FieldClient::FieldState> state) {
        if (!running_) return;
        if (!state) {
          ++stats_.poll_failures;
          return;
        }
        on_poll(index, polled_at, std::move(*state));
      },
      kFieldPollTimeout);

  sim_.schedule_after(config_.poll_interval,
                      [this, index] { poll_tick(index); });
}

void FleetProxy::on_poll(std::size_t index, sim::Time polled_at,
                         FieldClient::FieldState state) {
  PolledDevice& device = polled_[index];
  // Report by exception. Heartbeat age is measured between poll starts,
  // which are exactly poll_interval apart, so a heartbeat at or below
  // the poll interval reports every poll regardless of field latency.
  const bool changed = state.breakers != device.last_breakers;
  const bool heartbeat_due =
      !device.last_report_poll ||
      polled_at - *device.last_report_poll >= config_.heartbeat_interval;
  if (!changed && !heartbeat_due) return;
  // A report carrying breaker movement is protection-critical: the
  // front door must never shed it before plain telemetry.
  const DeltaPriority priority =
      changed ? DeltaPriority::kCritical : DeltaPriority::kTelemetry;
  if (ingest(device.name, state.breakers, std::move(state.readings),
             priority)) {
    device.last_breakers = std::move(state.breakers);
    device.last_report_poll = polled_at;
  }
}

bool FleetProxy::ingest(const std::string& device, std::vector<bool> breakers,
                        std::vector<std::uint16_t> readings,
                        DeltaPriority priority) {
  ++stats_.deltas_offered;
  auto it = devices_.find(device);
  if (it == devices_.end()) return false;
  if (!door_.admit(priority, sim_.now(), batcher_.pending())) return false;

  StatusReport report;
  report.device = device;
  report.report_seq = it->second.next_seq++;
  report.breakers = std::move(breakers);
  report.readings = std::move(readings);
  batcher_.enqueue(std::move(report));
  return true;
}

void FleetProxy::send_batch(std::vector<StatusReport>&& reports) {
  batch_fill_->record(reports.size());
  BatchReport batch;
  batch.reports = std::move(reports);
  if (auto* tracer = obs::Tracer::current()) {
    // Member spans must exist before client_submit fans out to them.
    const std::uint64_t seq = client_.peek_seq();
    for (const auto& report : batch.reports) {
      tracer->proxy_batch_delta(report.device, client_.identity(), seq,
                                report.breakers);
    }
  }
  stats_.reports_sent += batch.reports.size();
  ++stats_.batches_sent;
  client_.send(ScadaMsgType::kBatchReport, batch.encode());
}

void FleetProxy::on_master_output(std::span<const std::uint8_t> data) {
  const auto output = MasterOutput::decode(data);
  if (!output || output->type != ScadaMsgType::kCommandOrder) return;
  const auto order = CommandOrder::decode(output->body);
  if (!order) return;
  handle_order(*order);
}

void FleetProxy::handle_order(const CommandOrder& order) {
  ++stats_.orders_received;
  const std::string identity = prime::replica_identity(order.replica);
  if (!order.verify(replica_verifier_, identity)) {
    ++stats_.orders_rejected_sig;
    return;
  }
  const auto device = devices_.find(order.command.device);
  if (device == devices_.end()) return;

  const OrderKey key{order.issuer, order.command.command_id};
  if (executed_orders_.count(key)) return;

  auto& votes = order_votes_[key];
  if (votes.insert_or_assign(order.replica, order.command).second) {
    track_pending_vote(order.replica, key);
  }

  std::uint32_t matching = 0;
  const util::Bytes canonical = order.command.encode();
  for (const auto& [replica, command] : votes) {
    if (command.encode() == canonical) ++matching;
  }
  if (matching < config_.f + 1) return;

  executed_orders_.insert(key);
  for (const auto& [replica, command] : votes) {
    auto& pending = pending_votes_[replica];
    const auto it = std::find(pending.begin(), pending.end(), key);
    if (it != pending.end()) pending.erase(it);
  }
  order_votes_.erase(key);
  ++stats_.commands_forwarded;
  log_.debug("forwarding command to ", order.command.device, ": breaker ",
             order.command.breaker, " <- ",
             order.command.close ? "CLOSE" : "OPEN");
  if (device->second.on_command) {
    device->second.on_command(order.command.breaker, order.command.close);
  }
}

void FleetProxy::track_pending_vote(std::uint32_t replica,
                                    const OrderKey& key) {
  auto& pending = pending_votes_[replica];
  pending.push_back(key);
  if (pending.size() <= kMaxPendingOrdersPerReplica) return;
  const auto oldest = order_votes_.find(pending.front());
  pending.pop_front();
  if (oldest == order_votes_.end()) return;
  oldest->second.erase(replica);
  if (oldest->second.empty()) order_votes_.erase(oldest);
}

}  // namespace spire::scada
