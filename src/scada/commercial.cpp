#include "scada/commercial.hpp"

namespace spire::scada {

util::Bytes CommMsg::encode() const {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(a);
  w.u64(b);
  w.str(device);
  w.blob(blob);
  return w.take();
}

std::optional<CommMsg> CommMsg::decode(std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    CommMsg m;
    const std::uint8_t t = r.u8();
    if (t < 1 || t > 5) return std::nullopt;
    m.type = static_cast<CommMsgType>(t);
    m.a = r.u64();
    m.b = r.u64();
    m.device = r.str();
    m.blob = r.blob();
    r.expect_done();
    return m;
  } catch (const util::SerializationError&) {
    return std::nullopt;
  }
}

CommercialMaster::CommercialMaster(sim::Simulator& sim, net::Host& host,
                                   CommercialMasterConfig config)
    : sim_(sim),
      host_(host),
      config_(std::move(config)),
      log_("scada.commercial." + host.name()) {
  for (const auto& link : config_.devices) {
    state_.register_device(link.device, link.breaker_count);
    const net::IpAddress plc_ip = link.plc_ip;
    modbus_[link.device] = std::make_unique<modbus::Client>(
        sim, link.device, [this, plc_ip](const util::Bytes& adu) {
          host_.send_udp(plc_ip, modbus::kModbusPort, kCommercialMasterPort + 10,
                         adu);
        });
  }
}

void CommercialMaster::start() {
  if (running_) return;
  running_ = true;
  active_ = config_.is_primary;
  last_peer_heartbeat_ = sim_.now();

  host_.bind_udp(kCommercialMasterPort,
                 [this](const net::Datagram& d) { handle_request(d); });
  // Modbus responses come back on a dedicated local port.
  host_.bind_udp(kCommercialMasterPort + 10, [this](const net::Datagram& d) {
    for (auto& [device, client] : modbus_) {
      if (config_.devices.empty()) break;
      // Responses carry the matching transaction id; every client
      // checks its own pending table, so fan-out is harmless.
      client->on_data(d.payload);
    }
  });
  poll_tick();
  heartbeat_tick();
}

void CommercialMaster::stop() {
  running_ = false;
  active_ = false;
  host_.unbind_udp(kCommercialMasterPort);
  host_.unbind_udp(kCommercialMasterPort + 10);
}

void CommercialMaster::poll_tick() {
  if (!running_) return;
  sim_.schedule_after(config_.poll_interval, [this] { poll_tick(); });
  if (!active_) return;

  for (const auto& link : config_.devices) {
    modbus::ReadBitsRequest req;
    req.fc = modbus::FunctionCode::kReadDiscreteInputs;
    req.start = 0;
    req.quantity = static_cast<std::uint16_t>(link.breaker_count);
    const std::string device = link.device;
    modbus_[device]->request(
        req, [this, device, count = link.breaker_count](
                 std::optional<modbus::Response> resp) {
          if (!running_ || !active_ || !resp) return;
          const auto* bits = std::get_if<modbus::ReadBitsResponse>(&*resp);
          if (!bits) return;
          std::vector<bool> breakers(
              bits->values.begin(),
              bits->values.begin() +
                  static_cast<std::ptrdiff_t>(std::min(bits->values.size(), count)));
          std::vector<std::uint16_t> readings(count, 0);
          if (state_.apply_report(device, ++report_seq_[device], breakers,
                                  readings)) {
            ++version_;
          } else {
            ++version_;  // commercial HMIs refresh on every poll anyway
          }
        });
  }
}

/// The backup takes over once the primary's heartbeat is this stale.
constexpr sim::Time kFailoverTimeout = 2 * sim::kSecond;

void CommercialMaster::heartbeat_tick() {
  if (!running_) return;
  sim_.schedule_after(config_.heartbeat_interval, [this] { heartbeat_tick(); });

  CommMsg hb;
  hb.type = CommMsgType::kHeartbeat;
  hb.a = version_;
  host_.send_udp(config_.peer_ip, kCommercialMasterPort, kCommercialMasterPort,
                 hb.encode());

  if (!config_.is_primary && !active_ &&
      sim_.now() - last_peer_heartbeat_ > kFailoverTimeout) {
    log_.warn("primary silent; backup taking over");
    active_ = true;
  }
}

void CommercialMaster::handle_request(const net::Datagram& dgram) {
  const auto msg = CommMsg::decode(dgram.payload);
  if (!msg) return;

  switch (msg->type) {
    case CommMsgType::kGetState: {
      if (!active_) return;
      CommMsg reply;
      reply.type = CommMsgType::kStateReply;
      reply.a = msg->a;  // txn echo
      reply.b = version_;
      reply.blob = state_.serialize();
      host_.send_udp(dgram.src_ip, dgram.src_port, kCommercialMasterPort,
                     reply.encode());
      break;
    }
    case CommMsgType::kSetBreaker: {
      if (!active_) return;
      // No authentication: anyone who can reach this port commands the
      // grid — exactly the weakness the baseline carries.
      const std::uint16_t breaker = static_cast<std::uint16_t>(msg->b >> 1);
      const bool close = (msg->b & 1) != 0;
      const auto client = modbus_.find(msg->device);
      if (client == modbus_.end()) return;
      modbus::WriteSingleCoilRequest write;
      write.address = breaker;
      write.value = close;
      client->second->request(write, [](std::optional<modbus::Response>) {});
      break;
    }
    case CommMsgType::kHeartbeat: {
      last_peer_heartbeat_ = sim_.now();
      CommMsg ack;
      ack.type = CommMsgType::kHeartbeatAck;
      ack.a = msg->a;
      host_.send_udp(dgram.src_ip, dgram.src_port, kCommercialMasterPort,
                     ack.encode());
      break;
    }
    case CommMsgType::kHeartbeatAck:
      last_peer_heartbeat_ = sim_.now();
      break;
    default:
      break;
  }
}

CommercialHmi::CommercialHmi(sim::Simulator& sim, net::Host& host,
                             CommercialHmiConfig config)
    : sim_(sim),
      host_(host),
      config_(std::move(config)),
      log_("scada.commercial.hmi." + host.name()) {}

void CommercialHmi::start() {
  if (running_) return;
  running_ = true;
  host_.bind_udp(kCommercialHmiPort,
                 [this](const net::Datagram& d) { handle_reply(d); });
  poll_tick();
}

net::IpAddress CommercialHmi::active_master() const {
  return using_backup_ ? config_.backup_ip : config_.primary_ip;
}

/// Unanswered polls in a row before the HMI switches masters.
constexpr int kFailoverAfterMisses = 3;

void CommercialHmi::poll_tick() {
  if (!running_) return;
  sim_.schedule_after(config_.poll_interval, [this] { poll_tick(); });

  if (outstanding_txn_) {
    ++stats_.timeouts;
    ++consecutive_misses_;
    if (consecutive_misses_ >= kFailoverAfterMisses) {
      using_backup_ = !using_backup_;
      consecutive_misses_ = 0;
      log_.warn("master unresponsive; switching to ",
                using_backup_ ? "backup" : "primary");
    }
  }

  CommMsg req;
  req.type = CommMsgType::kGetState;
  req.a = next_txn_++;
  outstanding_txn_ = req.a;
  ++stats_.polls;
  host_.send_udp(active_master(), kCommercialMasterPort, kCommercialHmiPort,
                 req.encode());
}

void CommercialHmi::handle_reply(const net::Datagram& dgram) {
  const auto msg = CommMsg::decode(dgram.payload);
  if (!msg || msg->type != CommMsgType::kStateReply) return;
  if (!outstanding_txn_ || msg->a != *outstanding_txn_) return;
  outstanding_txn_.reset();
  consecutive_misses_ = 0;
  ++stats_.replies;

  // No authentication, no voting: the HMI renders whatever "the
  // network" returned — the MITM surface the red team used.
  TopologyState state;
  try {
    state = TopologyState::deserialize(msg->blob);
  } catch (const util::SerializationError&) {
    return;
  }

  state.for_each([&](const std::string& device, const DeviceState& new_state) {
    const std::optional<DeviceState> old_state = display_.device(device);
    for (std::size_t i = 0; i < new_state.breakers.size(); ++i) {
      const bool was =
          old_state && i < old_state->breakers.size() && old_state->breakers[i];
      if (was != new_state.breakers[i]) {
        last_change_ = sim_.now();
        if (observer_) observer_(device, i, new_state.breakers[i], sim_.now());
      }
    }
  });
  display_ = std::move(state);
  version_ = msg->b;
}

void CommercialHmi::command_breaker(const std::string& device,
                                    std::uint16_t breaker, bool close) {
  CommMsg cmd;
  cmd.type = CommMsgType::kSetBreaker;
  cmd.a = next_command_id_++;
  cmd.b = (static_cast<std::uint64_t>(breaker) << 1) | (close ? 1 : 0);
  cmd.device = device;
  ++stats_.commands_sent;
  host_.send_udp(active_master(), kCommercialMasterPort, kCommercialHmiPort,
                 cmd.encode());
}

}  // namespace spire::scada
