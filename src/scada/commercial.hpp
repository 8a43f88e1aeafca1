// Commercial SCADA baseline (paper Fig. 1 and §IV-B).
//
// Primary-backup SCADA master, plaintext unauthenticated HMI protocol,
// PLCs attached directly to the operations switch, one-second poll
// cycle — a faithful model of the NIST-best-practices commercial
// system the red team compromised within hours: they reached the PLC's
// maintenance port from the enterprise network, dumped and rewrote its
// config, then ARP-poisoned the HMI↔master path to feed the operator
// false state.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "modbus/endpoint.hpp"
#include "net/host.hpp"
#include "scada/topology.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::scada {

/// Plaintext commercial protocol (UDP, no auth, no crypto).
constexpr std::uint16_t kCommercialMasterPort = 7000;
constexpr std::uint16_t kCommercialHmiPort = 7001;

enum class CommMsgType : std::uint8_t {
  kGetState = 1,
  kStateReply = 2,
  kSetBreaker = 3,
  kHeartbeat = 4,
  kHeartbeatAck = 5,
};

struct CommMsg {
  CommMsgType type = CommMsgType::kGetState;
  std::uint64_t a = 0;       ///< txn / seq / command id
  std::uint64_t b = 0;       ///< version / breaker+close packing
  std::string device;
  util::Bytes blob;          ///< state payload

  [[nodiscard]] util::Bytes encode() const;
  static std::optional<CommMsg> decode(std::span<const std::uint8_t> data);
};

struct CommercialDeviceLink {
  std::string device;
  net::IpAddress plc_ip;
  std::size_t breaker_count = 0;
};

struct CommercialMasterConfig {
  bool is_primary = true;
  net::IpAddress peer_ip;  ///< the other master (for failover heartbeats)
  std::vector<CommercialDeviceLink> devices;
  sim::Time poll_interval = 1 * sim::kSecond;  ///< typical commercial rate
  sim::Time heartbeat_interval = 500 * sim::kMillisecond;
};

class CommercialMaster {
 public:
  CommercialMaster(sim::Simulator& sim, net::Host& host,
                   CommercialMasterConfig config);

  void start();
  void stop();
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const TopologyState& state() const { return state_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  void poll_tick();
  void heartbeat_tick();
  void handle_request(const net::Datagram& dgram);

  sim::Simulator& sim_;
  net::Host& host_;
  CommercialMasterConfig config_;
  util::Logger log_;
  bool running_ = false;
  bool active_ = false;  ///< primary starts active; backup on failover
  sim::Time last_peer_heartbeat_ = 0;
  TopologyState state_;
  std::uint64_t version_ = 0;
  std::map<std::string, std::unique_ptr<modbus::Client>> modbus_;
  std::map<std::string, std::uint64_t> report_seq_;
};

struct CommercialHmiConfig {
  net::IpAddress primary_ip;
  net::IpAddress backup_ip;
  sim::Time poll_interval = 1 * sim::kSecond;
};

struct CommercialHmiStats {
  std::uint64_t polls = 0;
  std::uint64_t replies = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t commands_sent = 0;
};

class CommercialHmi {
 public:
  CommercialHmi(sim::Simulator& sim, net::Host& host,
                CommercialHmiConfig config);

  void start();
  void stop() { running_ = false; }

  void command_breaker(const std::string& device, std::uint16_t breaker,
                       bool close);

  [[nodiscard]] const TopologyState& display() const { return display_; }
  [[nodiscard]] std::uint64_t displayed_version() const { return version_; }
  [[nodiscard]] sim::Time last_display_change() const { return last_change_; }
  [[nodiscard]] const CommercialHmiStats& stats() const { return stats_; }
  void set_display_observer(std::function<void(const std::string&, std::size_t,
                                               bool, sim::Time)>
                                obs) {
    observer_ = std::move(obs);
  }

 private:
  void poll_tick();
  void handle_reply(const net::Datagram& dgram);
  [[nodiscard]] net::IpAddress active_master() const;

  sim::Simulator& sim_;
  net::Host& host_;
  CommercialHmiConfig config_;
  util::Logger log_;
  bool running_ = false;
  std::uint64_t next_txn_ = 1;
  std::optional<std::uint64_t> outstanding_txn_;
  int consecutive_misses_ = 0;
  bool using_backup_ = false;
  std::uint64_t next_command_id_ = 1;

  TopologyState display_;
  std::uint64_t version_ = 0;
  sim::Time last_change_ = 0;
  CommercialHmiStats stats_;
  std::function<void(const std::string&, std::size_t, bool, sim::Time)> observer_;
};

}  // namespace spire::scada
