// SCADA proxy (paper §II, §III-B): the one place where the untrusted
// field wire meets the intrusion-tolerant system. Field devices reach
// the replicated masters only through a proxy's authenticated
// SCADA-level interface, and a supervisory command reaches a device
// only after f+1 distinct replicas sent an identical order.
//
// A proxy fronts one or more field devices behind a single client
// identity, and each device is either:
//  * polled — the per-PLC proxy of paper §II: the proxy owns the
//    device's FieldClient (Modbus PLC or DNP3 RTU over a direct cable),
//    polls it every poll_interval, and forwards voted commands to it;
//  * pushed — the fleet case: thousands of emulated PLCs/RTUs hand
//    their deltas to ingest() and receive voted commands through a
//    registered callback.
//
// A polled device reports by exception (DESIGN.md §14): a poll result
// is offered to the front door only when its breakers differ from the
// last admitted report (kCritical), or when heartbeat_interval has
// passed since that report (the integrity refresh that bounds HMI
// staleness and rebuilds a wiped master). The first poll always
// reports, and a report shed at the door changes no state, so the next
// poll retries it. Readings ride along on every report but never
// trigger one. A heartbeat_interval at or below poll_interval forwards
// every poll, as the paper's proxies do.
//
// Either way every report passes the same admission front door
// (token-bucket rate limit, shed watermark, hard queue bound with
// priority-aware shedding) and coalesces in the delta batcher, so one
// signed kBatchReport update carries every device change that arrived
// inside the batch window. With the default config (unlimited rate,
// zero batch window) each report is a one-member batch.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/keyring.hpp"
#include "obs/metrics.hpp"
#include "scada/client.hpp"
#include "scada/field_client.hpp"
#include "scada/front_door.hpp"
#include "scada/wire.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace spire::scada {

struct FleetProxyConfig {
  std::string identity;  ///< client identity, e.g. "client/proxy-fleet0"
  std::uint32_t f = 1;   ///< orders need f+1 matching replicas
  sim::Time poll_interval = 200 * sim::kMillisecond;  ///< polled devices
  /// A polled device with unchanged breakers reports at least this
  /// often; at or below poll_interval every poll reports.
  sim::Time heartbeat_interval = 2 * sim::kSecond;
  FrontDoorConfig front_door;
  BatcherConfig batch;
};

struct FleetProxyStats {
  std::uint64_t deltas_offered = 0;  ///< ingest() calls (pre-admission)
  std::uint64_t polls = 0;           ///< field polls issued
  std::uint64_t poll_failures = 0;   ///< polls that timed out or failed
  std::uint64_t reports_sent = 0;    ///< device reports that left the proxy
  std::uint64_t batches_sent = 0;    ///< kBatchReport updates (flushes) submitted
  std::uint64_t orders_received = 0;
  std::uint64_t orders_rejected_sig = 0;
  std::uint64_t commands_forwarded = 0;
};

class FleetProxy {
 public:
  /// Called when f+1 replicas agree on a supervisory command for a
  /// registered device.
  using CommandFn = std::function<void(std::uint16_t breaker, bool close)>;

  FleetProxy(sim::Simulator& sim, FleetProxyConfig config,
             const crypto::Keyring& keyring, crypto::Verifier replica_verifier,
             ScadaClient::SubmitFn submit);

  /// Registers a pushed device; its per-device report sequence starts
  /// at 1. `on_command` may be empty for report-only devices.
  void register_device(const std::string& device, CommandFn on_command = {});

  /// Registers a device the proxy polls itself through `field`. Bytes
  /// the device sends must be fed to field->on_data; voted commands go
  /// to field->command.
  void register_polled_device(const std::string& device,
                              std::unique_ptr<FieldClient> field);

  /// Starts each polled device's poll loop, staggered by device name.
  void start();

  /// Offers one device delta to the front door. Returns true if it was
  /// admitted into the batcher, false if it was shed.
  bool ingest(const std::string& device, std::vector<bool> breakers,
              std::vector<std::uint16_t> readings,
              DeltaPriority priority = DeltaPriority::kTelemetry);

  /// Stops polling and flushes anything still coalescing; nothing
  /// admitted is dropped.
  void stop() {
    running_ = false;
    batcher_.stop();
  }

  /// Feed for replica->proxy traffic from the external network.
  void on_master_output(std::span<const std::uint8_t> data);

  [[nodiscard]] const FleetProxyStats& stats() const { return stats_; }
  [[nodiscard]] const FrontDoorStats& front_door_stats() const {
    return door_.stats();
  }
  [[nodiscard]] const std::string& identity() const {
    return client_.identity();
  }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  /// Orders (issuer, command_id) holding votes but short of f+1.
  [[nodiscard]] std::size_t pending_orders() const {
    return order_votes_.size();
  }

  /// Votes one replica may hold on orders short of f+1. Past this its
  /// oldest pending vote is dropped, so a compromised replica signing
  /// endless distinct orders cannot grow the proxy without bound.
  static constexpr std::size_t kMaxPendingOrdersPerReplica = 256;

 private:
  using OrderKey = std::pair<std::string, std::uint64_t>;  ///< (issuer, id)
  struct DeviceEntry {
    std::uint64_t next_seq = 1;
    CommandFn on_command;
  };
  /// Poll state, kept only for polled devices so a 10k-device pushed
  /// fleet carries none of it.
  struct PolledDevice {
    std::string name;
    std::unique_ptr<FieldClient> field;
    std::vector<bool> last_breakers;  ///< breakers of the last admitted report
    /// Start of the poll whose report was last admitted; nullopt until
    /// the first one is.
    std::optional<sim::Time> last_report_poll;
  };

  void poll_tick(std::size_t index);
  void on_poll(std::size_t index, sim::Time polled_at,
               FieldClient::FieldState state);
  void send_batch(std::vector<StatusReport>&& reports);
  void handle_order(const CommandOrder& order);
  /// Records `replica`'s first vote on `key`, dropping its oldest
  /// pending vote past kMaxPendingOrdersPerReplica.
  void track_pending_vote(std::uint32_t replica, const OrderKey& key);

  sim::Simulator& sim_;
  FleetProxyConfig config_;
  util::Logger log_;
  crypto::Verifier replica_verifier_;
  ScadaClient client_;
  FrontDoor door_;
  DeltaBatcher batcher_;
  std::unordered_map<std::string, DeviceEntry> devices_;
  std::vector<PolledDevice> polled_;
  bool running_ = false;

  /// (issuer, command_id) -> each voting replica's order content.
  std::map<OrderKey, std::map<std::uint32_t, SupervisoryCommand>> order_votes_;
  /// replica -> keys it holds a pending vote on, oldest first.
  std::map<std::uint32_t, std::deque<OrderKey>> pending_votes_;
  std::set<OrderKey> executed_orders_;
  FleetProxyStats stats_;
  obs::Binder metrics_;
  obs::Histogram* batch_fill_;  ///< reports per flushed batch
};

}  // namespace spire::scada
