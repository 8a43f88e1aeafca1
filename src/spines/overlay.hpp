// Overlay builder: declares nodes and links, then constructs one Daemon
// per node with the full membership baked into its verifier — matching
// how a real Spines deployment is provisioned from a static topology
// and key material before it is fielded.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "spines/daemon.hpp"

namespace spire::spines {

class Overlay {
 public:
  /// `config_template` supplies every per-daemon setting except `id`
  /// and `udp_port`, which are set per node.
  Overlay(sim::Simulator& sim, const crypto::Keyring& keyring,
          DaemonConfig config_template);

  /// Declares an overlay node running on `host` (which must already
  /// have its interfaces configured). `iface` selects which of the
  /// host's NICs carries this daemon's traffic — replica hosts are
  /// dual-homed (internal + external networks, §III-B). `area` assigns
  /// the node to a routing area (hierarchical wide-area overlays);
  /// defaulting everything to area 0 yields the classic flat overlay.
  /// `role` kStub declares an overlay client that carries no transit
  /// traffic or link state; every daemon learns the stub set at build().
  void add_node(const NodeId& id, net::Host& host,
                std::uint16_t udp_port = kDefaultDaemonPort,
                std::size_t iface = 0, std::uint32_t area = 0,
                NodeRole role = NodeRole::kTransit);

  /// Declares a bidirectional overlay link. `iface_a`/`iface_b`
  /// override which NIC each endpoint uses for *this* link only —
  /// border daemons reach their wide-area peer over a WAN-facing
  /// interface while intra-area links stay on the site network.
  /// kSameIface keeps the node's default interface.
  static constexpr std::size_t kSameIface = static_cast<std::size_t>(-1);
  void add_link(const NodeId& a, const NodeId& b,
                std::size_t iface_a = kSameIface,
                std::size_t iface_b = kSameIface);

  /// Constructs all daemons. After this, daemon() is usable.
  void build();

  /// Adds firewall allow rules on every member host for exactly the
  /// neighbor (ip, port) pairs its daemon uses — the §III-B posture.
  /// Call after build(); does not change the hosts' default-deny flag.
  void allow_link_traffic();

  void start_all();

  [[nodiscard]] Daemon& daemon(const NodeId& id);
  [[nodiscard]] const std::vector<NodeId>& node_ids() const { return order_; }

 private:
  struct NodeSpec {
    net::Host* host = nullptr;
    std::uint16_t port = kDefaultDaemonPort;
    std::size_t iface = 0;
    std::uint32_t area = 0;
    NodeRole role = NodeRole::kTransit;
  };
  struct LinkSpec {
    NodeId a;
    NodeId b;
    std::size_t iface_a = kSameIface;
    std::size_t iface_b = kSameIface;
  };

  sim::Simulator& sim_;
  const crypto::Keyring& keyring_;
  DaemonConfig template_;
  std::map<NodeId, NodeSpec> specs_;
  std::vector<NodeId> order_;
  std::vector<LinkSpec> links_;
  std::map<NodeId, std::unique_ptr<Daemon>> daemons_;
};

}  // namespace spire::spines
