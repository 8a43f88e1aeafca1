#include "spines/overlay.hpp"

#include <stdexcept>

namespace spire::spines {

Overlay::Overlay(sim::Simulator& sim, const crypto::Keyring& keyring,
                 DaemonConfig config_template)
    : sim_(sim), keyring_(keyring), template_(std::move(config_template)) {}

void Overlay::add_node(const NodeId& id, net::Host& host,
                       std::uint16_t udp_port, std::size_t iface,
                       std::uint32_t area, NodeRole role) {
  if (specs_.count(id)) throw std::invalid_argument("duplicate node id " + id);
  specs_[id] = NodeSpec{&host, udp_port, iface, area, role};
  order_.push_back(id);
}

void Overlay::add_link(const NodeId& a, const NodeId& b, std::size_t iface_a,
                       std::size_t iface_b) {
  if (!specs_.count(a) || !specs_.count(b)) {
    throw std::invalid_argument("link references unknown node");
  }
  links_.push_back(LinkSpec{a, b, iface_a, iface_b});
}

void Overlay::build() {
  crypto::Verifier verifier;
  for (const auto& id : order_) {
    verifier.add_identity(id, keyring_.identity_key(id));
  }

  for (const auto& id : order_) {
    const NodeSpec& spec = specs_.at(id);
    DaemonConfig config = template_;
    config.id = id;
    config.udp_port = spec.port;
    config.area = spec.area;
    daemons_[id] = std::make_unique<Daemon>(sim_, *spec.host, config, keyring_,
                                            verifier);
  }

  for (const auto& link : links_) {
    const NodeSpec& sa = specs_.at(link.a);
    const NodeSpec& sb = specs_.at(link.b);
    const std::size_t ifa =
        link.iface_a == kSameIface ? sa.iface : link.iface_a;
    const std::size_t ifb =
        link.iface_b == kSameIface ? sb.iface : link.iface_b;
    daemons_.at(link.a)->add_neighbor(
        link.b, net::Endpoint{sb.host->ip(ifb), sb.port}, sb.area);
    daemons_.at(link.b)->add_neighbor(
        link.a, net::Endpoint{sa.host->ip(ifa), sa.port}, sa.area);
  }

  // Stub membership is provisioned like identity keys: static, and
  // known to every daemon before its first packet.
  for (const auto& id : order_) {
    if (specs_.at(id).role != NodeRole::kStub) continue;
    for (const auto& [member, daemon] : daemons_) daemon->add_stub(id);
  }
}

void Overlay::allow_link_traffic() {
  for (const auto& link : links_) {
    const NodeSpec& sa = specs_.at(link.a);
    const NodeSpec& sb = specs_.at(link.b);
    const net::IpAddress ip_a = sa.host->ip(
        link.iface_a == kSameIface ? sa.iface : link.iface_a);
    const net::IpAddress ip_b = sb.host->ip(
        link.iface_b == kSameIface ? sb.iface : link.iface_b);
    sa.host->firewall().allow.push_back(
        net::FirewallRule{net::Direction::kInbound, ip_b, sa.port, sb.port});
    sa.host->firewall().allow.push_back(
        net::FirewallRule{net::Direction::kOutbound, ip_b, sb.port, sa.port});
    sb.host->firewall().allow.push_back(
        net::FirewallRule{net::Direction::kInbound, ip_a, sb.port, sa.port});
    sb.host->firewall().allow.push_back(
        net::FirewallRule{net::Direction::kOutbound, ip_a, sa.port, sb.port});
  }
}

void Overlay::start_all() {
  for (const auto& id : order_) daemons_.at(id)->start();
}

Daemon& Overlay::daemon(const NodeId& id) {
  const auto it = daemons_.find(id);
  if (it == daemons_.end()) {
    throw std::out_of_range("daemon not built: " + id);
  }
  return *it->second;
}

}  // namespace spire::spines
