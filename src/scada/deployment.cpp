#include "scada/deployment.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace spire::scada {

namespace {

/// Seeds the keyring: every replica, daemon and client key.
constexpr std::string_view kKeyringSeed = "spire-deployment";

std::string internal_node(std::size_t i) { return "int" + std::to_string(i); }
std::string external_node(std::size_t i) { return "ext" + std::to_string(i); }
std::string proxy_node(const std::string& device) { return "extp-" + device; }
std::string hmi_node(std::size_t j) { return "exth-" + std::to_string(j); }

}  // namespace

class SpireDeployment::SpinesReplicaTransport : public prime::ReplicaTransport {
 public:
  SpinesReplicaTransport(spines::Daemon& daemon, std::uint32_t n,
                         prime::ReplicaId self)
      : daemon_(daemon), n_(n), self_(self) {}

  void send(prime::ReplicaId to, util::Bytes envelope) override {
    daemon_.session_send(kReplicaSession, internal_node(to), kReplicaSession,
                         envelope, spines::Priority::kHigh);
  }

  void broadcast(util::Bytes envelope) override {
    // One overlay multicast instead of n-1 unicasts: the internal
    // overlay floods it to every replica daemon.
    daemon_.session_send(kReplicaSession, spines::kBroadcastDst,
                         kReplicaSession, envelope, spines::Priority::kHigh);
  }

 private:
  spines::Daemon& daemon_;
  std::uint32_t n_;
  prime::ReplicaId self_;
};

SpireDeployment::SpireDeployment(sim::Simulator& sim, DeploymentConfig config)
    : sim_(sim),
      config_(std::move(config)),
      keyring_(kKeyringSeed),
      rng_(config_.seed) {
  config_.prime.f = config_.f;
  config_.prime.k = config_.k;
  config_.prime.client_identities.clear();
  for (const auto& device : config_.scenario.devices) {
    config_.prime.client_identities.push_back(proxy_identity(device.name));
  }
  for (std::size_t j = 0; j < config_.hmi_count; ++j) {
    config_.prime.client_identities.push_back(hmi_identity(j));
  }
  config_.prime.client_identities.push_back("client/cycler");

  build_network();
  build_overlays();
  build_field_devices();
  build_replicas();
  build_clients();
  harden_all();  // applies exactly the enabled HardeningOptions
}

SpireDeployment::~SpireDeployment() = default;

void SpireDeployment::build_network() {
  network_ = std::make_unique<net::Network>(sim_);

  const std::uint32_t sites = config_.sites.site_count();
  const std::uint32_t n = config_.prime.n();
  if (sites > n) {
    throw std::invalid_argument("more sites than replicas");
  }

  for (std::uint32_t s = 0; s < sites; ++s) {
    const std::string suffix = sites > 1 ? "-site" + std::to_string(s) : "";
    net::SwitchConfig internal_config;
    internal_config.name = "spines-internal" + suffix;
    internal_config.static_port_binding = config_.hardening.static_switch_ports;
    internal_switches_.push_back(&network_->add_switch(internal_config));

    net::SwitchConfig external_config;
    external_config.name = "spines-external" + suffix;
    external_config.static_port_binding = config_.hardening.static_switch_ports;
    external_switches_.push_back(&network_->add_switch(external_config));
  }
  internal_switch_ = internal_switches_[0];
  external_switch_ = external_switches_[0];

  std::uint32_t mac_id = 1;

  for (std::uint32_t i = 0; i < n; ++i) {
    net::Host& host = network_->add_host("replica" + std::to_string(i));
    host.add_interface(net::MacAddress::from_id(mac_id++),
                       net::IpAddress::make(10, 1, 0, 1 + i), 24);
    host.add_interface(net::MacAddress::from_id(mac_id++),
                       net::IpAddress::make(10, 2, 0, 1 + i), 24);
    const std::uint32_t site = site_of_replica(i);
    network_->connect(host, 0, *internal_switches_[site]);
    network_->connect(host, 1, *external_switches_[site]);
    replica_hosts_.push_back(&host);
  }

  // Inter-site WAN mesh: one dedicated 2-port switch per site pair,
  // whose propagation delay is the wide-area latency. The border host
  // of site s is replica s (round-robin placement puts it there); it
  // gets one extra WAN NIC per peer site. Dedicated switches let a
  // whole-site partition cut exactly that site's links with chaos loss.
  std::uint8_t wan_subnet = 20;
  for (std::uint32_t a = 0; a < sites; ++a) {
    for (std::uint32_t b = a + 1; b < sites; ++b) {
      net::SwitchConfig wan_config;
      wan_config.name = "wan-" + std::to_string(a) + "-" + std::to_string(b);
      wan_config.propagation_delay = config_.sites.wan_latency;
      wan_config.static_port_binding = config_.hardening.static_switch_ports;
      net::Switch& sw = network_->add_switch(wan_config);

      net::Host& host_a = *replica_hosts_[a];
      net::Host& host_b = *replica_hosts_[b];
      const std::size_t iface_a = host_a.interface_count();
      host_a.add_interface(net::MacAddress::from_id(mac_id++),
                           net::IpAddress::make(10, wan_subnet, 0, 1), 24);
      const std::size_t iface_b = host_b.interface_count();
      host_b.add_interface(net::MacAddress::from_id(mac_id++),
                           net::IpAddress::make(10, wan_subnet, 0, 2), 24);
      network_->connect(host_a, iface_a, sw);
      network_->connect(host_b, iface_b, sw);
      wan_links_.push_back(WanLink{a, b, &sw, iface_a, iface_b});
      ++wan_subnet;
    }
  }

  std::uint8_t device_index = 0;
  for (const auto& device : config_.scenario.devices) {
    net::Host& proxy_host = network_->add_host("proxy-" + device.name);
    proxy_host.add_interface(net::MacAddress::from_id(mac_id++),
                             net::IpAddress::make(10, 2, 0, 101 + device_index),
                             24);
    proxy_host.add_interface(
        net::MacAddress::from_id(mac_id++),
        net::IpAddress::make(10, 3, device_index, 1), 30);
    network_->connect(proxy_host, 0, *external_switch_);
    proxy_hosts_[device.name] = &proxy_host;

    net::Host& plc_host = network_->add_host("plc-" + device.name);
    plc_host.add_interface(net::MacAddress::from_id(mac_id++),
                           net::IpAddress::make(10, 3, device_index, 2), 30);
    // §III-B: the PLC connects to its proxy over a physical cable, not
    // through any switch.
    network_->cable(proxy_host, 1, plc_host, 0);
    plc_hosts_[device.name] = &plc_host;
    ++device_index;
  }

  for (std::size_t j = 0; j < config_.hmi_count; ++j) {
    net::Host& host = network_->add_host("hmi" + std::to_string(j));
    host.add_interface(
        net::MacAddress::from_id(mac_id++),
        net::IpAddress::make(10, 2, 0, static_cast<std::uint8_t>(201 + j)), 24);
    network_->connect(host, 0, *external_switch_);
    hmi_hosts_.push_back(&host);
  }

  cycler_host_ = &network_->add_host("cycler");
  cycler_host_->add_interface(net::MacAddress::from_id(mac_id++),
                              net::IpAddress::make(10, 2, 0, 250), 24);
  network_->connect(*cycler_host_, 0, *external_switch_);
}

void SpireDeployment::build_overlays() {
  // Internal (replication) network: intrusion-tolerant priority
  // flooding with bounded relaying. A replica's message goes to every
  // daemon directly and on through ⌊(m−1)/3⌋+2 designated relays, so the
  // clique carries f+1 one-relay copies beside each direct one instead
  // of every daemon re-flooding it (DESIGN.md "Bounded-redundancy
  // flooding"). External network: same sealed links, but routed
  // forwarding — it is a single-switch clique, where link-state
  // rerouting already provides the resilience and flooding would only
  // multiply every client/HMI message ~20x.
  spines::DaemonConfig daemon_template;
  daemon_template.intrusion_tolerant = config_.hardening.sealed_links;
  daemon_template.mode = spines::ForwardingMode::kPriorityFlood;

  const std::uint32_t n = config_.prime.n();

  // Multi-site: each site is its own Spines routing area (site == area),
  // so LSUs stay on the site LAN and only bounded border summaries
  // cross the WAN links between the sites' border daemons.
  internal_ = std::make_unique<spines::Overlay>(sim_, keyring_, daemon_template);
  for (std::uint32_t i = 0; i < n; ++i) {
    internal_->add_node(internal_node(i), *replica_hosts_[i],
                        kInternalDaemonPort, 0, site_of_replica(i));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (site_of_replica(i) == site_of_replica(j)) {
        internal_->add_link(internal_node(i), internal_node(j));
      }
    }
  }
  for (const WanLink& wan : wan_links_) {
    internal_->add_link(internal_node(wan.site_a), internal_node(wan.site_b),
                        wan.iface_a, wan.iface_b);
  }
  internal_->build();

  daemon_template.mode = spines::ForwardingMode::kRouted;
  external_ = std::make_unique<spines::Overlay>(sim_, keyring_, daemon_template);
  for (std::uint32_t i = 0; i < n; ++i) {
    external_->add_node(external_node(i), *replica_hosts_[i],
                        kExternalDaemonPort, 1, site_of_replica(i));
  }
  // Field proxies, HMIs and the cycler live at the primary control
  // center (site 0), exactly as in the single-site layout. They are
  // stubs: each links to every site-0 replica daemon, so no client is
  // ever needed to carry another's traffic or link state, and their
  // links run in demand mode (DESIGN.md "Liveness by exception").
  constexpr auto kStub = spines::NodeRole::kStub;
  for (const auto& device : config_.scenario.devices) {
    external_->add_node(proxy_node(device.name), *proxy_hosts_[device.name],
                        kExternalDaemonPort, 0, 0, kStub);
  }
  for (std::size_t j = 0; j < config_.hmi_count; ++j) {
    external_->add_node(hmi_node(j), *hmi_hosts_[j], kExternalDaemonPort, 0, 0,
                        kStub);
  }
  external_->add_node("extc", *cycler_host_, kExternalDaemonPort, 0, 0, kStub);

  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (site_of_replica(i) == site_of_replica(j)) {
        external_->add_link(external_node(i), external_node(j));
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (site_of_replica(i) != 0) continue;  // clients are on site 0's LAN
    for (const auto& device : config_.scenario.devices) {
      external_->add_link(external_node(i), proxy_node(device.name));
    }
    for (std::size_t j = 0; j < config_.hmi_count; ++j) {
      external_->add_link(external_node(i), hmi_node(j));
    }
    external_->add_link(external_node(i), "extc");
  }
  for (const WanLink& wan : wan_links_) {
    external_->add_link(external_node(wan.site_a), external_node(wan.site_b),
                        wan.iface_a, wan.iface_b);
  }
  external_->build();
}

void SpireDeployment::partition_site(std::uint32_t site, bool cut) {
  for (const WanLink& wan : wan_links_) {
    if (wan.site_a == site || wan.site_b == site) {
      wan.sw->set_chaos(cut ? 1.0 : 0.0);
    }
  }
}

void SpireDeployment::build_field_devices() {
  for (const auto& device : config_.scenario.devices) {
    std::vector<plc::BreakerSpec> specs;
    for (const auto& name : device.breaker_names) {
      specs.push_back(plc::BreakerSpec{name, false, 40 * sim::kMillisecond});
    }
    if (device.protocol == FieldProtocol::kDnp3) {
      plcs_[device.name] = std::make_unique<plc::Rtu>(
          sim_, *plc_hosts_[device.name], device.name, std::move(specs),
          rng_.fork());
    } else {
      plcs_[device.name] = std::make_unique<plc::Plc>(
          sim_, *plc_hosts_[device.name], device.name, std::move(specs),
          rng_.fork());
    }
    // Field-side trace origin: a breaker moving in the plant starts the
    // PLC→HMI span the moment it happens, before any poll sees it.
    const std::string name = device.name;
    plcs_[device.name]->breakers().add_observer(
        [name](std::size_t index, bool, sim::Time) {
          if (auto* tracer = obs::Tracer::current()) {
            tracer->plc_change(name, index);
          }
        });
  }
}

void SpireDeployment::build_replicas() {
  const std::uint32_t n = config_.prime.n();

  MasterConfig master_template;
  master_template.scenario = config_.scenario;
  for (const auto& device : config_.scenario.devices) {
    master_template.device_proxy[device.name] = proxy_identity(device.name);
  }
  for (std::size_t j = 0; j < config_.hmi_count; ++j) {
    master_template.hmis.push_back(hmi_identity(j));
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    MasterConfig mc = master_template;
    mc.replica_id = i;
    auto output = [this, i](const std::string& client, const util::Bytes& data) {
      std::string node;
      for (const auto& device : config_.scenario.devices) {
        if (client == proxy_identity(device.name)) node = proxy_node(device.name);
      }
      for (std::size_t j = 0; j < config_.hmi_count && node.empty(); ++j) {
        if (client == hmi_identity(j)) node = hmi_node(j);
      }
      if (node.empty()) return;
      external_->daemon(external_node(i))
          .session_send(kReplicaToClient, node, kReplicaToClient, data,
                        spines::Priority::kHigh);
    };
    masters_.push_back(
        std::make_unique<ScadaMaster>(std::move(mc), keyring_, output));

    auto transport = std::make_unique<SpinesReplicaTransport>(
        internal_->daemon(internal_node(i)), n, i);
    replicas_.push_back(std::make_unique<prime::Replica>(
        sim_, i, config_.prime, keyring_, *masters_.back(),
        std::move(transport), rng_.fork()));
  }
}

void SpireDeployment::submit_to_replicas(spines::Daemon& via,
                                         const util::Bytes& envelope) {
  for (std::uint32_t i = 0; i < config_.prime.n(); ++i) {
    via.session_send(kClientToReplica, external_node(i), kClientToReplica,
                     envelope, spines::Priority::kHigh);
  }
}

void SpireDeployment::build_clients() {
  crypto::Verifier replica_verifier;
  for (std::uint32_t i = 0; i < config_.prime.n(); ++i) {
    replica_verifier.add_identity(prime::replica_identity(i),
                                  keyring_.identity_key(prime::replica_identity(i)));
  }

  for (const auto& device : config_.scenario.devices) {
    FleetProxyConfig pc;
    pc.identity = proxy_identity(device.name);
    pc.f = config_.f;
    pc.poll_interval = config_.proxy_poll_interval;
    pc.heartbeat_interval = config_.proxy_heartbeat_interval;

    net::Host* proxy_host = proxy_hosts_[device.name];
    const net::IpAddress plc_ip = plc_hosts_[device.name]->ip(0);
    const std::uint16_t device_port = device.protocol == FieldProtocol::kDnp3
                                          ? dnp3::kDnp3Port
                                          : modbus::kModbusPort;
    auto field_send = [proxy_host, plc_ip, device_port](const util::Bytes& b) {
      proxy_host->send_udp(plc_ip, device_port, kProxyModbusPort, b);
    };
    std::unique_ptr<FieldClient> field;
    if (device.protocol == FieldProtocol::kDnp3) {
      field = std::make_unique<Dnp3FieldClient>(
          sim_, device.name, device.breaker_names.size(), field_send);
    } else {
      field = std::make_unique<ModbusFieldClient>(
          sim_, device.name, device.breaker_names.size(), field_send);
    }
    const std::string node = proxy_node(device.name);
    auto submit = [this, node](const util::Bytes& envelope) {
      submit_to_replicas(external_->daemon(node), envelope);
    };
    FieldClient* field_client = field.get();
    auto proxy = std::make_unique<FleetProxy>(sim_, std::move(pc), keyring_,
                                              replica_verifier, submit);
    proxy->register_polled_device(device.name, std::move(field));
    proxies_[device.name] = std::move(proxy);

    proxy_host->bind_udp(kProxyModbusPort,
                         [field_client](const net::Datagram& d) {
                           field_client->on_data(d.payload);
                         });
  }

  for (std::size_t j = 0; j < config_.hmi_count; ++j) {
    HmiConfig hc;
    hc.identity = hmi_identity(j);
    hc.f = config_.f;
    const std::string node = hmi_node(j);
    auto submit = [this, node](const util::Bytes& envelope) {
      submit_to_replicas(external_->daemon(node), envelope);
    };
    hmis_.push_back(std::make_unique<Hmi>(sim_, std::move(hc), keyring_,
                                          replica_verifier, submit));
  }

  if (config_.cycler_interval > 0) {
    auto submit = [this](const util::Bytes& envelope) {
      submit_to_replicas(external_->daemon("extc"), envelope);
    };
    cycler_ = std::make_unique<AutoCycler>(sim_, config_.scenario, keyring_,
                                           submit, config_.cycler_interval);
  }
}

void SpireDeployment::harden_all() {
  const HardeningOptions& opts = config_.hardening;
  for (const auto& host : network_->hosts()) {
    if (opts.static_arp) {
      host->use_static_arp(true);
      host->set_answer_arp_for_any_local_ip(false);
    }
    host->os() = opts.hardened_os ? net::OsProfile::hardened_centos()
                                  : net::OsProfile::default_ubuntu();
    host->firewall().default_deny = opts.firewalls;
  }
  // Preload every same-subnet (ip -> mac) pair: the §III-B static
  // MAC/IP mapping. (Loaded regardless; only consulted as *exclusive*
  // truth when static_arp is on.)
  const auto& hosts = network_->hosts();
  for (const auto& a : hosts) {
    for (std::size_t ia = 0; ia < a->interface_count(); ++ia) {
      for (const auto& b : hosts) {
        if (a.get() == b.get()) continue;
        for (std::size_t ib = 0; ib < b->interface_count(); ++ib) {
          if (a->ip(ia).same_subnet(b->ip(ib), 24)) {
            a->add_arp_entry(b->ip(ib), b->mac(ib));
          }
        }
      }
    }
  }

  internal_->allow_link_traffic();
  external_->allow_link_traffic();

  // Field protocol over the proxy<->device cable (Modbus or DNP3).
  for (const auto& device : config_.scenario.devices) {
    net::Host* proxy_host = proxy_hosts_[device.name];
    net::Host* plc_host = plc_hosts_[device.name];
    const net::IpAddress proxy_ip = proxy_host->ip(1);
    const net::IpAddress plc_ip = plc_host->ip(0);
    const std::uint16_t device_port = device.protocol == FieldProtocol::kDnp3
                                          ? dnp3::kDnp3Port
                                          : modbus::kModbusPort;
    proxy_host->firewall().allow.push_back(net::FirewallRule{
        net::Direction::kOutbound, plc_ip, kProxyModbusPort, device_port});
    proxy_host->firewall().allow.push_back(net::FirewallRule{
        net::Direction::kInbound, plc_ip, kProxyModbusPort, device_port});
    plc_host->firewall().allow.push_back(net::FirewallRule{
        net::Direction::kInbound, proxy_ip, device_port, kProxyModbusPort});
    plc_host->firewall().allow.push_back(net::FirewallRule{
        net::Direction::kOutbound, proxy_ip, device_port, kProxyModbusPort});
  }
}

void SpireDeployment::start() {
  internal_->start_all();
  external_->start_all();

  const std::uint32_t n = config_.prime.n();
  for (std::uint32_t i = 0; i < n; ++i) {
    prime::Replica* replica = replicas_[i].get();
    internal_->daemon(internal_node(i))
        .open_session(kReplicaSession, [replica](const spines::DataBody& d) {
          replica->on_message(d.payload);
        });
    external_->daemon(external_node(i))
        .open_session(kClientToReplica, [replica](const spines::DataBody& d) {
          replica->on_message(d.payload);
        });
    replica->start();
  }

  for (const auto& device : config_.scenario.devices) {
    FleetProxy* proxy = proxies_[device.name].get();
    external_->daemon(proxy_node(device.name))
        .open_session(kReplicaToClient, [proxy](const spines::DataBody& d) {
          proxy->on_master_output(d.payload);
        });
    proxy->start();
  }

  for (std::size_t j = 0; j < config_.hmi_count; ++j) {
    Hmi* hmi = hmis_[j].get();
    external_->daemon(hmi_node(j))
        .open_session(kReplicaToClient, [hmi](const spines::DataBody& d) {
          hmi->on_master_output(d.payload);
        });
  }

  if (cycler_) {
    // Give overlays and replication time to come up before load.
    sim_.schedule_after(2 * sim::kSecond, [this] { cycler_->start(); });
  }
}

FleetProxy& SpireDeployment::proxy(const std::string& device) {
  const auto it = proxies_.find(device);
  if (it == proxies_.end()) throw std::out_of_range("no proxy for " + device);
  return *it->second;
}

plc::FieldDevice& SpireDeployment::plc(const std::string& device) {
  const auto it = plcs_.find(device);
  if (it == plcs_.end()) throw std::out_of_range("no plc for " + device);
  return *it->second;
}

void SpireDeployment::flip_breaker_at_plc(const std::string& device,
                                          std::size_t index, bool close) {
  plc(device).actuate_breaker_locally(index, close);
}

std::unique_ptr<prime::ProactiveRecovery> SpireDeployment::make_recovery(
    prime::RecoveryConfig recovery_config) {
  std::vector<prime::Replica*> list;
  for (const auto& r : replicas_) list.push_back(r.get());
  return std::make_unique<prime::ProactiveRecovery>(sim_, std::move(list),
                                                    recovery_config);
}

std::unique_ptr<sim::ChaosInjector> SpireDeployment::make_chaos() {
  sim::ChaosHooks hooks;
  hooks.set_link_quality = [this](double loss) {
    internal_switch_->set_chaos(loss);
    external_switch_->set_chaos(loss);
  };
  hooks.set_partitioned = [this](std::uint32_t node, bool cut) {
    if (node >= n()) return;
    // Stopping the daemons severs replica `node` from both overlays;
    // its sessions (replica, proxies' paths through it) survive the
    // outage and resume when the daemons rejoin.
    spines::Daemon& internal = internal_->daemon(internal_node(node));
    spines::Daemon& external = external_->daemon(external_node(node));
    if (cut) {
      if (internal.running()) internal.stop();
      if (external.running()) external.stop();
    } else {
      if (!internal.running()) internal.start();
      if (!external.running()) external.start();
    }
  };
  hooks.crash = [this](std::uint32_t node) {
    if (node >= n()) return;
    if (replicas_[node]->running()) replicas_[node]->shutdown();
  };
  hooks.restart = [this](std::uint32_t node) {
    if (node >= n()) return;
    if (!replicas_[node]->running()) replicas_[node]->recover();
  };
  return std::make_unique<sim::ChaosInjector>(sim_, std::move(hooks));
}

}  // namespace spire::scada
