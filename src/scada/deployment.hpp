// Spire deployment builder: constructs the full Fig. 2 architecture on
// the emulated network — n = 3f+2k+1 replica hosts dual-homed on an
// isolated internal network (replication traffic) and an external
// network (proxies, HMIs, update tool), Spines overlays on both, one
// PLC per scenario device behind its proxy on a direct cable, and all
// §III-B hardening when `hardened` is set:
//   * per-host default-deny firewalls with exact (ip, port) allows,
//   * static ARP tables and no cross-NIC ARP answering,
//   * static MAC↔switch-port bindings,
//   * intrusion-tolerant (sealed) Spines links,
//   * hardened minimal-OS profiles.
// With `hardened` false the same system runs "open" — the ablation the
// red-team bench uses to show which defense stops which attack.
#pragma once

#include <memory>

#include "net/network.hpp"
#include "plc/plc.hpp"
#include "plc/rtu.hpp"
#include "prime/recovery.hpp"
#include "prime/replica.hpp"
#include "scada/cycler.hpp"
#include "scada/fleet_proxy.hpp"
#include "scada/hmi.hpp"
#include "scada/master.hpp"
#include "sim/chaos.hpp"
#include "spines/overlay.hpp"

namespace spire::scada {

/// The §III-B hardening measures, individually toggleable so the
/// ablation bench can show which defense stops which attack.
struct HardeningOptions {
  bool firewalls = true;           ///< default-deny + exact allows
  bool static_arp = true;          ///< static MAC<->IP, no cross-NIC answers
  bool static_switch_ports = true; ///< static MAC<->port bindings
  bool sealed_links = true;        ///< Spines intrusion-tolerant mode
  bool hardened_os = true;         ///< latest minimal-server profile

  static HardeningOptions all_on() { return {}; }
  static HardeningOptions all_off() {
    return {false, false, false, false, false};
  }
};

/// Wide-area site layout. The default (one control center, no data
/// centers) reproduces the single-site deployment unchanged. With more
/// sites, the 3f+2k+1 replicas are spread round-robin across control
/// and data centers, each site gets its own internal/external switch
/// pair and its own Spines routing area, and sites are joined by
/// dedicated WAN links (2-port switches whose propagation delay models
/// the wide-area latency) between border replica hosts — the paper's
/// multi-site configuration (2 CC + 2 DC).
struct SiteTopology {
  std::uint32_t control_centers = 1;
  std::uint32_t data_centers = 0;
  /// One-way propagation delay of every inter-site WAN link.
  sim::Time wan_latency = 20 * sim::kMillisecond;

  [[nodiscard]] std::uint32_t site_count() const {
    return control_centers + data_centers;
  }

  static SiteTopology two_cc_two_dc(sim::Time latency = 20 * sim::kMillisecond) {
    return SiteTopology{2, 2, latency};
  }
};

struct DeploymentConfig {
  std::uint32_t f = 1;
  std::uint32_t k = 0;  ///< 0: red-team config (n=4); 1: plant config (n=6)
  HardeningOptions hardening;  ///< defaults to everything on
  SiteTopology sites;          ///< defaults to the classic single site
  ScenarioSpec scenario = ScenarioSpec::red_team();
  std::size_t hmi_count = 1;
  sim::Time proxy_poll_interval = 200 * sim::kMillisecond;
  /// FleetProxyConfig::heartbeat_interval of every PLC proxy.
  sim::Time proxy_heartbeat_interval = 2 * sim::kSecond;
  sim::Time cycler_interval = 1 * sim::kSecond;  ///< 0 disables the cycler
  prime::PrimeConfig prime;  ///< f, k and client list are filled in
  std::uint64_t seed = 20190101;
};

/// Ports used inside the deployment.
constexpr std::uint16_t kInternalDaemonPort = 8100;
constexpr std::uint16_t kExternalDaemonPort = 8200;
constexpr spines::SessionPort kReplicaSession = 9000;   ///< internal overlay
constexpr spines::SessionPort kClientToReplica = 9001;  ///< external overlay
constexpr spines::SessionPort kReplicaToClient = 9002;  ///< external overlay
constexpr std::uint16_t kProxyModbusPort = 1502;

class SpireDeployment {
 public:
  SpireDeployment(sim::Simulator& sim, DeploymentConfig config);
  ~SpireDeployment();

  SpireDeployment(const SpireDeployment&) = delete;
  SpireDeployment& operator=(const SpireDeployment&) = delete;

  /// Starts overlays, replicas, PLumbing. Give the system a warmup of
  /// ~1 simulated second before measuring.
  void start();

  [[nodiscard]] std::uint32_t n() const { return config_.prime.n(); }
  [[nodiscard]] prime::Replica& replica(std::size_t i) { return *replicas_[i]; }
  [[nodiscard]] ScadaMaster& master(std::size_t i) { return *masters_[i]; }
  [[nodiscard]] Hmi& hmi(std::size_t j) { return *hmis_[j]; }
  [[nodiscard]] FleetProxy& proxy(const std::string& device);
  /// Ground-truth access to a field device (Modbus PLC or DNP3 RTU).
  [[nodiscard]] plc::FieldDevice& plc(const std::string& device);
  [[nodiscard]] AutoCycler* cycler() { return cycler_.get(); }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] spines::Overlay& internal_overlay() { return *internal_; }
  [[nodiscard]] spines::Overlay& external_overlay() { return *external_; }
  [[nodiscard]] const crypto::Keyring& keyring() const { return keyring_; }
  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  [[nodiscard]] net::Switch& external_switch() { return *external_switch_; }
  [[nodiscard]] net::Switch& internal_switch() { return *internal_switch_; }
  [[nodiscard]] net::Host& replica_host(std::size_t i) {
    return *replica_hosts_[i];
  }

  // --- wide-area site layout ---------------------------------------------
  [[nodiscard]] std::uint32_t site_count() const {
    return config_.sites.site_count();
  }
  /// Site hosting replica `i` (round-robin spread, so a 2CC+2DC layout
  /// with n=6 places [2,2,1,1] replicas per site).
  [[nodiscard]] std::uint32_t site_of_replica(std::size_t i) const {
    return static_cast<std::uint32_t>(i) % site_count();
  }
  /// Cuts (or heals) every WAN link touching `site`: the whole-site
  /// partition scenario. While cut, the site's replicas only see each
  /// other; on heal, the border daemons re-advertise and the overlay
  /// converges without restart.
  void partition_site(std::uint32_t site, bool cut);
  [[nodiscard]] net::Switch& internal_site_switch(std::uint32_t site) {
    return *internal_switches_.at(site);
  }
  [[nodiscard]] net::Switch& external_site_switch(std::uint32_t site) {
    return *external_switches_.at(site);
  }

  /// Actuates a breaker locally at the field device (the plant
  /// measurement device of §V), bypassing SCADA entirely.
  void flip_breaker_at_plc(const std::string& device, std::size_t index,
                           bool close);

  /// Builds a proactive-recovery scheduler over all replicas.
  std::unique_ptr<prime::ProactiveRecovery> make_recovery(
      prime::RecoveryConfig recovery_config);

  /// Builds a fault injector wired to the deployment's fault surfaces:
  /// link degradation maps to chaos loss on both switches,
  /// partitioning replica i stops its internal+external Spines daemons
  /// (sessions survive; the overlay reroutes around it), crash/restart
  /// maps to replica shutdown()/recover(). Script or randomize the
  /// schedule on the returned injector, then arm() it.
  std::unique_ptr<sim::ChaosInjector> make_chaos();

  /// Identities used by the deployment.
  [[nodiscard]] static std::string proxy_identity(const std::string& device) {
    return "client/proxy-" + device;
  }
  [[nodiscard]] static std::string hmi_identity(std::size_t j) {
    return "client/hmi-" + std::to_string(j);
  }

 private:
  class SpinesReplicaTransport;

  void build_network();
  void build_overlays();
  void build_field_devices();
  void build_replicas();
  void build_clients();
  void harden_all();
  void submit_to_replicas(spines::Daemon& via, const util::Bytes& envelope);

  sim::Simulator& sim_;
  DeploymentConfig config_;
  crypto::Keyring keyring_;
  sim::Rng rng_;

  std::unique_ptr<net::Network> network_;
  net::Switch* internal_switch_ = nullptr;  ///< site 0 (legacy accessor)
  net::Switch* external_switch_ = nullptr;  ///< site 0 (legacy accessor)
  std::vector<net::Switch*> internal_switches_;  ///< one per site
  std::vector<net::Switch*> external_switches_;  ///< one per site
  /// Inter-site WAN links: per site pair, the 2-port latency switch and
  /// the WAN NIC index on each site's border replica host.
  struct WanLink {
    std::uint32_t site_a = 0;
    std::uint32_t site_b = 0;
    net::Switch* sw = nullptr;
    std::size_t iface_a = 0;
    std::size_t iface_b = 0;
  };
  std::vector<WanLink> wan_links_;
  std::vector<net::Host*> replica_hosts_;
  std::map<std::string, net::Host*> proxy_hosts_;   ///< by device
  std::map<std::string, net::Host*> plc_hosts_;     ///< by device
  std::vector<net::Host*> hmi_hosts_;
  net::Host* cycler_host_ = nullptr;

  std::unique_ptr<spines::Overlay> internal_;
  std::unique_ptr<spines::Overlay> external_;

  std::map<std::string, std::unique_ptr<plc::FieldDevice>> plcs_;
  std::map<std::string, std::unique_ptr<FleetProxy>> proxies_;
  std::vector<std::unique_ptr<ScadaMaster>> masters_;
  std::vector<std::unique_ptr<prime::Replica>> replicas_;
  std::vector<std::unique_ptr<Hmi>> hmis_;
  std::unique_ptr<AutoCycler> cycler_;
};

}  // namespace spire::scada
