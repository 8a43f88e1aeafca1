// Experiment E9 — §III-A (ground-truth recovery vs. generic BFT).
//
// The paper's SCADA-specific state-management insight: because the
// field devices hold the real system state, Spire can recover from an
// assumption breach in which so many replicas crash and lose state
// that no quorum can vouch for it — the masters simply reset and
// rebuild from the PLCs. A generic BFT service (a database) cannot:
// its state exists nowhere else, so it must halt.
//
// Measured here: after all n replicas crash and lose state,
//  * Spire (restart + rebuild from field devices) returns to correct
//    operation, and we time how long the rebuild takes;
//  * the same Prime engine running a generic key-value application and
//    using recovery-by-state-transfer stays blocked forever (no f+1
//    matching StateResponses can exist).
#include "bench_util.hpp"
#include "prime/loopback_cluster.hpp"
#include "prime/recovery.hpp"
#include "scada/deployment.hpp"

using namespace spire;

namespace {

/// Generic BFT application: an in-memory KV store. Its state has no
/// external ground truth.
class KvApp : public prime::Application {
 public:
  void apply(const prime::ClientUpdate& update,
             const prime::ExecutionInfo&) override {
    data_["k" + std::to_string(update.client_seq % 16)] =
        util::to_string(update.payload);
    ++applied_;
  }
  [[nodiscard]] util::Bytes snapshot() const override {
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(data_.size()));
    for (const auto& [k, v] : data_) {
      w.str(k);
      w.str(v);
    }
    return w.take();
  }
  void restore(std::span<const std::uint8_t> blob) override {
    util::ByteReader r(blob);
    data_.clear();
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string k = r.str();
      data_[k] = r.str();
    }
  }
  [[nodiscard]] std::uint64_t applied() const { return applied_; }

 private:
  std::map<std::string, std::string> data_;
  std::uint64_t applied_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E9", "§III-A",
      "After a total assumption breach (all replicas crash and lose state), "
      "Spire rebuilds from the field devices; generic BFT cannot recover");

  bench::Report report(
      "state_recovery",
      "the cyber-physical ground truth lets Spire survive an assumption "
      "breach that permanently halts a generic BFT service");

  // ---- Spire: rebuild from ground truth -----------------------------------
  {
    double rebuild_seconds = -1;
    sim::Simulator sim;
    scada::DeploymentConfig config;
    config.f = 1;
    config.k = 0;
    config.scenario = scada::ScenarioSpec::red_team();
    config.cycler_interval = 0;
    scada::SpireDeployment spire_sys(sim, config);
    spire_sys.start();
    sim.run_until(3 * sim::kSecond);

    // Establish physical state through normal operation.
    spire_sys.hmi(0).command_breaker("plc-phys", 2, true);
    sim.run_until(sim.now() + 2 * sim::kSecond);

    // Assumption breach: every replica crashes and loses all state.
    for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
      spire_sys.replica(i).shutdown();
    }
    sim.run_until(sim.now() + 2 * sim::kSecond);

    // Operators restart the system; nobody has any SCADA state. The
    // masters repopulate from the PLC status reports (the ground truth).
    const sim::Time restart_at = sim.now();
    for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
      spire_sys.replica(i).start();
    }
    spire_sys.hmi(0).reset_display();

    const sim::Time deadline = restart_at + 30 * sim::kSecond;
    while (sim.now() < deadline &&
           spire_sys.hmi(0).display().breaker("plc-phys", 2) != true) {
      sim.run_until(sim.now() + 10 * sim::kMillisecond);
    }
    if (spire_sys.hmi(0).display().breaker("plc-phys", 2) == true) {
      rebuild_seconds =
          static_cast<double>(sim.now() - restart_at) / sim::kSecond;
    }

    // Fully operational again?
    spire_sys.hmi(0).command_breaker("plc-phys", 3, true);
    sim.run_until(sim.now() + 4 * sim::kSecond);
    const bool spire_operational =
        spire_sys.plc("plc-phys").breakers().closed(3) &&
        spire_sys.hmi(0).display().breaker("plc-phys", 3) == true;

    std::uint64_t xfer_bytes = 0, state_reqs = 0;
    for (std::uint32_t i = 0; i < spire_sys.n(); ++i) {
      xfer_bytes += spire_sys.replica(i).stats().state_transfer_bytes;
      state_reqs += spire_sys.replica(i).stats().state_reqs_sent;
    }
    // The ground-truth rebuild does not need peer state.
    report.require("Spire: true state on HMI after all replicas crash",
                   rebuild_seconds >= 0);
    report.add("Spire: rebuild time after restart", rebuild_seconds, "s");
    report.require("Spire: commands execute again", spire_operational);
    report.add("Spire: state transfer across the breach",
               static_cast<double>(xfer_bytes), "B");
    report.add("Spire: StateReqs", static_cast<double>(state_reqs));
  }

  // ---- generic BFT comparator ----------------------------------------------
  {
    bool generic_blocked = true;
    std::uint64_t generic_applied_after = 0;
    sim::Simulator sim;
    crypto::Keyring keyring("e9-generic");
    prime::PrimeConfig config;
    config.f = 1;
    config.client_identities = {"client/kv"};
    prime::LoopbackCluster<KvApp> cluster(sim, config, keyring, 5);
    const auto& apps = cluster.apps();
    const auto& replicas = cluster.replicas();
    cluster.start();
    sim.run_until(1 * sim::kSecond);

    for (int i = 0; i < 10; ++i) {
      cluster.submit("client/kv", "value" + std::to_string(i));
      sim.run_until(sim.now() + 50 * sim::kMillisecond);
    }
    sim.run_until(sim.now() + 1 * sim::kSecond);

    // The same total crash. The generic service's only recovery path is
    // state transfer from peers — and no peer has state.
    for (auto& r : replicas) r->shutdown();
    sim.run_until(sim.now() + 1 * sim::kSecond);
    for (auto& r : replicas) r->recover();
    sim.run_until(sim.now() + 30 * sim::kSecond);

    for (auto& r : replicas) generic_blocked &= r->recovering();
    // Even new client traffic cannot be served.
    std::vector<std::uint64_t> applied_before_submit;
    for (auto& a : apps) applied_before_submit.push_back(a->applied());
    cluster.submit("client/kv", "after-crash");
    sim.run_until(sim.now() + 5 * sim::kSecond);
    for (std::size_t i = 0; i < apps.size(); ++i) {
      generic_applied_after = std::max(
          generic_applied_after, apps[i]->applied() - applied_before_submit[i]);
    }

    std::uint64_t xfer_bytes = 0, state_reqs = 0;
    for (auto& r : replicas) {
      xfer_bytes += r->stats().state_transfer_bytes;
      state_reqs += r->stats().state_reqs_sent;
    }
    // StateReqs retry forever: no f+1 peers can vouch for lost state.
    report.require("generic BFT: every replica still awaits state transfer",
                   generic_blocked);
    report.check("generic BFT: updates applied after the crash",
                 static_cast<double>(generic_applied_after), bench::Cmp::kEq,
                 0);
    report.add("generic BFT: state transfer delivered",
               static_cast<double>(xfer_bytes), "B");
    report.add("generic BFT: StateReqs", static_cast<double>(state_reqs));
  }
  return report.finish(argc, argv);
}
