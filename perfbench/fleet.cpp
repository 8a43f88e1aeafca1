// `fleet`: the field-scale pipeline, wired from public components the
// same way E9 wires it:
//
//   plc::EmulatedFleet -> scada::FleetProxy -> prime::Replica + ScadaMaster
//   (4 replicas on a prime::LoopbackFabric) -> scada::Hmi (100 of them)
//
// 10k devices report every 500 ms with seeded breaker flips; the proxy
// batches deltas in a 20 ms window. Replica<->replica hops cost 200 us
// (the fabric's latency), client<->replica hops 1 ms. No overlay, no
// emulated network and no link crypto take part.
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/keyring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plc/fleet.hpp"
#include "prime/application.hpp"
#include "prime/replica.hpp"
#include "prime/transport.hpp"
#include "scada/fleet_proxy.hpp"
#include "scada/hmi.hpp"
#include "scada/master.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spire;

constexpr std::size_t kDevices = 10000;
constexpr std::size_t kHmis = 100;
constexpr std::uint32_t kF = 1;
constexpr std::uint32_t kReplicas = 4;  // 3f+1
constexpr sim::Time kClientHop = 1 * sim::kMillisecond;
constexpr sim::Time kWarmup = 2 * sim::kSecond;
constexpr sim::Time kSettle = 3 * sim::kSecond;
constexpr sim::Time kStep = 1 * sim::kSecond;  ///< one sim.run span each
const std::string kProxyIdentity = "client/proxy-fleet";

std::string hmi_identity(std::size_t j) {
  return "client/hmi-" + std::to_string(j);
}

double elapsed_s(std::uint64_t from_ns) {
  return static_cast<double>(now_ns() - from_ns) / 1e9;
}

/// Forwards to the ScadaMaster, timing apply() as the scada.master_apply
/// span (nested inside the replica's prime.on_message span).
class TimedMaster : public prime::Application {
 public:
  TimedMaster(scada::ScadaMaster& master, SpanRecorder* spans,
              std::uint32_t layer)
      : master_(master), spans_(spans), layer_(layer) {}

  void apply(const prime::ClientUpdate& update,
             const prime::ExecutionInfo& info) override {
    SpanRecorder::Scope s(spans_, layer_);
    master_.apply(update, info);
  }
  [[nodiscard]] util::Bytes snapshot() const override {
    return master_.snapshot();
  }
  void restore(std::span<const std::uint8_t> blob) override {
    master_.restore(blob);
  }
  void on_state_transfer() override { master_.on_state_transfer(); }

 private:
  scada::ScadaMaster& master_;
  SpanRecorder* spans_;
  std::uint32_t layer_;
};

struct Pipeline {
  std::unique_ptr<crypto::Keyring> keyring;
  std::unique_ptr<prime::LoopbackFabric> fabric;
  std::vector<std::unique_ptr<scada::ScadaMaster>> masters;
  std::vector<std::unique_ptr<TimedMaster>> apps;
  std::vector<std::unique_ptr<prime::Replica>> replicas;
  std::unique_ptr<scada::FleetProxy> proxy;
  std::vector<std::unique_ptr<scada::Hmi>> hmis;
  std::unique_ptr<plc::EmulatedFleet> fleet;
};

}  // namespace

Episode run_fleet(const EpisodeConfig& cfg) {
  Episode ep;
  SpanRecorder* spans = cfg.spans;
  const std::uint32_t run_layer = spans ? spans->layer("sim.run") : 0;
  const std::uint32_t replica_layer = spans ? spans->layer("prime.on_message") : 0;
  const std::uint32_t apply_layer = spans ? spans->layer("scada.master_apply") : 0;
  const std::uint32_t hmi_layer = spans ? spans->layer("scada.hmi") : 0;
  const std::uint32_t proxy_layer = spans ? spans->layer("scada.proxy") : 0;

  sim::Simulator sim;
  auto sim_time = [&sim] { return static_cast<std::uint64_t>(sim.now()); };

  std::uint64_t t0 = now_ns();
  obs::ScopedRegistry registry(sim_time);
  std::unique_ptr<obs::ScopedTracer> tracer;
  if (spans != nullptr) tracer = std::make_unique<obs::ScopedTracer>(sim_time);

  const sim::Time m0 = kWarmup;
  const sim::Time m1 = m0 + cfg.measured;
  DisplayLedger ledger(kHmis, 2);
  auto p = std::make_unique<Pipeline>();
  Pipeline& pl = *p;
  pl.keyring = std::make_unique<crypto::Keyring>("perfbench-fleet");

  prime::PrimeConfig pc;
  pc.f = kF;
  pc.k = 0;
  pc.client_identities.push_back(kProxyIdentity);
  for (std::size_t j = 0; j < kHmis; ++j) {
    pc.client_identities.push_back(hmi_identity(j));
  }
  crypto::Verifier replica_verifier;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    replica_verifier.add_identity(
        prime::replica_identity(r),
        pl.keyring->identity_key(prime::replica_identity(r)));
  }

  // Replica -> client outputs. One shared copy per broadcast payload: the
  // master hands the same bytes to every recipient in turn.
  struct Share {
    const util::Bytes* addr = nullptr;
    std::shared_ptr<const util::Bytes> bytes;
  };
  std::vector<Share> shares(kReplicas);
  auto deliver = [&pl, spans, hmi_layer, proxy_layer](
                     int target, const std::shared_ptr<const util::Bytes>& b) {
    if (target < 0) {
      SpanRecorder::Scope s(spans, proxy_layer);
      pl.proxy->on_master_output(*b);
    } else {
      SpanRecorder::Scope s(spans, hmi_layer);
      pl.hmis[static_cast<std::size_t>(target)]->on_master_output(*b);
    }
  };

  pl.fabric = std::make_unique<prime::LoopbackFabric>(sim, kReplicas);
  sim::Rng rng(cfg.seed ^ 0x50524D45ULL);
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    scada::MasterConfig mc;
    mc.replica_id = r;
    mc.scenario = scada::ScenarioSpec::fleet(kDevices);
    for (std::size_t j = 0; j < kHmis; ++j) mc.hmis.push_back(hmi_identity(j));
    auto output = [&sim, &shares, deliver, r](const std::string& client,
                                              const util::Bytes& data) {
      const int target = client.rfind("client/hmi-", 0) == 0
                             ? std::atoi(client.c_str() + 11)
                             : -1;
      Share& sh = shares[r];
      if (&data != sh.addr || sh.bytes == nullptr || *sh.bytes != data) {
        sh.bytes = std::make_shared<const util::Bytes>(data);
        sh.addr = &data;
      }
      sim.schedule_after(kClientHop, [deliver, target, b = sh.bytes] {
        deliver(target, b);
      });
    };
    pl.masters.push_back(std::make_unique<scada::ScadaMaster>(
        std::move(mc), *pl.keyring, output));
    pl.apps.push_back(
        std::make_unique<TimedMaster>(*pl.masters.back(), spans, apply_layer));
    pl.replicas.push_back(std::make_unique<prime::Replica>(
        sim, r, pc, *pl.keyring, *pl.apps.back(), pl.fabric->transport_for(r),
        rng.fork()));
    prime::Replica* replica = pl.replicas.back().get();
    pl.fabric->attach(r, [replica, spans, replica_layer](const util::Bytes& b) {
      SpanRecorder::Scope s(spans, replica_layer);
      replica->on_message(b);
    });
  }

  auto submit = [&pl, &sim, spans, replica_layer](const util::Bytes& envelope) {
    auto shared = std::make_shared<const util::Bytes>(envelope);
    for (std::size_t r = 0; r < pl.replicas.size(); ++r) {
      sim.schedule_after(kClientHop, [&pl, shared, r, spans, replica_layer] {
        SpanRecorder::Scope s(spans, replica_layer);
        pl.replicas[r]->on_message(*shared);
      });
    }
  };

  scada::FleetProxyConfig fpc;
  fpc.identity = kProxyIdentity;
  fpc.f = kF;
  fpc.batch.window = 20 * sim::kMillisecond;
  fpc.batch.max_batch = 256;
  pl.proxy = std::make_unique<scada::FleetProxy>(
      sim, std::move(fpc), *pl.keyring, replica_verifier, submit);

  for (std::size_t j = 0; j < kHmis; ++j) {
    scada::HmiConfig hc;
    hc.identity = hmi_identity(j);
    hc.f = kF;
    pl.hmis.push_back(std::make_unique<scada::Hmi>(
        sim, std::move(hc), *pl.keyring, replica_verifier, submit));
    pl.hmis.back()->set_display_observer(
        [&ledger, j](const std::string& device, std::size_t index, bool closed,
                     sim::Time at) {
          ledger.displayed(j, device, index, closed, at);
        });
  }

  plc::FleetConfig fc;
  fc.devices = kDevices;
  fc.report_interval = 500 * sim::kMillisecond;
  // 47 sweep slices (10.638 ms apart) rather than 50: report times then
  // drift against the 20 ms batch window and Prime's 10/20/30 ms timers
  // instead of locking to one phase, so latencies are not a fixed lattice.
  fc.slices = 47;
  fc.seed = cfg.seed;
  std::unordered_map<std::string, std::size_t> index_of;
  std::vector<std::vector<bool>> shown_to_proxy;  // last image per device
  pl.fleet = std::make_unique<plc::EmulatedFleet>(
      sim, fc,
      [&](const std::string& device, std::vector<bool> breakers,
          std::vector<std::uint16_t> readings, bool critical) {
        std::vector<bool>& last = shown_to_proxy[index_of.at(device)];
        if (critical) {
          const sim::Time at = sim.now();
          for (std::size_t b = 0; b < breakers.size() && b < last.size(); ++b) {
            if (breakers[b] != last[b]) {
              ledger.field_change(device, b, breakers[b], at,
                                  at >= m0 && at < m1);
            }
          }
        }
        last = breakers;
        SpanRecorder::Scope s(spans, proxy_layer);
        pl.proxy->ingest(device, std::move(breakers), std::move(readings),
                         critical ? scada::DeltaPriority::kCritical
                                  : scada::DeltaPriority::kTelemetry);
      });
  for (std::size_t d = 0; d < pl.fleet->device_count(); ++d) {
    index_of.emplace(pl.fleet->device_name(d), d);
    shown_to_proxy.push_back(pl.fleet->breakers(d));
    pl.proxy->register_device(pl.fleet->device_name(d));
  }
  ep.build_s = elapsed_s(t0);

  t0 = now_ns();
  for (auto& r : pl.replicas) r->start();
  pl.fleet->start();
  ep.start_s = elapsed_s(t0);

  auto run_for = [&](sim::Time duration) {
    const sim::Time until = sim.now() + duration;
    while (sim.now() < until) {
      SpanRecorder::Scope s(spans, run_layer);
      sim.run_until(std::min(until, sim.now() + kStep));
    }
  };

  t0 = now_ns();
  run_for(kWarmup);
  ep.warmup_s = elapsed_s(t0);

  auto counters = [&] {
    std::map<std::string, double> c;
    c["sim.events"] = static_cast<double>(sim.events_executed());
    for (const auto& r : pl.replicas) {
      const prime::ReplicaStats& s = r->stats();
      c["prime.updates_executed"] =
          std::max(c["prime.updates_executed"],
                   static_cast<double>(s.updates_executed));
      c["prime.view_changes"] = std::max(c["prime.view_changes"],
                                         static_cast<double>(s.view_changes));
      c["prime.preprepares"] += static_cast<double>(s.preprepares_sent);
      c["prime.verify_cache_hits"] += static_cast<double>(s.verify_cache_hits);
      c["prime.state_transfer_bytes"] +=
          static_cast<double>(s.state_transfer_bytes);
    }
    c["scada.reports_applied"] =
        static_cast<double>(pl.masters[0]->reports_applied());
    c["scada.deltas_emitted"] =
        static_cast<double>(pl.fleet->stats().reports_emitted);
    const scada::FrontDoorStats& door = pl.proxy->front_door_stats();
    c["scada.front_door_shed"] = static_cast<double>(
        door.shed_rate + door.shed_overload + door.shed_critical);
    return c;
  };

  const auto c0 = counters();
  t0 = now_ns();
  run_for(cfg.measured);
  ep.measure_s = elapsed_s(t0);
  ep.measured_sim_s =
      static_cast<double>(cfg.measured) / static_cast<double>(sim::kSecond);
  for (const auto& [name, v] : counters()) ep.counts[name] = v - c0.at(name);

  // Settle: stop the field, flush the batcher, let the HMIs catch up.
  pl.fleet->stop();
  pl.proxy->stop();
  run_for(kSettle);

  // --- correctness ------------------------------------------------------
  std::uint64_t flips_attempted = 0, flips_failed = 0;
  ledger.tally(ep.field_to_hmi_ms, flips_attempted, flips_failed);
  ep.counts["scada.displays"] = static_cast<double>(ledger.displays());
  ep.counts["scada.transitions"] = static_cast<double>(flips_attempted);

  const plc::FleetStats& fs = pl.fleet->stats();
  const scada::FleetProxyStats& ps = pl.proxy->stats();
  const scada::FrontDoorStats& door = pl.proxy->front_door_stats();
  const std::uint64_t shed =
      door.shed_rate + door.shed_overload + door.shed_critical;
  std::uint64_t min_applied = ps.reports_sent;
  for (const auto& m : pl.masters) {
    min_applied = std::min<std::uint64_t>(min_applied, m->reports_applied());
  }
  // Conservation: emitted == offered == admitted + shed == sent == applied.
  const bool conserved = fs.reports_emitted == ps.deltas_offered &&
                         door.admitted + shed == ps.deltas_offered &&
                         ps.reports_sent == door.admitted &&
                         min_applied == ps.reports_sent;
  if (!conserved) {
    ep.failures.push_back(
        "conservation chain broken: emitted " +
        std::to_string(fs.reports_emitted) + ", offered " +
        std::to_string(ps.deltas_offered) + ", admitted " +
        std::to_string(door.admitted) + " + shed " + std::to_string(shed) +
        ", sent " + std::to_string(ps.reports_sent) + ", min applied " +
        std::to_string(min_applied));
  }
  // A device delta counts as displayed when every master applied it and
  // every HMI's final image equals the field; each breaker flip is also
  // matched to its display on every HMI.
  ep.attempted = static_cast<std::uint64_t>(ep.counts["scada.deltas_emitted"]);
  ep.failed = (fs.reports_emitted - std::min(fs.reports_emitted, min_applied)) +
              flips_failed;
  if (flips_failed > 0) {
    ep.failures.push_back(std::to_string(flips_failed) +
                          " breaker flips not displayed on every HMI");
  }
  for (std::size_t j = 0; j < kHmis; ++j) {
    std::size_t idx = 0;
    std::size_t wrong = 0;
    pl.hmis[j]->display().for_each(
        [&](const std::string&, const scada::DeviceState& st) {
          if (idx >= pl.fleet->device_count() ||
              st.breakers != pl.fleet->breakers(idx)) {
            ++wrong;
          }
          ++idx;
        });
    if (wrong > 0 || idx != pl.fleet->device_count()) {
      ep.failed += wrong;
      ep.failures.push_back("HMI " + std::to_string(j) + " shows " +
                            std::to_string(wrong) + " devices unlike the field");
    }
  }
  const crypto::Digest d0 = pl.masters[0]->state().digest();
  for (const auto& m : pl.masters) {
    if (m->state().digest() != d0) {
      ep.failures.push_back("replicas' SCADA state digests disagree");
      break;
    }
  }

  if (tracer) {
    const obs::Tracer& tr = tracer->tracer();
    for (auto& leg : tr.breakdown()) ep.legs_ms[leg.name] = std::move(leg.samples_ms);
    std::vector<double>& s2e = ep.legs_ms["submit->execute"];
    for (const obs::Span& span : tr.spans()) {
      if (span.parent == obs::Span::kNoParent &&
          span.has(obs::Stage::kSubmit) && span.has(obs::Stage::kExecute)) {
        s2e.push_back(static_cast<double>(span.time(obs::Stage::kExecute) -
                                          span.time(obs::Stage::kSubmit)) /
                      1000.0);
      }
    }
  }
  p.reset();
  return ep;
}

}  // namespace perfbench
