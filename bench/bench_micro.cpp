// M1 — microbenchmarks for the hot paths every experiment leans on:
// the simulation kernel, crypto and sealed links, Prime, the Spines
// overlay, the SCADA proxy and HMI, MANA scoring and the cost of
// observability. Each section below prints one row per measurement;
// `--json[=PATH]` also writes the rows to PATH (default
// BENCH_micro.json), and `--only=SUBSTR` runs the sections whose name
// contains SUBSTR.
//
//   scheduler_churn        events/sec through sim::Simulator under a
//                          schedule/cancel/reschedule mix (the pattern
//                          every replica timer and message delivery
//                          produces)
//   envelope_verify        verifies/sec of signed Prime envelopes
//                          through crypto::Verifier
//   spines_link_seal_open  seal+open round trips/sec through
//                          crypto::SecureChannel's in-place forms, over
//                          the plant workload's sealed-datagram sizes;
//                          ungated extras give the crypto primitives'
//                          rates (AES-128-GCM, allocating sealed round
//                          trips, SHA-256, one-shot HMAC)
//   prime_update_ordering  end-to-end updates/sec executed by an f=1
//                          Prime cluster on the loopback fabric
//   overlay_forward        msgs/sec routed end-to-end through a 6-node
//                          Spines chain (the data-plane fast path)
//   overlay_flood          msgs/sec delivered by the priority flood over
//                          an 8-node ring-with-chords
//   overlay_lsu_churn      stop/start flap cycles/sec on a 12-node
//                          overlay, plus the LSUs accepted and route
//                          recomputations per accepted LSU (coalescing
//                          quality; lower is better)
//   overlay_incremental_spf
//                          route recomputes/sec through SpfEngine under
//                          single-link churn on a 256-node graph, plus
//                          the share served incrementally (vs full BFS)
//   hmi_state_update       StateUpdates/sec fed into one HMI by four
//                          replicas sending signed 256-record deltas
//                          (HMAC verify, f+1 byte-matched vote, apply)
//   mana_score             frames/sec through MANA's full capture
//                          pipeline (CaptureTap ring → flat feature
//                          accumulators → rules → trained ensemble)
//   obs_overhead           % of uninstrumented throughput retained with
//                          the metrics registry + tracer enabled on the
//                          prime_update_ordering and overlay_forward
//                          workloads (gated at >= 98%, i.e. <2% cost)
//
// `--baseline=PATH` adds each rate's committed value
// (bench/baseline_micro.json, `results.<bench>.<unit>`) and the speedup
// against it as rows, which is how the repo tracks its perf trajectory
// across PRs (see DESIGN.md "Performance architecture").
// `--fail-below=R` additionally checks every rate against R times its
// baseline and obs_overhead against 98% retained; a failing check exits
// 1 and names its row (CI's regression gate).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keyring.hpp"
#include "crypto/sha256.hpp"
#include "mana/mana.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prime/loopback_cluster.hpp"
#include "prime/messages.hpp"
#include "prime/recovery.hpp"
#include "scada/front_door.hpp"
#include "scada/hmi.hpp"
#include "scada/topology.hpp"
#include "scada/wire.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spines/overlay.hpp"
#include "spines/spf.hpp"

using namespace spire;

namespace {

util::Bytes make_payload(std::size_t size) {
  util::Bytes data(size);
  sim::Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

// ---- hot-path microbenches ---------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MicroResult {
  std::uint64_t items = 0;    ///< events / verifies / updates / msgs processed
  double wall_seconds = 0;
  /// Additional named measurements emitted verbatim into the section
  /// (e.g. overlay_lsu_churn's recomputes_per_lsu).
  std::vector<std::pair<std::string, double>> extra;
  [[nodiscard]] double rate() const {
    return wall_seconds > 0 ? static_cast<double>(items) / wall_seconds : 0;
  }
};

/// One self-rescheduling churn actor: every tick it cancels the decoy
/// event it parked in the far future, parks a new one, and reschedules
/// itself — the schedule/cancel/execute mix that epoch-guarded replica
/// timers and message deliveries generate in the protocol benches.
/// Callbacks capture a single pointer so they fit std::function's
/// inline storage: the bench measures the scheduler, not the allocator
/// overhead of fat closures.
struct ChurnActor {
  sim::Simulator* sim = nullptr;
  std::uint32_t idx = 0;
  sim::EventId decoy = 0;

  void tick() {
    if (decoy != 0) sim->cancel(decoy);
    decoy = sim->schedule_after(10 * sim::kMillisecond, [this] { decoy = 0; });
    sim->schedule_after(7 + idx % 5, [this] { tick(); });
  }
};

MicroResult run_scheduler_churn() {
  constexpr std::uint32_t kActors = 64;
  constexpr std::uint64_t kTargetEvents = 3'000'000;

  sim::Simulator sim;
  std::vector<ChurnActor> actors(kActors);
  const auto start = Clock::now();
  for (std::uint32_t i = 0; i < kActors; ++i) {
    actors[i].sim = &sim;
    actors[i].idx = i;
    sim.schedule_after(1 + i % 7, [a = &actors[i]] { a->tick(); });
  }
  while (sim.events_executed() < kTargetEvents) {
    sim.run(65536);
  }
  const double wall = seconds_since(start);
  return MicroResult{sim.events_executed(), wall, {}};
}

/// Spines link crypto as the daemon runs it: seal into one reused buffer,
/// open into another. The plaintext lengths are the 5% quantiles p0, p5,
/// ..., p95 of the 994k sealed datagrams of one perfbench `plant` run
/// (seed 1; median 144 B). One item is one seal plus one open.
MicroResult run_spines_link_seal_open() {
  constexpr std::array<std::size_t, 20> kLengths = {
      21,  21,  21,  118, 119, 119, 144, 144, 144, 144,
      144, 168, 188, 188, 216, 225, 225, 253, 319, 379};
  constexpr std::size_t kLongest =
      *std::max_element(kLengths.begin(), kLengths.end());
  crypto::Keyring keyring("bench-link");
  crypto::SecureChannel sender(keyring.link_key("a", "b"));
  crypto::SecureChannel receiver(keyring.link_key("a", "b"));
  const util::Bytes plain = make_payload(kLongest);
  util::Bytes sealed(kLongest + crypto::SecureChannel::kOverhead);
  util::Bytes opened(kLongest);

  constexpr std::uint64_t kTarget = 400'000;
  std::uint64_t done = 0;
  const auto start = Clock::now();
  while (done < kTarget) {
    for (const std::size_t n : kLengths) {
      const std::span<std::uint8_t> wire(sealed.data(),
                                         n + crypto::SecureChannel::kOverhead);
      sender.seal_into(std::span<const std::uint8_t>(plain.data(), n), wire);
      if (!receiver.open_into(wire, opened)) std::abort();  // bench integrity
      ++done;
    }
  }
  const double wall = seconds_since(start);
  MicroResult r{done, wall, {}};

  // The crypto primitives on their own (EXPERIMENTS.md M1), reported
  // and not gated: MiB/s for bulk rates, us or ns per call for the
  // rest. Each call's first output byte goes to a volatile sink so the
  // work cannot be elided.
  volatile std::uint8_t sink = 0;
  const auto per_call = [](std::uint64_t calls, auto op) {
    op();  // warm-up
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) op();
    return seconds_since(t0) / static_cast<double>(calls);
  };
  const auto mib_per_s = [](std::size_t bytes, double seconds) {
    return static_cast<double>(bytes) / seconds / (1024.0 * 1024.0);
  };
  const crypto::GcmKey key(crypto::AesKey{});
  const crypto::GcmIv iv{};
  const util::Bytes b256 = make_payload(256);
  const util::Bytes b1400 = make_payload(1400);
  // The AEAD rows seal in place, over and over, in one buffer, as the
  // daemon seals into its scratch, so they time the cipher and no copy
  // or allocation (the cost does not depend on the bytes).
  util::Bytes buf = make_payload(4096);
  const auto seal_in_place = [&](std::size_t n) {
    const std::span<std::uint8_t> text(buf.data(), n);
    sink = crypto::aes_gcm_seal(key, iv, {}, text, text)[0];
  };
  // A hello-sized packet.
  r.extra.emplace_back("aes_gcm_seal_32B_ns",
                       per_call(1'000'000, [&] { seal_in_place(32); }) * 1e9);
  r.extra.emplace_back(
      "aes_gcm_seal_256B_mib_per_s",
      mib_per_s(256, per_call(100'000, [&] { seal_in_place(256); })));
  r.extra.emplace_back(
      "aes_gcm_seal_4KiB_mib_per_s",
      mib_per_s(buf.size(), per_call(30'000, [&] { seal_in_place(buf.size()); })));
  const auto round_trip = [&](const util::Bytes& data) {
    const std::optional<util::Bytes> out = receiver.open(sender.seal(data));
    if (!out) std::abort();  // bench integrity
    sink = (*out)[0];
  };
  r.extra.emplace_back(
      "sealed_round_trip_256B_us",
      per_call(50'000, [&] { round_trip(b256); }) * 1e6);
  r.extra.emplace_back(
      "sealed_round_trip_1400B_us",
      per_call(15'000, [&] { round_trip(b1400); }) * 1e6);
  const util::Bytes small = make_payload(64);
  const util::Bytes large = make_payload(64 * 1024);
  r.extra.emplace_back(
      "sha256_64B_ns",
      per_call(200'000, [&] { sink = crypto::sha256(small)[0]; }) * 1e9);
  r.extra.emplace_back(
      "sha256_64KiB_mib_per_s",
      mib_per_s(large.size(), per_call(2'000, [&] {
                  sink = crypto::sha256(large)[0];
                })));
  const auto mac_key = keyring.derive("mac");
  r.extra.emplace_back("hmac_sha256_64B_ns",
                       per_call(200'000, [&] {
                         sink = crypto::hmac_sha256(mac_key, small)[0];
                       }) * 1e9);
  return r;
}

/// Envelope verification: decode-once, verify-many over a working set of
/// distinct Prime envelopes (PrepareOrCommit- and PoAru-sized bodies).
MicroResult run_envelope_verify() {
  crypto::Keyring keyring("bench-verify");
  constexpr std::uint32_t kSenders = 4;
  crypto::Verifier verifier;
  std::vector<std::unique_ptr<crypto::Signer>> signers;
  for (std::uint32_t r = 0; r < kSenders; ++r) {
    const std::string identity = prime::replica_identity(r);
    verifier.add_identity(identity, keyring.identity_key(identity));
    signers.push_back(std::make_unique<crypto::Signer>(
        identity, keyring.identity_key(identity)));
  }

  std::vector<prime::Envelope> envelopes;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto& signer = *signers[i % kSenders];
    if (i % 2 == 0) {
      prime::PrepareOrCommit msg;
      msg.replica = i % kSenders;
      msg.view = 1;
      msg.order_seq = 100 + i;
      envelopes.push_back(prime::Envelope::make(prime::MsgType::kPrepare,
                                                signer, msg.encode()));
    } else {
      prime::PoAru aru;
      aru.replica = i % kSenders;
      aru.aru_seq = i;
      aru.aru.assign(kSenders, 1000 + i);
      aru.sign(signer);
      envelopes.push_back(prime::Envelope::make(
          prime::MsgType::kPoAru, signer, aru.encode()));
    }
  }

  constexpr std::uint64_t kTargetVerifies = 400'000;
  std::uint64_t verified = 0;
  const auto start = Clock::now();
  while (verified < kTargetVerifies) {
    for (const auto& env : envelopes) {
      if (!env.verify(verifier)) std::abort();  // bench integrity
      ++verified;
    }
  }
  const double wall = seconds_since(start);
  return MicroResult{verified, wall, {}};
}

/// End-to-end Prime ordering: an f=1 cluster on the loopback fabric
/// executing a paced client workload. Counts every update execution
/// across all replicas (system throughput, crypto + scheduler + protocol
/// logic combined).
MicroResult run_prime_update_ordering() {
  class CountingApp : public prime::Application {
   public:
    void apply(const prime::ClientUpdate&, const prime::ExecutionInfo&) override {}
    [[nodiscard]] util::Bytes snapshot() const override { return {}; }
    void restore(std::span<const std::uint8_t>) override {}
  };

  sim::Simulator sim;
  crypto::Keyring keyring("bench-ordering");
  prime::PrimeConfig config;
  config.f = 1;
  config.k = 0;
  config.client_identities = {"client/a", "client/b"};
  prime::LoopbackCluster<CountingApp> cluster(sim, config, keyring, 7);

  constexpr int kRounds = 1500;
  const auto start = Clock::now();
  cluster.start();
  sim.run_until(sim.now() + 300 * sim::kMillisecond);  // settle
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& client : config.client_identities) {
      cluster.submit(client, "cmd");
    }
    sim.run_until(sim.now() + 10 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 2 * sim::kSecond);  // drain
  const double wall = seconds_since(start);

  std::uint64_t updates = 0;
  for (const auto& r : cluster.replicas()) {
    updates += r->stats().updates_executed;
  }
#ifdef SPIRE_BENCH_DEBUG_STATS
  for (const auto& r : cluster.replicas()) {
    const auto& s = r->stats();
    std::fprintf(stderr,
                 "cache_hits=%llu short_circuits=%llu batches=%llu "
                 "stale_arus=%llu pp_sent=%llu dropped_sig=%llu\n",
                 (unsigned long long)s.verify_cache_hits,
                 (unsigned long long)s.row_verify_short_circuits,
                 (unsigned long long)s.batches_sealed,
                 (unsigned long long)s.stale_po_arus_dropped,
                 (unsigned long long)s.preprepares_sent,
                 (unsigned long long)s.dropped_bad_signature);
  }
#endif
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kRounds) * config.client_identities.size() *
      config.n();
  if (updates < expected) std::abort();  // ordering stalled: bench invalid
  return MicroResult{updates, wall, {}};
}

/// Leader-side proposal encoding: encode-once row splicing of the full
/// matrix plus the agreement digest — the per-Pre-Prepare serialization
/// work, with one row refreshed per proposal.
MicroResult run_prime_preprepare_encode() {
  crypto::Keyring keyring("bench-ppe");
  constexpr std::uint32_t kN = 4;
  constexpr std::size_t kPoolPerReplica = 64;
  std::vector<std::vector<prime::PrePrepare::Row>> pool(kN);
  for (std::uint32_t r = 0; r < kN; ++r) {
    const std::string identity = prime::replica_identity(r);
    const crypto::Signer signer(identity, keyring.identity_key(identity));
    for (std::size_t j = 0; j < kPoolPerReplica; ++j) {
      auto aru = std::make_shared<prime::PoAru>();
      aru->replica = r;
      aru->aru_seq = j + 1;
      aru->aru.assign(kN, 1000 + j);
      aru->sign(signer);
      pool[r].push_back(std::move(aru));
    }
  }

  std::vector<prime::PrePrepare::Row> prev(kN);
  for (std::uint32_t r = 0; r < kN; ++r) prev[r] = pool[r][0];

  constexpr std::uint64_t kTargetEncodes = 300'000;
  std::uint64_t encoded = 0;
  std::uint64_t seq = 1;
  const auto start = Clock::now();
  while (encoded < kTargetEncodes) {
    prime::PrePrepare pp;
    pp.leader = 0;
    pp.view = 0;
    pp.order_seq = seq;
    pp.rows = prev;
    const auto fresh = static_cast<std::uint32_t>(seq % kN);
    pp.rows[fresh] = pool[fresh][(seq / kN) % kPoolPerReplica];
    const util::Bytes wire = pp.encode();
    const crypto::Digest d = pp.digest();
    if (wire.empty() || d == crypto::Digest{}) std::abort();
    prev = std::move(pp.rows);
    ++seq;
    ++encoded;
  }
  const double wall = seconds_since(start);
  return MicroResult{encoded, wall, {}};
}

/// Merkle-batched signing round trip: seal a send tick's worth of units
/// under one root signature, then verify every wire the way a receiver
/// does (decode, fold the inclusion path, check the root signature).
/// Counts units through the full seal+verify cycle.
MicroResult run_prime_merkle_batch() {
  crypto::Keyring keyring("bench-merkle");
  const std::string identity = prime::replica_identity(0);
  const crypto::Signer signer(identity, keyring.identity_key(identity));
  crypto::Verifier verifier;
  verifier.add_identity(identity, keyring.identity_key(identity));

  constexpr std::size_t kBatch = 8;
  std::vector<util::Bytes> bodies;
  for (std::size_t i = 0; i < kBatch; ++i) {
    prime::PrepareOrCommit msg;
    msg.replica = 0;
    msg.view = 1;
    msg.order_seq = 100 + i;
    bodies.push_back(msg.encode());
  }
  std::vector<prime::Envelope::BatchItem> items;
  for (const auto& body : bodies) {
    items.push_back(prime::Envelope::BatchItem{prime::MsgType::kPrepare, body});
  }

  constexpr std::uint64_t kTargetUnits = 400'000;
  std::uint64_t units = 0;
  const auto start = Clock::now();
  while (units < kTargetUnits) {
    const auto wires = prime::Envelope::seal_batch(signer, items);
    for (const auto& wire : wires) {
      const auto env = prime::Envelope::decode(wire);
      if (!env || !env->verify(verifier)) std::abort();  // bench integrity
      ++units;
    }
  }
  const double wall = seconds_since(start);
  return MicroResult{units, wall, {}};
}

/// Full rejuvenation round trips: an f=1,k=1 cluster (n=6) under a
/// paced client load with the completion-gated scheduler cycling
/// takedown -> downtime -> recover() -> application state transfer.
/// Counts completed recoveries (the recovery-done signal), so the
/// measured path spans shutdown bookkeeping, the rejoin handshake, the
/// snapshot round trip, and the protocol catch-up that follows.
MicroResult run_prime_recovery_cycle() {
  sim::Simulator sim;
  crypto::Keyring keyring("bench-recovery");
  prime::PrimeConfig config;
  config.f = 1;
  config.k = 1;
  config.client_identities = {"client/a"};
  prime::LoopbackCluster<> cluster(sim, config, keyring, 11);

  prime::RecoveryConfig rc;
  rc.period = 250 * sim::kMillisecond;
  rc.downtime = 50 * sim::kMillisecond;
  prime::ProactiveRecovery recovery(sim, cluster.replica_ptrs(), rc);

  constexpr std::uint64_t kTargetRecoveries = 60;
  const auto start = Clock::now();
  cluster.start();
  sim.run_until(sim.now() + 300 * sim::kMillisecond);  // settle
  recovery.start();
  while (recovery.recoveries_completed() < kTargetRecoveries) {
    cluster.submit("client/a", "cmd");
    sim.run_until(sim.now() + 50 * sim::kMillisecond);
  }
  recovery.stop();
  sim.run_until(sim.now() + 2 * sim::kSecond);  // drain the last rejoin
  const double wall = seconds_since(start);

  for (const auto& r : cluster.replicas()) {
    if (!r->running() || r->recovering()) std::abort();  // bench integrity
  }
  MicroResult result{recovery.recoveries_completed(), wall, {}};
  const prime::RecoveryStats& rs = recovery.stats();
  result.extra.emplace_back("in_flight_high_water",
                            static_cast<double>(rs.in_flight_high_water));
  result.extra.emplace_back(
      "mean_recovery_wall_ms",
      rs.completed > 0 ? static_cast<double>(rs.total_recovery_wall) / 1000.0 /
                             static_cast<double>(rs.completed)
                       : 0);
  return result;
}

// ---- Spines overlay data-plane microbenches ---------------------------------

/// Hosts on one switch plus an overlay — the same shape the spines tests
/// build, sized for throughput measurement.
struct OverlayBench {
  sim::Simulator sim;
  net::Network network{sim};
  crypto::Keyring keyring{"bench-overlay"};
  std::vector<net::Host*> hosts;
  std::unique_ptr<spines::Overlay> overlay;

  static spines::NodeId node(std::size_t i) { return "n" + std::to_string(i); }

  void build(std::size_t n, const std::vector<std::pair<int, int>>& links,
             const spines::DaemonConfig& tmpl) {
    auto& sw = network.add_switch(net::SwitchConfig{});
    overlay = std::make_unique<spines::Overlay>(sim, keyring, tmpl);
    for (std::size_t i = 0; i < n; ++i) {
      net::Host& host = network.add_host("h" + std::to_string(i));
      host.add_interface(
          net::MacAddress::from_id(static_cast<std::uint32_t>(i + 1)),
          net::IpAddress::make(10, 0, 0, static_cast<std::uint8_t>(i + 1)), 24);
      network.connect(host, 0, sw);
      hosts.push_back(&host);
      overlay->add_node(node(i), host);
    }
    for (const auto& [a, b] : links) {
      overlay->add_link(node(static_cast<std::size_t>(a)),
                        node(static_cast<std::size_t>(b)));
    }
    overlay->build();
    overlay->start_all();
    sim.run_until(sim.now() + 3 * sim::kSecond);  // links + LSU convergence
  }
};

/// Routed unicast through a 6-node chain: every delivered message paid
/// five forwarding decisions plus the session handoff. Sealing is off so
/// the bench isolates the forwarding machinery (queues, routing lookups,
/// encode/copy budget) — link crypto has its own microbenches above.
MicroResult run_overlay_forward() {
  spines::DaemonConfig tmpl;
  tmpl.intrusion_tolerant = false;
  tmpl.mode = spines::ForwardingMode::kRouted;
  tmpl.reliable_data_links = false;
  tmpl.per_source_queue_cap = 1 << 15;
  OverlayBench b;
  b.build(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, tmpl);

  std::uint64_t delivered = 0;
  b.overlay->daemon(OverlayBench::node(5))
      .open_session(40, [&](const spines::DataBody&) { ++delivered; });
  const util::Bytes payload(64, 0xAB);

  constexpr std::uint64_t kTarget = 60'000;
  const auto start = Clock::now();
  while (delivered < kTarget) {
    for (int i = 0; i < 256; ++i) {
      b.overlay->daemon(OverlayBench::node(0))
          .session_send(40, OverlayBench::node(5), 40, payload);
    }
    b.sim.run_until(b.sim.now() + 5 * sim::kMillisecond);
  }
  const double wall = seconds_since(start);
  return MicroResult{delivered, wall, {}};
}

/// Priority flood fan-out: overlay broadcasts across an 8-node ring with
/// chords, counted at every delivering node. Exercises dedup, per-source
/// queues, and the multi-neighbor copy budget.
MicroResult run_overlay_flood() {
  spines::DaemonConfig tmpl;
  tmpl.intrusion_tolerant = false;
  tmpl.mode = spines::ForwardingMode::kPriorityFlood;
  tmpl.per_source_queue_cap = 1 << 15;
  OverlayBench b;
  std::vector<std::pair<int, int>> links;
  constexpr int kNodes = 8;
  for (int i = 0; i < kNodes; ++i) links.emplace_back(i, (i + 1) % kNodes);
  for (int i = 0; i < kNodes; i += 2) links.emplace_back(i, (i + 2) % kNodes);
  b.build(kNodes, links, tmpl);

  std::uint64_t delivered = 0;
  for (int i = 1; i < kNodes; ++i) {
    b.overlay->daemon(OverlayBench::node(static_cast<std::size_t>(i)))
        .open_session(40, [&](const spines::DataBody&) { ++delivered; });
  }
  const util::Bytes payload(64, 0xCD);
  const std::array<spines::Priority, 3> prios = {
      spines::Priority::kHigh, spines::Priority::kMedium, spines::Priority::kLow};

  constexpr std::uint64_t kTarget = 70'000;  // broadcasts x 7 receivers
  const auto start = Clock::now();
  int round = 0;
  while (delivered < kTarget) {
    for (int i = 0; i < 128; ++i, ++round) {
      b.overlay->daemon(OverlayBench::node(0))
          .session_send(40, spines::kBroadcastDst, 40, payload,
                        prios[static_cast<std::size_t>(round) % 3]);
    }
    b.sim.run_until(b.sim.now() + 10 * sim::kMillisecond);
  }
  const double wall = seconds_since(start);
  return MicroResult{delivered, wall, {}};
}

/// Route convergence under link flapping: one node of a 12-node ring-
/// with-chords stops and restarts repeatedly, generating LSU storms.
/// The item is one flap cycle (the fixed input); the LSUs it takes to
/// reconverge are a system output, reported as `lsus` next to route
/// recomputations per accepted LSU — the coalescing metric (old code:
/// >= 1).
MicroResult run_overlay_lsu_churn() {
  spines::DaemonConfig tmpl;
  tmpl.mode = spines::ForwardingMode::kRouted;
  tmpl.reliable_data_links = false;
  OverlayBench b;
  std::vector<std::pair<int, int>> links;
  constexpr int kNodes = 12;
  for (int i = 0; i < kNodes; ++i) links.emplace_back(i, (i + 1) % kNodes);
  for (int i = 0; i < kNodes; i += 3) links.emplace_back(i, (i + 4) % kNodes);
  b.build(kNodes, links, tmpl);

  auto totals = [&](auto field) {
    std::uint64_t sum = 0;
    for (int i = 0; i < kNodes; ++i) {
      sum += field(
          b.overlay->daemon(OverlayBench::node(static_cast<std::size_t>(i)))
              .stats());
    }
    return sum;
  };
  const std::uint64_t lsu_before =
      totals([](const spines::DaemonStats& s) { return s.lsu_accepted; });
  const std::uint64_t recomputes_before =
      totals([](const spines::DaemonStats& s) { return s.route_recomputes; });

  constexpr int kFlaps = 48;
  const auto start = Clock::now();
  for (int flap = 0; flap < kFlaps; ++flap) {
    auto& victim = b.overlay->daemon(
        OverlayBench::node(static_cast<std::size_t>(1 + flap % (kNodes - 1))));
    victim.stop();
    b.sim.run_until(b.sim.now() + 500 * sim::kMillisecond);
    victim.start();
    b.sim.run_until(b.sim.now() + 500 * sim::kMillisecond);
  }
  const double wall = seconds_since(start);

  const std::uint64_t lsus =
      totals([](const spines::DaemonStats& s) { return s.lsu_accepted; }) -
      lsu_before;
  const std::uint64_t recomputes =
      totals([](const spines::DaemonStats& s) { return s.route_recomputes; }) -
      recomputes_before;
  MicroResult r{kFlaps, wall, {}};
  r.extra.emplace_back("lsus", static_cast<double>(lsus));
  r.extra.emplace_back(
      "recomputes_per_lsu",
      lsus > 0 ? static_cast<double>(recomputes) / static_cast<double>(lsus)
               : 0.0);
  return r;
}

/// Incremental-SPF repair rate: drives SpfEngine directly (no network,
/// no daemons) on a 256-node ring-with-chords, flipping one random
/// confirmed edge per recompute — the wide-area steady state where a
/// 500-daemon overlay sees single-link LSU churn. Reports recomputes
/// per second plus the share that ran incrementally (the ISSUE gate
/// keeps full-BFS fallbacks <= 0.1 of recomputes) and the mean region
/// size each repair settled.
MicroResult run_overlay_spf_incremental() {
  constexpr std::size_t kNodes = 256;
  std::vector<std::set<spines::NodeHandle>> adv(kNodes);
  spines::SpfEngine engine;
  engine.attach_self(0);
  engine.ensure_nodes(kNodes);

  sim::Rng rng(20260807);
  auto connect = [&](spines::NodeHandle a, spines::NodeHandle b) {
    adv[a].insert(b);
    adv[b].insert(a);
  };
  for (spines::NodeHandle v = 0; v < kNodes; ++v) {
    connect(v, (v + 1) % kNodes);
    if (v % 4 == 0) connect(v, (v + 16) % kNodes);
  }
  auto push_row = [&](spines::NodeHandle v) {
    engine.set_adjacency(
        v, std::vector<spines::NodeHandle>(adv[v].begin(), adv[v].end()));
  };
  for (spines::NodeHandle v = 0; v < kNodes; ++v) push_row(v);
  engine.recompute();  // the one expected full BFS

  const std::uint64_t warm_full = engine.stats().full_runs;
  constexpr std::uint64_t kTarget = 200'000;
  std::uint64_t recomputes = 0;
  const auto start = Clock::now();
  while (recomputes < kTarget) {
    for (int i = 0; i < 512; ++i, ++recomputes) {
      const auto a = static_cast<spines::NodeHandle>(rng.next() % kNodes);
      const auto b = static_cast<spines::NodeHandle>(rng.next() % kNodes);
      if (a == b) continue;
      if (adv[a].count(b) != 0) {
        adv[a].erase(b);
        adv[b].erase(a);
      } else {
        connect(a, b);
      }
      push_row(a);
      push_row(b);
      engine.recompute();
    }
  }
  const double wall = seconds_since(start);

  const spines::SpfStats& s = engine.stats();
  if (!engine.verify_against_full()) std::abort();  // bench integrity
  MicroResult r{recomputes, wall, {}};
  const std::uint64_t total = s.full_runs + s.incremental_runs;
  r.extra.emplace_back("incremental_share",
                       total > 0 ? static_cast<double>(s.incremental_runs) /
                                       static_cast<double>(total)
                                 : 0.0);
  r.extra.emplace_back("full_runs_after_warmup",
                       static_cast<double>(s.full_runs - warm_full));
  r.extra.emplace_back(
      "settled_per_recompute",
      s.incremental_runs > 0
          ? static_cast<double>(s.vertices_settled) /
                static_cast<double>(s.incremental_runs)
          : 0.0);
  return r;
}

// ---- Observability overhead gate --------------------------------------------

/// Proves the obs instrumentation is near-free: runs the Prime ordering
/// and overlay forwarding benches with observability off (the default:
/// no registry bindings read, Tracer::current() == nullptr) and on (a
/// scoped registry plus an active tracer with a trivial time source)
/// and reports the throughput retained with obs enabled as a
/// percentage. The JSON gate hard-fails below 98% retained (<2%
/// overhead) independent of the baseline-speedup check.
MicroResult run_obs_overhead() {
  // Machine noise on shared runners is low-frequency drift (thermal,
  // neighbor load), so a global best-of across many seconds compares
  // runs from different load regimes and reads the drift as
  // instrumentation cost. Instead each rep computes an off/on ratio
  // from back-to-back runs (best-of-3 per side, order flipped every rep
  // so the second-run penalty alternates): drift cancels within a pair.
  // The gate takes the best pair — a real regression degrades every
  // pair, while a noise burst (which can span a whole rep, defeating a
  // median) only degrades the pairs it lands on — so it stops as soon
  // as one pair comes in clean. The median over completed reps is kept
  // as the reported overhead estimate.
  struct Retained {
    double gate;      // best paired ratio, capped at 100%
    double estimate;  // median paired ratio
  };
  const auto retained_pct = [](MicroResult (*fn)(), const char* tag) {
    const auto run_off = [&fn] {
      return std::max({fn().rate(), fn().rate(), fn().rate()});
    };
    const auto run_on = [&fn] {
      obs::ScopedRegistry registry;
      obs::ScopedTracer tracer([] { return std::uint64_t{1}; });
      return std::max({fn().rate(), fn().rate(), fn().rate()});
    };
    std::vector<double> ratios;
    for (std::size_t rep = 0; rep < 9; ++rep) {
      double off, on;
      if (rep % 2 == 0) {
        off = run_off();
        on = run_on();
      } else {
        on = run_on();
        off = run_off();
      }
      ratios.push_back(off > 0 ? on / off : 0);
      std::fprintf(stderr, "# obs_overhead %s rep %zu: %.2f%%\n", tag, rep,
                   100.0 * ratios.back());
      if (ratios.back() >= 0.995) break;  // clean pair: gate can't improve
    }
    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    return Retained{
        100.0 * std::min(1.0, sorted.back()),
        100.0 * sorted[sorted.size() / 2],
    };
  };

  const Retained prime = retained_pct(run_prime_update_ordering, "prime");
  const Retained overlay = retained_pct(run_overlay_forward, "overlay");
  const double retained = std::min(prime.gate, overlay.gate);

  // rate() == items / wall == retained_pct (3 decimals survive).
  MicroResult r{static_cast<std::uint64_t>(retained * 1000.0 + 0.5), 1000.0,
                {}};
  r.extra.emplace_back("prime_overhead_pct", 100.0 - prime.estimate);
  r.extra.emplace_back("overlay_overhead_pct", 100.0 - overlay.estimate);
  return r;
}

// ---- fleet_batch_encode -----------------------------------------------------
// BatchReport wire throughput: encode + decode a fleet-shaped batch
// (256 device deltas, 2 breakers + 2 readings each). Unit = device
// reports through the codec. This is the per-ordering-round cost the
// delta batcher amortizes one signature over.

MicroResult run_fleet_batch_encode() {
  constexpr std::size_t kBatch = 256;
  scada::BatchReport batch;
  batch.reports.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    scada::StatusReport r;
    r.device = "fd" + std::to_string(i);
    r.report_seq = i + 1;
    r.breakers = {true, (i & 1) != 0};
    r.readings = {static_cast<std::uint16_t>(500 + i),
                  static_cast<std::uint16_t>(700 + i)};
    batch.reports.push_back(std::move(r));
  }

  constexpr std::uint64_t kTargetReports = 2'000'000;
  std::uint64_t processed = 0;
  const auto start = Clock::now();
  while (processed < kTargetReports) {
    const util::Bytes wire = batch.encode();
    const auto decoded = scada::BatchReport::decode(wire);
    if (!decoded || decoded->reports.size() != kBatch) std::abort();
    // Touch a decoded field so the round trip can't be elided.
    if (decoded->reports[processed % kBatch].report_seq == 0) std::abort();
    processed += kBatch;
  }
  const double wall = seconds_since(start);
  MicroResult r{processed, wall, {}};
  r.extra.emplace_back("batch_bytes",
                       static_cast<double>(batch.encode().size()));
  return r;
}

// ---- hmi_state_update -------------------------------------------------------
// The HMI's output vote at fleet scale: four replicas' signed 256-record
// deltas per version into one HMI, which verifies, votes, and applies
// each version once f+1 = 2 copies match. Items are StateUpdates fed.
// Each round starts a fresh HMI on an untimed full image, then times 64
// consecutive delta versions, so the prebuilt messages can be replayed.

MicroResult run_hmi_state_update() {
  constexpr std::size_t kDevices = 256;
  constexpr std::uint32_t kReplicas = 4;
  constexpr std::uint64_t kVersions = 64;
  crypto::Keyring keyring("bench-hmi");
  crypto::Verifier verifier;
  std::vector<std::unique_ptr<crypto::Signer>> signers;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    const std::string id = prime::replica_identity(r);
    verifier.add_identity(id, keyring.identity_key(id));
    signers.push_back(
        std::make_unique<crypto::Signer>(id, keyring.identity_key(id)));
  }
  auto output = [&](std::uint32_t replica, std::uint64_t version,
                    scada::StateUpdate::Kind kind, const util::Bytes& state) {
    scada::StateUpdate su;
    su.replica = replica;
    su.version = version;
    su.kind = kind;
    su.base_version = version - 1;
    su.state = state;
    su.sign(*signers[replica]);
    scada::MasterOutput out;
    out.type = scada::ScadaMsgType::kStateUpdate;
    out.body = su.encode();
    return out.encode();
  };

  scada::TopologyState state(scada::ScenarioSpec::fleet(kDevices, 2));
  const util::Bytes full = state.serialize();
  std::vector<util::Bytes> first = {
      output(0, 1, scada::StateUpdate::kFull, full),
      output(1, 1, scada::StateUpdate::kFull, full)};
  std::vector<util::Bytes> wires;  // version-major, replica-minor
  for (std::uint64_t v = 2; v < 2 + kVersions; ++v) {
    state.clear_changes();
    for (std::size_t d = 0; d < kDevices; ++d) {
      state.apply_report("fd" + std::to_string(d), v, {(v + d) % 2 == 0, true},
                         {static_cast<std::uint16_t>(v),
                          static_cast<std::uint16_t>(d)});
    }
    const util::Bytes delta = state.serialize_changes();
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      wires.push_back(output(r, v, scada::StateUpdate::kDelta, delta));
    }
  }

  constexpr std::uint64_t kTargetUpdates = 40'000;
  std::uint64_t fed = 0;
  double wall = 0;
  while (fed < kTargetUpdates) {
    sim::Simulator sim;
    scada::HmiConfig config;
    config.identity = "client/hmi-bench";
    config.f = 1;
    scada::Hmi hmi(sim, config, keyring, verifier, [](const util::Bytes&) {});
    for (const util::Bytes& wire : first) hmi.on_master_output(wire);
    const auto start = Clock::now();
    for (const util::Bytes& wire : wires) hmi.on_master_output(wire);
    wall += seconds_since(start);
    if (hmi.displayed_version() != 1 + kVersions) std::abort();
    fed += wires.size();
  }
  MicroResult r{fed, wall, {}};
  r.extra.emplace_back("update_bytes", static_cast<double>(wires[0].size()));
  return r;
}

// ---- proxy_front_door -------------------------------------------------------
// Admission hot path: token-bucket refill + priority classification +
// stats, no allocation (obs_test asserts the zero-alloc property; this
// measures the throughput headroom over a 20k-report/s fleet).

MicroResult run_proxy_front_door() {
  scada::FrontDoorConfig config;
  config.rate_per_sec = 1'000'000;
  config.burst = 128;
  config.queue_capacity = 4096;
  config.shed_watermark = 3072;
  scada::FrontDoor door(config);

  constexpr std::uint64_t kTargetAdmits = 20'000'000;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;  // reported, so admit() cannot be elided
  sim::Time now = 0;
  const auto start = Clock::now();
  while (offered < kTargetAdmits) {
    // Mixed workload: mostly telemetry, every 7th delta critical,
    // queue depth sweeping below and above the shed watermark.
    const auto priority = (offered % 7 == 0) ? scada::DeltaPriority::kCritical
                                             : scada::DeltaPriority::kTelemetry;
    const std::size_t queued = offered % 4000;
    now += 2;  // 2 us between arrivals (500k deltas/sec)
    admitted += door.admit(priority, now, queued) ? 1 : 0;
    ++offered;
  }
  const double wall = seconds_since(start);
  const auto& stats = door.stats();
  MicroResult r{offered, wall, {}};
  r.extra.emplace_back("admitted", static_cast<double>(admitted));
  r.extra.emplace_back(
      "shed_pct",
      100.0 *
          static_cast<double>(stats.shed_rate + stats.shed_overload +
                              stats.shed_critical) /
          static_cast<double>(offered));
  return r;
}

/// MANA's end-to-end capture pipeline: prebuilt fleet frames stream
/// through the CaptureTap ring into the flat feature accumulators,
/// rule watchers, and the trained three-detector ensemble. Items are
/// frames fully processed (summarize + ring + features + scoring);
/// this is the per-frame budget bench_mana_ids's soak gate rides on.
MicroResult run_mana_score() {
  constexpr std::size_t kDevices = 1000;
  constexpr std::size_t kFramesPerTick = 500;  // 100 ms tick → 5k fps
  const sim::Time kTick = 100 * sim::kMillisecond;

  mana::ManaConfig cfg;
  cfg.network = "micro-mana";
  mana::Mana ids(cfg);

  const net::MacAddress master_mac = net::MacAddress::from_id(1);
  std::vector<net::EthernetFrame> frames;
  frames.reserve(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) {
    net::Datagram d;
    d.src_ip = net::IpAddress::make(172, 16, static_cast<std::uint8_t>(i / 250),
                                    static_cast<std::uint8_t>(1 + (i % 250)));
    d.dst_ip = net::IpAddress::make(172, 31, 0, 1);
    d.src_port = 20000;
    d.dst_port = 9999;
    d.payload.assign(48 + (i % 4) * 16, 0xAB);
    frames.push_back(net::EthernetFrame{
        net::MacAddress::from_id(static_cast<std::uint32_t>(0x200000 + i)),
        master_mac, net::EtherType::kIpv4, d.encode()});
  }

  sim::Time now = 0;
  std::size_t cursor = 0;
  const auto pump = [&](std::size_t ticks) {
    for (std::size_t t = 0; t < ticks; ++t) {
      now += kTick;
      for (std::size_t i = 0; i < kFramesPerTick; ++i) {
        ids.tap().capture(now, frames[cursor]);
        if (++cursor == frames.size()) cursor = 0;
      }
      ids.poll(now);
    }
  };

  pump(100);  // 10 s training capture
  ids.flush_until(now);
  ids.finish_training();

  constexpr std::size_t kMeasuredTicks = 2000;  // 200 s → 1M frames
  const auto start = Clock::now();
  pump(kMeasuredTicks);
  const double wall = seconds_since(start);

  MicroResult r{kMeasuredTicks * kFramesPerTick, wall, {}};
  r.extra.emplace_back("windows_scored",
                       static_cast<double>(ids.stats().windows_scored));
  r.extra.emplace_back("alerts", static_cast<double>(ids.stats().alerts_total));
  return r;
}

// ---- sections ----------------------------------------------------------------

/// Runs the hot-path microbenches and declares one row per measurement.
/// With --baseline, each rate's committed value and speedup are rows
/// too; with --fail-below=R as well, each rate is checked against R
/// times its baseline, and obs_overhead's retained throughput against
/// 98% (<2% instrumentation cost).
int run_sections(int argc, char** argv, double fail_below,
                 const std::string& only) {
  struct Spec {
    const char* name;
    const char* unit;
    MicroResult (*run)();
  };
  const Spec specs[] = {
      {"scheduler_churn", "events_per_sec", run_scheduler_churn},
      {"envelope_verify", "verifies_per_sec", run_envelope_verify},
      {"spines_link_seal_open", "seal_opens_per_sec", run_spines_link_seal_open},
      {"prime_update_ordering", "updates_per_sec", run_prime_update_ordering},
      {"prime_preprepare_encode", "encodes_per_sec", run_prime_preprepare_encode},
      {"prime_merkle_batch", "units_per_sec", run_prime_merkle_batch},
      {"prime_recovery_cycle", "recoveries_per_sec", run_prime_recovery_cycle},
      {"overlay_forward", "msgs_per_sec", run_overlay_forward},
      {"overlay_flood", "msgs_per_sec", run_overlay_flood},
      {"overlay_lsu_churn", "flaps_per_sec", run_overlay_lsu_churn},
      {"overlay_incremental_spf", "recomputes_per_sec",
       run_overlay_spf_incremental},
      {"fleet_batch_encode", "reports_per_sec", run_fleet_batch_encode},
      {"hmi_state_update", "updates_per_sec", run_hmi_state_update},
      {"proxy_front_door", "admits_per_sec", run_proxy_front_door},
      {"mana_score", "frames_per_sec", run_mana_score},
      {"obs_overhead", "retained_pct", run_obs_overhead},
  };
  bench::Report report("micro",
                       "every hot path keeps its committed rate (--fail-below "
                       "x baseline) and obs costs under 2%");
  if (!report.load_baseline(argc, argv, nullptr)) return 1;
  for (const Spec& spec : specs) {
    if (!only.empty() && std::string(spec.name).find(only) == std::string::npos) {
      continue;
    }
    std::fprintf(stderr, "running %s...\n", spec.name);
    const MicroResult result = spec.run();
    const std::string name = spec.name;
    const std::string key = name + "." + spec.unit;
    report.add(name + " items", static_cast<double>(result.items));
    report.add(name + " wall", result.wall_seconds, "s");
    if (fail_below > 0 && report.has_baseline()) {
      report.check(name + " " + spec.unit, result.rate(), bench::Cmp::kGe,
                   bench::BaselineKey{key.c_str(), fail_below});
    } else {
      report.add(name + " " + spec.unit, result.rate());
    }
    if (report.has_baseline()) {
      const double base = report.baseline(key.c_str());
      report.add(name + " baseline " + spec.unit, base);
      report.add(name + " speedup vs baseline",
                 base > 0 ? result.rate() / base : 0.0, "x");
    }
    for (const auto& [extra, value] : result.extra) {
      report.add(name + " " + extra, value);
    }
    if (fail_below > 0 && name == "obs_overhead") {
      report.check("obs_overhead retained throughput", result.rate(),
                   bench::Cmp::kGe, 98.0, "%");
    }
  }
  return report.finish(argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  const std::string only = bench::flag_value(argc, argv, "--only", "");
  // 0 disables the regression gate.
  const double fail_below =
      std::atof(bench::flag_value(argc, argv, "--fail-below", "0"));
  return run_sections(argc, argv, fail_below, only);
}
