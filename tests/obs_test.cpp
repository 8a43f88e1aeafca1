// Tests for the observability subsystem (DESIGN.md §7): histogram
// quantile accuracy against an exact reference, snapshot determinism
// across identical sim runs and across worker counts, per-thread
// scoping, end-to-end trace-span completeness, and the zero-allocation
// guarantee on the metric hot path (and on the sealed Spines link
// path).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scada/deployment.hpp"
#include "scada/front_door.hpp"
#include "scada/hmi.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spines/overlay.hpp"

using namespace spire;

// ---- global allocation counter ----------------------------------------------
// Replacing the global allocation functions lets the hot-path tests
// assert that counter increments and histogram records never allocate.
// The counter is only meaningful between two reads on the same thread;
// gtest's own allocations outside the measured window don't matter.
// Atomic (relaxed) because the fleet and thread-scoping tests below
// allocate from worker threads too; the hot-path assertions still run
// their measured window single-threaded.

static std::atomic<std::uint64_t> g_alloc_count{0};

// GCC pairs inlined new-expressions with the std::free inside the
// replaced operator delete and warns; the pair is matched by
// construction (operator new allocates with std::malloc).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// ---- histogram --------------------------------------------------------------

TEST(Histogram, ExactBelowLinearRange) {
  obs::Histogram h;
  for (std::uint64_t v = 0; v < obs::Histogram::kLinear; ++v) {
    h.record(v);
  }
  // Quantiles of 0..63 are exact: every value has its own bucket.
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 32u);
  EXPECT_EQ(h.quantile(1.0), 63u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.count(), obs::Histogram::kLinear);
}

TEST(Histogram, QuantileTracksExactReferenceWithinBucketError) {
  // Log-uniform samples across six decades — the shape of latency data.
  obs::Histogram h;
  std::vector<std::uint64_t> reference;
  sim::Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const double exponent = rng.uniform01() * 6.0;  // 1 .. 1e6
    const auto v = static_cast<std::uint64_t>(std::pow(10.0, exponent));
    h.record(v);
    reference.push_back(v);
  }
  std::sort(reference.begin(), reference.end());

  for (const double q : {0.10, 0.25, 0.50, 0.90, 0.99}) {
    const std::uint64_t exact =
        reference[static_cast<std::size_t>(q * (reference.size() - 1))];
    const std::uint64_t approx = h.quantile(q);
    // Sub-bucket resolution bounds relative error at ~1/kSub (6.25%);
    // allow 10% for rank rounding on top.
    const double rel =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LE(rel, 0.10) << "q=" << q << " exact=" << exact
                         << " approx=" << approx;
  }
  EXPECT_EQ(h.count(), reference.size());
  EXPECT_EQ(h.min(), reference.front());
  EXPECT_EQ(h.max(), reference.back());
}

TEST(Histogram, BucketBoundariesRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{63},
        std::uint64_t{64}, std::uint64_t{65}, std::uint64_t{1000},
        std::uint64_t{1} << 20, (std::uint64_t{1} << 40) + 12345,
        ~std::uint64_t{0}}) {
    const std::uint32_t b = obs::Histogram::bucket_of(v);
    ASSERT_LT(b, obs::Histogram::kBuckets);
    EXPECT_LE(obs::Histogram::bucket_floor(b), v);
    if (b + 1 < obs::Histogram::kBuckets) {
      EXPECT_LT(v, obs::Histogram::bucket_floor(b + 1));
    }
  }
}

// ---- registry ---------------------------------------------------------------

TEST(MetricsRegistry, HandlesAndSnapshot) {
  obs::ScopedRegistry scope;
  auto& registry = obs::MetricsRegistry::current();
  std::uint64_t* c = registry.counter("prime.test.widgets");
  std::int64_t* g = registry.gauge("prime.test.depth");
  obs::Histogram* h = registry.histogram("prime.test.latency_us");
  *c = 41;
  ++*c;
  *g = -7;
  h->record(100);
  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"prime.test.widgets\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  EXPECT_NE(json.find("-7"), std::string::npos);
  EXPECT_NE(json.find("\"prime.test.latency_us\""), std::string::npos);
  const std::string text = registry.snapshot_text();
  EXPECT_NE(text.find("prime.test.widgets"), std::string::npos);
}

TEST(MetricsRegistry, BinderTombstonesOnDestruction) {
  obs::ScopedRegistry scope;
  std::uint64_t external = 7;
  {
    obs::Binder binder("scada.temp");
    binder.counter("reports", &external);
    EXPECT_NE(obs::MetricsRegistry::current().snapshot_json().find(
                  "scada.temp.reports"),
              std::string::npos);
  }
  // After the binder dies its entries must vanish from snapshots (the
  // registry must never read freed component memory).
  EXPECT_EQ(obs::MetricsRegistry::current().snapshot_json().find(
                "scada.temp.reports"),
            std::string::npos);
}

TEST(MetricsRegistry, ValueReadsTheNewestLiveCounterOrGauge) {
  obs::ScopedRegistry scope;
  auto& registry = obs::MetricsRegistry::current();
  *registry.gauge("spines.test.depth") = -3;
  EXPECT_EQ(registry.value("spines.test.depth"), -3);
  std::uint64_t older = 5;
  std::uint64_t newer = 9;
  obs::Binder first("spines.test");
  first.counter("sent", &older);
  {
    obs::Binder second("spines.test");
    second.counter("sent", &newer);
    second.gauge_fn("queue", [] { return std::int64_t{4}; });
    EXPECT_EQ(registry.value("spines.test.sent"), 9);
    EXPECT_EQ(registry.value("spines.test.queue"), 4);
  }
  // A tombstoned entry is skipped; a histogram or an unknown name throws.
  EXPECT_EQ(registry.value("spines.test.sent"), 5);
  EXPECT_THROW((void)registry.value("spines.test.queue"), std::out_of_range);
  (void)registry.histogram("spines.test.latency_us");
  EXPECT_THROW((void)registry.value("spines.test.latency_us"),
               std::out_of_range);
}

TEST(FlatMap64, InsertAndFindAcrossGrowth) {
  obs::FlatMap64 map;
  constexpr std::uint32_t kEntries = 20000;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    const auto [value, inserted] =
        map.lookup_or_insert(std::uint64_t{i} * 2654435761u, i);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(value, i);
  }
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    const std::uint32_t* found = map.find(std::uint64_t{i} * 2654435761u);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, i);
  }
  EXPECT_EQ(map.find(0xDEADBEEFCAFEull), nullptr);
  // Existing mappings win on re-insert (try_emplace semantics).
  const auto [value, inserted] = map.lookup_or_insert(0, 999);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(value, 0u);
}

/// Runs an identical small deployment and returns its metrics snapshot.
std::string snapshot_of_identical_run() {
  sim::Simulator sim;
  obs::ScopedRegistry scope([&sim] { return sim.now(); });
  obs::ScopedTracer tracer([&sim] { return sim.now(); });
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment deployment(sim, config);
  deployment.start();
  sim.run_until(20 * sim::kSecond);
  return obs::MetricsRegistry::current().snapshot_json();
}

TEST(MetricsRegistry, SnapshotDeterministicAcrossIdenticalRuns) {
  const std::string first = snapshot_of_identical_run();
  const std::string second = snapshot_of_identical_run();
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
}

namespace {

/// One instrumented instance for the fleet determinism test: its own
/// simulator, registry, tracer and raw metric handles, touched only by
/// the thread that runs it (DESIGN.md §8 — no atomics anywhere on the
/// hot path).
struct ObsInstance {
  sim::Simulator sim;
  std::unique_ptr<obs::ScopedRegistry> registry;
  std::unique_ptr<obs::ScopedTracer> tracer;
  std::uint64_t* events = nullptr;
  obs::Histogram* gap = nullptr;
};

/// Builds two instrumented instances with distinct tick periods on this
/// thread, runs them through bench::run_instances on `workers` threads
/// and returns both instances' metrics snapshots.
std::vector<std::string> instance_snapshots(unsigned workers) {
  std::vector<std::unique_ptr<ObsInstance>> instances;
  for (int i = 0; i < 2; ++i) {
    auto in = std::make_unique<ObsInstance>();
    auto sim_time = [&sim = in->sim] {
      return static_cast<std::uint64_t>(sim.now());
    };
    in->registry = std::make_unique<obs::ScopedRegistry>(sim_time);
    in->tracer = std::make_unique<obs::ScopedTracer>(sim_time);
    in->events = obs::MetricsRegistry::current().counter("instance.events");
    in->gap = obs::MetricsRegistry::current().histogram("instance.gap");
    ObsInstance& inst = *in;
    sim::Simulator& sim = inst.sim;
    const sim::Time period = static_cast<sim::Time>(i + 3) * sim::kMillisecond;
    auto tick = std::make_shared<std::function<void()>>();
    // The closure holds itself weakly (a strong self-capture is a cycle
    // that leaks); the pending event's strong copy keeps it alive.
    *tick = [&sim, &inst, self = std::weak_ptr(tick), period] {
      ++*inst.events;
      inst.gap->record(static_cast<std::uint64_t>(sim.now() % 97));
      obs::Tracer* t = obs::Tracer::current();
      t->client_submit("client/x", *inst.events);
      t->executed("client/x", *inst.events, sim.now(), sim.now());
      sim.schedule_after(period, [tick = self.lock()] { (*tick)(); });
    };
    sim.schedule_after(period, [tick] { (*tick)(); });
    instances.push_back(std::move(in));
  }

  bench::run_instances(instances.size(), workers, [&](std::size_t i) {
    ObsInstance& inst = *instances[i];
    obs::UseRegistry use_registry(inst.registry->registry());
    obs::UseTracer use_tracer(inst.tracer->tracer());
    inst.sim.run_until(2 * sim::kSecond);
  });

  std::vector<std::string> out;
  out.reserve(instances.size());
  for (const auto& in : instances) {
    out.push_back(in->registry->registry().snapshot_json());
  }
  // Newest-first so each scope restores the exact previous current().
  while (!instances.empty()) instances.pop_back();
  return out;
}

}  // namespace

TEST(MetricsRegistry, InstanceSnapshotsDeterministicAcrossWorkerCounts) {
  const std::vector<std::string> base = instance_snapshots(1);
  ASSERT_EQ(base.size(), 2u);
  EXPECT_GT(base[0].size(), 50u);
  // Distinct tick periods → the two instances' snapshots genuinely differ.
  EXPECT_NE(base[0], base[1]);
  for (const unsigned workers : {2u, 4u}) {
    EXPECT_EQ(instance_snapshots(workers), base) << "workers=" << workers;
  }
}

// A scope opened on one thread is current() on that thread only: a
// worker thread sees the defaults, so instances on different threads
// never bind into or trace through each other's scopes.
TEST(MetricsRegistry, ScopesAreCurrentOnTheirOwnThreadOnly) {
  obs::ScopedRegistry registry;
  obs::ScopedTracer tracer;
  ASSERT_EQ(&obs::MetricsRegistry::current(), &registry.registry());
  ASSERT_EQ(obs::Tracer::current(), &tracer.tracer());
  const obs::MetricsRegistry* other_registry = nullptr;
  const obs::Tracer* other_tracer = &tracer.tracer();
  std::thread([&] {
    other_registry = &obs::MetricsRegistry::current();
    other_tracer = obs::Tracer::current();
  }).join();
  EXPECT_EQ(other_registry, &obs::MetricsRegistry::global());
  EXPECT_EQ(other_tracer, nullptr);
  EXPECT_EQ(&obs::MetricsRegistry::current(), &registry.registry());
  EXPECT_EQ(obs::Tracer::current(), &tracer.tracer());
}

TEST(MetricsHotPath, CounterAndHistogramRecordNeverAllocate) {
  obs::ScopedRegistry scope;
  auto& registry = obs::MetricsRegistry::current();
  std::uint64_t* counter = registry.counter("hot.counter");
  obs::Histogram* hist = registry.histogram("hot.histogram");

  const std::uint64_t before = g_alloc_count.load();
  for (std::uint64_t i = 0; i < 100000; ++i) {
    ++*counter;
    hist->record(i * 7919);
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "metric hot path allocated";
  EXPECT_EQ(*counter, 100000u);
  EXPECT_EQ(hist->count(), 100000u);
}

TEST(MetricsHotPath, TracerStageHooksAreAllocationFreeOnExistingSpans) {
  obs::ScopedRegistry registry_scope;
  obs::ScopedTracer scope([] { return std::uint64_t{5}; });
  obs::Tracer& tracer = scope.tracer();
  const std::string client = "client/a";  // SSO: fits inline
  tracer.client_submit(client, 1);  // creates the span (may allocate)

  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 10000; ++i) {
    tracer.replica_recv(client, 1);
    tracer.po_request(client, 1);
    tracer.executed(client, 1, 2, 3);
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "tracer hook on existing span allocated";
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans().front().hits[static_cast<std::size_t>(
                obs::Stage::kExecute)],
            10000u);
}

// ---- end-to-end tracing -----------------------------------------------------

TEST(Tracer, EveryExecutedUpdateHasACompleteSpanChain) {
  sim::Simulator sim;
  obs::ScopedRegistry registry_scope([&sim] { return sim.now(); });
  obs::ScopedTracer tracer_scope([&sim] { return sim.now(); });
  obs::Tracer& tracer = tracer_scope.tracer();

  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.cycler_interval = 1 * sim::kSecond;
  scada::SpireDeployment deployment(sim, config);
  deployment.start();
  sim.run_until(30 * sim::kSecond);

  const obs::Tracer::Completeness c = tracer.completeness();
  EXPECT_GT(c.executed, 0u);
  EXPECT_EQ(c.executed_complete, c.executed)
      << "an executed update is missing a pipeline stage or has "
         "out-of-order stage timestamps";
  EXPECT_GT(c.displayed, 0u);
  EXPECT_EQ(c.displayed_complete, c.displayed);

  // The proxies' periodic status reports correlate back to field
  // devices, so device-tagged spans must exist, each a member of its
  // update's span (a lone report is a one-member batch).
  bool saw_device = false;
  for (const obs::Span& span : tracer.spans()) {
    if (span.device != obs::Span::kNoDevice) {
      EXPECT_FALSE(tracer.device_name(span.device).empty());
      EXPECT_NE(span.parent, obs::Span::kNoParent);
      saw_device = true;
    }
  }
  EXPECT_TRUE(saw_device);

  // The summary histograms fed the registry.
  const std::string json =
      obs::MetricsRegistry::current().snapshot_json();
  EXPECT_NE(json.find("trace.submit_to_execute_us"), std::string::npos);

  // Breakdown legs covering the ordered path all carry samples.
  for (const auto& leg : tracer.breakdown()) {
    const std::string name = leg.name;
    if (name == "submit->replica_recv" || name == "preprepare->commit" ||
        name == "commit->execute" || name == "submit->execute (ordered)") {
      EXPECT_FALSE(leg.samples_ms.empty()) << name;
    }
  }
}

TEST(MetricsHotPath, FrontDoorAdmitIsAllocationFreeAndSnapshotDeterministic) {
  auto run_once = [](std::uint64_t* alloc_delta) {
    obs::ScopedRegistry scope;
    scada::FrontDoorConfig config;
    config.rate_per_sec = 1000;
    config.burst = 16;
    config.queue_capacity = 64;
    config.shed_watermark = 32;
    scada::FrontDoor door(config);
    obs::Binder binder("scada.proxy.fd0");
    door.bind(binder);

    const std::uint64_t before = g_alloc_count.load();
    for (std::uint64_t i = 0; i < 50000; ++i) {
      const auto priority = (i % 7 == 0) ? scada::DeltaPriority::kCritical
                                         : scada::DeltaPriority::kTelemetry;
      door.admit(priority, i, i % 70);
    }
    *alloc_delta = g_alloc_count.load() - before;
    EXPECT_GT(door.stats().admitted, 0u);
    EXPECT_GT(door.stats().shed_rate, 0u);
    EXPECT_GT(door.stats().shed_overload, 0u);
    return obs::MetricsRegistry::current().snapshot_json();
  };
  std::uint64_t alloc_a = 0, alloc_b = 0;
  const std::string snap_a = run_once(&alloc_a);
  const std::string snap_b = run_once(&alloc_b);
  EXPECT_EQ(alloc_a, 0u) << "front-door admit path allocated";
  EXPECT_EQ(alloc_b, 0u);
  EXPECT_EQ(snap_a, snap_b) << "front-door counters not deterministic";
  EXPECT_NE(snap_a.find("scada.proxy.fd0.fd_admitted"), std::string::npos);
  EXPECT_NE(snap_a.find("scada.proxy.fd0.fd_queued_high_water"),
            std::string::npos);
}

TEST(MetricsHotPath, SealedOverlayLinksAllocateLikeUnsealedOnes) {
  // The same routed 3-node chain and traffic, with link crypto on and
  // off. Once the daemons' scratch buffers have grown, sealing and
  // opening write into them, so the sealed run allocates exactly as
  // often as the unsealed one.
  struct Run {
    std::uint64_t allocations = 0;
    std::uint64_t delivered = 0;
  };
  auto run = [](bool sealed) {
    sim::Simulator sim;
    net::Network network{sim};
    crypto::Keyring keyring{"alloc-test"};
    net::Switch& sw = network.add_switch(net::SwitchConfig{});
    spines::DaemonConfig config;
    config.intrusion_tolerant = sealed;
    config.mode = spines::ForwardingMode::kRouted;
    config.reliable_data_links = false;
    spines::Overlay overlay(sim, keyring, config);
    for (std::uint8_t i = 0; i < 3; ++i) {
      net::Host& host = network.add_host("h" + std::to_string(i));
      host.add_interface(net::MacAddress::from_id(i + 1u),
                         net::IpAddress::make(10, 0, 0, i + 1), 24);
      network.connect(host, 0, sw);
      overlay.add_node("n" + std::to_string(i), host);
    }
    overlay.add_link("n0", "n1");
    overlay.add_link("n1", "n2");
    overlay.build();
    overlay.start_all();
    sim.run_until(3 * sim::kSecond);

    Run r;
    overlay.daemon("n2").open_session(
        40, [&r](const spines::DataBody&) { ++r.delivered; });
    auto burst = [&] {
      for (int round = 0; round < 50; ++round) {
        for (const std::size_t size : {40, 144, 186, 400}) {
          overlay.daemon("n0").session_send(40, "n2", 40, util::Bytes(size, 0xAB));
        }
        sim.run_until(sim.now() + 10 * sim::kMillisecond);
      }
      sim.run_until(sim.now() + 100 * sim::kMillisecond);
    };
    burst();  // warm-up: scratch buffers reach their high-water mark
    const std::uint64_t before = g_alloc_count.load();
    burst();
    r.allocations = g_alloc_count.load() - before;
    return r;
  };
  const Run unsealed = run(false);
  const Run sealed = run(true);
  EXPECT_EQ(unsealed.delivered, 400u);
  EXPECT_EQ(sealed.delivered, 400u);
  EXPECT_EQ(sealed.allocations, unsealed.allocations)
      << "sealed links allocate per packet beyond the unsealed path";
}

TEST(MetricsHotPath, FloodDuplicateIsDroppedWithoutDecoding) {
  // A data body whose (src, msg_seq) the receiver has already seen is
  // dropped over the frame's own bytes: from the wire to the dedup
  // drop, nothing is allocated (a full DataBody decode would copy the
  // payload).
  sim::Simulator sim;
  net::Network network{sim};
  crypto::Keyring keyring{"alloc-test"};
  net::Switch& sw = network.add_switch(net::SwitchConfig{});
  spines::Overlay overlay(sim, keyring, spines::DaemonConfig{});
  std::vector<net::Host*> hosts;
  for (std::uint8_t i = 0; i < 2; ++i) {
    net::Host& host = network.add_host("h" + std::to_string(i));
    host.add_interface(net::MacAddress::from_id(i + 1u),
                       net::IpAddress::make(10, 0, 0, i + 1), 24);
    network.connect(host, 0, sw);
    overlay.add_node("n" + std::to_string(i), host);
    hosts.push_back(&host);
  }
  overlay.add_link("n0", "n1");
  overlay.build();
  overlay.start_all();
  sim.run_until(3 * sim::kSecond);

  spines::DataBody data;
  data.src = "n0";
  data.dst = "n1";
  data.dst_port = 40;
  data.msg_seq = 4242;
  data.payload = util::Bytes(150, 0xAB);
  const util::Bytes body = data.encode();
  crypto::SecureChannel channel(spines::link_direction_key(
      keyring.link_key("n0", "n1"), "n0"));
  const auto frame = [&](std::uint64_t link_seq) {
    spines::LinkEnvelope env;
    env.sender = "n0";
    env.sealed = true;
    env.body = channel.seal(
        spines::InnerPacket{spines::PacketType::kData, link_seq, body}.encode());
    return net::EthernetFrame{
        hosts[0]->mac(), hosts[1]->mac(), net::EtherType::kIpv4,
        net::Datagram{hosts[0]->ip(), hosts[1]->ip(), spines::kDefaultDaemonPort,
                      spines::kDefaultDaemonPort, 64, env.encode()}
            .encode()};
  };
  const spines::Daemon& receiver = overlay.daemon("n1");
  hosts[1]->handle_frame(0, frame(1'000'000));  // first copy: decoded
  const std::uint64_t drops = receiver.stats().dropped_dedup;
  net::EthernetFrame duplicate = frame(1'000'001);
  const std::uint64_t before = g_alloc_count.load();
  hosts[1]->handle_frame(0, std::move(duplicate));
  const std::uint64_t allocations = g_alloc_count.load() - before;
  EXPECT_EQ(receiver.stats().dropped_dedup, drops + 1);
  EXPECT_EQ(allocations, 0u) << "the duplicate was decoded before it was dropped";
}

TEST(MetricsHotPath, HmiDeltaAdoptionAllocatesAConstantNotPerRecord) {
  // One 256-record delta from all four replicas: the first two verify,
  // vote and adopt it in place, the last two are stale and dropped.
  // What remains is the stored first-vote copy of the state and the
  // vote bookkeeping. The previous receive path (decode copies plus
  // two vectors per applied record) allocated 569 times here.
  obs::ScopedRegistry scope;
  sim::Simulator sim;
  crypto::Keyring keyring{"alloc-test"};
  crypto::Verifier verifier;
  for (std::uint32_t i = 0; i < 4; ++i) {
    verifier.add_identity(prime::replica_identity(i),
                          keyring.identity_key(prime::replica_identity(i)));
  }
  scada::HmiConfig config;
  config.identity = "client/hmi-0";
  config.f = 1;
  scada::Hmi hmi(sim, config, keyring, verifier, [](const util::Bytes&) {});
  std::uint64_t redraws = 0;
  hmi.set_display_observer(
      [&redraws](const std::string&, std::size_t, bool, sim::Time) {
        ++redraws;
      });

  constexpr std::size_t kRecords = 256;
  scada::TopologyState state(scada::ScenarioSpec::fleet(kRecords, 2));
  auto output = [&](std::uint32_t replica, std::uint64_t version,
                    scada::StateUpdate::Kind kind, util::Bytes bytes) {
    scada::StateUpdate su;
    su.replica = replica;
    su.version = version;
    su.kind = kind;
    su.base_version = version - 1;
    su.state = std::move(bytes);
    su.sign(crypto::Signer(
        prime::replica_identity(replica),
        keyring.identity_key(prime::replica_identity(replica))));
    scada::MasterOutput out;
    out.type = scada::ScadaMsgType::kStateUpdate;
    out.body = su.encode();
    return out.encode();
  };
  const util::Bytes full = state.serialize();
  for (std::uint32_t r = 0; r < 2; ++r) {
    hmi.on_master_output(output(r, 1, scada::StateUpdate::kFull, full));
  }
  ASSERT_EQ(hmi.displayed_version(), 1u);

  for (std::size_t d = 0; d < kRecords; ++d) {
    state.apply_report("fd" + std::to_string(d), 1, {true, d % 2 == 0},
                       {7, 9});
  }
  const util::Bytes delta = state.serialize_changes();
  std::vector<util::Bytes> wires;
  for (std::uint32_t r = 0; r < 4; ++r) {
    wires.push_back(output(r, 2, scada::StateUpdate::kDelta, delta));
  }

  const std::uint64_t before = g_alloc_count.load();
  for (const util::Bytes& wire : wires) hmi.on_master_output(wire);
  const std::uint64_t allocations = g_alloc_count.load() - before;

  EXPECT_EQ(hmi.displayed_version(), 2u);
  EXPECT_EQ(redraws, kRecords + kRecords / 2);
  EXPECT_LE(allocations, 8u) << "HMI receive path allocates per record";
}

TEST(MetricsHotPath, SameSizeApplyReportAllocatesNothing) {
  scada::TopologyState state(scada::ScenarioSpec::fleet(64, 2));
  const std::vector<bool> breakers{true, false};
  const std::vector<std::uint16_t> readings{480, 479};
  const std::string device = "fd17";
  ASSERT_TRUE(state.apply_report(device, 1, breakers, readings));

  const std::uint64_t before = g_alloc_count.load();
  for (std::uint64_t seq = 2; seq < 100; ++seq) {
    state.apply_report(device, seq, breakers, readings);
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "same-size report allocated";
  EXPECT_EQ(state.device(device)->last_report_seq, 99u);
}

TEST(Tracer, BatchedDeltasFanStagesToMemberSpans) {
  obs::ScopedRegistry registry_scope;
  std::uint64_t now = 0;
  static std::uint64_t* now_ptr;
  now_ptr = &now;
  obs::ScopedTracer scope([] { return *now_ptr; });
  obs::Tracer& tracer = scope.tracer();

  const std::string client = "client/proxy-fleet0";
  // Field changes happen first, then the proxy coalesces three device
  // deltas into the batch submitted as (client, seq 1).
  now = 10;
  tracer.plc_change("fd0", 0);
  tracer.plc_change("fd2", 1);
  now = 20;
  tracer.proxy_batch_delta("fd0", client, 1, {false, true});
  tracer.proxy_batch_delta("fd1", client, 1, {true, true});
  tracer.proxy_batch_delta("fd2", client, 1, {true, false});
  tracer.client_submit(client, 1);
  now = 30;
  tracer.replica_recv(client, 1);
  tracer.po_request(client, 1);
  now = 40;
  tracer.executed(client, 1, 32, 36);
  tracer.master_publish(7, client, 1);
  now = 50;
  tracer.hmi_recv(7);
  tracer.hmi_display(7);

  // One parent + three members.
  ASSERT_EQ(tracer.spans().size(), 4u);
  const auto& spans = tracer.spans();
  EXPECT_EQ(spans[0].member_count, 3u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(spans[i].parent, 0u);
    // Every pipeline stage fanned out to the member.
    EXPECT_NE(spans[i].at[static_cast<std::size_t>(obs::Stage::kExecute)], 0u);
    EXPECT_NE(spans[i].at[static_cast<std::size_t>(obs::Stage::kHmiDisplay)],
              0u);
  }
  // Members with a pending field change carry its timestamp.
  EXPECT_EQ(spans[1].at[static_cast<std::size_t>(obs::Stage::kPlcChange)], 10u);
  EXPECT_EQ(spans[2].at[static_cast<std::size_t>(obs::Stage::kPlcChange)], 0u);
  EXPECT_EQ(spans[3].at[static_cast<std::size_t>(obs::Stage::kPlcChange)], 10u);

  const obs::Tracer::Completeness c = tracer.completeness();
  // Members never double-count the update-level tallies.
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.executed_complete, 1u);
  EXPECT_EQ(c.displayed, 1u);
  EXPECT_EQ(c.displayed_complete, 1u);
  // Per-constituent chain accounting: all three deltas completed.
  EXPECT_EQ(c.deltas_expected, 3u);
  EXPECT_EQ(c.deltas_complete, 3u);
}

TEST(Tracer, DisplayCompletenessChecksEachFieldChangeMember) {
  obs::ScopedRegistry registry_scope;
  std::uint64_t now = 0;
  static std::uint64_t* now_ptr;
  now_ptr = &now;
  obs::ScopedTracer scope([] { return *now_ptr; });
  obs::Tracer& tracer = scope.tracer();

  const std::string client = "client/proxy-fleet0";
  // fd1 reports no change; fd0's field change is stamped after the
  // update's submit, so its PLC->HMI chain is out of order while the
  // update's own chain from submit is intact.
  now = 10;
  tracer.proxy_batch_delta("fd1", client, 1, {true, true});
  now = 25;
  tracer.plc_change("fd0", 0);
  tracer.proxy_batch_delta("fd0", client, 1, {false, true});
  now = 20;
  tracer.client_submit(client, 1);
  now = 30;
  tracer.replica_recv(client, 1);
  tracer.po_request(client, 1);
  now = 40;
  tracer.executed(client, 1, 32, 36);
  tracer.master_publish(7, client, 1);
  now = 50;
  tracer.hmi_recv(7);
  tracer.hmi_display(7);

  const obs::Tracer::Completeness c = tracer.completeness();
  EXPECT_EQ(c.executed_complete, 1u);
  EXPECT_EQ(c.deltas_complete, 2u);  // the ordered chain starts at submit
  EXPECT_EQ(c.displayed, 1u);
  EXPECT_EQ(c.displayed_complete, 0u) << "fd0's PLC leg was not checked";
}

// The latency breakdown weighs every ordered update once: a 250-member
// batch gives one sample per leg of the ordered path, however many
// members inherit those stages, while each member with a field change
// gives its own PLC legs.
TEST(Tracer, BreakdownSamplesABatchOncePerOrderedLeg) {
  obs::ScopedRegistry registry_scope;
  std::uint64_t now = 0;
  static std::uint64_t* now_ptr;
  now_ptr = &now;
  obs::ScopedTracer scope([] { return *now_ptr; });
  obs::Tracer& tracer = scope.tracer();

  const std::string client = "client/proxy-fleet0";
  constexpr std::size_t kMembers = 250;
  constexpr std::size_t kFieldChanges = 100;  // every other of the first 200
  now = 10;
  for (std::size_t i = 0; i < 2 * kFieldChanges; i += 2) {
    tracer.plc_change("fd" + std::to_string(i), 0);
  }
  now = 20;
  for (std::size_t i = 0; i < kMembers; ++i) {
    tracer.proxy_batch_delta("fd" + std::to_string(i), client, 1, {true});
  }
  tracer.client_submit(client, 1);
  now = 30;
  tracer.replica_recv(client, 1);
  tracer.po_request(client, 1);
  now = 40;
  tracer.executed(client, 1, 32, 36);
  tracer.master_publish(7, client, 1);
  now = 50;
  tracer.hmi_recv(7);
  tracer.hmi_display(7);
  ASSERT_EQ(tracer.spans().size(), kMembers + 1);

  for (const auto& leg : tracer.breakdown()) {
    const std::size_t expected =
        leg.from == obs::Stage::kPlcChange ? kFieldChanges : 1;
    EXPECT_EQ(leg.samples_ms.size(), expected) << leg.name;
  }
}

TEST(Tracer, WriteJsonlEmitsOneObjectPerSpan) {
  obs::ScopedRegistry registry_scope;
  obs::ScopedTracer scope([] { return std::uint64_t{9}; });
  obs::Tracer& tracer = scope.tracer();
  tracer.client_submit("client/a", 1);
  tracer.client_submit("client/a", 2);
  tracer.client_submit("client/b", 1);

  const std::string path = ::testing::TempDir() + "obs_trace_test.jsonl";
  ASSERT_TRUE(tracer.write_jsonl(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  int lines = 0;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) {
    if (ch == '\n') ++lines;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, 3);
}

}  // namespace
