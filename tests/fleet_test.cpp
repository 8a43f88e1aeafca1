// Fleet field-layer tests: the proxy front door (token bucket,
// priority shedding, bounded queue), the delta batcher, sharded
// topology deltas, batched master application, delta publication with
// HMI adoption and resync, and the emulated device fleet.
#include <gtest/gtest.h>

#include "plc/fleet.hpp"
#include "scada/fleet_proxy.hpp"
#include "scada/front_door.hpp"
#include "scada/hmi.hpp"
#include "scada/master.hpp"
#include "sim/rng.hpp"
#include "util/hex.hpp"

namespace spire::scada {
namespace {

crypto::Verifier replica_verifier(const crypto::Keyring& kr, std::uint32_t n) {
  crypto::Verifier v;
  for (std::uint32_t i = 0; i < n; ++i) {
    v.add_identity(prime::replica_identity(i),
                   kr.identity_key(prime::replica_identity(i)));
  }
  return v;
}

// --- token bucket ----------------------------------------------------

TEST(TokenBucket, BurstThenExactRefillAtEpochBoundary) {
  TokenBucket bucket(/*rate_per_sec=*/10, /*burst=*/3);
  // The bucket starts full: the whole burst is available at t=0.
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));
  // At 10/s one token accrues every 100ms. 99,999us is one microsecond
  // short of the boundary; 100,000us is exactly one token.
  EXPECT_FALSE(bucket.try_take(99'999));
  EXPECT_TRUE(bucket.try_take(100'000));
  EXPECT_FALSE(bucket.try_take(100'000));
}

TEST(TokenBucket, LongIdleRefillCapsAtBurst) {
  TokenBucket bucket(/*rate_per_sec=*/1000, /*burst=*/4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));
  // An hour idle accrues 3.6M tokens' worth of time but the bucket
  // holds only the burst.
  const sim::Time later = 3600 * sim::kSecond;
  EXPECT_EQ(bucket.available(later), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_take(later));
  EXPECT_FALSE(bucket.try_take(later));
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(0, 0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_take(0));
}

// --- front door ------------------------------------------------------

TEST(FrontDoor, TelemetryShedsBeforeCriticalUnderRateLimit) {
  FrontDoorConfig config;
  config.rate_per_sec = 10;
  config.burst = 2;
  FrontDoor door(config);

  // Telemetry drains the bucket, then sheds.
  EXPECT_TRUE(door.admit(DeltaPriority::kTelemetry, 0, 0));
  EXPECT_TRUE(door.admit(DeltaPriority::kTelemetry, 0, 0));
  EXPECT_FALSE(door.admit(DeltaPriority::kTelemetry, 0, 0));
  // Critical traffic ignores the bucket entirely.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(door.admit(DeltaPriority::kCritical, 0, 0));
  }
  EXPECT_EQ(door.stats().shed_rate, 1u);
  EXPECT_EQ(door.stats().admitted_critical, 50u);
  EXPECT_EQ(door.stats().shed_critical, 0u);
}

TEST(FrontDoor, QueueWatermarkShedsTelemetryAndHardCapShedsCritical) {
  FrontDoorConfig config;
  config.queue_capacity = 8;
  config.shed_watermark = 4;
  FrontDoor door(config);

  // Below the watermark both classes pass.
  EXPECT_TRUE(door.admit(DeltaPriority::kTelemetry, 0, 3));
  // At the watermark telemetry sheds but critical still passes.
  EXPECT_FALSE(door.admit(DeltaPriority::kTelemetry, 0, 4));
  EXPECT_TRUE(door.admit(DeltaPriority::kCritical, 0, 4));
  EXPECT_TRUE(door.admit(DeltaPriority::kCritical, 0, 7));
  // Only the hard cap sheds critical.
  EXPECT_FALSE(door.admit(DeltaPriority::kCritical, 0, 8));
  EXPECT_EQ(door.stats().shed_overload, 1u);
  EXPECT_EQ(door.stats().shed_critical, 1u);
  EXPECT_EQ(door.stats().queued_high_water, 8u);
}

// --- delta batcher ---------------------------------------------------

StatusReport make_report(const std::string& device, std::uint64_t seq) {
  StatusReport r;
  r.device = device;
  r.report_seq = seq;
  r.breakers = {true, false};
  r.readings = {480, 479};
  return r;
}

TEST(DeltaBatcher, WindowCoalescesAndFlushesOnce) {
  sim::Simulator sim;
  std::vector<std::size_t> flushes;
  BatcherConfig config;
  config.window = 10 * sim::kMillisecond;
  DeltaBatcher batcher(sim, config,
                       [&](std::vector<StatusReport>&& batch) {
                         flushes.push_back(batch.size());
                       });
  batcher.enqueue(make_report("fd0", 1));
  batcher.enqueue(make_report("fd1", 1));
  batcher.enqueue(make_report("fd2", 1));
  EXPECT_TRUE(flushes.empty());
  sim.run_until(sim::Time{20} * sim::kMillisecond);
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0], 3u);
  // The timer does not re-fire on an empty batcher.
  sim.run_until(sim::Time{100} * sim::kMillisecond);
  EXPECT_EQ(flushes.size(), 1u);
}

TEST(DeltaBatcher, CountBudgetFlushesEarlyAndCancelsTimer) {
  sim::Simulator sim;
  std::vector<std::size_t> flushes;
  BatcherConfig config;
  config.window = 50 * sim::kMillisecond;
  config.max_batch = 2;
  DeltaBatcher batcher(sim, config,
                       [&](std::vector<StatusReport>&& batch) {
                         flushes.push_back(batch.size());
                       });
  batcher.enqueue(make_report("fd0", 1));
  batcher.enqueue(make_report("fd1", 1));  // hits max_batch
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0], 2u);
  // The armed window timer was invalidated by the early flush: running
  // past the window must not produce a second (empty) flush.
  sim.run_until(sim::Time{200} * sim::kMillisecond);
  EXPECT_EQ(flushes.size(), 1u);
}

TEST(DeltaBatcher, ByteBudgetFlushesEarly) {
  sim::Simulator sim;
  std::vector<std::size_t> flushes;
  BatcherConfig config;
  config.window = 50 * sim::kMillisecond;
  config.max_bytes = 40;  // roughly one and a half reports
  DeltaBatcher batcher(sim, config,
                       [&](std::vector<StatusReport>&& batch) {
                         flushes.push_back(batch.size());
                       });
  batcher.enqueue(make_report("fd0", 1));
  batcher.enqueue(make_report("fd1", 1));
  EXPECT_GE(flushes.size(), 1u);
}

TEST(DeltaBatcher, StopFlushesPendingSoNothingIsDropped) {
  sim::Simulator sim;
  std::size_t delivered = 0;
  BatcherConfig config;
  config.window = 10 * sim::kSecond;  // would never fire in this test
  DeltaBatcher batcher(sim, config,
                       [&](std::vector<StatusReport>&& batch) {
                         delivered += batch.size();
                       });
  batcher.enqueue(make_report("fd0", 1));
  batcher.enqueue(make_report("fd1", 1));
  EXPECT_EQ(delivered, 0u);
  batcher.stop();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(batcher.pending(), 0u);
}

// --- wire ------------------------------------------------------------

TEST(Wire, BatchReportRoundTrip) {
  BatchReport batch;
  batch.reports.push_back(make_report("fd0", 7));
  batch.reports.push_back(make_report("fd12", 3));
  const auto decoded = BatchReport::decode(batch.encode());
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->reports.size(), 2u);
  EXPECT_EQ(decoded->reports[0].device, "fd0");
  EXPECT_EQ(decoded->reports[1].device, "fd12");
  EXPECT_EQ(decoded->reports[1].report_seq, 3u);
  EXPECT_FALSE(BatchReport::decode(util::to_bytes("junk")).has_value());
}

TEST(Wire, StateUpdateSignatureBindsKindAndBase) {
  crypto::Keyring kr("fleet-test");
  crypto::Signer signer(prime::replica_identity(0),
                        kr.identity_key(prime::replica_identity(0)));
  const auto verifier = replica_verifier(kr, 4);
  StateUpdate su;
  su.replica = 0;
  su.version = 9;
  su.kind = StateUpdate::kDelta;
  su.base_version = 7;
  su.state = util::to_bytes("payload");
  su.sign(signer);
  MasterOutput out;
  out.type = ScadaMsgType::kStateUpdate;
  out.body = su.encode();
  const util::Bytes wire = out.encode();

  // The HMI's receive path: parse in place, verify against the digest
  // of the state bytes.
  auto view = StateUpdateView::parse_output(wire);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->kind, StateUpdate::kDelta);
  EXPECT_EQ(view->base_version, 7u);
  const crypto::Digest digest = crypto::sha256(view->state);
  const std::string identity = prime::replica_identity(0);
  EXPECT_TRUE(view->verify(verifier, identity, digest));
  EXPECT_FALSE(view->verify(verifier, prime::replica_identity(1), digest));
  EXPECT_FALSE(view->verify(verifier, identity,
                            crypto::sha256(util::to_bytes("other"))));
  view->base_version = 6;  // tamper
  EXPECT_FALSE(view->verify(verifier, identity, digest));
  view->base_version = 7;
  view->kind = StateUpdate::kFull;  // tamper
  EXPECT_FALSE(view->verify(verifier, identity, digest));
}

// --- sharded topology deltas ----------------------------------------

TEST(TopologyDelta, ChangedMasksTrackReportsAndDeltaRoundTrips) {
  TopologyState state(ScenarioSpec::fleet(200, 2));
  EXPECT_FALSE(state.has_changes());
  EXPECT_EQ(state.shard_count(), (200u + 63u) / 64u);

  state.apply_report("fd0", 1, {false, true}, {100, 200});
  state.apply_report("fd130", 1, {true, true}, {7, 8});
  EXPECT_EQ(state.changed_count(), 2u);

  // Apply the delta onto a fresh image of the same scenario.
  TopologyState mirror(ScenarioSpec::fleet(200, 2));
  std::vector<std::tuple<std::uint32_t, std::size_t, bool>> changes;
  mirror.apply_delta(state.serialize_changes(),
                     [&](std::uint32_t handle, std::size_t breaker,
                         bool closed) {
                       changes.emplace_back(handle, breaker, closed);
                     });
  EXPECT_EQ(mirror.breaker("fd0", 0), false);
  EXPECT_EQ(mirror.breaker("fd0", 1), true);
  EXPECT_EQ(mirror.device("fd130")->readings,
            (std::vector<std::uint16_t>{7, 8}));

  state.clear_changes();
  EXPECT_FALSE(state.has_changes());
}

TEST(TopologyDelta, UnknownHandleInDeltaThrows) {
  TopologyState big(ScenarioSpec::fleet(100, 1));
  big.apply_report("fd99", 1, {false}, {});
  const auto delta = big.serialize_changes();
  TopologyState small(ScenarioSpec::fleet(10, 1));
  EXPECT_THROW(small.apply_delta(delta, {}), util::SerializationError);
}

TEST(TopologyDelta, TruncatedFinalRecordThrowsAndLeavesItsDeviceUntouched) {
  TopologyState source(ScenarioSpec::fleet(100, 2));
  source.apply_report("fd1", 1, {true, false}, {11, 12});
  source.apply_report("fd70", 1, {true, true}, {13, 14});
  util::Bytes delta = source.serialize_changes();
  delta.resize(delta.size() - 3);  // cut into fd70's readings

  TopologyState mirror(ScenarioSpec::fleet(100, 2));
  const DeviceState before = *mirror.device("fd70");
  std::vector<std::uint32_t> fired;
  EXPECT_THROW(mirror.apply_delta(delta,
                                  [&](std::uint32_t handle, std::size_t, bool) {
                                    fired.push_back(handle);
                                  }),
               util::SerializationError);
  // The earlier record applied and fired; the malformed one did neither.
  EXPECT_EQ(mirror.breaker("fd1", 0), true);
  EXPECT_EQ(mirror.device("fd1")->readings,
            (std::vector<std::uint16_t>{11, 12}));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1}));
  const DeviceState after = *mirror.device("fd70");
  EXPECT_EQ(after.breakers, before.breakers);
  EXPECT_EQ(after.readings, before.readings);
  EXPECT_EQ(after.last_report_seq, before.last_report_seq);
  EXPECT_EQ(after.online, before.online);
  EXPECT_EQ(mirror.changed_masks()[0], std::uint64_t{1} << 1);
  EXPECT_EQ(mirror.changed_masks()[1], 0u);
}

TEST(TopologyDelta, InPlaceApplyMatchesFullRoundTripOverRandomRounds) {
  // Seeded property: deltas applied in place on a mirror reproduce the
  // source image record for record, through breaker and reading counts
  // that grow and shrink.
  constexpr std::size_t kDevices = 150;
  TopologyState source(ScenarioSpec::fleet(kDevices, 2));
  TopologyState mirror(ScenarioSpec::fleet(kDevices, 2));
  sim::Rng rng(2019);
  std::vector<std::uint64_t> seq(kDevices, 0);
  for (int round = 0; round < 200; ++round) {
    const std::size_t reports = rng.uniform(1, 12);
    for (std::size_t k = 0; k < reports; ++k) {
      const std::size_t d = rng.uniform(0, kDevices - 1);
      std::vector<bool> breakers(rng.uniform(0, 4));
      for (std::size_t b = 0; b < breakers.size(); ++b) {
        breakers[b] = rng.chance(0.5);
      }
      std::vector<std::uint16_t> readings(rng.uniform(0, 4));
      for (auto& v : readings) v = static_cast<std::uint16_t>(rng.next());
      seq[d] += rng.uniform(1, 3);
      source.apply_report("fd" + std::to_string(d), seq[d], breakers,
                          readings);
    }
    mirror.apply_delta(source.serialize_changes());
    source.clear_changes();
    mirror.clear_changes();

    const TopologyState expected =
        TopologyState::deserialize(source.serialize());
    ASSERT_EQ(mirror.device_count(), expected.device_count());
    for (std::uint32_t h = 0; h < expected.device_count(); ++h) {
      const DeviceState want = *expected.device_by_handle(h);
      const DeviceState got = *mirror.device_by_handle(h);
      ASSERT_EQ(got.breakers, want.breakers) << "round " << round;
      ASSERT_EQ(got.readings, want.readings) << "round " << round;
      ASSERT_EQ(got.last_report_seq, want.last_report_seq);
      ASSERT_EQ(got.online, want.online);
    }
    ASSERT_EQ(mirror.serialize(), source.serialize());
  }
}

// --- record store: golden bytes and relocation ------------------------

/// SHA-256 hex digests of one seeded run: the final serialize(), every
/// round's serialize_changes() chained, and a master's snapshot() after
/// the same reports arrive as ordered batches.
struct GoldenDigests {
  std::string serialized;
  std::string changes;
  std::string snapshot;
};

GoldenDigests run_golden(const ScenarioSpec& spec, std::uint64_t seed) {
  crypto::Keyring keyring("golden");
  MasterConfig config;
  config.scenario = spec;
  config.hmis = {"client/hmi-0"};
  ScadaMaster master(config, keyring,
                     [](const std::string&, const util::Bytes&) {});
  TopologyState state(spec);
  sim::Rng rng(seed);
  std::vector<std::uint64_t> seq(spec.devices.size(), 0);
  crypto::Sha256 changes;
  for (std::uint64_t round = 1; round <= 60; ++round) {
    BatchReport batch;
    const std::size_t reports = rng.uniform(1, 16);
    for (std::size_t k = 0; k < reports; ++k) {
      const std::size_t d = rng.uniform(0, spec.devices.size() - 1);
      const std::size_t nb = spec.devices[d].breaker_names.size();
      StatusReport report;
      report.device = spec.devices[d].name;
      // Mostly the registered shape; sometimes grown or shrunk.
      report.breakers.resize(rng.chance(0.8) ? nb : rng.uniform(0, nb + 2));
      for (std::size_t b = 0; b < report.breakers.size(); ++b) {
        report.breakers[b] = rng.chance(0.5);
      }
      report.readings.resize(rng.chance(0.8) ? nb : rng.uniform(0, nb + 2));
      for (auto& v : report.readings) v = static_cast<std::uint16_t>(rng.next());
      seq[d] += rng.uniform(0, 2);  // a repeated sequence is ignored
      report.report_seq = seq[d];
      state.apply_report(report.device, report.report_seq, report.breakers,
                         report.readings);
      batch.reports.push_back(std::move(report));
    }
    changes.update(state.serialize_changes());
    if (round % 3 == 0) state.clear_changes();

    ClientPayload payload;
    payload.type = ScadaMsgType::kBatchReport;
    payload.body = batch.encode();
    prime::ClientUpdate update;
    update.client = "client/proxy-0";
    update.client_seq = round;
    update.payload = payload.encode();
    master.apply(update, prime::ExecutionInfo{});
  }
  return {util::to_hex(crypto::sha256(state.serialize())),
          util::to_hex(changes.finish()),
          util::to_hex(crypto::sha256(master.snapshot()))};
}

TEST(TopologyRecordStore, SerializationsMatchGoldenDigests) {
  // Captured from the DeviceState-vector implementation: the record
  // store must reproduce its bytes exactly.
  const GoldenDigests fleet = run_golden(ScenarioSpec::fleet(300, 2), 2019);
  EXPECT_EQ(fleet.serialized,
            "a560550e4700729bd92a7dc7752ce09eea06c87658c9b71dca1b7b2a8077e1e7");
  EXPECT_EQ(fleet.changes,
            "3ddd9d7d537eedeea6957a6209a4d327685cc1433f885c7e1722b4510ecb1cb6");
  EXPECT_EQ(fleet.snapshot,
            "3cb0d718fdb0b31176b3cd242664b00450d82ede681c59575dfd228801121b88");

  const GoldenDigests plant = run_golden(ScenarioSpec::power_plant(), 7919);
  EXPECT_EQ(plant.serialized,
            "3b0062325c38815259998af74130f7a6fc7ae3ce344472da6c78160faa82cb4f");
  EXPECT_EQ(plant.changes,
            "d63325c07ac6da3929f00a9176c002bac4d620fe8dd4a7724f098b2c7141bdd7");
  EXPECT_EQ(plant.snapshot,
            "fc9c487388f7585ddb9f34fa46081a9391495607aab2f8362a729e693dd117e9");
}

TEST(TopologyRecordStore, RecordThatGrowsAndShrinksStaysConsistent) {
  TopologyState state(ScenarioSpec::fleet(100, 2));
  TopologyState mirror(ScenarioSpec::fleet(100, 2));
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    // fd42 swings between 1 and 9 breakers and 0 and 17 readings.
    std::vector<bool> breakers(1 + seq % 9);
    for (std::size_t b = 0; b < breakers.size(); ++b) {
      breakers[b] = (seq + b) % 3 == 0;
    }
    std::vector<std::uint16_t> readings(seq % 18);
    for (std::size_t i = 0; i < readings.size(); ++i) {
      readings[i] = static_cast<std::uint16_t>(seq * 31 + i);
    }
    state.apply_report("fd42", seq, breakers, readings);
    // A neighbour keeps its size, so it is rewritten in place.
    state.apply_report("fd43", seq, {seq % 2 == 0, true}, {1, 2});
    mirror.apply_delta(state.serialize_changes());
    state.clear_changes();

    const auto d = state.device("fd42");
    ASSERT_TRUE(d);
    ASSERT_EQ(d->breakers, breakers) << "seq " << seq;
    ASSERT_EQ(d->readings, readings) << "seq " << seq;
    ASSERT_EQ(d->last_report_seq, seq);
    ASSERT_TRUE(d->online);
    for (std::size_t b = 0; b < breakers.size(); ++b) {
      ASSERT_EQ(state.breaker("fd42", b), breakers[b]);
    }
    ASSERT_FALSE(state.breaker("fd42", breakers.size()).has_value());
    ASSERT_EQ(state.breaker("fd43", 0), seq % 2 == 0);
    ASSERT_EQ(state.device("fd41")->last_report_seq, 0u);
    ASSERT_LE(state.arena_bytes(), 2 * state.live_bytes()) << "seq " << seq;
    ASSERT_LE(mirror.arena_bytes(), 2 * mirror.live_bytes()) << "seq " << seq;
    ASSERT_EQ(mirror.serialize(), state.serialize()) << "seq " << seq;
  }
  const util::Bytes bytes = state.serialize();
  EXPECT_EQ(TopologyState::deserialize(bytes).serialize(), bytes);
  std::size_t names = 0;
  for (std::uint32_t h = 0; h < state.device_count(); ++h) {
    names += 4 + state.name(h).size();
  }
  EXPECT_EQ(4 + names + state.live_bytes(), bytes.size());
}

TEST(TopologyRecordStore, NonzeroBooleanBytesAreStoredAsOne) {
  TopologyState state(ScenarioSpec::fleet(2, 2));
  state.apply_report("fd1", 1, {true, false}, {});
  const util::Bytes canonical = state.serialize();
  const util::Bytes delta = state.serialize_changes();

  // fd1's online flag and first breaker, written as 7 and 2: offsets
  // past the count, fd0's name and 23-byte record, and fd1's name.
  util::Bytes image = canonical;
  image[4 + 7 + 23 + 7 + 8] = 7;
  image[4 + 7 + 23 + 7 + 13] = 2;
  EXPECT_EQ(TopologyState::deserialize(image).serialize(), canonical);

  util::Bytes loud = delta;  // past the count and fd1's handle
  loud[8 + 8] = 7;
  loud[8 + 13] = 2;
  TopologyState mirror(ScenarioSpec::fleet(2, 2));
  mirror.apply_delta(loud);
  EXPECT_EQ(mirror.serialize(), canonical);
}

// Every HMI keeps a whole image, so the directory around the 23-byte
// records must stay small: one copy of each name, 32-bit slots and an
// arena sized to its records. A directory of per-device string nodes
// costs ~150 B per device here.
TEST(TopologyRecordStore, FleetImageHoldsAtMost64BytesPerDevice) {
  constexpr std::size_t kDevices = 10'000;
  const ScenarioSpec spec = ScenarioSpec::fleet(kDevices, 2);
  TopologyState built(spec);
  built.apply_report("fd9999", 1, {true, false}, {3, 4});
  const util::Bytes bytes = built.serialize();
  const TopologyState decoded = TopologyState::deserialize(bytes);
  EXPECT_EQ(decoded.serialize(), bytes);

  // Every store is allocated once at its exact size: the 23-B records
  // (not the snapshot, names included), 8-B slots, the names, 4-B end
  // offsets, a 16,384-slot handle table and one mask per 64 devices.
  std::size_t chars = 0;
  for (const auto& d : spec.devices) chars += d.name.size();
  const std::size_t exact = kDevices * (23 + 8 + 4) + chars + 16'384 * 4 +
                            (kDevices + 63) / 64 * 8;
  const TopologyState* const images[] = {&built, &decoded};
  for (const TopologyState* image : images) {
    ASSERT_EQ(image->device_count(), kDevices);
    EXPECT_EQ(image->live_bytes(), 23 * kDevices);
    EXPECT_EQ(image->memory_bytes(), exact);
    EXPECT_LE(image->memory_bytes(), 64 * kDevices);
  }
  EXPECT_EQ(decoded.handle("fd0"), 0u);
  EXPECT_EQ(decoded.handle("fd9999"), kDevices - 1);
  EXPECT_EQ(decoded.handle("fd10000"), TopologyState::kNoDevice);
  EXPECT_EQ(decoded.name(4321), "fd4321");
}

// --- master: batched application and delta publication ---------------

struct FleetMasterFixture : ::testing::Test {
  crypto::Keyring keyring{"fleet-test"};
  std::vector<std::pair<std::string, util::Bytes>> outputs;  // (client, data)
  std::unique_ptr<ScadaMaster> master;

  void SetUp() override { master = make_master(0); }

  std::unique_ptr<ScadaMaster> make_master(std::uint32_t replica) {
    MasterConfig config;
    config.replica_id = replica;
    config.scenario = ScenarioSpec::fleet(100, 2);
    config.hmis = {"client/hmi-0"};
    return std::make_unique<ScadaMaster>(
        config, keyring,
        [this](const std::string& client, const util::Bytes& b) {
          outputs.emplace_back(client, b);
        });
  }

  prime::ClientUpdate make_batch(std::uint64_t seq,
                                 std::vector<StatusReport> reports) {
    BatchReport batch;
    batch.reports = std::move(reports);
    ClientPayload payload;
    payload.type = ScadaMsgType::kBatchReport;
    payload.body = batch.encode();
    prime::ClientUpdate update;
    update.client = "client/proxy-fleet0";
    update.client_seq = seq;
    update.payload = payload.encode();
    return update;
  }

  std::optional<StateUpdate> last_state_update() {
    if (outputs.empty()) return std::nullopt;
    const auto out = MasterOutput::decode(outputs.back().second);
    if (!out || out->type != ScadaMsgType::kStateUpdate) return std::nullopt;
    return StateUpdate::decode(out->body);
  }
};

TEST_F(FleetMasterFixture, BatchCountsConstituentsAndPublishesDeltas) {
  StatusReport a = make_report("fd1", 1);
  a.breakers = {false, true};
  StatusReport b = make_report("fd70", 1);
  b.breakers = {true, false};
  master->apply(make_batch(1, {a, b}), prime::ExecutionInfo{});

  EXPECT_EQ(master->version(), 1u);  // one ordered update
  EXPECT_EQ(master->batches_applied(), 1u);
  EXPECT_EQ(master->reports_applied(), 2u);  // per constituent delta
  EXPECT_EQ(master->fulls_published(), 1u);  // first push is a snapshot
  auto first = last_state_update();
  ASSERT_TRUE(first);
  EXPECT_EQ(first->kind, StateUpdate::kFull);

  StatusReport c = make_report("fd1", 2);
  c.breakers = {true, true};
  master->apply(make_batch(2, {c}), prime::ExecutionInfo{});
  EXPECT_EQ(master->deltas_published(), 1u);
  auto second = last_state_update();
  ASSERT_TRUE(second);
  EXPECT_EQ(second->kind, StateUpdate::kDelta);
  EXPECT_EQ(second->base_version, 1u);
  EXPECT_EQ(second->version, 2u);

  // The delta covers exactly the one device that changed.
  util::ByteReader r(second->state);
  EXPECT_EQ(r.u32(), 1u);
}

TEST_F(FleetMasterFixture, ResyncServesRequesterWithoutDisturbingTheStream) {
  StatusReport a = make_report("fd1", 1);
  a.breakers = {false, true};
  master->apply(make_batch(1, {a}), prime::ExecutionInfo{});  // full v1

  ClientPayload resync;
  resync.type = ScadaMsgType::kResyncRequest;
  resync.body = ResyncRequest{0}.encode();
  prime::ClientUpdate update;
  update.client = "client/hmi-7";
  update.client_seq = 1;
  update.payload = resync.encode();
  master->apply(update, prime::ExecutionInfo{});

  EXPECT_EQ(master->resyncs_served(), 1u);
  EXPECT_EQ(master->version(), 1u);  // read-only: no version bump
  ASSERT_EQ(outputs.back().first, "client/hmi-7");
  auto reply = last_state_update();
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->kind, StateUpdate::kFull);
  EXPECT_EQ(reply->version, 1u);

  // The next publication is still a delta based on v1: the resync did
  // not reset the delta window.
  StatusReport b = make_report("fd1", 2);
  b.breakers = {true, true};
  master->apply(make_batch(2, {b}), prime::ExecutionInfo{});
  auto next = last_state_update();
  ASSERT_TRUE(next);
  EXPECT_EQ(next->kind, StateUpdate::kDelta);
  EXPECT_EQ(next->base_version, 1u);
}

TEST_F(FleetMasterFixture, RestoredReplicaResumesIdenticalDeltaStream) {
  StatusReport a = make_report("fd3", 1);
  a.breakers = {false, true};
  master->apply(make_batch(1, {a}), prime::ExecutionInfo{});
  StatusReport b = make_report("fd64", 1);
  b.breakers = {false, false};
  master->apply(make_batch(2, {b}), prime::ExecutionInfo{});
  const auto snapshot = master->snapshot();

  // A replica recovered from the snapshot and the original must
  // publish byte-identical deltas for the same next ordered update.
  auto recovered = make_master(0);
  recovered->restore(snapshot);

  StatusReport c = make_report("fd3", 2);
  c.breakers = {true, true};
  outputs.clear();
  master->apply(make_batch(3, {c}), prime::ExecutionInfo{});
  ASSERT_EQ(outputs.size(), 1u);
  const util::Bytes from_original = outputs[0].second;
  outputs.clear();
  recovered->apply(make_batch(3, {c}), prime::ExecutionInfo{});
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].second, from_original);
  EXPECT_EQ(recovered->deltas_published(), 1u);  // a delta, not a full
}

// --- HMI: delta adoption and resync ----------------------------------

struct FleetHmiFixture : ::testing::Test {
  sim::Simulator sim;
  crypto::Keyring keyring{"fleet-test"};
  std::vector<util::Bytes> submitted;  ///< HMI -> replicas traffic
  std::unique_ptr<Hmi> hmi;

  void SetUp() override {
    HmiConfig config;
    config.identity = "client/hmi-0";
    config.f = 1;
    hmi = std::make_unique<Hmi>(sim, config, keyring,
                                replica_verifier(keyring, 4),
                                [this](const util::Bytes& envelope) {
                                  submitted.push_back(envelope);
                                });
  }

  util::Bytes make_update(std::uint32_t replica, std::uint64_t version,
                          StateUpdate::Kind kind, std::uint64_t base,
                          util::Bytes state) {
    StateUpdate su;
    su.replica = replica;
    su.version = version;
    su.kind = kind;
    su.base_version = base;
    su.state = std::move(state);
    crypto::Signer signer(
        prime::replica_identity(replica),
        keyring.identity_key(prime::replica_identity(replica)));
    su.sign(signer);
    MasterOutput out;
    out.type = ScadaMsgType::kStateUpdate;
    out.body = su.encode();
    return out.encode();
  }
};

TEST_F(FleetHmiFixture, AdoptsDeltasOnTopOfFullAndFiresObservers) {
  std::vector<std::pair<std::string, bool>> observed;
  hmi->set_display_observer(
      [&](const std::string& device, std::size_t, bool closed, sim::Time) {
        observed.emplace_back(device, closed);
      });

  TopologyState state(ScenarioSpec::fleet(100, 2));
  state.apply_report("fd2", 1, {false, true}, {1, 2});
  const auto full = state.serialize();
  hmi->on_master_output(make_update(0, 1, StateUpdate::kFull, 0, full));
  hmi->on_master_output(make_update(1, 1, StateUpdate::kFull, 0, full));
  EXPECT_EQ(hmi->displayed_version(), 1u);

  state.clear_changes();
  state.apply_report("fd2", 2, {true, true}, {3, 4});
  const auto delta = state.serialize_changes();
  hmi->on_master_output(make_update(0, 2, StateUpdate::kDelta, 1, delta));
  EXPECT_EQ(hmi->displayed_version(), 1u);  // one replica is not enough
  hmi->on_master_output(make_update(1, 2, StateUpdate::kDelta, 1, delta));
  EXPECT_EQ(hmi->displayed_version(), 2u);
  EXPECT_EQ(hmi->stats().deltas_applied, 1u);
  EXPECT_EQ(hmi->display().breaker("fd2", 0), true);
  // The delta's breaker change fired an observer (screen redraw).
  ASSERT_FALSE(observed.empty());
  EXPECT_EQ(observed.back(), (std::pair<std::string, bool>{"fd2", true}));
  EXPECT_EQ(hmi->stats().resyncs_requested, 0u);
}

TEST_F(FleetHmiFixture, MissedBaseTriggersRateLimitedResyncThenRecovers) {
  TopologyState state(ScenarioSpec::fleet(100, 2));
  state.apply_report("fd5", 1, {false, true}, {1, 2});
  state.clear_changes();
  state.apply_report("fd5", 2, {true, false}, {3, 4});
  const auto delta = state.serialize_changes();

  // The HMI never saw the v1 full snapshot: a delta based on v1 is a
  // gap, and f+1 agreement on it must trigger exactly one resync
  // request (the next gap vote lands inside the rate-limit window).
  hmi->on_master_output(make_update(0, 2, StateUpdate::kDelta, 1, delta));
  hmi->on_master_output(make_update(1, 2, StateUpdate::kDelta, 1, delta));
  EXPECT_EQ(hmi->displayed_version(), 0u);
  EXPECT_EQ(hmi->stats().resyncs_requested, 1u);
  hmi->on_master_output(make_update(2, 2, StateUpdate::kDelta, 1, delta));
  EXPECT_EQ(hmi->stats().resyncs_requested, 1u);
  EXPECT_EQ(submitted.size(), 1u);

  // The resync answer (a full snapshot at v3) unblocks the display;
  // pending deltas at v2 are pruned.
  TopologyState newer(ScenarioSpec::fleet(100, 2));
  newer.apply_report("fd5", 3, {true, true}, {5, 6});
  const auto full = newer.serialize();
  hmi->on_master_output(make_update(0, 3, StateUpdate::kFull, 0, full));
  hmi->on_master_output(make_update(1, 3, StateUpdate::kFull, 0, full));
  EXPECT_EQ(hmi->displayed_version(), 3u);
  EXPECT_EQ(hmi->display().breaker("fd5", 1), true);
}

TEST_F(FleetHmiFixture, BufferedDeltaAppliesOnceBaseArrives) {
  TopologyState state(ScenarioSpec::fleet(100, 2));
  state.apply_report("fd9", 1, {false, true}, {1, 2});
  const auto full_v1 = state.serialize();
  state.clear_changes();
  state.apply_report("fd9", 2, {false, false}, {3, 4});
  const auto delta_v2 = state.serialize_changes();

  // Delta v2 reaches f+1 before full v1 (reordered delivery). It stays
  // buffered, then applies as soon as v1 is adopted.
  hmi->on_master_output(make_update(0, 2, StateUpdate::kDelta, 1, delta_v2));
  hmi->on_master_output(make_update(1, 2, StateUpdate::kDelta, 1, delta_v2));
  EXPECT_EQ(hmi->displayed_version(), 0u);
  hmi->on_master_output(make_update(0, 1, StateUpdate::kFull, 0, full_v1));
  hmi->on_master_output(make_update(1, 1, StateUpdate::kFull, 0, full_v1));
  EXPECT_EQ(hmi->displayed_version(), 2u);
  EXPECT_EQ(hmi->stats().deltas_applied, 1u);
  EXPECT_EQ(hmi->display().breaker("fd9", 1), false);
}

// --- fleet proxy -----------------------------------------------------

TEST(FleetProxy, BatchesIngestedDeltasIntoOneClientUpdate) {
  sim::Simulator sim;
  crypto::Keyring keyring("fleet-test");
  std::vector<util::Bytes> submitted;
  FleetProxyConfig config;
  config.identity = "client/proxy-fleet0";
  config.batch.window = 10 * sim::kMillisecond;
  FleetProxy proxy(sim, config, keyring, replica_verifier(keyring, 4),
                   [&](const util::Bytes& envelope) {
                     submitted.push_back(envelope);
                   });
  for (int i = 0; i < 5; ++i) {
    proxy.register_device("fd" + std::to_string(i));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(proxy.ingest("fd" + std::to_string(i), {true, true},
                             {480, 479}, DeltaPriority::kTelemetry));
  }
  EXPECT_TRUE(submitted.empty());  // still coalescing
  sim.run_until(sim::Time{20} * sim::kMillisecond);
  EXPECT_EQ(submitted.size(), 1u);
  EXPECT_EQ(proxy.stats().batches_sent, 1u);
  EXPECT_EQ(proxy.stats().reports_sent, 5u);
  // Unregistered devices are rejected before the front door.
  EXPECT_FALSE(proxy.ingest("nope", {true}, {}, DeltaPriority::kCritical));
}

TEST(FleetProxy, RateLimitShedsTelemetryButNeverBreakerTraffic) {
  sim::Simulator sim;
  crypto::Keyring keyring("fleet-test");
  FleetProxyConfig config;
  config.identity = "client/proxy-fleet0";
  config.front_door.rate_per_sec = 10;
  config.front_door.burst = 2;
  config.batch.window = sim::kSecond;  // keep everything queued
  FleetProxy proxy(sim, config, keyring, replica_verifier(keyring, 4),
                   [](const util::Bytes&) {});
  proxy.register_device("fd0");
  int admitted = 0;
  for (int i = 0; i < 6; ++i) {
    if (proxy.ingest("fd0", {true}, {100}, DeltaPriority::kTelemetry)) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 2);  // burst only
  EXPECT_EQ(proxy.front_door_stats().shed_rate, 4u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(proxy.ingest("fd0", {false}, {100}, DeltaPriority::kCritical));
  }
  EXPECT_EQ(proxy.front_door_stats().shed_critical, 0u);
  proxy.stop();  // final flush must carry everything admitted
  EXPECT_EQ(proxy.stats().reports_sent, 8u);
}

// --- emulated fleet --------------------------------------------------

TEST(EmulatedFleet, EmitsDeterministicReportsWithGroundTruth) {
  struct Capture {
    std::uint64_t reports = 0;
    std::uint64_t criticals = 0;
    std::map<std::string, std::vector<bool>> last_breakers;
  };
  auto run_once = [](Capture& capture) {
    sim::Simulator sim;
    plc::FleetConfig config;
    config.devices = 40;
    config.breakers_per_device = 2;
    config.report_interval = 100 * sim::kMillisecond;
    config.slices = 4;
    config.flip_chance = 0.3;
    config.min_flip_gap = 0;
    plc::EmulatedFleet fleet(sim, config,
                             [&](const std::string& device,
                                 std::vector<bool> breakers,
                                 std::vector<std::uint16_t> readings,
                                 bool critical) {
                               (void)readings;
                               ++capture.reports;
                               if (critical) ++capture.criticals;
                               capture.last_breakers[device] =
                                   std::move(breakers);
                             });
    fleet.start();
    sim.run_until(sim::kSecond);
    fleet.stop();
    // Ground truth: the sink's view of each device must match the
    // fleet's own final image, and flip counts must line up.
    EXPECT_EQ(capture.criticals, fleet.total_flips());
    for (std::size_t i = 0; i < fleet.device_count(); ++i) {
      const auto it = capture.last_breakers.find(fleet.device_name(i));
      ASSERT_NE(it, capture.last_breakers.end());
      EXPECT_EQ(it->second, fleet.breakers(i));
    }
  };
  Capture first, second;
  run_once(first);
  run_once(second);
  EXPECT_GT(first.reports, 300u);  // ~40 devices * 10 sweeps
  EXPECT_GT(first.criticals, 0u);
  EXPECT_EQ(first.reports, second.reports);  // deterministic
  EXPECT_EQ(first.criticals, second.criticals);
  EXPECT_EQ(first.last_breakers, second.last_breakers);
}

}  // namespace
}  // namespace spire::scada
