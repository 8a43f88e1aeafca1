// SCADA layer tests: wire codecs, topology state machine, the
// replicated master's output voting contracts (HMI f+1 state voting,
// proxy f+1 command voting), the auto-cycler, and the commercial
// primary-backup baseline.
#include <gtest/gtest.h>

#include "modbus/endpoint.hpp"
#include "net/network.hpp"
#include "plc/plc.hpp"
#include "scada/commercial.hpp"
#include "scada/cycler.hpp"
#include "scada/hmi.hpp"
#include "scada/master.hpp"
#include "scada/fleet_proxy.hpp"

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

TEST(Wire, StatusReportRoundTrip) {
  StatusReport report;
  report.device = "plc-phys";
  report.report_seq = 42;
  report.breakers = {true, false, true};
  report.readings = {4800, 3, 4795};
  const auto decoded = StatusReport::decode(report.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->device, "plc-phys");
  EXPECT_EQ(decoded->breakers, report.breakers);
  EXPECT_EQ(decoded->readings, report.readings);
  EXPECT_FALSE(StatusReport::decode(util::to_bytes("junk")).has_value());
}

TEST(Wire, CommandOrderSigningBindsContent) {
  crypto::Keyring kr("x");
  crypto::Signer signer(prime::replica_identity(1),
                        kr.identity_key(prime::replica_identity(1)));
  const auto verifier = replica_verifier(kr, 4);

  CommandOrder order;
  order.replica = 1;
  order.issuer = "client/hmi-0";
  order.command = SupervisoryCommand{"plc-phys", 3, true, 7};
  order.sign(signer);
  auto decoded = CommandOrder::decode(order.encode());
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->verify(verifier, prime::replica_identity(1)));
  EXPECT_FALSE(decoded->verify(verifier, prime::replica_identity(2)));

  decoded->command.close = false;  // tamper
  EXPECT_FALSE(decoded->verify(verifier, prime::replica_identity(1)));
}

TEST(Topology, ScenariosMatchThePaper) {
  const auto red_team = ScenarioSpec::red_team();
  ASSERT_NE(red_team.device("plc-phys"), nullptr);
  EXPECT_EQ(red_team.device("plc-phys")->breaker_names.size(), 7u);  // Fig. 4
  EXPECT_EQ(red_team.devices.size(), 11u);  // 1 physical + 10 emulated

  const auto plant = ScenarioSpec::power_plant();
  ASSERT_NE(plant.device("plc-plant"), nullptr);
  const auto& names = plant.device("plc-plant")->breaker_names;
  EXPECT_EQ(names, (std::vector<std::string>{"B10-1", "B57", "B56"}));
  EXPECT_EQ(plant.devices.size(), 17u);  // 1 + 10 distribution + 6 generation
}

TEST(Topology, StateAppliesReportsMonotonically) {
  TopologyState state(ScenarioSpec::red_team());
  EXPECT_TRUE(state.apply_report("plc-phys", 2, {1, 0, 0, 0, 0, 0, 0}, {}));
  EXPECT_EQ(state.breaker("plc-phys", 0), true);
  // Stale report (seq 1 < 2) is ignored.
  EXPECT_FALSE(state.apply_report("plc-phys", 1, {0, 0, 0, 0, 0, 0, 0}, {}));
  EXPECT_EQ(state.breaker("plc-phys", 0), true);
  // Unknown device ignored.
  EXPECT_FALSE(state.apply_report("nope", 1, {1}, {}));
  EXPECT_FALSE(state.breaker("nope", 0).has_value());
}

TEST(Topology, SerializationRoundTripsAndDigestsDiffer) {
  TopologyState state(ScenarioSpec::power_plant());
  state.apply_report("plc-plant", 5, {true, false, true}, {480, 0, 479});
  const auto round = TopologyState::deserialize(state.serialize());
  EXPECT_EQ(round.serialize(), state.serialize());
  EXPECT_EQ(round.digest(), state.digest());

  TopologyState other(ScenarioSpec::power_plant());
  EXPECT_NE(other.digest(), state.digest());
}

struct MasterFixture : ::testing::Test {
  crypto::Keyring keyring{"scada-test"};
  std::vector<std::pair<std::string, util::Bytes>> outputs;  // (client, data)
  std::unique_ptr<ScadaMaster> master;

  void SetUp() override {
    MasterConfig config;
    config.replica_id = 0;
    config.scenario = ScenarioSpec::red_team();
    config.device_proxy["plc-phys"] = "client/proxy-plc-phys";
    config.hmis = {"client/hmi-0"};
    master = std::make_unique<ScadaMaster>(
        config, keyring, [this](const std::string& client, const util::Bytes& b) {
          outputs.emplace_back(client, b);
        });
  }

  prime::ClientUpdate make_update(const std::string& client, ScadaMsgType type,
                                  util::Bytes body, std::uint64_t seq) {
    ClientPayload payload;
    payload.type = type;
    payload.body = std::move(body);
    prime::ClientUpdate update;
    update.client = client;
    update.client_seq = seq;
    update.payload = payload.encode();
    return update;
  }

  /// `report` as the proxy submits it: a one-member BatchReport.
  prime::ClientUpdate report_update(StatusReport report, std::uint64_t seq) {
    BatchReport batch;
    batch.reports.push_back(std::move(report));
    return make_update("client/proxy-plc-phys", ScadaMsgType::kBatchReport,
                       batch.encode(), seq);
  }
};

TEST_F(MasterFixture, StatusReportUpdatesStateAndPushesToHmi) {
  StatusReport report;
  report.device = "plc-phys";
  report.report_seq = 1;
  report.breakers = {1, 1, 0, 0, 0, 0, 0};
  report.readings.assign(7, 0);
  master->apply(report_update(report, 1), prime::ExecutionInfo{});

  EXPECT_EQ(master->version(), 1u);
  EXPECT_EQ(master->state().breaker("plc-phys", 1), true);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].first, "client/hmi-0");
  const auto out = MasterOutput::decode(outputs[0].second);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->type, ScadaMsgType::kStateUpdate);
}

TEST_F(MasterFixture, CommandEmitsSignedOrderToOwningProxy) {
  SupervisoryCommand command{"plc-phys", 2, true, 9};
  master->apply(make_update("client/hmi-0", ScadaMsgType::kSupervisoryCommand,
                            command.encode(), 1),
                prime::ExecutionInfo{});
  // One CommandOrder to the proxy + one StateUpdate to the HMI.
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0].first, "client/proxy-plc-phys");
  const auto out = MasterOutput::decode(outputs[0].second);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->type, ScadaMsgType::kCommandOrder);
  const auto order = CommandOrder::decode(out->body);
  ASSERT_TRUE(order);
  EXPECT_EQ(order->command.breaker, 2);
  EXPECT_TRUE(order->verify(replica_verifier(keyring, 4),
                            prime::replica_identity(0)));
  // Commands do NOT change topology state until the field reports it.
  EXPECT_EQ(master->state().breaker("plc-phys", 2), false);
}

TEST_F(MasterFixture, SnapshotRestoreRoundTrip) {
  StatusReport report;
  report.device = "dist3";
  report.report_seq = 4;
  report.breakers = {1, 0, 1, 0};
  report.readings.assign(4, 100);
  master->apply(report_update(report, 1), prime::ExecutionInfo{});
  const auto snapshot = master->snapshot();

  MasterConfig config2;
  config2.replica_id = 1;
  config2.scenario = ScenarioSpec::red_team();
  ScadaMaster other(config2, keyring,
                    [](const std::string&, const util::Bytes&) {});
  other.restore(snapshot);
  EXPECT_EQ(other.version(), master->version());
  EXPECT_EQ(other.state().digest(), master->state().digest());
}

TEST_F(MasterFixture, CommandForUnknownDeviceOrdersNothing) {
  SupervisoryCommand command{"no-such-device", 0, true, 1};
  master->apply(make_update("client/hmi-0", ScadaMsgType::kSupervisoryCommand,
                            command.encode(), 1),
                prime::ExecutionInfo{});
  // Version still advances (the update was ordered), but no order goes
  // to any proxy; only the HMI state push happens.
  EXPECT_EQ(master->version(), 1u);
  for (const auto& [client, bytes] : outputs) {
    EXPECT_EQ(client, "client/hmi-0");
  }
}

TEST_F(MasterFixture, MalformedPayloadsAreIgnoredDeterministically) {
  prime::ClientUpdate update;
  update.client = "client/hmi-0";
  update.client_seq = 1;
  update.payload = util::to_bytes("not a scada payload");
  master->apply(update, prime::ExecutionInfo{});
  EXPECT_EQ(master->version(), 0u);
  EXPECT_TRUE(outputs.empty());

  ClientPayload payload;
  payload.type = ScadaMsgType::kBatchReport;
  payload.body = util::to_bytes("garbage");
  update.payload = payload.encode();
  master->apply(update, prime::ExecutionInfo{});
  EXPECT_EQ(master->version(), 0u);
}

// Tag 1 was the one-report update a proxy sent before every field
// report became a BatchReport. Its bytes still reach the master if a
// stale or hostile client sends them; they must change nothing.
TEST_F(MasterFixture, RetiredOneReportTagIsRejected) {
  StatusReport report;
  report.device = "plc-phys";
  report.report_seq = 1;
  report.breakers = {1, 1, 0, 0, 0, 0, 0};
  report.readings.assign(7, 0);
  util::ByteWriter w;
  w.u8(1);
  w.blob(report.encode());
  prime::ClientUpdate update;
  update.client = "client/proxy-plc-phys";
  update.client_seq = 1;
  update.payload = w.take();

  EXPECT_FALSE(ClientPayload::decode(update.payload).has_value());
  master->apply(update, prime::ExecutionInfo{});
  EXPECT_EQ(master->version(), 0u);
  EXPECT_EQ(master->reports_applied(), 0u);
  EXPECT_TRUE(outputs.empty());
}

TEST_F(MasterFixture, StaleReportsDoNotRegressState) {
  StatusReport fresh;
  fresh.device = "plc-phys";
  fresh.report_seq = 10;
  fresh.breakers = {1, 0, 0, 0, 0, 0, 0};
  fresh.readings.assign(7, 0);
  master->apply(report_update(fresh, 1), prime::ExecutionInfo{});
  ASSERT_EQ(master->state().breaker("plc-phys", 0), true);

  StatusReport stale;
  stale.device = "plc-phys";
  stale.report_seq = 5;  // older than what we applied
  stale.breakers = {0, 0, 0, 0, 0, 0, 0};
  stale.readings.assign(7, 0);
  master->apply(report_update(stale, 2), prime::ExecutionInfo{});
  EXPECT_EQ(master->state().breaker("plc-phys", 0), true);  // unchanged
}

TEST_F(MasterFixture, VersionIsMonotonicAcrossMixedUpdates) {
  std::uint64_t last = 0;
  for (int i = 1; i <= 8; ++i) {
    StatusReport report;
    report.device = "dist0";
    report.report_seq = static_cast<std::uint64_t>(i);
    report.breakers = {i % 2 == 0, false, false, false};
    report.readings.assign(4, 0);
    master->apply(report_update(report, static_cast<std::uint64_t>(i)),
                  prime::ExecutionInfo{});
    EXPECT_GT(master->version(), last);
    last = master->version();
  }
}

TEST(HmiVoting, RequiresFPlusOneMatchingReplicas) {
  sim::Simulator sim;
  crypto::Keyring keyring("scada-test");
  HmiConfig config;
  config.identity = "client/hmi-0";
  config.f = 1;
  Hmi hmi(sim, config, keyring, replica_verifier(keyring, 4),
          [](const util::Bytes&) {});

  TopologyState state(ScenarioSpec::red_team());
  state.apply_report("plc-phys", 1, {1, 0, 0, 0, 0, 0, 0}, {});
  auto make_update = [&](std::uint32_t replica, const TopologyState& s) {
    StateUpdate su;
    su.replica = replica;
    su.version = 1;
    su.state = s.serialize();
    crypto::Signer signer(prime::replica_identity(replica),
                          keyring.identity_key(prime::replica_identity(replica)));
    su.sign(signer);
    MasterOutput out;
    out.type = ScadaMsgType::kStateUpdate;
    out.body = su.encode();
    return out.encode();
  };

  // One replica (possibly compromised) is not enough.
  hmi.on_master_output(make_update(0, state));
  EXPECT_EQ(hmi.displayed_version(), 0u);

  // A second matching replica crosses f+1 = 2.
  hmi.on_master_output(make_update(1, state));
  EXPECT_EQ(hmi.displayed_version(), 1u);
  EXPECT_EQ(hmi.display().breaker("plc-phys", 0), true);
}

TEST(HmiVoting, LoneLyingReplicaCannotChangeDisplay) {
  sim::Simulator sim;
  crypto::Keyring keyring("scada-test");
  HmiConfig config;
  config.identity = "client/hmi-0";
  config.f = 1;
  Hmi hmi(sim, config, keyring, replica_verifier(keyring, 4),
          [](const util::Bytes&) {});

  TopologyState truth(ScenarioSpec::red_team());
  TopologyState lie(ScenarioSpec::red_team());
  lie.apply_report("plc-phys", 99, {1, 1, 1, 1, 1, 1, 1}, {});

  auto send = [&](std::uint32_t replica, std::uint64_t version,
                  const TopologyState& s) {
    StateUpdate su;
    su.replica = replica;
    su.version = version;
    su.state = s.serialize();
    crypto::Signer signer(prime::replica_identity(replica),
                          keyring.identity_key(prime::replica_identity(replica)));
    su.sign(signer);
    MasterOutput out;
    out.type = ScadaMsgType::kStateUpdate;
    out.body = su.encode();
    hmi.on_master_output(out.encode());
  };

  // Compromised replica 3 pushes a lie at a high version, repeatedly.
  send(3, 5, lie);
  send(3, 5, lie);  // same replica voting twice must not count double
  EXPECT_EQ(hmi.displayed_version(), 0u);

  // Honest quorum at version 1 still lands.
  send(0, 1, truth);
  send(1, 1, truth);
  EXPECT_EQ(hmi.displayed_version(), 1u);
  EXPECT_EQ(hmi.display().breaker("plc-phys", 3), false);
}

TEST(HmiVoting, RejectsBadSignatures) {
  sim::Simulator sim;
  crypto::Keyring keyring("scada-test");
  HmiConfig config;
  config.identity = "client/hmi-0";
  config.f = 1;
  Hmi hmi(sim, config, keyring, replica_verifier(keyring, 4),
          [](const util::Bytes&) {});

  StateUpdate su;
  su.replica = 0;
  su.version = 1;
  su.state = TopologyState(ScenarioSpec::red_team()).serialize();
  crypto::Signer wrong("mallory", keyring.identity_key("mallory"));
  su.sign(wrong);
  MasterOutput out;
  out.type = ScadaMsgType::kStateUpdate;
  out.body = su.encode();
  hmi.on_master_output(out.encode());
  EXPECT_EQ(hmi.stats().updates_rejected_sig, 1u);
  EXPECT_EQ(hmi.displayed_version(), 0u);
}

// --- HMI receive path: stale drop, byte-matched vote, vote bound ------

struct HmiReceiveFixture : ::testing::Test {
  sim::Simulator sim;
  crypto::Keyring keyring{"scada-test"};
  std::unique_ptr<Hmi> hmi;

  void SetUp() override {
    HmiConfig config;
    config.identity = "client/hmi-0";
    config.f = 1;
    hmi = std::make_unique<Hmi>(sim, config, keyring,
                                replica_verifier(keyring, 4),
                                [](const util::Bytes&) {});
  }

  /// A MasterOutput frame carrying `su`, signed as `signer_identity`.
  util::Bytes frame(StateUpdate su, const std::string& signer_identity) {
    su.sign(crypto::Signer(signer_identity,
                           keyring.identity_key(signer_identity)));
    MasterOutput out;
    out.type = ScadaMsgType::kStateUpdate;
    out.body = su.encode();
    return out.encode();
  }

  util::Bytes make(std::uint32_t replica, std::uint64_t version,
                   StateUpdate::Kind kind, std::uint64_t base, util::Bytes state) {
    StateUpdate su;
    su.replica = replica;
    su.version = version;
    su.kind = kind;
    su.base_version = base;
    su.state = std::move(state);
    return frame(std::move(su), prime::replica_identity(replica));
  }

  util::Bytes full(std::uint32_t replica, std::uint64_t version,
                   const TopologyState& state) {
    return make(replica, version, StateUpdate::kFull, 0, state.serialize());
  }
};

TEST_F(HmiReceiveFixture, StaleGenuineAndForgedUpdatesLeaveDisplayUnchanged) {
  TopologyState truth(ScenarioSpec::red_team());
  truth.apply_report("plc-phys", 1, {1, 0, 0, 0, 0, 0, 0}, {});
  TopologyState lie(ScenarioSpec::red_team());
  lie.apply_report("plc-phys", 9, {0, 1, 1, 1, 1, 1, 1}, {});
  hmi->on_master_output(full(0, 1, truth));
  hmi->on_master_output(full(1, 1, truth));
  ASSERT_EQ(hmi->displayed_version(), 1u);
  const util::Bytes shown = hmi->display().serialize();

  // A genuine but different update at the displayed version.
  hmi->on_master_output(full(2, 1, lie));
  hmi->on_master_output(full(3, 1, lie));
  // A forged one, claiming replica 3 under a key it does not hold.
  StateUpdate forged;
  forged.replica = 3;
  forged.version = 1;
  forged.state = lie.serialize();
  hmi->on_master_output(frame(forged, "mallory"));
  EXPECT_EQ(hmi->displayed_version(), 1u);
  EXPECT_EQ(hmi->display().serialize(), shown);
  EXPECT_EQ(hmi->pending_contents(), 0u);
  // Dropped before the HMAC check: counted as received, not as rejected.
  EXPECT_EQ(hmi->stats().updates_received, 5u);
  EXPECT_EQ(hmi->stats().updates_rejected_sig, 0u);

  // The same forgery at a version that could display is still rejected.
  forged.version = 2;
  hmi->on_master_output(frame(forged, "mallory"));
  EXPECT_EQ(hmi->stats().updates_rejected_sig, 1u);
  EXPECT_EQ(hmi->pending_contents(), 0u);
}

TEST_F(HmiReceiveFixture, ContentsDifferingOnlyInKindOrBaseNeverPool) {
  TopologyState state(ScenarioSpec::red_team());
  hmi->on_master_output(full(0, 1, state));
  hmi->on_master_output(full(1, 1, state));
  ASSERT_EQ(hmi->displayed_version(), 1u);

  // Four zero bytes parse both as an empty full image and as an empty
  // delta, and either would apply at v2 — so only pooling could adopt.
  const util::Bytes empty = TopologyState{}.serialize();
  hmi->on_master_output(make(0, 2, StateUpdate::kFull, 0, empty));
  hmi->on_master_output(make(1, 2, StateUpdate::kDelta, 0, empty));
  EXPECT_EQ(hmi->displayed_version(), 1u);

  // Same delta bytes and kind, different base versions.
  state.apply_report("dist0", 1, {1, 1, 0, 0}, {});
  const util::Bytes delta = state.serialize_changes();
  hmi->on_master_output(make(0, 3, StateUpdate::kDelta, 1, delta));
  hmi->on_master_output(make(1, 3, StateUpdate::kDelta, 0, delta));
  EXPECT_EQ(hmi->displayed_version(), 1u);
  EXPECT_EQ(hmi->pending_contents(), 4u);

  // A second replica matching every field does adopt.
  hmi->on_master_output(make(2, 3, StateUpdate::kDelta, 1, delta));
  EXPECT_EQ(hmi->displayed_version(), 3u);
  EXPECT_EQ(hmi->display().breaker("dist0", 1), true);
}

TEST_F(HmiReceiveFixture, TruncationAroundTheSignatureIsDropped) {
  TopologyState state(ScenarioSpec::red_team());
  state.apply_report("plc-phys", 1, {1, 1, 0, 0, 0, 0, 0}, {});
  StateUpdate su;
  su.version = 1;
  su.state = state.serialize();
  std::vector<util::Bytes> bodies;
  for (std::uint32_t replica = 0; replica < 2; ++replica) {
    su.replica = replica;
    const auto body = MasterOutput::decode(
        frame(su, prime::replica_identity(replica)));
    ASSERT_TRUE(body);
    bodies.push_back(body->body);
  }
  const std::size_t sig_at = bodies[0].size() - 32;
  for (std::size_t cut = sig_at - 8; cut < bodies[0].size(); ++cut) {
    for (const util::Bytes& body : bodies) {
      MasterOutput out;
      out.type = ScadaMsgType::kStateUpdate;
      out.body.assign(body.begin(),
                      body.begin() + static_cast<std::ptrdiff_t>(cut));
      const util::Bytes wire = out.encode();
      hmi->on_master_output(wire);  // a well-framed, truncated update
      hmi->on_master_output(std::span(wire).first(wire.size() - 1));
    }
  }
  // One trailing byte past the signature is rejected as well.
  for (util::Bytes body : bodies) {
    body.push_back(0);
    MasterOutput out;
    out.type = ScadaMsgType::kStateUpdate;
    out.body = std::move(body);
    hmi->on_master_output(out.encode());
  }
  EXPECT_EQ(hmi->displayed_version(), 0u);
  EXPECT_EQ(hmi->stats().updates_received, 0u);

  for (const util::Bytes& body : bodies) {
    MasterOutput out;
    out.type = ScadaMsgType::kStateUpdate;
    out.body = body;
    hmi->on_master_output(out.encode());
  }
  EXPECT_EQ(hmi->displayed_version(), 1u);
  EXPECT_EQ(hmi->display().breaker("plc-phys", 1), true);
}

TEST_F(HmiReceiveFixture, ByzantineReplicaHoldsOneContentPerVersionAndKind) {
  TopologyState truth(ScenarioSpec::red_team());
  hmi->on_master_output(full(0, 1, truth));
  hmi->on_master_output(full(1, 1, truth));
  ASSERT_EQ(hmi->displayed_version(), 1u);

  // Replica 3 holds its real key and floods distinct signed contents
  // for version 2, of both kinds.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    util::ByteWriter junk;
    junk.u32(i);
    hmi->on_master_output(make(3, 2, StateUpdate::kDelta, 1, junk.bytes()));
    hmi->on_master_output(make(3, 2, StateUpdate::kFull, 0, junk.bytes()));
  }
  EXPECT_LE(hmi->pending_contents(), 2u);
  EXPECT_EQ(hmi->displayed_version(), 1u);

  // f+1 correct replicas still display the true content.
  truth.apply_report("dist3", 1, {0, 0, 1, 0}, {});
  const util::Bytes delta = truth.serialize_changes();
  hmi->on_master_output(make(0, 2, StateUpdate::kDelta, 1, delta));
  hmi->on_master_output(make(1, 2, StateUpdate::kDelta, 1, delta));
  EXPECT_EQ(hmi->displayed_version(), 2u);
  EXPECT_EQ(hmi->display().breaker("dist3", 2), true);
  EXPECT_EQ(hmi->pending_contents(), 0u);
}

TEST_F(HmiReceiveFixture, DeltaThenFullFromTheSameReplicasStillAdopts) {
  // The resync path: a delta whose base this HMI never saw reaches
  // f+1, then the same replicas answer the resync with a full image at
  // that version. Each replica votes once per kind, so the full counts.
  TopologyState state(ScenarioSpec::red_team());
  state.apply_report("dist1", 1, {1, 0, 0, 1}, {});
  const util::Bytes delta = state.serialize_changes();
  hmi->on_master_output(make(0, 5, StateUpdate::kDelta, 4, delta));
  hmi->on_master_output(make(1, 5, StateUpdate::kDelta, 4, delta));
  EXPECT_EQ(hmi->displayed_version(), 0u);
  EXPECT_EQ(hmi->stats().resyncs_requested, 1u);

  hmi->on_master_output(full(0, 5, state));
  hmi->on_master_output(full(1, 5, state));
  EXPECT_EQ(hmi->displayed_version(), 5u);
  EXPECT_EQ(hmi->display().breaker("dist1", 3), true);
}

// --- HMI hash-once voting: one SHA-256 per content, an HMAC per copy ----

/// A MasterOutput frame carrying `su` exactly as given, signature
/// included, so a test can pair a state with someone else's signature.
util::Bytes output_of(const StateUpdate& su) {
  MasterOutput out;
  out.type = ScadaMsgType::kStateUpdate;
  out.body = su.encode();
  return out.encode();
}

TEST_F(HmiReceiveFixture, IdenticalCopiesOfOneVersionAreHashedOnce) {
  TopologyState state(ScenarioSpec::red_team());
  hmi->on_master_output(full(0, 1, state));
  hmi->on_master_output(full(1, 1, state));
  ASSERT_EQ(hmi->displayed_version(), 1u);
  EXPECT_EQ(hmi->stats().states_hashed, 1u);

  state.apply_report("dist2", 1, {1, 0, 1, 0}, {});
  const util::Bytes delta = state.serialize_changes();
  hmi->on_master_output(make(0, 2, StateUpdate::kDelta, 1, delta));
  hmi->on_master_output(make(1, 2, StateUpdate::kDelta, 1, delta));
  EXPECT_EQ(hmi->displayed_version(), 2u);
  EXPECT_EQ(hmi->stats().states_hashed, 2u);
  // Copies arriving after adoption are stale: dropped unhashed.
  hmi->on_master_output(make(2, 2, StateUpdate::kDelta, 1, delta));
  hmi->on_master_output(make(3, 2, StateUpdate::kDelta, 1, delta));
  EXPECT_EQ(hmi->stats().states_hashed, 2u);
  EXPECT_EQ(hmi->stats().updates_received, 6u);
}

struct HmiHashOnceFixture : HmiReceiveFixture {
  StateUpdate pending;  ///< replica 0's genuine delta at v2, voted once

  void SetUp() override {
    HmiReceiveFixture::SetUp();
    TopologyState state(ScenarioSpec::red_team());
    hmi->on_master_output(full(0, 1, state));
    hmi->on_master_output(full(1, 1, state));
    ASSERT_EQ(hmi->displayed_version(), 1u);

    state.apply_report("dist4", 1, {0, 1, 1, 0}, {});
    pending.replica = 0;
    pending.version = 2;
    pending.kind = StateUpdate::kDelta;
    pending.base_version = 1;
    pending.state = state.serialize_changes();
    pending.sign(crypto::Signer(
        prime::replica_identity(0),
        keyring.identity_key(prime::replica_identity(0))));
    hmi->on_master_output(output_of(pending));
    ASSERT_EQ(hmi->pending_contents(), 1u);
    ASSERT_EQ(hmi->stats().states_hashed, 2u);
  }
};

TEST_F(HmiHashOnceFixture, CopyOneByteOffCarryingThePendingSignatureIsRejected) {
  for (std::uint32_t claimed : {0u, 1u}) {
    StateUpdate forged = pending;
    forged.replica = claimed;
    forged.state.back() ^= 1;
    hmi->on_master_output(output_of(forged));
  }
  EXPECT_EQ(hmi->stats().updates_rejected_sig, 2u);
  EXPECT_EQ(hmi->stats().states_hashed, 4u);  // no pending digest to lend
  EXPECT_EQ(hmi->pending_contents(), 1u);
  EXPECT_EQ(hmi->displayed_version(), 1u);
}

TEST_F(HmiHashOnceFixture, CorrectBytesUnderAnotherReplicasSignatureCastNoVote) {
  StateUpdate stolen = pending;  // replica 0's signature
  stolen.replica = 1;
  hmi->on_master_output(output_of(stolen));
  EXPECT_EQ(hmi->stats().updates_rejected_sig, 1u);
  EXPECT_EQ(hmi->stats().states_hashed, 2u);  // the pending digest was lent
  EXPECT_EQ(hmi->displayed_version(), 1u);    // no second vote at v2

  // Replica 1's own signature over the same bytes does vote, unhashed.
  hmi->on_master_output(make(1, 2, StateUpdate::kDelta, 1, pending.state));
  EXPECT_EQ(hmi->displayed_version(), 2u);
  EXPECT_EQ(hmi->display().breaker("dist4", 2), true);
  EXPECT_EQ(hmi->stats().states_hashed, 2u);
}

// A proxy with one polled Modbus device. The device end is a bare
// Modbus server over a 1 ms loopback; its discrete inputs are the
// breaker positions the proxy reads.
struct ProxyFixture : ::testing::Test {
  sim::Simulator sim;
  crypto::Keyring keyring{"scada-test"};
  std::vector<util::Bytes> submitted;
  std::vector<util::Bytes> modbus_out;
  modbus::DataModel plc_model{7, 7, 7, 7};
  modbus::Server plc_server{plc_model};
  FieldClient* field = nullptr;  // owned by the proxy
  std::unique_ptr<FleetProxy> proxy;
  bool drop_submits = false;  // models an update lost on the way to Prime
  bool jittery_field = false;  // response latency cycles through 1, 2, 3 ms

  void SetUp() override { build(FleetProxyConfig{}); }

  void build(FleetProxyConfig config) {
    config.identity = "client/proxy-plc-phys";
    config.f = 1;
    auto client = std::make_unique<ModbusFieldClient>(
        sim, "plc-phys", 7, [this](const util::Bytes& b) {
          modbus_out.push_back(b);
          if (auto response = plc_server.handle(b)) {
            const sim::Time latency =
                jittery_field
                    ? static_cast<sim::Time>(1 + modbus_out.size() % 3) *
                          sim::kMillisecond
                    : sim::kMillisecond;
            sim.schedule_after(latency, [this, r = *response] {
              field->on_data(r);
            });
          }
        });
    field = client.get();
    proxy = std::make_unique<FleetProxy>(
        sim, config, keyring, replica_verifier(keyring, 4),
        [this](const util::Bytes& b) {
          if (!drop_submits) submitted.push_back(b);
        });
    proxy->register_polled_device("plc-phys", std::move(client));
  }

  /// The one StatusReport batched inside a submitted client-update
  /// envelope; an empty report (and a test failure) if it is not there.
  static StatusReport submitted_report(const util::Bytes& envelope) {
    const auto env = prime::Envelope::decode(envelope);
    if (!env) {
      ADD_FAILURE() << "submitted bytes are not an envelope";
      return {};
    }
    const auto update = prime::ClientUpdate::decode(env->body);
    const auto payload =
        update ? ClientPayload::decode(update->payload) : std::nullopt;
    if (!payload || payload->type != ScadaMsgType::kBatchReport) {
      ADD_FAILURE() << "submitted update is not a batch report";
      return {};
    }
    const auto batch = BatchReport::decode(payload->body);
    if (!batch || batch->reports.size() != 1) {
      ADD_FAILURE() << "submitted update is not a one-member batch";
      return {};
    }
    return batch->reports.front();
  }

  util::Bytes make_order(std::uint32_t replica, std::uint64_t command_id,
                         bool close = true,
                         const std::string& device = "plc-phys") {
    CommandOrder order;
    order.replica = replica;
    order.issuer = "client/hmi-0";
    order.command = SupervisoryCommand{device, 1, close, command_id};
    crypto::Signer signer(prime::replica_identity(replica),
                          keyring.identity_key(prime::replica_identity(replica)));
    order.sign(signer);
    MasterOutput out;
    out.type = ScadaMsgType::kCommandOrder;
    out.body = order.encode();
    return out.encode();
  }
};

TEST_F(ProxyFixture, ForwardsCommandOnlyAfterFPlusOneOrders) {
  proxy->on_master_output(make_order(0, 1));
  EXPECT_EQ(proxy->stats().commands_forwarded, 0u);
  EXPECT_TRUE(modbus_out.empty());

  proxy->on_master_output(make_order(1, 1));
  EXPECT_EQ(proxy->stats().commands_forwarded, 1u);
  ASSERT_EQ(modbus_out.size(), 1u);
  // The forwarded Modbus request is a WriteSingleCoil for breaker 1.
  const auto adu = modbus::Adu::decode(modbus_out[0]);
  ASSERT_TRUE(adu);
  const auto request = modbus::decode_request(adu->pdu);
  const auto* write = std::get_if<modbus::WriteSingleCoilRequest>(&*request);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->address, 1);
  EXPECT_TRUE(write->value);
}

TEST_F(ProxyFixture, DuplicateOrdersExecuteOnce) {
  proxy->on_master_output(make_order(0, 1));
  proxy->on_master_output(make_order(1, 1));
  proxy->on_master_output(make_order(2, 1));
  proxy->on_master_output(make_order(3, 1));
  EXPECT_EQ(proxy->stats().commands_forwarded, 1u);
}

TEST_F(ProxyFixture, ConflictingContentDoesNotCount) {
  // Replica 0 says CLOSE, compromised replica 3 says OPEN under the
  // same command id: no f+1 agreement on either content.
  proxy->on_master_output(make_order(0, 1, true));
  proxy->on_master_output(make_order(3, 1, false));
  EXPECT_EQ(proxy->stats().commands_forwarded, 0u);
  // The honest second vote settles it.
  proxy->on_master_output(make_order(1, 1, true));
  EXPECT_EQ(proxy->stats().commands_forwarded, 1u);
}

TEST_F(ProxyFixture, CompromisedReplicaCannotGrowPendingOrdersWithoutBound) {
  // Replica 3 holds its real key and signs 10,000 distinct orders no
  // honest replica will ever match.
  for (std::uint64_t id = 1; id <= 10'000; ++id) {
    proxy->on_master_output(make_order(3, 1'000'000 + id));
  }
  EXPECT_LE(proxy->pending_orders(), FleetProxy::kMaxPendingOrdersPerReplica);
  EXPECT_EQ(proxy->stats().commands_forwarded, 0u);

  // A later honest f+1 order still executes.
  proxy->on_master_output(make_order(0, 1));
  proxy->on_master_output(make_order(1, 1));
  EXPECT_EQ(proxy->stats().commands_forwarded, 1u);
  EXPECT_EQ(modbus_out.size(), 1u);
  EXPECT_LE(proxy->pending_orders(), FleetProxy::kMaxPendingOrdersPerReplica);
}

TEST_F(ProxyFixture, RejectsForgedOrders) {
  CommandOrder order;
  order.replica = 0;
  order.issuer = "client/hmi-0";
  order.command = SupervisoryCommand{"plc-phys", 1, true, 5};
  crypto::Signer mallory("mallory", keyring.identity_key("mallory"));
  order.sign(mallory);
  MasterOutput out;
  out.type = ScadaMsgType::kCommandOrder;
  out.body = order.encode();
  proxy->on_master_output(out.encode());
  EXPECT_EQ(proxy->stats().orders_rejected_sig, 1u);
}

TEST_F(ProxyFixture, VotedOrderReachesOnlyItsOwnDevice) {
  std::vector<std::pair<std::uint16_t, bool>> other_commands;
  proxy->register_device("plc-other", [&](std::uint16_t breaker, bool close) {
    other_commands.emplace_back(breaker, close);
  });

  proxy->on_master_output(make_order(0, 1));
  proxy->on_master_output(make_order(1, 1));
  EXPECT_EQ(modbus_out.size(), 1u);  // the polled device's coil write
  EXPECT_TRUE(other_commands.empty());

  proxy->on_master_output(make_order(0, 2, false, "plc-other"));
  proxy->on_master_output(make_order(1, 2, false, "plc-other"));
  ASSERT_EQ(other_commands.size(), 1u);
  EXPECT_EQ(other_commands[0], std::make_pair(std::uint16_t{1}, false));
  EXPECT_EQ(modbus_out.size(), 1u);
  EXPECT_EQ(proxy->stats().commands_forwarded, 2u);
}

TEST_F(ProxyFixture, BreakerChangeIsCriticalWhenBucketIsEmpty) {
  FleetProxyConfig config;
  config.poll_interval = 10 * sim::kMillisecond;
  config.heartbeat_interval = config.poll_interval;  // every poll reports
  config.front_door.rate_per_sec = 1;  // one telemetry token per second
  config.front_door.burst = 1;
  build(config);
  proxy->start();

  // The first poll is critical (no previous image), the second takes
  // the only telemetry token, and every later unchanged poll is shed.
  sim.run_until(200 * sim::kMillisecond);
  const FrontDoorStats& door = proxy->front_door_stats();
  EXPECT_GE(proxy->stats().polls, 19u);
  EXPECT_EQ(proxy->stats().poll_failures, 0u);
  EXPECT_EQ(door.admitted, 2u);
  EXPECT_EQ(door.admitted_critical, 1u);
  EXPECT_GE(door.shed_rate, 15u);
  EXPECT_EQ(proxy->stats().reports_sent, 2u);

  // A breaker moves at the device: the next poll carries the change
  // and passes the door although the bucket is still empty.
  plc_model.set_discrete_input(3, true);
  sim.run_until(250 * sim::kMillisecond);
  EXPECT_EQ(door.admitted, 3u);
  EXPECT_EQ(door.admitted_critical, 2u);
  EXPECT_EQ(door.shed_critical, 0u);
  EXPECT_EQ(proxy->stats().reports_sent, 3u);
  EXPECT_EQ(submitted.size(), 3u);
}

TEST_F(ProxyFixture, StopEndsPollingAndFlushesEveryAdmittedReport) {
  FleetProxyConfig config;
  config.poll_interval = 10 * sim::kMillisecond;
  config.heartbeat_interval = config.poll_interval;  // every poll reports
  config.batch.window = sim::kSecond;  // keep every report coalescing
  build(config);
  proxy->start();

  sim.run_until(100 * sim::kMillisecond);
  const std::uint64_t admitted = proxy->front_door_stats().admitted;
  EXPECT_GE(admitted, 8u);
  EXPECT_TRUE(submitted.empty());

  proxy->stop();
  EXPECT_EQ(submitted.size(), 1u);  // one batch carrying every report
  EXPECT_EQ(proxy->stats().batches_sent, 1u);
  EXPECT_EQ(proxy->stats().reports_sent, admitted);

  const std::uint64_t polls = proxy->stats().polls;
  sim.run_until(110 * sim::kMillisecond);  // an in-flight poll completes
  const std::size_t requests = modbus_out.size();
  sim.run_until(2 * sim::kSecond);
  EXPECT_EQ(proxy->stats().polls, polls);
  EXPECT_EQ(modbus_out.size(), requests);
  EXPECT_EQ(proxy->front_door_stats().admitted, admitted);
  EXPECT_EQ(submitted.size(), 1u);
}

/// plc-phys's seven breakers after discrete input 3 closes.
const std::vector<bool> kBreaker3Closed{false, false, false, true,
                                        false, false, false};

// Report by exception: a polled device whose breakers hold still
// reports once, then only at each heartbeat.
TEST_F(ProxyFixture, UnchangedPollsSubmitNothingUntilHeartbeat) {
  FleetProxyConfig config;
  config.poll_interval = 10 * sim::kMillisecond;
  config.heartbeat_interval = 100 * sim::kMillisecond;
  build(config);
  proxy->start();

  // The first poll lands in [0, 10) ms and always reports.
  sim.run_until(95 * sim::kMillisecond);
  EXPECT_GE(proxy->stats().polls, 9u);
  EXPECT_EQ(proxy->stats().poll_failures, 0u);
  EXPECT_EQ(submitted.size(), 1u);

  // Heartbeats follow at +100 ms and +200 ms, as telemetry.
  sim.run_until(250 * sim::kMillisecond);
  EXPECT_GE(proxy->stats().polls, 24u);
  EXPECT_EQ(submitted.size(), 3u);
  const FrontDoorStats& door = proxy->front_door_stats();
  EXPECT_EQ(door.admitted, 3u);
  EXPECT_EQ(door.admitted_critical, 1u);
  for (const auto& envelope : submitted) {
    EXPECT_EQ(submitted_report(envelope).breakers, std::vector<bool>(7, false));
  }
}

TEST_F(ProxyFixture, BreakerMoveSubmitsOnNextPollAsCritical) {
  FleetProxyConfig config;
  config.poll_interval = 10 * sim::kMillisecond;  // 2 s default heartbeat
  build(config);
  proxy->start();
  sim.run_until(100 * sim::kMillisecond);
  ASSERT_EQ(submitted.size(), 1u);

  // The next poll (within 10 ms, plus 1 ms of field latency) carries it.
  plc_model.set_discrete_input(3, true);
  sim.run_until(111 * sim::kMillisecond);
  ASSERT_EQ(submitted.size(), 2u);
  EXPECT_EQ(submitted_report(submitted[1]).breakers, kBreaker3Closed);
  EXPECT_EQ(proxy->front_door_stats().admitted_critical, 2u);

  // Then quiet again until the heartbeat.
  sim.run_until(sim::kSecond);
  EXPECT_EQ(submitted.size(), 2u);
}

// A changed report admitted at the door but lost before ordering is
// repaired by the next heartbeat: the staleness bound the HMI relies
// on is heartbeat_interval past the change (plus one poll).
TEST_F(ProxyFixture, DroppedChangeIsRepairedByHeartbeat) {
  FleetProxyConfig config;
  config.poll_interval = 10 * sim::kMillisecond;
  config.heartbeat_interval = 100 * sim::kMillisecond;
  build(config);
  proxy->start();
  sim.run_until(50 * sim::kMillisecond);
  ASSERT_EQ(submitted.size(), 1u);

  const sim::Time changed_at = sim.now();
  drop_submits = true;
  plc_model.set_discrete_input(3, true);
  sim.run_until(changed_at + 11 * sim::kMillisecond);
  EXPECT_EQ(proxy->stats().reports_sent, 2u);  // sent, and lost
  drop_submits = false;

  // No further change, so nothing until the heartbeat re-sends it.
  while (submitted.size() == 1 &&
         sim.now() < changed_at + 2 * config.heartbeat_interval) {
    sim.run_until(sim.now() + sim::kMillisecond);
  }
  ASSERT_EQ(submitted.size(), 2u);
  EXPECT_LE(sim.now() - changed_at,
            config.heartbeat_interval + config.poll_interval +
                sim::kMillisecond);
  EXPECT_EQ(submitted_report(submitted[1]).breakers, kBreaker3Closed);
}

// Paper mode: a heartbeat at or below the poll interval forwards every
// poll, exactly as the paper's per-PLC proxies do, even when the field
// answers with varying latency.
TEST_F(ProxyFixture, PaperModeSubmitsOneReportPerPoll) {
  FleetProxyConfig config;
  config.poll_interval = 10 * sim::kMillisecond;
  config.heartbeat_interval = config.poll_interval;
  build(config);
  jittery_field = true;
  proxy->start();
  for (sim::Time t = 0; t <= 300 * sim::kMillisecond; t += sim::kMillisecond) {
    sim.run_until(t);
    // At most the one poll still waiting for its response is unreported.
    const std::uint64_t polls = proxy->stats().polls;
    ASSERT_LE(submitted.size(), polls);
    ASSERT_GE(submitted.size() + 1, polls);
  }
  EXPECT_GE(submitted.size(), 29u);
  EXPECT_EQ(proxy->front_door_stats().admitted_critical, 1u);
}

TEST(Cycler, FlipsBreakersInPredeterminedOrder) {
  sim::Simulator sim;
  crypto::Keyring keyring("scada-test");
  std::vector<util::Bytes> submitted;
  ScenarioSpec scenario;
  scenario.devices.push_back(DeviceSpec{"d1", {"A", "B"}, false});
  AutoCycler cycler(sim, scenario, keyring,
                    [&](const util::Bytes& b) { submitted.push_back(b); },
                    100 * sim::kMillisecond);
  cycler.start();
  sim.run_until(450 * sim::kMillisecond);

  ASSERT_EQ(cycler.history().size(), 5u);
  // Round-robin: A close, B close, A open, B open, A close.
  EXPECT_EQ(cycler.history()[0].breaker, 0);
  EXPECT_TRUE(cycler.history()[0].close);
  EXPECT_EQ(cycler.history()[1].breaker, 1);
  EXPECT_EQ(cycler.history()[2].breaker, 0);
  EXPECT_FALSE(cycler.history()[2].close);
  EXPECT_EQ(submitted.size(), 5u);
}

// ---- commercial baseline ----------------------------------------------------

struct CommercialFixture : ::testing::Test {
  sim::Simulator sim;
  net::Network network{sim};
  net::Switch* sw = nullptr;
  net::Host* primary_host = nullptr;
  net::Host* backup_host = nullptr;
  net::Host* hmi_host = nullptr;
  net::Host* plc_host = nullptr;
  std::unique_ptr<plc::Plc> device;
  std::unique_ptr<CommercialMaster> primary;
  std::unique_ptr<CommercialMaster> backup;
  std::unique_ptr<CommercialHmi> hmi;

  void SetUp() override {
    sw = &network.add_switch(net::SwitchConfig{});
    auto add = [&](const char* name, std::uint8_t last, std::uint32_t mac) {
      net::Host& h = network.add_host(name);
      h.add_interface(net::MacAddress::from_id(mac),
                      net::IpAddress::make(10, 5, 0, last), 24);
      network.connect(h, 0, *sw);
      return &h;
    };
    primary_host = add("master1", 1, 1);
    backup_host = add("master2", 2, 2);
    hmi_host = add("hmi", 3, 3);
    plc_host = add("plc", 10, 4);  // PLC directly on the switch (baseline!)

    device = std::make_unique<plc::Plc>(
        sim, *plc_host, "plc-phys",
        std::vector<plc::BreakerSpec>(7, plc::BreakerSpec{"B", false,
                                                          40 * sim::kMillisecond}),
        sim::Rng(3));

    CommercialMasterConfig mc;
    mc.devices = {{"plc-phys", plc_host->ip(), 7}};
    mc.is_primary = true;
    mc.peer_ip = backup_host->ip();
    primary = std::make_unique<CommercialMaster>(sim, *primary_host, mc);
    mc.is_primary = false;
    mc.peer_ip = primary_host->ip();
    backup = std::make_unique<CommercialMaster>(sim, *backup_host, mc);

    CommercialHmiConfig hc;
    hc.primary_ip = primary_host->ip();
    hc.backup_ip = backup_host->ip();
    hmi = std::make_unique<CommercialHmi>(sim, *hmi_host, hc);

    primary->start();
    backup->start();
    hmi->start();
  }
};

TEST_F(CommercialFixture, PollsPlcAndServesHmi) {
  device->actuate_breaker_locally(2, true);
  sim.run_until(5 * sim::kSecond);
  EXPECT_EQ(primary->state().breaker("plc-phys", 2), true);
  EXPECT_EQ(hmi->display().breaker("plc-phys", 2), true);
  EXPECT_GT(hmi->stats().replies, 0u);
}

TEST_F(CommercialFixture, HmiCommandReachesPlc) {
  sim.run_until(3 * sim::kSecond);
  hmi->command_breaker("plc-phys", 4, true);
  sim.run_until(6 * sim::kSecond);
  EXPECT_TRUE(device->breakers().closed(4));
  EXPECT_EQ(hmi->display().breaker("plc-phys", 4), true);
}

TEST_F(CommercialFixture, BackupTakesOverWhenPrimaryDies) {
  sim.run_until(3 * sim::kSecond);
  EXPECT_FALSE(backup->active());
  primary->stop();
  sim.run_until(12 * sim::kSecond);
  EXPECT_TRUE(backup->active());
  // HMI failed over and still renders state.
  device->actuate_breaker_locally(0, true);
  sim.run_until(18 * sim::kSecond);
  EXPECT_EQ(hmi->display().breaker("plc-phys", 0), true);
}

}  // namespace
}  // namespace spire::scada
