// Decoder robustness suite: every wire parser in the system is fed
// random garbage and bit-flipped mutations of valid messages. The
// property under test is the one the attack surface depends on: no
// parser may crash, loop, or read out of bounds — malformed input is
// rejected (nullopt / SerializationError), never trusted.
#include <gtest/gtest.h>

#include "dnp3/app.hpp"
#include "dnp3/framing.hpp"
#include "modbus/pdu.hpp"
#include "net/frame.hpp"
#include "plc/plc.hpp"
#include "prime/replica.hpp"
#include "prime/transport.hpp"
#include "scada/commercial.hpp"
#include "scada/hmi.hpp"
#include "scada/topology.hpp"
#include "scada/wire.hpp"
#include "sim/rng.hpp"
#include "spines/message.hpp"

namespace spire {
namespace {

util::Bytes random_bytes(sim::Rng& rng, std::size_t max_len) {
  util::Bytes out(rng.uniform(0, max_len));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Runs `decode` over `rounds` random buffers; success = no crash.
template <typename DecodeFn>
void fuzz_random(DecodeFn decode, std::uint64_t seed, int rounds = 2000) {
  sim::Rng rng(seed);
  for (int i = 0; i < rounds; ++i) {
    const util::Bytes input = random_bytes(rng, 300);
    decode(input);
  }
}

/// Mutation fuzz: flips random bytes of a valid encoding.
template <typename DecodeFn>
void fuzz_mutations(const util::Bytes& valid, DecodeFn decode,
                    std::uint64_t seed, int rounds = 2000) {
  sim::Rng rng(seed);
  for (int i = 0; i < rounds; ++i) {
    util::Bytes mutated = valid;
    const int flips = 1 + static_cast<int>(rng.uniform(0, 4));
    for (int f = 0; f < flips && !mutated.empty(); ++f) {
      mutated[rng.uniform(0, mutated.size() - 1)] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(0, 254));
    }
    if (rng.chance(0.2) && !mutated.empty()) {
      mutated.resize(rng.uniform(0, mutated.size() - 1));  // truncate too
    }
    decode(mutated);
  }
}

TEST(Fuzz, NetFrameDecoders) {
  fuzz_random([](const util::Bytes& b) { (void)net::ArpPacket::decode(b); }, 1);
  // decode_owned() must accept exactly what decode() accepts, and
  // yield the same datagram.
  const auto same_datagram = [](const util::Bytes& b) {
    const auto borrowed = net::Datagram::decode(b);
    const auto owned = net::Datagram::decode_owned(b);
    ASSERT_EQ(owned.has_value(), borrowed.has_value());
    if (!owned) return;
    EXPECT_EQ(owned->src_ip, borrowed->src_ip);
    EXPECT_EQ(owned->dst_ip, borrowed->dst_ip);
    EXPECT_EQ(owned->src_port, borrowed->src_port);
    EXPECT_EQ(owned->dst_port, borrowed->dst_port);
    EXPECT_EQ(owned->ttl, borrowed->ttl);
    EXPECT_EQ(owned->payload, borrowed->payload);
  };
  fuzz_random(same_datagram, 2);
  net::Datagram dgram;
  dgram.src_port = 1000;
  dgram.dst_port = 502;
  dgram.payload = util::to_bytes("poll");
  fuzz_mutations(dgram.encode(), same_datagram, 30);
}

TEST(Fuzz, ModbusDecoders) {
  fuzz_random([](const util::Bytes& b) { (void)modbus::Adu::decode(b); }, 3);
  fuzz_random([](const util::Bytes& b) { (void)modbus::decode_request(b); }, 4);
  fuzz_random([](const util::Bytes& b) { (void)modbus::decode_response(b); }, 5);

  modbus::Adu adu;
  adu.transaction_id = 7;
  adu.pdu = modbus::encode_request(
      modbus::WriteMultipleCoilsRequest{0, {true, false, true}});
  fuzz_mutations(adu.encode(),
                 [](const util::Bytes& b) { (void)modbus::Adu::decode(b); }, 6);
}

TEST(Fuzz, Dnp3Decoders) {
  fuzz_random([](const util::Bytes& b) { (void)dnp3::LinkFrame::decode(b); }, 7);
  fuzz_random([](const util::Bytes& b) { (void)dnp3::AppRequest::decode(b); }, 8);
  fuzz_random([](const util::Bytes& b) { (void)dnp3::AppResponse::decode(b); }, 9);
  fuzz_random([](const util::Bytes& b) { (void)dnp3::unwrap_fragment(b); }, 10);

  dnp3::AppResponse response;
  response.binary_inputs = {{true, true}, {false, true}};
  response.analog_inputs = {{123, true}};
  const auto wire = dnp3::wrap_fragment(1, 100, 3, response.encode(), false);
  fuzz_mutations(wire, [](const util::Bytes& b) { (void)dnp3::unwrap_fragment(b); },
                 11);
}

TEST(Fuzz, SpinesDecoders) {
  fuzz_random([](const util::Bytes& b) { (void)spines::LinkEnvelope::decode(b); }, 12);
  fuzz_random([](const util::Bytes& b) { (void)spines::InnerPacket::decode(b); }, 13);
  fuzz_random([](const util::Bytes& b) { (void)spines::DataBody::decode(b); }, 14);
  fuzz_random([](const util::Bytes& b) { (void)spines::LinkStateBody::decode(b); },
              15);

  spines::DataBody data;
  data.src = "a";
  data.dst = "b";
  data.payload = util::to_bytes("payload");
  // peek_key() reads the dedup key without decoding; it must accept
  // exactly what decode() accepts.
  fuzz_mutations(data.encode(), [](const util::Bytes& b) {
    const auto decoded = spines::DataBody::decode(b);
    const auto key = spines::DataBody::peek_key(b);
    ASSERT_EQ(key.has_value(), decoded.has_value());
    if (!key) return;
    EXPECT_EQ(key->src, decoded->src);
    EXPECT_EQ(key->msg_seq, decoded->msg_seq);
  }, 16);
}

TEST(Fuzz, PrimeDecoders) {
  fuzz_random([](const util::Bytes& b) { (void)prime::Envelope::decode(b); }, 17);
  fuzz_random([](const util::Bytes& b) { (void)prime::PoRequest::decode(b); }, 18);
  fuzz_random([](const util::Bytes& b) { (void)prime::PrePrepare::decode(b); }, 19);
  fuzz_random([](const util::Bytes& b) { (void)prime::NewView::decode(b); }, 20);
  fuzz_random([](const util::Bytes& b) { (void)prime::CommitCertResp::decode(b); },
              21);

  crypto::Keyring keyring("fuzz");
  crypto::Signer signer("prime/0", keyring.identity_key("prime/0"));
  const auto env = prime::Envelope::make(prime::MsgType::kPoRequest, signer,
                                         util::to_bytes("body"));
  crypto::Verifier verifier;
  verifier.add_identity("prime/0", keyring.identity_key("prime/0"));
  fuzz_mutations(env.encode(), [&](const util::Bytes& b) {
    // A mutated envelope may still parse, but must then fail
    // verification (nothing but an identical copy verifies).
    if (const auto decoded = prime::Envelope::decode(b)) {
      if (b != env.encode()) {
        EXPECT_FALSE(decoded->verify(verifier));
      }
    }
  }, 22);
}

TEST(Fuzz, ScadaDecoders) {
  fuzz_random([](const util::Bytes& b) { (void)scada::StatusReport::decode(b); }, 23);
  fuzz_random([](const util::Bytes& b) { (void)scada::CommandOrder::decode(b); }, 24);
  fuzz_random([](const util::Bytes& b) { (void)scada::StateUpdate::decode(b); }, 25);
  fuzz_random([](const util::Bytes& b) { (void)scada::CommMsg::decode(b); }, 26);
  fuzz_random([](const util::Bytes& b) { (void)plc::PlcConfig::decode(b); }, 27);
  fuzz_random([](const util::Bytes& b) {
    try {
      scada::TopologyState::deserialize(b);
    } catch (const util::SerializationError&) {
      // rejection is the expected path
    }
  }, 28);
}

TEST(Fuzz, HmiSurvivesGarbageAndMutatedMasterOutputs) {
  // The HMI parses replica output in place, so hostile bytes reach a
  // borrowed-view decoder. Random and mutated frames must never crash
  // it, and one replica's (mutated) outputs can never reach f+1.
  sim::Simulator sim;
  crypto::Keyring keyring("fuzz");
  crypto::Verifier verifier;
  for (std::uint32_t i = 0; i < 4; ++i) {
    verifier.add_identity(prime::replica_identity(i),
                          keyring.identity_key(prime::replica_identity(i)));
  }
  scada::HmiConfig config;
  config.identity = "client/hmi-fuzz";
  scada::Hmi hmi(sim, config, keyring, verifier, [](const util::Bytes&) {});

  scada::TopologyState state(scada::ScenarioSpec::fleet(8, 2));
  state.apply_report("fd3", 1, {true, false}, {7, 9});
  auto output = [&](std::uint8_t kind, std::uint64_t base) {
    scada::StateUpdate su;
    su.replica = 0;
    su.version = 1;
    su.kind = kind;
    su.base_version = base;
    su.state = kind == scada::StateUpdate::kFull ? state.serialize()
                                                 : state.serialize_changes();
    su.sign(crypto::Signer(prime::replica_identity(0),
                           keyring.identity_key(prime::replica_identity(0))));
    scada::MasterOutput out;
    out.type = scada::ScadaMsgType::kStateUpdate;
    out.body = su.encode();
    return out.encode();
  };

  auto feed = [&](const util::Bytes& b) { hmi.on_master_output(b); };
  fuzz_random(feed, 29);
  fuzz_mutations(output(scada::StateUpdate::kFull, 0), feed, 30);
  fuzz_mutations(output(scada::StateUpdate::kDelta, 0), feed, 31);
  EXPECT_EQ(hmi.displayed_version(), 0u);
  EXPECT_LE(hmi.pending_contents(), 2u);
}

TEST(Fuzz, ReplicaSurvivesGarbageStream) {
  // End-to-end: a replica fed thousands of hostile envelopes must keep
  // functioning (this is the network-facing entry point).
  sim::Simulator sim;
  crypto::Keyring keyring("fuzz");
  prime::PrimeConfig config;
  config.f = 1;
  config.client_identities = {"client/a"};
  prime::LoopbackFabric fabric(sim, config.n());

  class NullApp : public prime::Application {
    void apply(const prime::ClientUpdate&, const prime::ExecutionInfo&) override {}
    [[nodiscard]] util::Bytes snapshot() const override { return {}; }
    void restore(std::span<const std::uint8_t>) override {}
  };
  NullApp app;
  sim::Rng rng(42);
  prime::Replica replica(sim, 0, config, keyring, app, fabric.transport_for(0),
                         rng.fork());
  replica.start();

  sim::Rng fuzz_rng(77);
  for (int i = 0; i < 5000; ++i) {
    replica.on_message(random_bytes(fuzz_rng, 400));
  }
  // Valid-looking type bytes with garbage bodies.
  for (std::uint8_t type = 1; type <= 18; ++type) {
    for (int i = 0; i < 50; ++i) {
      util::ByteWriter w;
      w.u8(type);
      w.str("prime/1");
      w.blob(random_bytes(fuzz_rng, 200));
      auto bytes = w.take();
      bytes.resize(bytes.size() + 32);  // signature-sized tail
      replica.on_message(bytes);
    }
  }
  sim.run_until(1 * sim::kSecond);
  EXPECT_TRUE(replica.running());
  EXPECT_EQ(replica.stats().updates_executed, 0u);
  EXPECT_GT(replica.stats().dropped_bad_signature, 0u);
}

}  // namespace
}  // namespace spire
