// Decoder robustness suite: every wire parser in the system is fed
// random garbage and bit-flipped mutations of valid messages. The
// property under test is the one the attack surface depends on: no
// parser may crash, loop, or read out of bounds — malformed input is
// rejected (nullopt / SerializationError), never trusted.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "dnp3/app.hpp"
#include "dnp3/framing.hpp"
#include "modbus/pdu.hpp"
#include "net/frame.hpp"
#include "plc/plc.hpp"
#include "prime/replica.hpp"
#include "prime/transport.hpp"
#include "scada/commercial.hpp"
#include "scada/hmi.hpp"
#include "scada/master.hpp"
#include "scada/topology.hpp"
#include "scada/wire.hpp"
#include "sim/rng.hpp"
#include "spines/message.hpp"
#include "wire_samples.hpp"

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

  // The daemon's borrowed parses of the link framing accept exactly
  // what the owning decoders accept, and read the same fields.
  const auto same_envelope = [](const util::Bytes& b) {
    const auto owned = spines::LinkEnvelope::decode(b);
    const auto view = spines::LinkEnvelope::parse(b);
    ASSERT_EQ(view.has_value(), owned.has_value());
    if (!view) return;
    EXPECT_EQ(view->sender, owned->sender);
    EXPECT_EQ(view->sealed, owned->sealed);
    EXPECT_TRUE(std::ranges::equal(view->body, owned->body));
  };
  const auto same_inner = [](const util::Bytes& b) {
    const auto owned = spines::InnerPacket::decode(b);
    const auto view = spines::InnerPacket::parse(b);
    ASSERT_EQ(view.has_value(), owned.has_value());
    if (!view) return;
    EXPECT_EQ(view->type, owned->type);
    EXPECT_EQ(view->link_seq, owned->link_seq);
    EXPECT_TRUE(std::ranges::equal(view->body, owned->body));
  };
  fuzz_random(same_envelope, 62);
  fuzz_random(same_inner, 63);
  fuzz_mutations(spines::LinkEnvelope{"ext1", true, {1, 2, 3}}.encode(),
                 same_envelope, 64);
  fuzz_mutations(
      spines::InnerPacket{spines::PacketType::kData, 9, {4, 5}}.encode(),
      same_inner, 65);
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

/// A valid n=4 Pre-Prepare from replica 0 with rows 0 and 2 present.
prime::PrePrepare sample_preprepare(const crypto::Keyring& keyring) {
  prime::PrePrepare pp;
  pp.leader = 0;
  pp.view = 3;
  pp.order_seq = 17;
  pp.rows.assign(4, nullptr);
  for (const prime::ReplicaId r : {0u, 2u}) {
    const std::string identity = prime::replica_identity(r);
    auto row = std::make_shared<prime::PoAru>();
    row->replica = r;
    row->aru_seq = 5 + r;
    row->aru = {4, 1, 9, 2};
    row->sign(crypto::Signer(identity, keyring.identity_key(identity)));
    pp.rows[r] = std::move(row);
  }
  return pp;
}

// The ordering wires that carry a Pre-Prepare: the proposal itself, a
// commit certificate and a view-change report with a prepared proof.
// Each decoder is canonical, so whatever a mutated wire decodes to must
// re-encode to exactly that wire: no field is dropped or invented.
TEST(Fuzz, PrimeOrderingWiresRoundTripUnderMutation) {
  crypto::Keyring keyring("fuzz");
  const std::string leader_id = prime::replica_identity(0);
  const crypto::Signer leader(leader_id, keyring.identity_key(leader_id));
  const prime::PrePrepare pp = sample_preprepare(keyring);
  const util::Bytes pp_wire = pp.encode();
  const util::Bytes pp_envelope =
      prime::Envelope::seal(prime::MsgType::kPrePrepare, leader, pp_wire);
  std::vector<util::Bytes> votes;
  for (prime::ReplicaId r = 0; r < 3; ++r) {
    const std::string identity = prime::replica_identity(r);
    prime::PrepareOrCommit vote;
    vote.replica = r;
    vote.view = pp.view;
    vote.order_seq = pp.order_seq;
    vote.preprepare_digest = pp.digest();
    votes.push_back(prime::Envelope::seal(
        prime::MsgType::kCommit,
        crypto::Signer(identity, keyring.identity_key(identity)),
        vote.encode()));
  }

  fuzz_mutations(pp_wire, [](const util::Bytes& b) {
    if (const auto decoded = prime::PrePrepare::decode(b)) {
      EXPECT_EQ(decoded->encode(), b);
    }
  }, 32);

  prime::CommitCertResp cert;
  cert.order_seq = pp.order_seq;
  cert.preprepare_envelope = pp_envelope;
  cert.commit_envelopes = votes;
  fuzz_mutations(cert.encode(), [](const util::Bytes& b) {
    if (const auto decoded = prime::CommitCertResp::decode(b)) {
      EXPECT_EQ(decoded->encode(), b);
    }
  }, 33);

  prime::ViewState vs;
  vs.replica = 1;
  vs.view = pp.view + 1;
  vs.max_prepared = pp.order_seq;
  vs.max_committed = pp.order_seq - 1;
  prime::PreparedProof proof;
  proof.order_seq = pp.order_seq;
  proof.preprepare_envelope = pp_envelope;
  proof.prepare_envelopes = votes;
  vs.prepared.push_back(std::move(proof));
  const std::string reporter = prime::replica_identity(1);
  vs.sign(crypto::Signer(reporter, keyring.identity_key(reporter)));
  const util::Bytes vs_wire = vs.encode();
  ASSERT_TRUE(prime::ViewState::decode(vs_wire));
  fuzz_mutations(vs_wire, [](const util::Bytes& b) {
    if (const auto decoded = prime::ViewState::decode(b)) {
      EXPECT_EQ(decoded->encode(), b);
    }
  }, 34);
}

// Every wire format, from one populated sample each: random buffers
// and mutations of the sample never crash its decoder, and whatever
// decodes is canonical, re-encoding to exactly its own bytes. Each
// format must see a decodable mutant, so none passes unchecked.
TEST(Fuzz, EveryWireFormatRoundTripsUnderMutation) {
  std::uint64_t seed = 100;
  for (const auto& sample : wire_samples::all()) {
    SCOPED_TRACE(sample.name);
    const auto round_trips = [&](const util::Bytes& b) {
      const auto again = sample.reencode(b);
      if (!again) return false;
      EXPECT_EQ(*again, b);
      return true;
    };
    fuzz_random(round_trips, seed++, 500);
    int decoded_mutants = 0;
    fuzz_mutations(sample.wire, [&](const util::Bytes& b) {
      if (round_trips(b)) ++decoded_mutants;
    }, seed++);
    EXPECT_GT(decoded_mutants, 0);
  }
}

// The profiled paths that bypass the generic field walk agree with it:
// the PO-ARU's cached encoding and the matrix digest hashed over it,
// the envelope sealed in place (solo and batched), and the HMI's
// borrowed StateUpdate parse with its hash-then-sign check.
TEST(Fuzz, HandWrittenFastPathsMatchTheGenericCodec) {
  int decoded = 0;
  fuzz_mutations(wire_samples::po_aru(1).encode(), [&](const util::Bytes& b) {
    auto row = prime::PoAru::decode(b);
    if (!row) return;
    ++decoded;
    EXPECT_EQ(row->raw, b);
    row->raw.clear();  // re-encode by walking the fields
    EXPECT_EQ(row->encode(), b);
  }, 60);
  EXPECT_GT(decoded, 0);

  crypto::Keyring keyring("fuzz");
  const prime::PrePrepare pp = sample_preprepare(keyring);
  std::vector<prime::PrePrepare::Row> uncached;
  for (const auto& row : pp.rows) {
    if (!row) {
      uncached.push_back(nullptr);
      continue;
    }
    ASSERT_FALSE(row->raw.empty());
    auto copy = std::make_shared<prime::PoAru>(*row);
    copy->raw.clear();
    uncached.push_back(std::move(copy));
  }
  EXPECT_EQ(prime::PrePrepare::matrix_digest_of(pp.rows),
            prime::PrePrepare::matrix_digest_of(uncached));

  const std::string leader_id = prime::replica_identity(0);
  const crypto::Signer leader(leader_id, keyring.identity_key(leader_id));
  crypto::Verifier verifier;
  verifier.add_identity(leader_id, keyring.identity_key(leader_id));
  const util::Bytes pp_wire = pp.encode();
  EXPECT_EQ(
      prime::Envelope::seal(prime::MsgType::kPrePrepare, leader, pp_wire),
      prime::Envelope::make(prime::MsgType::kPrePrepare, leader, pp_wire)
          .encode());
  const std::vector<util::Bytes> bodies = {{1}, {2, 3}, {4, 5, 6}};
  std::vector<prime::Envelope::BatchItem> items;
  for (const auto& body : bodies) {
    items.push_back({prime::MsgType::kPrepare, body});
  }
  const auto wires = prime::Envelope::seal_batch(leader, items);
  ASSERT_EQ(wires.size(), bodies.size());
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const auto env = prime::Envelope::decode(wires[i]);
    ASSERT_TRUE(env);
    ASSERT_TRUE(env->batch);
    EXPECT_EQ(env->batch->index, i);
    EXPECT_EQ(env->body, bodies[i]);
    EXPECT_EQ(env->encode(), wires[i]);
    EXPECT_TRUE(env->verify(verifier));
  }

  const std::string replica_id = prime::replica_identity(1);
  verifier.add_identity(replica_id, keyring.identity_key(replica_id));
  scada::StateUpdate su = wire_samples::state_update();
  su.sign(crypto::Signer(replica_id, keyring.identity_key(replica_id)));
  scada::MasterOutput out;
  out.type = scada::ScadaMsgType::kStateUpdate;
  out.body = su.encode();
  const util::Bytes out_wire = out.encode();
  decoded = 0;
  fuzz_mutations(out_wire, [&](const util::Bytes& b) {
    const auto view = scada::StateUpdateView::parse_output(b);
    const auto frame = scada::MasterOutput::decode(b);
    const auto owned = frame && frame->type == scada::ScadaMsgType::kStateUpdate
                           ? scada::StateUpdate::decode(frame->body)
                           : std::nullopt;
    ASSERT_EQ(view.has_value(), owned.has_value());
    if (!view) return;
    ++decoded;
    EXPECT_EQ(view->replica, owned->replica);
    EXPECT_EQ(view->version, owned->version);
    EXPECT_EQ(view->kind, owned->kind);
    EXPECT_EQ(view->base_version, owned->base_version);
    EXPECT_TRUE(std::ranges::equal(view->state, owned->state));
    EXPECT_EQ(view->sig, owned->sig);
    // Only the signed original verifies.
    EXPECT_EQ(view->verify(verifier, replica_id, crypto::sha256(view->state)),
              b == out_wire);
  }, 61);
  EXPECT_GT(decoded, 0);
  const auto original = scada::StateUpdateView::parse_output(out_wire);
  ASSERT_TRUE(original);
  EXPECT_TRUE(original->verify(verifier, replica_id,
                               crypto::sha256(original->state)));
}

// A Pre-Prepare row is absent (tag 0) or inline (tag 1); there is no
// "unchanged since the last proposal" form, so tag 2 anywhere is a
// malformed proposal.
TEST(Fuzz, PrePrepareRejectsUnchangedRowTag) {
  crypto::Keyring keyring("fuzz");
  const prime::PrePrepare pp = sample_preprepare(keyring);
  const util::Bytes wire = pp.encode();
  ASSERT_TRUE(prime::PrePrepare::decode(wire));
  // Header: leader u32, view u64, seq u64, matrix digest, row count u32.
  constexpr std::size_t kFirstTag = 4 + 8 + 8 + 32 + 4;
  ASSERT_EQ(wire[kFirstTag], 1);  // row 0 inline
  util::Bytes inline_row = wire;
  inline_row[kFirstTag] = 2;
  EXPECT_FALSE(prime::PrePrepare::decode(inline_row));
  const std::size_t second_tag = kFirstTag + 1 + pp.rows[0]->raw.size();
  ASSERT_EQ(wire[second_tag], 0);  // row 1 absent
  util::Bytes absent_row = wire;
  absent_row[second_tag] = 2;
  EXPECT_FALSE(prime::PrePrepare::decode(absent_row));
}

TEST(Fuzz, ScadaDecoders) {
  fuzz_random([](const util::Bytes& b) { (void)scada::StatusReport::decode(b); }, 23);
  fuzz_random([](const util::Bytes& b) { (void)scada::BatchReport::decode(b); }, 35);
  fuzz_random([](const util::Bytes& b) { (void)scada::ClientPayload::decode(b); }, 36);
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

// A BatchReport is the master's one field-report ingress. Mutated
// one-member and multi-member wires must never crash the master, and a
// mutant that still decodes is canonical: it re-encodes to its bytes.
TEST(Fuzz, BatchReportIngressRoundTripsUnderMutation) {
  crypto::Keyring keyring("fuzz");
  scada::MasterConfig config;
  config.scenario = scada::ScenarioSpec::fleet(8, 2);
  config.hmis = {"client/hmi-fuzz"};
  scada::ScadaMaster master(config, keyring,
                            [](const std::string&, const util::Bytes&) {});
  const auto report = [](const std::string& device, std::uint64_t seq) {
    scada::StatusReport r;
    r.device = device;
    r.report_seq = seq;
    r.breakers = {true, false};
    r.readings = {480, 7};
    return r;
  };
  scada::BatchReport one;
  one.reports = {report("fd3", 1)};
  scada::BatchReport many;
  many.reports = {report("fd0", 2), report("fd5", 3), report("fd7", 4)};

  std::uint64_t seq = 0;
  std::uint64_t seed = 37;
  int decoded_mutants = 0;
  for (const scada::BatchReport* batch : {&one, &many}) {
    fuzz_mutations(batch->encode(), [&](const util::Bytes& b) {
      if (const auto decoded = scada::BatchReport::decode(b)) {
        EXPECT_EQ(decoded->encode(), b);
        ++decoded_mutants;
      }
    }, seed++);

    scada::ClientPayload payload;
    payload.type = scada::ScadaMsgType::kBatchReport;
    payload.body = batch->encode();
    fuzz_mutations(payload.encode(), [&](const util::Bytes& b) {
      if (const auto decoded = scada::ClientPayload::decode(b)) {
        EXPECT_EQ(decoded->encode(), b);
      }
      prime::ClientUpdate update;
      update.client = "client/proxy-fleet0";
      update.client_seq = ++seq;
      update.payload = b;
      master.apply(update, prime::ExecutionInfo{});
    }, seed++);
  }
  EXPECT_GT(decoded_mutants, 0);  // the round-trip check ran
  EXPECT_LE(master.version(), seq);
  const util::Bytes image = master.state().serialize();
  EXPECT_EQ(scada::TopologyState::deserialize(image).serialize(), image);
}

// A fleet image is what every HMI adopts in full. A mutant either is
// rejected or decodes to a state whose names each map back to their
// handle, and which serializes to a fixed point: once decoded, the
// canonical bytes decode to themselves.
TEST(Fuzz, TopologySnapshotRoundTripsUnderMutation) {
  const scada::ScenarioSpec spec = scada::ScenarioSpec::fleet(200, 2);
  scada::TopologyState state(spec);
  sim::Rng rng(41);
  for (std::uint64_t seq = 1; seq <= 300; ++seq) {
    const auto& device = spec.devices[rng.uniform(0, spec.devices.size() - 1)];
    std::vector<bool> breakers(rng.uniform(0, 4));
    for (std::size_t b = 0; b < breakers.size(); ++b) breakers[b] = rng.chance(0.5);
    std::vector<std::uint16_t> readings(rng.uniform(0, 3), 480);
    state.apply_report(device.name, seq, breakers, readings);
  }
  const util::Bytes snapshot = state.serialize();

  int decoded_mutants = 0;
  fuzz_mutations(snapshot, [&](const util::Bytes& b) {
    std::optional<scada::TopologyState> decoded;
    try {
      decoded = scada::TopologyState::deserialize(b);
    } catch (const util::SerializationError&) {
      return;
    }
    ++decoded_mutants;
    for (std::uint32_t h = 0; h < decoded->device_count(); ++h) {
      ASSERT_EQ(decoded->handle(decoded->name(h)), h);
    }
    const util::Bytes canonical = decoded->serialize();
    EXPECT_EQ(scada::TopologyState::deserialize(canonical).serialize(),
              canonical);
  }, 42, 4000);
  EXPECT_GT(decoded_mutants, 0);  // the round-trip checks ran

  // A name repeated anywhere in the snapshot is rejected: overwrite one
  // device's name with another's of the same length, either order.
  std::vector<std::size_t> name_at;  // offset of each name's characters
  std::size_t at = 4;                // past the device count
  for (std::uint32_t h = 0; h < state.device_count(); ++h) {
    const auto d = state.device_by_handle(h);
    name_at.push_back(at + 4);
    at += 4 + state.name(h).size() + 13 + d->breakers.size() + 4 +
          2 * d->readings.size();
  }
  ASSERT_EQ(at, snapshot.size());
  const std::pair<std::uint32_t, std::uint32_t> pairs[] = {
      {0, 9}, {9, 0}, {10, 99}, {57, 12}, {100, 199}, {150, 101}};
  for (const auto& [from, to] : pairs) {
    util::Bytes dup = snapshot;
    const auto name = state.name(from);
    ASSERT_EQ(name.size(), state.name(to).size());
    std::copy(name.begin(), name.end(), dup.begin() + name_at[to]);
    EXPECT_THROW(scada::TopologyState::deserialize(dup),
                 util::SerializationError)
        << from << " -> " << to;
  }
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
  auto output = [&](scada::StateUpdate::Kind kind, std::uint64_t base) {
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
