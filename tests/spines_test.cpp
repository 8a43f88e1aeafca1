// Spines overlay tests: link formation, routing, priority flooding,
// link encryption/authentication, replay defense, fairness under a
// blasting source, failure detection, the legacy debug code path
// that is disabled in intrusion-tolerant mode, the change-driven
// control plane (LSU ARQ, LSDB sync on adjacency-up, coalesced
// origination, slow refresh), and liveness by exception (traffic
// stands in for hellos, stub daemons, demand-mode links).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "net/network.hpp"
#include "spines/overlay.hpp"
#include "util/hex.hpp"

namespace spire::spines {
namespace {

/// Far beyond any test's horizon: with it, only ARQ, sync and
/// change-driven origination can deliver link state.
constexpr sim::Time kNoRefresh = 3600 * sim::kSecond;

/// The receiving side's channel for one link direction, derived exactly
/// as the daemons derive it.
crypto::SecureChannel link_channel(const crypto::Keyring& keyring,
                                   const NodeId& sender,
                                   const NodeId& receiver) {
  return crypto::SecureChannel(
      link_direction_key(keyring.link_key(sender, receiver), sender));
}

/// Inner packet type of a sealed daemon frame, if `channel` opens it.
std::optional<PacketType> sealed_type(const crypto::SecureChannel& channel,
                                      const net::EthernetFrame& frame) {
  const auto dgram = net::Datagram::decode(frame.payload);
  if (!dgram) return std::nullopt;
  const auto env = LinkEnvelope::decode(dgram->payload);
  if (!env || !env->sealed) return std::nullopt;
  const auto inner = channel.open(env->body);
  if (!inner || inner->empty()) return std::nullopt;
  return static_cast<PacketType>(inner->front());
}

/// A frame that carries `body` from host `from` to host `to` as a
/// sealed inner packet of `type`, exactly as daemon `sender` would seal
/// it for daemon `receiver`.
net::EthernetFrame sealed_frame(const crypto::Keyring& keyring,
                                const net::Host& from, const net::Host& to,
                                const NodeId& sender, const NodeId& receiver,
                                PacketType type, std::uint64_t link_seq,
                                const util::Bytes& body) {
  crypto::SecureChannel channel = link_channel(keyring, sender, receiver);
  LinkEnvelope env;
  env.sender = sender;
  env.sealed = true;
  env.body = channel.seal(InnerPacket{type, link_seq, body}.encode());
  return net::EthernetFrame{
      from.mac(), to.mac(), net::EtherType::kIpv4,
      net::Datagram{from.ip(), to.ip(), kDefaultDaemonPort, kDefaultDaemonPort,
                    64, env.encode()}
          .encode()};
}

struct OverlayFixture : ::testing::Test {
  sim::Simulator sim;
  net::Network network{sim};
  crypto::Keyring keyring{"spines-test"};
  net::Switch* sw = nullptr;
  std::vector<net::Host*> hosts;
  std::unique_ptr<Overlay> overlay;
  sim::Time lsu_refresh = DaemonConfig{}.lsu_refresh;
  std::set<std::size_t> stubs;  ///< daemons build() declares stubs

  /// Builds `n` hosts on one switch and an overlay with the given links.
  void build(std::size_t n, const std::vector<std::pair<int, int>>& links,
             bool intrusion_tolerant = true,
             ForwardingMode mode = ForwardingMode::kPriorityFlood) {
    sw = &network.add_switch(net::SwitchConfig{});
    for (std::size_t i = 0; i < n; ++i) {
      net::Host& host = network.add_host("h" + std::to_string(i));
      host.add_interface(net::MacAddress::from_id(static_cast<std::uint32_t>(i + 1)),
                         net::IpAddress::make(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
                         24);
      network.connect(host, 0, *sw);
      hosts.push_back(&host);
    }
    DaemonConfig config;
    config.intrusion_tolerant = intrusion_tolerant;
    config.mode = mode;
    config.lsu_refresh = lsu_refresh;
    overlay = std::make_unique<Overlay>(sim, keyring, config);
    for (std::size_t i = 0; i < n; ++i) {
      overlay->add_node(node(i), *hosts[i], kDefaultDaemonPort, 0, 0,
                        stubs.count(i) != 0 ? NodeRole::kStub
                                            : NodeRole::kTransit);
    }
    for (const auto& [a, b] : links) overlay->add_link(node(a), node(b));
    overlay->build();
    overlay->start_all();
  }

  static NodeId node(std::size_t i) { return "n" + std::to_string(i); }
  Daemon& daemon(std::size_t i) { return overlay->daemon(node(i)); }

  static std::vector<std::pair<int, int>> clique(int n) {
    std::vector<std::pair<int, int>> links;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) links.emplace_back(a, b);
    }
    return links;
  }

  void settle(sim::Time t = 2 * sim::kSecond) { sim.run_until(sim.now() + t); }
};

TEST_F(OverlayFixture, LinksComeUpViaHellos) {
  build(3, {{0, 1}, {1, 2}});
  settle();
  EXPECT_TRUE(overlay->daemon(node(0)).link_up(node(1)));
  EXPECT_TRUE(overlay->daemon(node(1)).link_up(node(0)));
  EXPECT_TRUE(overlay->daemon(node(1)).link_up(node(2)));
}

TEST_F(OverlayFixture, RoutedModeFindsMultiHopPaths) {
  build(4, {{0, 1}, {1, 2}, {2, 3}}, true, ForwardingMode::kRouted);
  settle();
  const auto hop = overlay->daemon(node(0)).next_hop(node(3));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, node(1));

  std::vector<std::string> got;
  overlay->daemon(node(3)).open_session(
      40, [&](const DataBody& d) { got.push_back(util::to_string(d.payload)); });
  overlay->daemon(node(0)).session_send(40, node(3), 40,
                                        util::to_bytes("end-to-end"));
  settle(500 * sim::kMillisecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "end-to-end");
}

TEST_F(OverlayFixture, FloodModeDeliversAndDeduplicates) {
  // Diamond: 0-1, 0-2, 1-3, 2-3. Flooding reaches 3 via both paths; the
  // session must still deliver exactly once.
  build(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  settle();
  int deliveries = 0;
  overlay->daemon(node(3)).open_session(40, [&](const DataBody&) { ++deliveries; });
  overlay->daemon(node(0)).session_send(40, node(3), 40, util::to_bytes("x"));
  settle(500 * sim::kMillisecond);
  EXPECT_EQ(deliveries, 1);
  EXPECT_GT(overlay->daemon(node(3)).stats().dropped_dedup, 0u);
}

TEST_F(OverlayFixture, MalformedDataBodyLeavesTheDedupRingUntouched) {
  // A neighbor with valid link keys sends a data body the decoder
  // rejects (priority 7), then the well-formed body with the same
  // (src, msg_seq): the first must not have claimed the dedup slot.
  build(2, {{0, 1}});
  settle();
  int deliveries = 0;
  overlay->daemon(node(1)).open_session(40, [&](const DataBody&) { ++deliveries; });
  DataBody data;
  data.src = node(0);
  data.dst = node(1);
  data.src_port = 40;
  data.dst_port = 40;
  data.msg_seq = 777;
  data.payload = util::to_bytes("breaker 57 open");
  const util::Bytes good = data.encode();
  util::Bytes bad = good;
  bad[4 + data.src.size() + 4 + data.dst.size() + 2 + 2] = 7;  // priority
  ASSERT_FALSE(DataBody::decode(bad));
  const auto deliver = [&](std::uint64_t link_seq, const util::Bytes& body) {
    hosts[1]->handle_frame(0, sealed_frame(keyring, *hosts[0], *hosts[1], node(0),
                                           node(1), PacketType::kData, link_seq,
                                           body));
  };
  const DaemonStats before = overlay->daemon(node(1)).stats();
  deliver(1'000'000, bad);
  deliver(1'000'001, good);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(overlay->daemon(node(1)).stats().dropped_dedup, before.dropped_dedup);
  // The same body again is a flood duplicate: counted, not delivered.
  deliver(1'000'002, good);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(overlay->daemon(node(1)).stats().dropped_dedup, before.dropped_dedup + 1);
}

TEST_F(OverlayFixture, FloodModeSurvivesNodeFailure) {
  // 0-1-3 and 0-2-3; kill 1 mid-stream, traffic still arrives via 2.
  build(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  settle();
  overlay->daemon(node(1)).stop();
  settle();  // failure detection

  int deliveries = 0;
  overlay->daemon(node(3)).open_session(40, [&](const DataBody&) { ++deliveries; });
  for (int i = 0; i < 5; ++i) {
    overlay->daemon(node(0)).session_send(40, node(3), 40, util::to_bytes("x"));
  }
  settle(500 * sim::kMillisecond);
  EXPECT_EQ(deliveries, 5);
}

TEST_F(OverlayFixture, LinkFailureIsDetectedByHelloTimeout) {
  build(2, {{0, 1}});
  settle();
  ASSERT_TRUE(overlay->daemon(node(0)).link_up(node(1)));
  overlay->daemon(node(1)).stop();
  settle(2 * sim::kSecond);
  EXPECT_FALSE(overlay->daemon(node(0)).link_up(node(1)));
}

TEST_F(OverlayFixture, OutsiderInjectionRejectedInIntrusionTolerantMode) {
  build(2, {{0, 1}});
  settle();
  const auto before = overlay->daemon(node(1)).stats().dropped_auth;

  // An attacker host on the same switch knows the wire format but has
  // no keys: it forges a sealed-looking envelope claiming to be n0.
  net::Host& attacker = network.add_host("attacker");
  attacker.add_interface(net::MacAddress::from_id(99),
                         net::IpAddress::make(10, 0, 0, 99), 24);
  network.connect(attacker, 0, *sw);
  LinkEnvelope forged;
  forged.sender = node(0);
  forged.sealed = true;
  forged.body = util::to_bytes("not really sealed");
  attacker.send_udp(hosts[1]->ip(), kDefaultDaemonPort, kDefaultDaemonPort,
                    forged.encode());
  settle(200 * sim::kMillisecond);
  EXPECT_GT(overlay->daemon(node(1)).stats().dropped_auth, before);
}

TEST_F(OverlayFixture, PlaintextRejectedWhenSealingRequired) {
  build(2, {{0, 1}});
  settle();
  const auto before = overlay->daemon(node(1)).stats().dropped_auth;
  net::Host& attacker = network.add_host("attacker");
  attacker.add_interface(net::MacAddress::from_id(99),
                         net::IpAddress::make(10, 0, 0, 99), 24);
  network.connect(attacker, 0, *sw);

  InnerPacket inner;
  inner.type = PacketType::kData;
  inner.link_seq = 1;
  DataBody data;
  data.src = node(0);
  data.dst = node(1);
  data.dst_port = 40;
  data.msg_seq = 1;
  inner.body = data.encode();
  LinkEnvelope env;
  env.sender = node(0);
  env.sealed = false;  // plaintext
  env.body = inner.encode();
  attacker.send_udp(hosts[1]->ip(), kDefaultDaemonPort, kDefaultDaemonPort,
                    env.encode());
  settle(200 * sim::kMillisecond);
  EXPECT_GT(overlay->daemon(node(1)).stats().dropped_auth, before);
}

TEST_F(OverlayFixture, GarbageDatagramCountedAsMalformed) {
  build(2, {{0, 1}});
  settle();
  const DaemonStats before = overlay->daemon(node(1)).stats();
  net::Host& attacker = network.add_host("attacker");
  attacker.add_interface(net::MacAddress::from_id(99),
                         net::IpAddress::make(10, 0, 0, 99), 24);
  network.connect(attacker, 0, *sw);

  // Bytes that are no link envelope die at the parse, before any
  // sender lookup or authentication.
  attacker.send_udp(hosts[1]->ip(), kDefaultDaemonPort, kDefaultDaemonPort,
                    util::to_bytes("garbage"));
  settle(200 * sim::kMillisecond);
  const DaemonStats& after = overlay->daemon(node(1)).stats();
  EXPECT_EQ(after.dropped_malformed, before.dropped_malformed + 1);
  EXPECT_EQ(after.dropped_auth, before.dropped_auth);
}

TEST_F(OverlayFixture, CorruptedDaemonCannotParticipateUntilRestored) {
  // The excursion's "modified daemon without the new keys" (§IV-B).
  build(3, {{0, 1}, {1, 2}});
  settle();
  overlay->daemon(node(1)).corrupt_link_keys();
  settle(2 * sim::kSecond);
  EXPECT_FALSE(overlay->daemon(node(0)).link_up(node(1)));
  EXPECT_FALSE(overlay->daemon(node(2)).link_up(node(1)));

  overlay->daemon(node(1)).restore_link_keys();
  settle(2 * sim::kSecond);
  EXPECT_TRUE(overlay->daemon(node(0)).link_up(node(1)));
}

TEST_F(OverlayFixture, DebugPacketIgnoredInIntrusionTolerantMode) {
  // The red team's patched binary sent a legacy debug opcode from a
  // *valid* member; in IT mode the code path is compiled out.
  build(2, {{0, 1}}, true);
  settle();
  // Craft the debug packet through a daemon that has valid keys by
  // reaching into the wire format: seal a body whose first byte is the
  // debug opcode (so InnerPacket::decode fails and the debug branch is
  // taken).
  crypto::SecureChannel channel = link_channel(keyring, node(0), node(1));
  // The peer's replay counter is already past 0; use a huge link_seq
  // embedded in... the debug packet has no seq — it is pre-parse.
  util::Bytes debug_body = {kDebugPacketType, 0xDE, 0xAD};
  LinkEnvelope env;
  env.sender = node(0);
  env.sealed = true;
  env.body = channel.seal(debug_body);
  // Deliver directly into the daemon's UDP handler path.
  hosts[1]->handle_frame(
      0, net::EthernetFrame{
             hosts[0]->mac(), hosts[1]->mac(), net::EtherType::kIpv4,
             net::Datagram{hosts[0]->ip(), hosts[1]->ip(), kDefaultDaemonPort,
                           kDefaultDaemonPort, 64, env.encode()}
                 .encode()});
  settle(100 * sim::kMillisecond);
  EXPECT_EQ(overlay->daemon(node(1)).stats().debug_packets_ignored, 1u);
  EXPECT_EQ(overlay->daemon(node(1)).stats().debug_packets_honoured, 0u);
}

TEST_F(OverlayFixture, SealedFlagOtherThanZeroOrOneIsMalformed) {
  // The sealed flag is a bool on the wire: 0 or 1. A validly sealed
  // packet from a real neighbor whose flag byte reads 2 dies at the
  // envelope parse instead of being read as "sealed".
  build(2, {{0, 1}});
  settle();
  crypto::SecureChannel channel = link_channel(keyring, node(0), node(1));
  LinkEnvelope env;
  env.sender = node(0);
  env.sealed = true;
  env.body = channel.seal(
      InnerPacket{PacketType::kHello, 1'000'000, HelloBody{1}.encode()}
          .encode());
  util::Bytes wire = env.encode();
  const std::size_t flag_at = 4 + node(0).size();
  ASSERT_EQ(wire[flag_at], 1);
  wire[flag_at] = 2;
  const DaemonStats before = daemon(1).stats();
  hosts[1]->handle_frame(
      0, net::EthernetFrame{
             hosts[0]->mac(), hosts[1]->mac(), net::EtherType::kIpv4,
             net::Datagram{hosts[0]->ip(), hosts[1]->ip(), kDefaultDaemonPort,
                           kDefaultDaemonPort, 64, wire}
                 .encode()});
  settle(100 * sim::kMillisecond);
  EXPECT_EQ(daemon(1).stats().dropped_malformed, before.dropped_malformed + 1);
}

/// Checks every frame the daemons send against the link codec: the
/// hand-written send path (inner packet and envelope built in scratch
/// writers, sealed in place) must produce exactly the bytes of
/// LinkEnvelope{...}.encode() around InnerPacket{...}.encode().
struct SendPathFixture : OverlayFixture {
  void check(bool intrusion_tolerant) {
    std::set<PacketType> seen;
    int frames = 0;
    build(3, {{0, 1}, {1, 2}}, intrusion_tolerant);
    sw->add_tap("overlay", [&](const net::PcapRecord& record) {
      const auto dgram = net::Datagram::decode(record.frame.payload);
      if (!dgram) return;  // ARP
      std::optional<std::size_t> from;
      std::optional<std::size_t> to;
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        if (hosts[i]->ip() == dgram->src_ip) from = i;
        if (hosts[i]->ip() == dgram->dst_ip) to = i;
      }
      ASSERT_TRUE(from && to);
      const auto env = LinkEnvelope::decode(dgram->payload);
      ASSERT_TRUE(env);
      const LinkEnvelope expected_env{node(*from), intrusion_tolerant,
                                      env->body};
      EXPECT_TRUE(std::ranges::equal(expected_env.encode(), dgram->payload));
      util::Bytes inner = env->body;
      if (intrusion_tolerant) {
        const auto opened =
            link_channel(keyring, node(*from), node(*to)).open(env->body);
        ASSERT_TRUE(opened);
        inner = *opened;
      }
      const auto packet = InnerPacket::decode(inner);
      ASSERT_TRUE(packet);
      const InnerPacket expected{packet->type, packet->link_seq, packet->body};
      EXPECT_EQ(expected.encode(), inner);
      if (packet->type == PacketType::kAck) {
        const auto ack = AckBody::decode(packet->body);
        ASSERT_TRUE(ack);
        EXPECT_EQ(ack->encode(), packet->body);
      }
      seen.insert(packet->type);
      ++frames;
    });
    settle();
    EXPECT_GT(frames, 0);
    EXPECT_TRUE(seen.count(PacketType::kHello));
    EXPECT_TRUE(seen.count(PacketType::kLinkState));
    EXPECT_TRUE(seen.count(PacketType::kAck));
  }
};

TEST_F(SendPathFixture, SealedFramesMatchTheLinkCodec) { check(true); }

TEST_F(SendPathFixture, PlaintextFramesMatchTheLinkCodec) { check(false); }

TEST_F(OverlayFixture, FairnessProtectsWellBehavedSourcesFromBlaster) {
  // Chain 0-2, 1-2, 2-3: node 2 forwards for both 0 (blaster) and 1
  // (well-behaved). Per-source round-robin + caps must keep 1's
  // traffic flowing.
  build(4, {{0, 2}, {1, 2}, {2, 3}});
  settle();

  int from_good = 0;
  overlay->daemon(node(3)).open_session(40, [&](const DataBody& d) {
    if (d.src == node(1)) ++from_good;
  });

  // Blaster: 2000 large messages at once. Good source: 20 spread out.
  for (int i = 0; i < 2000; ++i) {
    overlay->daemon(node(0)).session_send(40, node(3), 40,
                                          util::Bytes(1200, 0xBB));
  }
  for (int i = 0; i < 20; ++i) {
    sim.schedule_after((i + 1) * 20 * sim::kMillisecond, [this] {
      overlay->daemon(node(1)).session_send(40, node(3), 40,
                                            util::to_bytes("good"));
    });
  }
  settle(5 * sim::kSecond);
  EXPECT_EQ(from_good, 20);
  // The per-source cap sheds the blaster's excess somewhere along the
  // path (at its own origin queue in this topology) — never the good
  // source's traffic.
  EXPECT_GT(overlay->daemon(node(0)).stats().dropped_queue_full +
                overlay->daemon(node(2)).stats().dropped_queue_full,
            0u);
}

TEST_F(OverlayFixture, HigherPriorityServedFirst) {
  build(3, {{0, 1}, {1, 2}}, true);
  settle();
  std::vector<Priority> order;
  overlay->daemon(node(2)).open_session(
      40, [&](const DataBody& d) { order.push_back(d.priority); });
  // Queue a burst of low-priority then one high-priority; the high one
  // should overtake queued low traffic at the forwarding hop.
  for (int i = 0; i < 50; ++i) {
    overlay->daemon(node(0)).session_send(40, node(2), 40,
                                          util::Bytes(1400, 0xCC),
                                          Priority::kLow);
  }
  overlay->daemon(node(0)).session_send(40, node(2), 40,
                                        util::to_bytes("urgent"),
                                        Priority::kHigh);
  settle(3 * sim::kSecond);
  ASSERT_GT(order.size(), 10u);
  const auto high_pos =
      std::find(order.begin(), order.end(), Priority::kHigh) - order.begin();
  EXPECT_LT(high_pos, 25);  // overtook most of the 50 low-priority msgs
}

TEST_F(OverlayFixture, SessionSendFailsWhenStopped) {
  build(2, {{0, 1}});
  settle();
  overlay->daemon(node(0)).stop();
  EXPECT_FALSE(overlay->daemon(node(0)).session_send(
      40, node(1), 40, util::to_bytes("x")));
}

TEST_F(OverlayFixture, TtlPreventsInfiniteForwarding) {
  build(3, {{0, 1}, {1, 2}});
  settle();
  // Deliverable message: ok. The TTL machinery is exercised internally;
  // verify ttl drops counter stays zero on a sane topology.
  int got = 0;
  overlay->daemon(node(2)).open_session(40, [&](const DataBody&) { ++got; });
  overlay->daemon(node(0)).session_send(40, node(2), 40, util::to_bytes("x"));
  settle(500 * sim::kMillisecond);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(overlay->daemon(node(1)).stats().dropped_ttl, 0u);
}

TEST(OverlayConfig, RejectsDuplicateNodesAndUnknownLinks) {
  sim::Simulator sim;
  net::Network network(sim);
  crypto::Keyring keyring("x");
  net::Host& host = network.add_host("h");
  host.add_interface(net::MacAddress::from_id(1), net::IpAddress::make(10, 0, 0, 1), 24);
  Overlay overlay(sim, keyring, DaemonConfig{});
  overlay.add_node("a", host);
  EXPECT_THROW(overlay.add_node("a", host), std::invalid_argument);
  EXPECT_THROW(overlay.add_link("a", "zz"), std::invalid_argument);
}

struct LossyLinkFixture : ::testing::Test {
  sim::Simulator sim;
  net::Network network{sim};
  crypto::Keyring keyring{"arq-test"};
  std::unique_ptr<Overlay> overlay;
  int drop_counter = 0;
  sim::Time lsu_refresh = DaemonConfig{}.lsu_refresh;
  sim::Time warmup = 3 * sim::kSecond;
  /// Loss policy, given the sending side; by default every 3rd frame in
  /// either direction.
  std::function<bool(bool from_b, const net::EthernetFrame&)> drops =
      [this](bool, const net::EthernetFrame&) { return ++drop_counter % 3 == 0; };

  /// Two nodes joined by a hand-wired link that drops every 3rd frame
  /// in each direction — deterministic loss the reliable service must
  /// absorb.
  void build(bool reliable) {
    net::Host& a = network.add_host("a");
    a.add_interface(net::MacAddress::from_id(1), net::IpAddress::make(10, 0, 0, 1), 24);
    net::Host& b = network.add_host("b");
    b.add_interface(net::MacAddress::from_id(2), net::IpAddress::make(10, 0, 0, 2), 24);

    auto lossy = [this](net::Host& dst, bool from_b) {
      return [this, &dst, from_b](const net::EthernetFrame& f) {
        if (drops(from_b, f)) return;  // dropped on the floor
        sim.schedule_after(50, [&dst, f] { dst.handle_frame(0, f); });
      };
    };
    a.set_transmit(0, lossy(b, false));
    b.set_transmit(0, lossy(a, true));

    DaemonConfig config;
    config.mode = ForwardingMode::kRouted;
    config.reliable_data_links = reliable;
    config.lsu_refresh = lsu_refresh;
    overlay = std::make_unique<Overlay>(sim, keyring, config);
    overlay->add_node("a", a);
    overlay->add_node("b", b);
    overlay->add_link("a", "b");
    overlay->build();
    overlay->start_all();
    sim.run_until(sim.now() + warmup);
  }
};

TEST_F(LossyLinkFixture, ReliableServiceDeliversEverythingExactlyOnce) {
  build(/*reliable=*/true);
  std::map<std::string, int> got;
  overlay->daemon("b").open_session(40, [&](const DataBody& d) {
    got[util::to_string(d.payload)]++;
  });
  for (int i = 0; i < 50; ++i) {
    overlay->daemon("a").session_send(40, "b", 40,
                                      util::to_bytes("m" + std::to_string(i)));
    sim.run_until(sim.now() + 20 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 3 * sim::kSecond);

  EXPECT_EQ(got.size(), 50u);
  for (const auto& [key, count] : got) {
    EXPECT_EQ(count, 1) << key << " delivered more than once";
  }
  EXPECT_GT(overlay->daemon("a").stats().data_retransmits, 0u);
  EXPECT_GT(overlay->daemon("b").stats().acks_sent, 0u);
}

TEST_F(LossyLinkFixture, WithoutReliabilityTheSameLinkLosesMessages) {
  build(/*reliable=*/false);
  int got = 0;
  overlay->daemon("b").open_session(40, [&](const DataBody&) { ++got; });
  for (int i = 0; i < 50; ++i) {
    overlay->daemon("a").session_send(40, "b", 40, util::to_bytes("x"));
    sim.run_until(sim.now() + 20 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + 2 * sim::kSecond);
  EXPECT_LT(got, 50);  // the drops actually bite without ARQ
  EXPECT_EQ(overlay->daemon("a").stats().data_retransmits, 0u);
}

TEST_F(LossyLinkFixture, LsuArqFormsRouteOverLossyLinkWithinOneSecond) {
  // Repair by ARQ: with no refresh, an LSU the link drops reaches the
  // far side only through its per-link retransmission.
  lsu_refresh = kNoRefresh;
  warmup = 0;
  build(/*reliable=*/true);
  int got = 0;
  overlay->daemon("b").open_session(40, [&](const DataBody&) { ++got; });
  sim.run_until(500 * sim::kMillisecond);
  ASSERT_EQ(overlay->daemon("a").next_hop("b"), NodeId("b"));
  ASSERT_EQ(overlay->daemon("b").next_hop("a"), NodeId("a"));
  for (int i = 0; i < 10; ++i) {
    overlay->daemon("a").session_send(40, "b", 40, util::to_bytes("x"));
    sim.run_until(sim.now() + 20 * sim::kMillisecond);
  }
  sim.run_until(1 * sim::kSecond);
  EXPECT_EQ(got, 10);
  EXPECT_GT(overlay->daemon("a").stats().lsu_retransmits +
                overlay->daemon("b").stats().lsu_retransmits,
            0u);
}

TEST_F(LossyLinkFixture, NeverAckingNeighborCostsBoundedLsuResends) {
  // b hears everything and keeps saying hello but never acks, so each
  // LSU a sends it is resent kMaxRetransmits times, then abandoned.
  lsu_refresh = kNoRefresh;
  warmup = 0;
  const crypto::SecureChannel b_to_a = link_channel(keyring, "b", "a");
  drops = [&](bool from_b, const net::EthernetFrame& f) {
    return from_b && sealed_type(b_to_a, f) == PacketType::kAck;
  };
  build(/*reliable=*/true);
  sim.run_until(2 * sim::kSecond);

  const Daemon& a = overlay->daemon("a");
  ASSERT_TRUE(a.link_up("b"));
  const DaemonStats& s = a.stats();
  ASSERT_GT(s.lsu_sent, 0u);
  EXPECT_EQ(s.lsu_retransmits,
            s.lsu_sent * static_cast<std::uint64_t>(kMaxRetransmits));
  EXPECT_EQ(a.unacked_count("b"), 0u);
  EXPECT_EQ(s.data_retransmits, 0u);  // LSU resends are counted apart
  EXPECT_EQ(s.data_abandoned, 0u);
}

TEST_F(OverlayFixture, RestartedDaemonIsSyncedOnAdjacencyUp) {
  // Repair by sync: n2's adjacency changes while n0 is down, and with
  // no refresh the only way n0 learns it is the LSDB its neighbor n1
  // relays when their link comes back up.
  lsu_refresh = kNoRefresh;
  build(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, true, ForwardingMode::kRouted);
  settle();
  Daemon& d0 = overlay->daemon(node(0));
  ASSERT_EQ(d0.next_hop(node(4)), node(1));
  d0.stop();
  overlay->daemon(node(3)).stop();
  settle();
  const std::uint64_t current = overlay->daemon(node(2)).lsdb_seq(node(2));
  ASSERT_GT(current, d0.lsdb_seq(node(2)));

  d0.start();
  sim.run_until(sim.now() + d0.config().hello_interval +
                5 * sim::kMillisecond);
  EXPECT_EQ(d0.lsdb_seq(node(2)), current);
  EXPECT_EQ(d0.next_hop(node(2)), node(1));
  EXPECT_FALSE(d0.next_hop(node(4)).has_value());  // behind the stopped n3
}

TEST_F(OverlayFixture, CliqueStartOriginatesAtMostTwoLsusPerDaemon) {
  // Every adjacency of a starting clique comes up within one coalescing
  // window, so each daemon signs one LSU for all of them (one per link
  // before origination was coalesced: ~N per daemon).
  lsu_refresh = kNoRefresh;
  constexpr int kNodes = 8;
  build(kNodes, clique(kNodes), true, ForwardingMode::kRouted);
  settle(1 * sim::kSecond);
  for (int i = 0; i < kNodes; ++i) {
    const Daemon& d = overlay->daemon(node(i));
    EXPECT_LE(d.lsdb_seq(node(i)), 2u) << node(i);
    EXPECT_EQ(d.lsdb_size(), static_cast<std::size_t>(kNodes)) << node(i);
    for (int j = 0; j < kNodes; ++j) {
      if (j != i) {
        EXPECT_EQ(d.next_hop(node(j)), node(j));
      }
    }
  }
}

TEST_F(OverlayFixture, IdleCliqueNeverReflectsLsusAndFloodsTenfoldLess) {
  // Default settings. The daemons start staggered so hellos fall at
  // different phases and adjacencies come up one side at a time, which
  // is when a relay could hand an LSU back to its origin.
  constexpr int kNodes = 6;
  build(kNodes, clique(kNodes));
  for (int i = 1; i < kNodes; ++i) {
    overlay->daemon(node(i)).stop();
    sim.schedule_at(static_cast<sim::Time>(i) * 37 * sim::kMillisecond,
                    [this, i] { overlay->daemon(node(i)).start(); });
  }
  settle();

  auto lsu_sends = [&] {
    std::uint64_t sum = 0;
    for (int i = 0; i < kNodes; ++i) {
      const DaemonStats& s = overlay->daemon(node(i)).stats();
      sum += s.lsu_sent + s.lsu_retransmits;
    }
    return sum;
  };
  const std::uint64_t before = lsu_sends();
  constexpr std::uint64_t kIdleSeconds = 10;
  settle(kIdleSeconds * sim::kSecond);
  const std::uint64_t idle_sends = lsu_sends() - before;

  // A 1 s refresh of every LSU, re-flooded by each receiver to all
  // but the link it came in on, costs N (N-1)^2 sends per second.
  constexpr std::uint64_t kPerSecondRefresh = kNodes * (kNodes - 1) * (kNodes - 1);
  EXPECT_LE(idle_sends * 10, kPerSecondRefresh * kIdleSeconds);
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(overlay->daemon(node(i)).stats().lsu_reflected, 0u) << node(i);
  }
}

TEST_F(OverlayFixture, ByzantineLsuCannotFabricateLinks) {
  // A Byzantine member advertises adjacency to a node it has no link
  // with. Edge confirmation is bidirectional, so routes must never go
  // through the fabricated edge.
  build(4, {{0, 1}, {1, 2}, {2, 3}}, true, ForwardingMode::kRouted);
  settle();
  ASSERT_EQ(*overlay->daemon(node(0)).next_hop(node(3)), node(1));

  // Node 1 (compromised, but holding real keys) floods an LSU claiming
  // a direct link to node 3 — which node 3 never confirms.
  crypto::Signer liar(node(1), keyring.identity_key(node(1)));
  LinkStateBody lie;
  lie.origin = node(1);
  lie.seq = 1000000;  // fresher than anything legitimate
  lie.neighbors = {node(0), node(2), node(3)};  // node(3) is fabricated
  lie.signature = liar.sign(lie.signed_bytes());
  // Deliver it into node 0's LSDB through the real daemon interface.
  // The wire path is equivalent; we inject at the processing layer via
  // a legitimate flood from node 1's own daemon being impossible to
  // script here, so encode and send as node 1 would:
  crypto::SecureChannel channel = link_channel(keyring, node(1), node(0));
  InnerPacket inner;
  inner.type = PacketType::kLinkState;
  inner.link_seq = 55;  // ahead of the ~26 real packets sent so far, within the window
  inner.body = lie.encode();
  LinkEnvelope env;
  env.sender = node(1);
  env.sealed = true;
  env.body = channel.seal(inner.encode());
  hosts[1]->send_udp(hosts[0]->ip(), kDefaultDaemonPort, kDefaultDaemonPort,
                     env.encode());
  settle(1 * sim::kSecond);

  // Node 0 accepted the LSU (valid signature) but must not route 3 via
  // the fabricated edge: next hop for node 3 stays node 1 *because of
  // the real path*, and messages still arrive (through 1 -> 2 -> 3).
  int got = 0;
  overlay->daemon(node(3)).open_session(40, [&](const DataBody&) { ++got; });
  overlay->daemon(node(0)).session_send(40, node(3), 40, util::to_bytes("x"));
  settle(1 * sim::kSecond);
  EXPECT_EQ(got, 1);
}

TEST_F(OverlayFixture, ByzantineLsuSelfRemovalOnlyHurtsItself) {
  // The only lie a member can make stick is removing its own edges —
  // equivalent to failing, which the overlay already tolerates.
  build(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  settle();
  crypto::Signer liar(node(1), keyring.identity_key(node(1)));
  LinkStateBody lie;
  lie.origin = node(1);
  lie.seq = 1000000;
  lie.neighbors = {};  // "I have no links"
  lie.signature = liar.sign(lie.signed_bytes());
  crypto::SecureChannel channel = link_channel(keyring, node(1), node(0));
  InnerPacket inner;
  inner.type = PacketType::kLinkState;
  inner.link_seq = 55;  // ahead of the ~26 real packets sent so far, within the window
  inner.body = lie.encode();
  LinkEnvelope env;
  env.sender = node(1);
  env.sealed = true;
  env.body = channel.seal(inner.encode());
  hosts[1]->send_udp(hosts[0]->ip(), kDefaultDaemonPort, kDefaultDaemonPort,
                     env.encode());
  settle(1 * sim::kSecond);

  // Traffic still flows 0 -> 2 -> 3 (flood mode explores both sides).
  int got = 0;
  overlay->daemon(node(3)).open_session(40, [&](const DataBody&) { ++got; });
  overlay->daemon(node(0)).session_send(40, node(3), 40, util::to_bytes("x"));
  settle(1 * sim::kSecond);
  EXPECT_EQ(got, 1);
}

TEST_F(OverlayFixture, ForgedLsuFromNonMemberLeavesNoTrace) {
  // Regression: the daemon used to create the LSDB entry (operator[] on
  // the origin) *before* verifying the LSU signature, so a forged LSU
  // naming a non-member origin permanently polluted the LSDB. The entry
  // must only be created after the signature verifies.
  build(3, {{0, 1}, {1, 2}});
  settle();
  const Daemon& d0 = overlay->daemon(node(0));
  ASSERT_TRUE(d0.lsdb_contains(node(2)));
  const std::size_t lsdb_before = d0.lsdb_size();
  const std::uint64_t rejected_before = d0.stats().lsu_rejected_sig;

  // A compromised member (node 1, holding real link keys) relays an LSU
  // whose origin is a fabricated identity the deployment never admitted.
  crypto::Signer forger("ghost", keyring.identity_key("ghost"));
  LinkStateBody lie;
  lie.origin = "ghost";
  lie.seq = 1000000;
  lie.neighbors = {node(0), node(1), node(2)};
  lie.signature = forger.sign(lie.signed_bytes());
  crypto::SecureChannel channel = link_channel(keyring, node(1), node(0));
  InnerPacket inner;
  inner.type = PacketType::kLinkState;
  inner.link_seq = 55;  // ahead of the ~26 real packets sent so far, within the window
  inner.body = lie.encode();
  LinkEnvelope env;
  env.sender = node(1);
  env.sealed = true;
  env.body = channel.seal(inner.encode());
  hosts[1]->send_udp(hosts[0]->ip(), kDefaultDaemonPort, kDefaultDaemonPort,
                     env.encode());
  settle(1 * sim::kSecond);

  EXPECT_FALSE(d0.lsdb_contains("ghost"));
  EXPECT_EQ(d0.lsdb_size(), lsdb_before);
  EXPECT_GE(d0.stats().lsu_rejected_sig, rejected_before + 1);
}

TEST_F(OverlayFixture, StopResetsPacingStateForCleanRestart) {
  // Regression: stop() used to leave busy_until and the pump timers
  // armed, so a quickly restarted daemon inherited stale pacing state
  // and orphaned pump callbacks fired into the new incarnation.
  build(3, {{0, 1}, {1, 2}}, true, ForwardingMode::kRouted);
  settle();
  int got = 0;
  overlay->daemon(node(2)).open_session(40, [&](const DataBody&) { ++got; });

  // Queue a burst through the relay so its per-link pump is mid-pacing
  // with a wakeup scheduled, then stop it with the timers armed.
  for (int i = 0; i < 64; ++i) {
    overlay->daemon(node(0)).session_send(40, node(2), 40,
                                          util::Bytes(200, 0xab));
  }
  sim.run_until(sim.now() + 50 * sim::kMicrosecond);
  overlay->daemon(node(1)).stop();
  settle(1 * sim::kSecond);  // orphaned pump/tick lambdas fire and must no-op
  const int before_restart = got;

  overlay->daemon(node(1)).start();
  settle(3 * sim::kSecond);  // links re-form, routes recompute
  overlay->daemon(node(0)).session_send(40, node(2), 40, util::to_bytes("x"));
  settle(1 * sim::kSecond);
  EXPECT_GT(got, before_restart);
}

TEST_F(OverlayFixture, CorruptAndRestoreNeverReuseALinkNonce) {
  // A fresh channel under the same deterministic link key restarts its
  // nonce counter at 1, which would re-seal under (key, nonce) pairs
  // already on the wire. Under AES-GCM that reuses keystream and, worse,
  // leaks the GHASH key from the two tags, after which an attacker can
  // forge packets the link accepts: this test guards authenticity, not
  // only secrecy. The restored daemon must resume the counters it had
  // before its keys were corrupted.
  build(2, {{0, 1}});
  enum Phase { kBefore, kCorrupted, kRestored };
  Phase phase = kBefore;
  // Per (sender, receiver) direction: nonces sealed under the real key.
  std::map<std::pair<std::size_t, std::size_t>, std::set<std::uint64_t>>
      before, restored;
  sw->add_tap("overlay", [&](const net::PcapRecord& record) {
    const auto dgram = net::Datagram::decode(record.frame.payload);
    if (!dgram) return;
    const auto env = LinkEnvelope::decode(dgram->payload);
    if (!env || !env->sealed || env->body.size() < 8) return;
    const std::size_t from = env->sender == node(0) ? 0 : 1;
    const std::size_t to = 1 - from;
    if (!link_channel(keyring, node(from), node(to)).open(env->body)) return;
    std::uint64_t nonce = 0;
    for (std::size_t i = 0; i < 8; ++i) nonce = nonce << 8 | env->body[i];
    if (phase == kBefore) before[{from, to}].insert(nonce);
    if (phase == kRestored) restored[{from, to}].insert(nonce);
  });
  settle();
  phase = kCorrupted;
  overlay->daemon(node(1)).corrupt_link_keys();
  settle();
  phase = kRestored;
  overlay->daemon(node(1)).restore_link_keys();
  settle();
  ASSERT_TRUE(overlay->daemon(node(0)).link_up(node(1)));

  ASSERT_FALSE((restored[{1, 0}].empty()));
  for (const auto& [direction, nonces] : restored) {
    for (const std::uint64_t nonce : nonces) {
      EXPECT_EQ(before[direction].count(nonce), 0u)
          << "nonce " << nonce << " reused on " << node(direction.first)
          << " -> " << node(direction.second);
    }
  }
}

/// Bounded-redundancy flooding: the source sends to every neighbor,
/// its r = floor((m-1)/3) + 2 designated relays send on, and any other
/// daemon forwards only to neighbors the source cannot reach directly.
struct BoundedFloodFixture : OverlayFixture {
  std::map<NodeId, std::size_t> data_sent;  ///< data packets by sender
  std::vector<int> delivered;               ///< by daemon index

  void build_flood(std::size_t n, const std::vector<std::pair<int, int>>& links) {
    build(n, links);
    delivered.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      overlay->daemon(node(i)).open_session(
          40, [this, i](const DataBody&) { ++delivered[i]; });
    }
    sw->add_tap("overlay", [this](const net::PcapRecord& record) {
      const auto dgram = net::Datagram::decode(record.frame.payload);
      if (!dgram) return;
      const auto env = LinkEnvelope::decode(dgram->payload);
      if (!env) return;
      for (std::size_t to = 0; to < hosts.size(); ++to) {
        if (hosts[to]->ip() != dgram->dst_ip) continue;
        if (sealed_type(link_channel(keyring, env->sender, node(to)),
                        record.frame) == PacketType::kData) {
          ++data_sent[env->sender];
        }
      }
    });
    settle();
  }

  /// Broadcasts one message from daemon `src`, lets it settle, and
  /// returns how many data packets the switch carried.
  std::size_t broadcast_from(std::size_t src) {
    data_sent.clear();
    std::fill(delivered.begin(), delivered.end(), 0);
    overlay->daemon(node(src)).session_send(40, kBroadcastDst, 40,
                                            util::to_bytes("x"));
    settle(200 * sim::kMillisecond);
    std::size_t total = 0;
    for (const auto& [sender, count] : data_sent) total += count;
    return total;
  }

  /// Duplicates each daemon dropped during `run`.
  std::vector<std::uint64_t> dedup_drops(const std::function<void()>& run) {
    std::vector<std::uint64_t> drops;
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      drops.push_back(overlay->daemon(node(i)).stats().dropped_dedup);
    }
    run();
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      drops[i] = overlay->daemon(node(i)).stats().dropped_dedup - drops[i];
    }
    return drops;
  }
};

TEST_F(BoundedFloodFixture, SixCliqueBroadcastCostsSeventeenSends) {
  // m = 6, r = 3: 5 direct sends plus 3 relays x 4 onward sends, where
  // every daemon relaying used to make it 5 + 5 x 4 = 25.
  build_flood(6, clique(6));
  for (std::size_t src = 0; src < 6; ++src) {
    EXPECT_EQ(broadcast_from(src), 17u) << node(src);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(delivered[i], i == src ? 0 : 1) << node(i);
    }
  }
}

TEST_F(BoundedFloodFixture, FourCliqueRelaysAreEveryNeighbor) {
  // m = 4, r = 3 covers all of the source's neighbors: 3 + 3 x 2 sends.
  build_flood(4, clique(4));
  EXPECT_EQ(broadcast_from(0), 9u);
  EXPECT_EQ(overlay->daemon(node(1)).flood_relays(node(0)).size(), 3u);
}

TEST_F(BoundedFloodFixture, DiamondFarCornerDeliversOnceAndForwardsNothing) {
  // 0-1, 0-2, 1-3, 2-3: both of n3's neighbors have a confirmed edge to
  // n0 and relay for it, so n3 has nobody left to cover.
  build_flood(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(broadcast_from(0), 4u);
  EXPECT_EQ(delivered[3], 1);
  EXPECT_EQ(data_sent[node(3)], 0u);
}

TEST_F(BoundedFloodFixture, EveryDaemonDesignatesTheSameRelays) {
  build_flood(6, clique(6));
  for (std::size_t src = 0; src < 6; ++src) {
    const std::vector<NodeId> relays =
        overlay->daemon(node(src)).flood_relays(node(src));
    ASSERT_EQ(relays.size(), 3u) << node(src);
    EXPECT_EQ(std::count(relays.begin(), relays.end(), node(src)), 0);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(overlay->daemon(node(i)).flood_relays(node(src)), relays)
          << node(i) << " on " << node(src);
    }
  }
}

TEST_F(BoundedFloodFixture, EveryReceiverKeepsSpareCopiesWithAWithholdingRelay) {
  // f = 1 in a 6-clique: each daemon but the source drops at least f + 1
  // duplicates, so losing the direct copy and one relay's still
  // delivers. With one relay forwarding nothing, each drops at least 1.
  build_flood(6, clique(6));
  const auto clean = dedup_drops([&] { broadcast_from(0); });
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GE(clean[i], 2u) << node(i);
    EXPECT_LE(clean[i], 3u) << node(i);
  }

  const NodeId traitor = overlay->daemon(node(0)).flood_relays(node(0)).front();
  overlay->daemon(traitor).withhold_relaying(true);
  const auto withheld = dedup_drops([&] { broadcast_from(0); });
  EXPECT_EQ(data_sent[traitor], 0u);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GE(withheld[i], 1u) << node(i);
    EXPECT_EQ(delivered[i], 1) << node(i);
  }
}

// ---- liveness by exception -------------------------------------------------

TEST_F(OverlayFixture, LinkCarryingDataEveryHelloIntervalSendsNoHellos) {
  // Each side sends the other a message every hello interval, half an
  // interval away from the hello ticks: the data is all the liveness
  // either side needs.
  build(2, {{0, 1}}, true, ForwardingMode::kRouted);
  settle();
  const sim::Time interval = daemon(0).config().hello_interval;
  const std::uint64_t hellos0 = daemon(0).stats().hellos_sent;
  const std::uint64_t hellos1 = daemon(1).stats().hellos_sent;
  sim.run_until(sim.now() + interval / 2);
  for (int i = 0; i < 30; ++i) {
    daemon(0).session_send(40, node(1), 40, util::to_bytes("a"));
    daemon(1).session_send(40, node(0), 40, util::to_bytes("b"));
    sim.run_until(sim.now() + interval);
  }
  EXPECT_EQ(daemon(0).stats().hellos_sent, hellos0);
  EXPECT_EQ(daemon(1).stats().hellos_sent, hellos1);
  EXPECT_TRUE(daemon(0).link_up(node(1)));
  EXPECT_TRUE(daemon(1).link_up(node(0)));
}

TEST_F(OverlayFixture, IdleOrdinaryLinkGoesDownWithinTheHelloTimeout) {
  build(2, {{0, 1}}, true, ForwardingMode::kRouted);
  settle();
  const DaemonConfig& config = daemon(0).config();
  ASSERT_TRUE(daemon(0).link_up(node(1)));
  daemon(1).stop();
  sim.run_until(sim.now() + config.link_timeout + config.hello_interval);
  EXPECT_FALSE(daemon(0).link_up(node(1)));
}

TEST_F(OverlayFixture, StubLinkGoesDownWhenItsArqAbandonsAPacketThenProbes) {
  stubs = {1};
  build(2, {{0, 1}}, true, ForwardingMode::kRouted);
  settle();
  const sim::Time interval = daemon(0).config().hello_interval;
  ASSERT_TRUE(daemon(0).link_up(node(1)));
  const std::uint64_t hellos = daemon(0).stats().hellos_sent;

  // Up demand links send no hellos and have no hello timeout: an idle
  // link to a stopped stub stays up.
  daemon(1).stop();
  settle(1 * sim::kSecond + 7 * sim::kMillisecond);
  EXPECT_TRUE(daemon(0).link_up(node(1)));
  EXPECT_EQ(daemon(0).stats().hellos_sent, hellos);

  // Its own traffic finds the dead end: the packet is resent
  // kMaxRetransmits times, 50 ms apart on a 25 ms tick, then abandoned.
  constexpr sim::Time kTimeout = 50 * sim::kMillisecond;
  const sim::Time sent = sim.now();
  daemon(0).session_send(40, node(1), 40, util::to_bytes("x"));
  sim.run_until(sent + (kMaxRetransmits + 1) * kTimeout - 1);
  EXPECT_TRUE(daemon(0).link_up(node(1)));
  sim.run_until(sent + (kMaxRetransmits + 1) * kTimeout + kTimeout / 2);
  EXPECT_FALSE(daemon(0).link_up(node(1)));
  EXPECT_EQ(daemon(0).stats().data_abandoned, 1u);

  // A down link is probed every hello interval.
  const std::uint64_t down_hellos = daemon(0).stats().hellos_sent;
  settle(3 * interval);
  EXPECT_GE(daemon(0).stats().hellos_sent, down_hellos + 3);
}

TEST_F(OverlayFixture, DemandLinkIsUpAtBothEndsSoonAfterTheTransitEndRestarts) {
  stubs = {1};
  build(2, {{0, 1}}, true, ForwardingMode::kRouted);
  settle();
  const sim::Time interval = daemon(0).config().hello_interval;
  daemon(0).stop();
  settle(1 * sim::kSecond);
  ASSERT_TRUE(daemon(1).link_up(node(0)));  // the stub never noticed

  daemon(0).start();
  sim.run_until(sim.now() + 2 * interval);
  EXPECT_TRUE(daemon(0).link_up(node(1)));
  EXPECT_TRUE(daemon(1).link_up(node(0)));
}

TEST_F(OverlayFixture, DemandLinkAnswersAHelloSprayAtMostOncePerInterval) {
  // n0 holds the link keys and sprays sealed hellos at the stub n1 every
  // millisecond for a second; each is fresh, so n1 hears every one.
  stubs = {1};
  build(2, {{0, 1}}, true, ForwardingMode::kRouted);
  settle();
  const sim::Time interval = daemon(1).config().hello_interval;
  daemon(0).stop();
  const std::uint64_t before = daemon(1).stats().hellos_sent;
  constexpr int kSpray = 1000;
  for (int i = 0; i < kSpray; ++i) {
    hosts[0]->send_frame_raw(
        0, sealed_frame(keyring, *hosts[0], *hosts[1], node(0), node(1),
                        PacketType::kHello,
                        1'000'000 + static_cast<std::uint64_t>(i),
                        HelloBody{1}.encode()));
    sim.run_until(sim.now() + 1 * sim::kMillisecond);
  }
  const std::uint64_t replies = daemon(1).stats().hellos_sent - before;
  EXPECT_GE(replies, 1u);
  EXPECT_LE(replies, kSpray * sim::kMillisecond / interval + 1);
  EXPECT_TRUE(daemon(1).link_up(node(0)));
}

TEST_F(OverlayFixture, StubRelaysNoForeignLsuAndIsNeverATransitHop) {
  // Transit daemons n0, n1, n2 and the stub n3, linked to all three.
  // n3 is n0's first neighbor, so it has the smallest handle there and
  // would win n0's tie-break towards n1 if it could transit.
  lsu_refresh = kNoRefresh;
  stubs = {3};
  build(4, {{0, 3}, {0, 2}, {0, 1}, {1, 2}, {1, 3}, {2, 3}}, true,
        ForwardingMode::kRouted);
  std::map<NodeId, int> lsus_from_stub;  ///< by origin
  sw->add_tap("overlay", [&](const net::PcapRecord& record) {
    const auto dgram = net::Datagram::decode(record.frame.payload);
    if (!dgram) return;
    const auto env = LinkEnvelope::decode(dgram->payload);
    if (!env || env->sender != node(3)) return;
    for (std::size_t to = 0; to < 3; ++to) {
      if (hosts[to]->ip() != dgram->dst_ip) continue;
      const auto inner =
          link_channel(keyring, node(3), node(to)).open(env->body);
      if (!inner) continue;
      const auto packet = InnerPacket::decode(*inner);
      if (!packet || packet->type != PacketType::kLinkState) continue;
      if (const auto lsu = LinkStateBody::decode(packet->body)) {
        ++lsus_from_stub[lsu->origin];
      }
    }
  });
  settle();
  EXPECT_EQ(daemon(3).lsdb_size(), 4u);  // it holds every LSU it needs

  // Restarting the stub brings all of its adjacencies up again, which
  // would make a transit daemon sync its whole LSDB to each neighbor.
  daemon(3).stop();
  settle(1 * sim::kSecond);
  daemon(3).start();
  settle();
  ASSERT_EQ(lsus_from_stub.size(), 1u);
  EXPECT_EQ(lsus_from_stub.begin()->first, node(3));

  // Cut n0-n1 with n1's firewall: n0 reaches n1 through n2, never n3.
  hosts[1]->firewall().default_deny = true;
  for (const std::size_t peer : {2, 3}) {
    for (const auto dir : {net::Direction::kInbound, net::Direction::kOutbound}) {
      hosts[1]->firewall().allow.push_back(
          net::FirewallRule{dir, hosts[peer]->ip(), std::nullopt, std::nullopt});
    }
  }
  settle();
  ASSERT_FALSE(daemon(0).link_up(node(1)));
  EXPECT_EQ(daemon(0).next_hop(node(1)), node(2));

  // With n2 gone too, only the stub joins n0 and n1: no route, although
  // the stub itself still reaches both.
  daemon(2).stop();
  settle();
  EXPECT_FALSE(daemon(0).next_hop(node(1)).has_value());
  EXPECT_EQ(daemon(3).next_hop(node(0)), node(0));
  EXPECT_EQ(daemon(3).next_hop(node(1)), node(1));
}

TEST(ReplayWindowTest, ShiftBeyondWindowClearsState) {
  ReplayWindow w;
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(2));
  // A jump of >= 64 must clear the bitmap entirely, not shift garbage in.
  EXPECT_TRUE(w.accept(100));
  EXPECT_FALSE(w.accept(36));  // age 64: outside the window, rejected
  EXPECT_TRUE(w.accept(37));   // age 63: oldest tracked slot, still fresh
  EXPECT_FALSE(w.accept(37));  // duplicate bit at exactly age 63
  EXPECT_FALSE(w.accept(2));   // long gone
}

TEST(ReplayWindowTest, ShiftOfExactlySixtyFourDropsAllHistory) {
  ReplayWindow w;
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(65));   // shift == 64: window must be cleared
  EXPECT_FALSE(w.accept(1));   // age 64: rejected as too old
  EXPECT_TRUE(w.accept(2));    // age 63: bit must not have survived the clear
}

TEST(ReplayWindowTest, OutOfOrderWithinWindowAcceptedExactlyOnce) {
  ReplayWindow w;
  EXPECT_TRUE(w.accept(10));
  EXPECT_TRUE(w.accept(7));    // late but inside the window
  EXPECT_TRUE(w.accept(9));
  EXPECT_FALSE(w.accept(9));   // each sequence accepted exactly once
  EXPECT_FALSE(w.accept(7));
  EXPECT_TRUE(w.accept(8));
  EXPECT_TRUE(w.accept(11));
  EXPECT_FALSE(w.accept(10));
}

TEST(DedupRingTest, EvictsOldestAndReadmitsEvictedPair) {
  DedupRing ring(4);
  EXPECT_FALSE(ring.check_and_insert(1, 100));  // first sighting
  EXPECT_TRUE(ring.check_and_insert(1, 100));   // duplicate
  EXPECT_FALSE(ring.check_and_insert(1, 101));
  EXPECT_FALSE(ring.check_and_insert(2, 100));
  EXPECT_FALSE(ring.check_and_insert(2, 101));
  // Capacity reached: the fifth insert evicts the oldest entry (1,100).
  EXPECT_FALSE(ring.check_and_insert(3, 100));
  EXPECT_EQ(ring.evictions(), 1u);
  EXPECT_FALSE(ring.contains(1, 100));
  EXPECT_TRUE(ring.contains(1, 101));
  EXPECT_EQ(ring.size(), 4u);
  // The evicted pair is treated as new again — eviction means the
  // overlay may re-accept a very old duplicate, never lose a fresh one.
  EXPECT_FALSE(ring.check_and_insert(1, 100));
  EXPECT_EQ(ring.evictions(), 2u);
  EXPECT_EQ(ring.size(), 4u);
}

TEST(SpinesMessages, LinkDirectionKeyKnownAnswer) {
  // Pins the per-direction sealing key: HMAC-SHA256(link key, "dir:" +
  // sender). Every sealed byte on the wire depends on it.
  const crypto::Keyring keyring("kat-keyring");
  const crypto::SymmetricKey link = keyring.link_key("int0", "int1");
  EXPECT_EQ(
      util::to_hex(link_direction_key(link, "int0")),
      "8bc84bd65dcfa759008fd22352bd13d266b8c8de9f84cf18cff774c3b96a45fd");
  EXPECT_EQ(
      util::to_hex(link_direction_key(link, "int1")),
      "781fd7c33bb78a2cb7c7c5f2563fa4fcc487e286f8f33590d77a6c6e515519f7");
}

TEST(SpinesMessages, RoundTrips) {
  DataBody d;
  d.src = "a";
  d.dst = "b";
  d.src_port = 1;
  d.dst_port = 2;
  d.priority = Priority::kHigh;
  d.msg_seq = 42;
  d.ttl = 9;
  d.payload = util::to_bytes("pp");
  const auto decoded = DataBody::decode(d.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->src, "a");
  EXPECT_EQ(decoded->priority, Priority::kHigh);
  EXPECT_EQ(decoded->ttl, 9);

  LinkStateBody lsu;
  lsu.origin = "n1";
  lsu.seq = 7;
  lsu.neighbors = {"n2", "n3"};
  const auto lsu2 = LinkStateBody::decode(lsu.encode());
  ASSERT_TRUE(lsu2);
  EXPECT_EQ(lsu2->neighbors, lsu.neighbors);

  EXPECT_FALSE(DataBody::decode(util::to_bytes("garbage")).has_value());
  EXPECT_FALSE(LinkEnvelope::decode(util::Bytes{}).has_value());
}

}  // namespace
}  // namespace spire::spines
