// Tests for the emulated network substrate: frames, ARP (including
// poisoning), switching (learning vs static bindings, per-port delivery
// order and timing), firewalls, routing/forwarding, cables, and
// capture taps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace spire::net {
namespace {

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  Network network{sim};

  Host& make_host(const std::string& name, IpAddress ip, Switch& sw,
                  std::uint32_t mac_id) {
    Host& host = network.add_host(name);
    host.add_interface(MacAddress::from_id(mac_id), ip, 24);
    network.connect(host, 0, sw);
    return host;
  }
};

TEST(Address, MacFormatting) {
  EXPECT_EQ(MacAddress::from_id(0x01).str(), "02:00:00:00:00:01");
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddress::from_id(1).is_broadcast());
}

TEST(Address, IpFormattingAndSubnets) {
  const IpAddress ip = IpAddress::make(10, 2, 0, 17);
  EXPECT_EQ(ip.str(), "10.2.0.17");
  EXPECT_TRUE(ip.same_subnet(IpAddress::make(10, 2, 0, 200), 24));
  EXPECT_FALSE(ip.same_subnet(IpAddress::make(10, 3, 0, 17), 24));
  EXPECT_TRUE(ip.same_subnet(IpAddress::make(10, 3, 0, 17), 8));
}

TEST(Frame, DatagramRoundTrip) {
  Datagram d;
  d.src_ip = IpAddress::make(1, 2, 3, 4);
  d.dst_ip = IpAddress::make(5, 6, 7, 8);
  d.src_port = 1111;
  d.dst_port = 2222;
  d.payload = util::to_bytes("data");
  const auto decoded = Datagram::decode(d.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->src_ip, d.src_ip);
  EXPECT_EQ(decoded->dst_port, 2222);
  EXPECT_EQ(decoded->payload, d.payload);
}

TEST(Frame, ArpRoundTripAndRejectsGarbage) {
  ArpPacket arp;
  arp.op = ArpOp::kReply;
  arp.sender_mac = MacAddress::from_id(9);
  arp.sender_ip = IpAddress::make(10, 0, 0, 9);
  const auto decoded = ArpPacket::decode(arp.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->sender_mac, arp.sender_mac);
  EXPECT_FALSE(ArpPacket::decode(util::to_bytes("junk")).has_value());
  EXPECT_FALSE(Datagram::decode(util::to_bytes("x")).has_value());
}

TEST_F(NetFixture, UdpDeliveryBetweenHosts) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& b = make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);

  std::vector<std::string> received;
  b.bind_udp(500, [&](const Datagram& d) {
    received.push_back(util::to_string(d.payload));
  });
  EXPECT_TRUE(a.send_udp(b.ip(), 500, 600, util::to_bytes("hello")));
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hello");
  // Dynamic ARP resolved b's MAC on the fly.
  EXPECT_TRUE(a.arp_lookup(b.ip()).has_value());
}

TEST_F(NetFixture, NoHandlerMeansDrop) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& b = make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);
  a.send_udp(b.ip(), 12345, 600, util::to_bytes("x"));
  sim.run();
  EXPECT_EQ(b.stats().dropped_no_handler, 1u);
  EXPECT_EQ(b.stats().datagrams_delivered, 0u);
}

TEST_F(NetFixture, FirewallDefaultDenyBlocksUnlistedTraffic) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& b = make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);

  b.firewall().default_deny = true;
  b.firewall().allow.push_back(
      FirewallRule{Direction::kInbound, a.ip(), 500, std::nullopt});
  int hits_500 = 0, hits_501 = 0;
  b.bind_udp(500, [&](const Datagram&) { ++hits_500; });
  b.bind_udp(501, [&](const Datagram&) { ++hits_501; });

  a.send_udp(b.ip(), 500, 600, util::to_bytes("ok"));
  a.send_udp(b.ip(), 501, 600, util::to_bytes("blocked"));
  sim.run();
  EXPECT_EQ(hits_500, 1);
  EXPECT_EQ(hits_501, 0);
  EXPECT_EQ(b.stats().dropped_firewall_in, 1u);
}

TEST_F(NetFixture, FirewallEgressBlocks) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& b = make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);
  a.firewall().default_deny = true;
  EXPECT_FALSE(a.send_udp(b.ip(), 500, 600, util::to_bytes("x")));
  EXPECT_EQ(a.stats().dropped_firewall_out, 1u);
}

TEST_F(NetFixture, ArpPoisoningWorksAgainstDynamicArp) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& victim = make_host("victim", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& server = make_host("server", IpAddress::make(10, 0, 0, 2), sw, 2);
  Host& attacker = make_host("attacker", IpAddress::make(10, 0, 0, 66), sw, 6);

  // Legit resolution first.
  victim.send_udp(server.ip(), 1, 1, util::to_bytes("x"));
  sim.run();
  EXPECT_EQ(*victim.arp_lookup(server.ip()), server.mac());

  // Attacker claims server's IP.
  ArpPacket lie;
  lie.op = ArpOp::kReply;
  lie.sender_mac = attacker.mac();
  lie.sender_ip = server.ip();
  lie.target_mac = victim.mac();
  lie.target_ip = victim.ip();
  attacker.send_frame_raw(
      0, EthernetFrame{attacker.mac(), victim.mac(), EtherType::kArp,
                       lie.encode()});
  sim.run();
  EXPECT_EQ(*victim.arp_lookup(server.ip()), attacker.mac());
  EXPECT_GE(victim.stats().arp_replies_accepted, 1u);
}

TEST_F(NetFixture, StaticArpDefeatsPoisoning) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& victim = make_host("victim", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& server = make_host("server", IpAddress::make(10, 0, 0, 2), sw, 2);
  Host& attacker = make_host("attacker", IpAddress::make(10, 0, 0, 66), sw, 6);

  victim.use_static_arp(true);
  victim.add_arp_entry(server.ip(), server.mac());

  ArpPacket lie;
  lie.op = ArpOp::kReply;
  lie.sender_mac = attacker.mac();
  lie.sender_ip = server.ip();
  lie.target_mac = victim.mac();
  lie.target_ip = victim.ip();
  attacker.send_frame_raw(
      0, EthernetFrame{attacker.mac(), victim.mac(), EtherType::kArp,
                       lie.encode()});
  sim.run();
  EXPECT_EQ(*victim.arp_lookup(server.ip()), server.mac());
  EXPECT_EQ(victim.stats().arp_replies_ignored_static, 1u);
}

TEST_F(NetFixture, CrossNicArpAnsweringToggle) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& dual = network.add_host("dual");
  dual.add_interface(MacAddress::from_id(1), IpAddress::make(10, 0, 0, 1), 24);
  dual.add_interface(MacAddress::from_id(2), IpAddress::make(10, 9, 0, 1), 24);
  network.connect(dual, 0, sw);
  Host& prober = make_host("prober", IpAddress::make(10, 0, 0, 5), sw, 5);

  // With the OS default, NIC 0 answers for NIC 1's address too.
  ArpPacket who;
  who.op = ArpOp::kRequest;
  who.sender_mac = prober.mac();
  who.sender_ip = prober.ip();
  who.target_ip = IpAddress::make(10, 9, 0, 1);
  prober.send_frame_raw(0, EthernetFrame{prober.mac(), MacAddress::broadcast(),
                                         EtherType::kArp, who.encode()});
  sim.run();
  EXPECT_TRUE(prober.arp_lookup(IpAddress::make(10, 9, 0, 1)).has_value());

  // Hardened setting: no answer for other-NIC addresses.
  Host& prober2 = make_host("prober2", IpAddress::make(10, 0, 0, 6), sw, 6);
  dual.set_answer_arp_for_any_local_ip(false);
  who.sender_mac = prober2.mac();
  who.sender_ip = prober2.ip();
  prober2.send_frame_raw(0, EthernetFrame{prober2.mac(), MacAddress::broadcast(),
                                          EtherType::kArp, who.encode()});
  sim.run();
  EXPECT_FALSE(prober2.arp_lookup(IpAddress::make(10, 9, 0, 1)).has_value());
}

TEST_F(NetFixture, StaticPortBindingDropsSpoofedSourceMac) {
  SwitchConfig config;
  config.static_port_binding = true;
  Switch& sw = network.add_switch(config);
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& b = make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);
  Host& attacker = make_host("attacker", IpAddress::make(10, 0, 0, 66), sw, 6);
  a.use_static_arp(true);
  a.add_arp_entry(b.ip(), b.mac());
  b.use_static_arp(true);
  b.add_arp_entry(a.ip(), a.mac());

  int received = 0;
  b.bind_udp(500, [&](const Datagram&) { ++received; });

  // Legit traffic flows.
  a.send_udp(b.ip(), 500, 600, util::to_bytes("legit"));
  sim.run();
  EXPECT_EQ(received, 1);

  // Attacker forging a's MAC from its own port: dropped at the switch.
  Datagram forged;
  forged.src_ip = a.ip();
  forged.dst_ip = b.ip();
  forged.src_port = 600;
  forged.dst_port = 500;
  forged.payload = util::to_bytes("forged");
  attacker.send_frame_raw(
      0, EthernetFrame{a.mac(), b.mac(), EtherType::kIpv4, forged.encode()});
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_GE(sw.stats().frames_dropped_binding, 1u);
}

TEST_F(NetFixture, LearningSwitchFloodsUnknownThenLearns) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);
  Host& c = make_host("c", IpAddress::make(10, 0, 0, 3), sw, 3);

  // c sniffs in promiscuous mode; a's first frame to b floods to c too.
  int c_saw = 0;
  c.set_promiscuous(0, true);
  c.set_sniffer([&](std::size_t, const EthernetFrame&) { ++c_saw; });
  a.send_udp(IpAddress::make(10, 0, 0, 2), 500, 600, util::to_bytes("x"));
  sim.run();
  EXPECT_GT(c_saw, 0);  // ARP broadcast + possibly flooded unicast
}

TEST_F(NetFixture, EgressQueueOverflowDropsFrames) {
  SwitchConfig config;
  config.egress_queue_frames = 8;
  config.bytes_per_us = 1.0;  // slow link so the queue actually builds
  Switch& sw = network.add_switch(config);
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& b = make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);
  a.add_arp_entry(b.ip(), b.mac());
  a.use_static_arp(true);

  int received = 0;
  b.bind_udp(500, [&](const Datagram&) { ++received; });
  for (int i = 0; i < 100; ++i) {
    a.send_udp(b.ip(), 500, 600, util::Bytes(500, 0xAA));
  }
  sim.run();
  EXPECT_GT(sw.stats().frames_dropped_queue, 0u);
  EXPECT_LT(received, 100);
}

namespace {

/// One switch with a sender port 0 and a receiver port 1 that records
/// (delivery time, frame id) pairs; frame ids ride in the payload's
/// first byte. Each test checks the receiver's log against
/// expected_arrivals(), the serialization model applied to the frames
/// that got through.
struct SwitchPortFixture {
  sim::Simulator sim;
  Switch sw;
  std::vector<std::pair<sim::Time, std::uint8_t>> arrivals;
  std::size_t payload_size(std::uint8_t id) const { return 30 + 37u * id; }

  explicit SwitchPortFixture(SwitchConfig config) : sw(sim, std::move(config)) {
    sw.add_port([](EthernetFrame) {});
    sw.add_port([this](EthernetFrame f) { arrivals.emplace_back(sim.now(), f.payload[0]); });
    // Port 1's MAC is learned from one frame it sends (flooded to port 0).
    sw.receive(1, EthernetFrame{MacAddress::from_id(2), MacAddress::from_id(1),
                                EtherType::kIpv4, util::Bytes(1, 0)});
  }

  void send(std::uint8_t id) {
    util::Bytes payload(payload_size(id), 0xEE);
    payload[0] = id;
    sw.receive(0, EthernetFrame{MacAddress::from_id(1), MacAddress::from_id(2),
                                EtherType::kIpv4, std::move(payload)});
  }

  /// Delivery times for `sent` = (send time, id) in emission order, of
  /// which only `through` got past loss and the queue limit: each starts
  /// when the port is free, serializes, then propagates.
  std::vector<std::pair<sim::Time, std::uint8_t>> expected_arrivals(
      const std::vector<std::pair<sim::Time, std::uint8_t>>& sent,
      const std::vector<std::uint8_t>& through) const {
    std::vector<std::pair<sim::Time, std::uint8_t>> out;
    sim::Time busy_until = 0;
    for (const auto& [at, id] : sent) {
      if (std::find(through.begin(), through.end(), id) == through.end()) continue;
      const std::size_t wire = std::max<std::size_t>(64, 18 + payload_size(id));
      busy_until = std::max(at, busy_until) +
                   static_cast<sim::Time>(std::ceil(static_cast<double>(wire) /
                                                    sw.config().bytes_per_us));
      out.emplace_back(busy_until + sw.config().propagation_delay, id);
    }
    return out;
  }

  std::vector<std::uint8_t> arrived_ids() const {
    std::vector<std::uint8_t> ids;
    for (const auto& a : arrivals) ids.push_back(a.second);
    return ids;
  }
};

}  // namespace

TEST(SwitchPort, DeliversInEmissionOrderAtSerializationTimes) {
  SwitchPortFixture f(SwitchConfig{.bytes_per_us = 2.0});
  std::vector<std::pair<sim::Time, std::uint8_t>> sent;
  // Bursts that queue behind each other, and a late frame that finds
  // the port idle.
  for (std::uint8_t id = 0; id < 6; ++id) { f.send(id); sent.emplace_back(0, id); }
  f.sim.run_until(100);
  for (std::uint8_t id = 6; id < 10; ++id) { f.send(id); sent.emplace_back(100, id); }
  f.sim.run_until(50'000);
  f.send(10);
  sent.emplace_back(50'000, 10);
  f.sim.run();
  const std::vector<std::uint8_t> all{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(f.arrivals, f.expected_arrivals(sent, all));
  EXPECT_EQ(f.sw.stats().frames_forwarded, 12u);  // 11 plus the learning frame
}

TEST(SwitchPort, ChaosLossKeepsSurvivorsInOrderAndOnTime) {
  SwitchPortFixture f(SwitchConfig{.bytes_per_us = 2.0});
  f.sw.set_chaos(0.4);
  std::vector<std::pair<sim::Time, std::uint8_t>> sent;
  for (std::uint8_t id = 0; id < 40; ++id) {
    f.send(id);
    sent.emplace_back(f.sim.now(), id);
    f.sim.run_until(f.sim.now() + 30);  // frames overlap in flight
  }
  f.sim.run();
  const auto through = f.arrived_ids();
  EXPECT_TRUE(std::is_sorted(through.begin(), through.end()));
  EXPECT_EQ(f.arrivals, f.expected_arrivals(sent, through));
  EXPECT_GT(f.sw.stats().frames_dropped_chaos, 0u);
  EXPECT_EQ(through.size() + f.sw.stats().frames_dropped_chaos, 40u);
  f.sw.set_chaos(0);  // healed: nothing more is lost
  f.send(40);
  f.sim.run();
  EXPECT_EQ(f.arrived_ids().back(), 40);
}

TEST(SwitchPort, FullEgressQueueDropsUntilDeliveriesFreeSlots) {
  SwitchPortFixture f(SwitchConfig{.bytes_per_us = 1.0, .egress_queue_frames = 8});
  std::vector<std::pair<sim::Time, std::uint8_t>> sent;
  // 20 at once: 8 fit, 12 drop.
  for (std::uint8_t id = 0; id < 20; ++id) { f.send(id); sent.emplace_back(0, id); }
  EXPECT_EQ(f.sw.stats().frames_dropped_queue, 12u);
  // After the third delivery, three slots are free again: of five more
  // frames three are queued and two drop.
  const auto first = f.expected_arrivals(sent, {0, 1, 2, 3, 4, 5, 6, 7});
  const sim::Time later = first[2].first + 1;
  f.sim.run_until(later);
  ASSERT_EQ(f.arrivals.size(), 3u);
  for (std::uint8_t id = 20; id < 25; ++id) { f.send(id); sent.emplace_back(later, id); }
  EXPECT_EQ(f.sw.stats().frames_dropped_queue, 14u);
  f.sim.run();
  const std::vector<std::uint8_t> through{0, 1, 2, 3, 4, 5, 6, 7, 20, 21, 22};
  EXPECT_EQ(f.arrived_ids(), through);
  EXPECT_EQ(f.arrivals, f.expected_arrivals(sent, through));
  // Drained: a full queue's worth fits again.
  for (std::uint8_t id = 30; id < 38; ++id) f.send(id);
  EXPECT_EQ(f.sw.stats().frames_dropped_queue, 14u);
}

TEST_F(NetFixture, HandleFrameDeliversDatagramAfterObserversSeeTheFrame) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& b = make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);
  std::vector<EthernetFrame> sniffed;
  b.set_sniffer([&](std::size_t, const EthernetFrame& f) { sniffed.push_back(f); });
  std::vector<Datagram> delivered;
  b.bind_udp(500, [&](const Datagram& d) { delivered.push_back(d); });

  Datagram d;
  d.src_ip = a.ip();
  d.dst_ip = b.ip();
  d.src_port = 600;
  d.dst_port = 500;
  d.ttl = 9;
  d.payload = util::to_bytes("breaker 57 open");
  const EthernetFrame frame{a.mac(), b.mac(), EtherType::kIpv4, d.encode()};
  b.handle_frame(0, frame);
  ASSERT_EQ(delivered.size(), 1u);
  const auto expected = Datagram::decode(frame.payload);
  ASSERT_TRUE(expected);
  EXPECT_EQ(delivered[0].src_ip, expected->src_ip);
  EXPECT_EQ(delivered[0].dst_ip, expected->dst_ip);
  EXPECT_EQ(delivered[0].src_port, expected->src_port);
  EXPECT_EQ(delivered[0].dst_port, expected->dst_port);
  EXPECT_EQ(delivered[0].ttl, 9);
  EXPECT_EQ(delivered[0].payload, expected->payload);
  ASSERT_EQ(sniffed.size(), 1u);
  EXPECT_EQ(sniffed[0].payload, frame.payload);  // the sniffer saw it whole

  // A promiscuous NIC sniffs a frame for another host, whole, and
  // delivers nothing upward.
  b.set_promiscuous(0, true);
  const EthernetFrame other{a.mac(), MacAddress::from_id(7), EtherType::kIpv4,
                            d.encode()};
  b.handle_frame(0, other);
  ASSERT_EQ(sniffed.size(), 2u);
  EXPECT_EQ(sniffed[1].payload, other.payload);
  EXPECT_EQ(delivered.size(), 1u);

  // ARP: the sniffer sees the request and the host still answers it.
  ArpPacket req;
  req.sender_mac = a.mac();
  req.sender_ip = a.ip();
  req.target_ip = b.ip();
  const EthernetFrame arp{a.mac(), MacAddress::broadcast(), EtherType::kArp,
                          req.encode()};
  b.handle_frame(0, arp);
  ASSERT_EQ(sniffed.size(), 3u);
  EXPECT_EQ(sniffed[2].payload, arp.payload);
  EXPECT_EQ(b.arp_lookup(a.ip()), a.mac());  // learned from the request
  sim.run();
  EXPECT_EQ(a.arp_lookup(b.ip()), b.mac());  // b's reply reached a
}

TEST_F(NetFixture, CableIsPointToPoint) {
  Host& proxy = network.add_host("proxy");
  proxy.add_interface(MacAddress::from_id(1), IpAddress::make(10, 3, 0, 1), 30);
  Host& plc = network.add_host("plc");
  plc.add_interface(MacAddress::from_id(2), IpAddress::make(10, 3, 0, 2), 30);
  network.cable(proxy, 0, plc, 0);

  int received = 0;
  plc.bind_udp(502, [&](const Datagram&) { ++received; });
  proxy.send_udp(plc.ip(), 502, 1502, util::to_bytes("modbus"));
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetFixture, RouterForwardsWithAclAndTtl) {
  Switch& net_a = network.add_switch(SwitchConfig{.name = "a"});
  Switch& net_b = network.add_switch(SwitchConfig{.name = "b"});

  Host& client = make_host("client", IpAddress::make(10, 1, 0, 10), net_a, 1);
  Host& router = network.add_host("router");
  router.add_interface(MacAddress::from_id(2), IpAddress::make(10, 1, 0, 1), 24);
  router.add_interface(MacAddress::from_id(3), IpAddress::make(10, 2, 0, 1), 24);
  network.connect(router, 0, net_a);
  network.connect(router, 1, net_b);
  router.enable_forwarding(/*default_deny=*/true);

  Host& server = network.add_host("server");
  server.add_interface(MacAddress::from_id(4), IpAddress::make(10, 2, 0, 10), 24);
  network.connect(server, 0, net_b);
  server.set_gateway(router.ip(1));
  client.set_gateway(router.ip(0));

  int received = 0;
  server.bind_udp(7000, [&](const Datagram&) { ++received; });

  // ACL closed: forward dropped.
  client.send_udp(server.ip(), 7000, 600, util::to_bytes("x"));
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(router.stats().dropped_forward_acl, 1u);

  // Open a pinhole.
  router.add_forward_allow(ForwardRule{client.ip(), server.ip(), 7000});
  client.send_udp(server.ip(), 7000, 600, util::to_bytes("y"));
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(router.stats().forwarded, 1u);
}

TEST_F(NetFixture, PcapTapSeesAllTraffic) {
  Switch& sw = network.add_switch(SwitchConfig{});
  Host& a = make_host("a", IpAddress::make(10, 0, 0, 1), sw, 1);
  Host& b = make_host("b", IpAddress::make(10, 0, 0, 2), sw, 2);
  b.bind_udp(500, [](const Datagram&) {});

  std::vector<PcapRecord> captured;
  sw.add_tap("ops", [&](const PcapRecord& r) { captured.push_back(r); });

  a.send_udp(b.ip(), 500, 600, util::to_bytes("x"));
  sim.run();
  // ARP request + reply + data frame at minimum.
  EXPECT_GE(captured.size(), 3u);
  EXPECT_EQ(NetworkLabels::instance().name(captured[0].network), "ops");
}

namespace {
EthernetFrame small_frame(std::uint32_t src_id) {
  Datagram d;
  d.src_ip = IpAddress::make(10, 0, 0, 1);
  d.dst_ip = IpAddress::make(10, 0, 0, 2);
  d.src_port = 1000;
  d.dst_port = 502;
  d.payload = util::to_bytes("poll");
  return EthernetFrame{MacAddress::from_id(src_id), MacAddress::from_id(2),
                       EtherType::kIpv4, d.encode()};
}
}  // namespace

TEST(CaptureTap, OverflowDropsAreCountedNotSilent) {
  CaptureTapConfig config;
  config.ring_slots = 16;
  CaptureTap tap(config);
  // Push 10x the ring capacity with no drain: the tap must never lose
  // a frame without accounting for it.
  for (int i = 0; i < 160; ++i) tap.capture(i, small_frame(1));
  const auto& stats = tap.stats();
  EXPECT_EQ(stats.frames_mirrored, 160u);
  EXPECT_GT(stats.frames_dropped, 0u);
  EXPECT_GT(stats.sampling_entered, 0u);
  EXPECT_GT(stats.stride_escalations, 0u);  // hard-full while sampling
  // mirrored == queued weights + pending + dropped (nothing drained yet).
  EXPECT_EQ(stats.frames_mirrored,
            tap.queued_weight() + tap.pending_weight() + stats.frames_dropped);
}

TEST(CaptureTap, SamplingFoldsWeightsAndExits) {
  CaptureTapConfig config;
  config.ring_slots = 64;
  config.sample_stride = 4;
  CaptureTap tap(config);
  for (int i = 0; i < 60; ++i) tap.capture(i, small_frame(1));
  EXPECT_TRUE(tap.sampling());
  std::uint64_t drained = 0;
  std::uint64_t max_weight = 0;
  tap.drain([&](const FrameSummary& s) {
    drained += s.weight;
    max_weight = std::max<std::uint64_t>(max_weight, s.weight);
  });
  // Weight folding: sampled-out frames ride on captured slots.
  EXPECT_GT(max_weight, 1u);
  EXPECT_EQ(drained + tap.pending_weight() + tap.stats().frames_dropped, 60u);
  // Draining below the low watermark ends sampling.
  EXPECT_FALSE(tap.sampling());
  EXPECT_EQ(tap.stride(), 1u);
}

TEST(CaptureTap, SummarizesHeadersWithoutPayload) {
  const EthernetFrame frame = small_frame(7);
  const FrameSummary s = FrameSummary::summarize(42, frame);
  EXPECT_EQ(s.time, 42u);
  EXPECT_EQ(s.kind, FrameKind::kIpv4);
  EXPECT_EQ(s.src_mac, FrameSummary::mac_key(MacAddress::from_id(7)));
  EXPECT_EQ(s.src_ip, IpAddress::make(10, 0, 0, 1).value);
  EXPECT_EQ(s.dst_port, 502);
  EXPECT_EQ(s.wire_size, frame.wire_size());
  EXPECT_FALSE(s.broadcast());
}

}  // namespace
}  // namespace spire::net
