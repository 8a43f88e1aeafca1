// Hierarchical area routing tests: LSU flooding stays intra-area,
// border daemons export bounded summary advertisements, interior
// daemons reach remote areas through their borders, advertisement
// rotation covers large member sets, losing a border daemon fails
// traffic over to the surviving one, and a member no border advertises
// any more ages out of routes and transit summaries.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "spines/overlay.hpp"

namespace spire::spines {
namespace {

struct AreaFixture : ::testing::Test {
  sim::Simulator sim;
  net::Network network{sim};
  crypto::Keyring keyring{"area-test"};
  net::Switch* sw = nullptr;
  std::vector<net::Host*> hosts;
  std::unique_ptr<Overlay> overlay;

  /// Builds `areas[i]`-assigned hosts on one switch, routed mode.
  void build(const std::vector<std::uint32_t>& areas,
             const std::vector<std::pair<int, int>>& links,
             DaemonConfig config = {}) {
    sw = &network.add_switch(net::SwitchConfig{});
    for (std::size_t i = 0; i < areas.size(); ++i) {
      net::Host& host = network.add_host("h" + std::to_string(i));
      host.add_interface(
          net::MacAddress::from_id(static_cast<std::uint32_t>(i + 1)),
          net::IpAddress::make(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
          24);
      network.connect(host, 0, *sw);
      hosts.push_back(&host);
    }
    config.mode = ForwardingMode::kRouted;
    overlay = std::make_unique<Overlay>(sim, keyring, config);
    for (std::size_t i = 0; i < areas.size(); ++i) {
      overlay->add_node(node(i), *hosts[i], kDefaultDaemonPort, 0, areas[i]);
    }
    for (const auto& [a, b] : links) overlay->add_link(node(a), node(b));
    overlay->build();
    overlay->start_all();
  }

  static NodeId node(std::size_t i) { return "n" + std::to_string(i); }

  Daemon& d(std::size_t i) { return overlay->daemon(node(i)); }

  void settle(sim::Time t = 5 * sim::kSecond) { sim.run_until(sim.now() + t); }

  int send_and_count(std::size_t from, std::size_t to, int n = 1) {
    int deliveries = 0;
    d(to).open_session(40, [&](const DataBody&) { ++deliveries; });
    for (int i = 0; i < n; ++i) {
      d(from).session_send(40, node(to), 40, util::to_bytes("x"));
    }
    settle(1 * sim::kSecond);
    return deliveries;
  }
};

TEST_F(AreaFixture, LsuFloodingStaysIntraArea) {
  // Two 3-node areas joined at n2-n3. With summaries effectively off
  // (huge interval), nothing about area 0 may leak into area 1: the
  // far border never even interns the remote names, and interior
  // daemons have no route.
  DaemonConfig config;
  config.summary_interval = 3600 * sim::kSecond;
  build({0, 0, 0, 1, 1, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, config);
  settle();

  EXPECT_TRUE(d(2).link_up(node(3)));  // the wide link itself is up
  EXPECT_TRUE(d(2).is_border());
  EXPECT_TRUE(d(3).is_border());
  EXPECT_FALSE(d(1).is_border());

  // LSUs did not cross: n3 never admitted n0/n1, n2 never admitted n4.
  EXPECT_EQ(d(3).node_table().lookup(node(0)), kNoHandle);
  EXPECT_EQ(d(3).node_table().lookup(node(1)), kNoHandle);
  EXPECT_EQ(d(2).node_table().lookup(node(4)), kNoHandle);
  EXPECT_FALSE(d(5).next_hop(node(0)).has_value());

  // Intra-area routing is unaffected.
  EXPECT_TRUE(d(0).next_hop(node(2)).has_value());
  EXPECT_TRUE(d(5).next_hop(node(3)).has_value());
}

TEST_F(AreaFixture, SummariesDeliverCrossAreaRoutes) {
  build({0, 0, 0, 1, 1, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  settle();

  // Interior daemon two hops from its border routes toward the border.
  const auto hop = d(5).next_hop(node(0));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, node(4));

  EXPECT_EQ(send_and_count(0, 5), 1);
  EXPECT_EQ(send_and_count(5, 0), 1);

  EXPECT_GT(d(2).stats().border_summaries_sent, 0u);
  EXPECT_GT(d(3).stats().summaries_accepted, 0u);
  EXPECT_GT(d(2).stats().inter_area_control_bytes, 0u);
  EXPECT_EQ(d(2).stats().summaries_rejected_sig, 0u);
}

TEST_F(AreaFixture, RotationCoversMembersBeyondFanoutCap) {
  // Area 0 has 5 members but each advertisement carries at most 2
  // names: rotation must still cover the full set within a few
  // intervals, so the area-1 interior daemon learns routes to all.
  DaemonConfig config;
  config.summary_fanout_cap = 2;
  build({0, 0, 0, 0, 0, 1, 1},
        {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}, config);
  settle(8 * sim::kSecond);

  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(d(6).next_hop(node(i)).has_value()) << "member " << i;
  }
  EXPECT_EQ(send_and_count(6, 0), 1);
}

TEST_F(AreaFixture, BorderFailoverUsesSurvivingBorder) {
  // Two area rings joined by two independent wide links: n2-n3 and
  // n1-n4. Killing border n2 must shift n0's remote traffic onto n1.
  build({0, 0, 0, 1, 1, 1},
        {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}, {1, 4}});
  settle();
  ASSERT_EQ(send_and_count(0, 5), 1);

  d(2).stop();
  settle(3 * sim::kSecond);  // hello timeout + recompute + re-summarize

  const auto hop = d(0).next_hop(node(5));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, node(1));
  EXPECT_EQ(send_and_count(0, 5, 3), 3);
}

TEST_F(AreaFixture, SilentRemoteMemberAgesOutAfterMemberTimeout) {
  // n2-n3 is the only wide link, so area 0's members reach area 1 only
  // through border n2's summaries: n3 keeps them as foreign members and
  // re-advertises them into area 1 as a transit stream.
  build({0, 0, 0, 1, 1, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  settle();
  ASSERT_TRUE(d(3).next_hop(node(0)).has_value());
  ASSERT_TRUE(d(5).next_hop(node(0)).has_value());

  const sim::Time interval = DaemonConfig{}.summary_interval;
  const auto poll_until_gone = [&](std::size_t at) {
    const sim::Time limit = sim.now() + 60 * sim::kSecond;
    while (d(at).next_hop(node(0)).has_value() && sim.now() < limit) {
      sim.run_until(sim.now() + 10 * sim::kMillisecond);
    }
    return sim.now();
  };
  d(0).stop();
  // Area 0's SPF loses n0 within a hello timeout. n2's summaries list
  // only SPF-reachable members and go out once per interval, so its
  // last listing of n0 falls in (unlisted - interval, unlisted].
  const sim::Time unlisted = poll_until_gone(2);

  // The border's route outlives that last listing by the member
  // timeout, and drops at the next route refresh (one per interval).
  const sim::Time border_drop = poll_until_gone(3);
  EXPECT_GT(border_drop, unlisted - interval + kSummaryMemberTimeout);
  EXPECT_LE(border_drop, unlisted + interval + kSummaryMemberTimeout);

  // The interior daemon's route rests on n3's transit stream, which
  // prunes n0 within an interval of n3's own drop. Its last listing
  // then ages out at n5 one member timeout later: a transit stream that
  // kept listing n0 would keep the route alive for good.
  const sim::Time interior_drop = poll_until_gone(5);
  EXPECT_GT(interior_drop, border_drop - 2 * interval + kSummaryMemberTimeout);
  EXPECT_LT(interior_drop, border_drop + 3 * interval + kSummaryMemberTimeout);

  // Area 0's live members are still advertised and routed.
  EXPECT_TRUE(d(5).next_hop(node(1)).has_value());
  EXPECT_EQ(send_and_count(5, 1), 1);
}

TEST_F(AreaFixture, SingleAreaOverlayHasNoBordersAndNoSummaries) {
  build({0, 0, 0}, {{0, 1}, {1, 2}});
  settle();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(d(i).is_border());
    EXPECT_EQ(d(i).stats().border_summaries_sent, 0u);
    EXPECT_EQ(d(i).stats().inter_area_control_bytes, 0u);
  }
  EXPECT_EQ(send_and_count(0, 2), 1);
}

TEST_F(AreaFixture, IncrementalSpfCarriesSteadyStateChurn) {
  // Under periodic LSU refresh with no topology change, recomputes are
  // coalesced and the few that run settle incrementally after warmup.
  build({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  settle(10 * sim::kSecond);
  const DaemonStats& s = d(0).stats();
  EXPECT_EQ(s.spf_full + s.spf_incremental, s.route_recomputes);
  // Flap a link: the resulting recomputes must take the repair path.
  const std::uint64_t full_before = d(0).stats().spf_full;
  d(3).stop();
  settle(3 * sim::kSecond);
  EXPECT_GT(d(0).stats().route_recomputes, 0u);
  EXPECT_EQ(d(0).stats().spf_full, full_before);
  EXPECT_GT(d(0).stats().spf_incremental, 0u);
}

}  // namespace
}  // namespace spire::spines
