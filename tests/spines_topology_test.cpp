// Property sweep over overlay topologies: for rings, lines, stars,
// meshes, and seeded random graphs, in both forwarding modes, the
// overlay must deliver end-to-end between every pair — and keep
// delivering after any single non-articulation node fails when the
// topology is 2-connected.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <type_traits>

#include "net/network.hpp"
#include "sim/rng.hpp"
#include "spines/overlay.hpp"

namespace spire::spines {
namespace {

enum class Shape { kLine, kRing, kStar, kMesh, kRandom };

const char* to_string(Shape s) {
  switch (s) {
    case Shape::kLine: return "Line";
    case Shape::kRing: return "Ring";
    case Shape::kStar: return "Star";
    case Shape::kMesh: return "Mesh";
    case Shape::kRandom: return "Random";
  }
  return "?";
}

// gtest names each instance after its parameter's bytes ("32-byte
// object <...>"), so the padding between the fields is spelled out and
// zeroed: left implicit, it carried whatever the stack held, and the
// ctest names changed from build to build.
struct TopologyParam {
  TopologyParam(Shape s, std::size_t n, ForwardingMode m, std::uint64_t sd)
      : shape(s), nodes(n), mode(m), seed(sd) {}
  Shape shape;
  std::uint32_t zero0 = 0;
  std::size_t nodes;
  ForwardingMode mode;
  std::uint32_t zero1 = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TopologyParam>,
              "TopologyParam must have no implicit padding");

std::vector<std::pair<int, int>> make_links(const TopologyParam& param) {
  std::vector<std::pair<int, int>> links;
  const int n = static_cast<int>(param.nodes);
  switch (param.shape) {
    case Shape::kLine:
      for (int i = 0; i + 1 < n; ++i) links.emplace_back(i, i + 1);
      break;
    case Shape::kRing:
      for (int i = 0; i < n; ++i) links.emplace_back(i, (i + 1) % n);
      break;
    case Shape::kStar:
      for (int i = 1; i < n; ++i) links.emplace_back(0, i);
      break;
    case Shape::kMesh:
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) links.emplace_back(i, j);
      }
      break;
    case Shape::kRandom: {
      // Ring (guarantees connectivity) + random chords.
      sim::Rng rng(param.seed);
      for (int i = 0; i < n; ++i) links.emplace_back(i, (i + 1) % n);
      for (int extra = 0; extra < n; ++extra) {
        const int a = static_cast<int>(rng.uniform(0, param.nodes - 1));
        const int b = static_cast<int>(rng.uniform(0, param.nodes - 1));
        if (a == b) continue;
        const auto link = std::make_pair(std::min(a, b), std::max(a, b));
        if (std::find(links.begin(), links.end(), link) == links.end()) {
          links.push_back(link);
        }
      }
      break;
    }
  }
  return links;
}

struct Harness {
  sim::Simulator sim;
  net::Network network{sim};
  crypto::Keyring keyring{"topo-test"};
  std::unique_ptr<Overlay> overlay;
  std::size_t n = 0;

  static NodeId node(std::size_t i) { return "n" + std::to_string(i); }

  void build(const TopologyParam& param) {
    n = param.nodes;
    auto& sw = network.add_switch(net::SwitchConfig{});
    DaemonConfig config;
    config.mode = param.mode;
    overlay = std::make_unique<Overlay>(sim, keyring, config);
    for (std::size_t i = 0; i < n; ++i) {
      net::Host& host = network.add_host("h" + std::to_string(i));
      host.add_interface(
          net::MacAddress::from_id(static_cast<std::uint32_t>(i + 1)),
          net::IpAddress::make(10, 0, static_cast<std::uint8_t>(i / 200),
                               static_cast<std::uint8_t>(1 + i % 200)),
          16);
      network.connect(host, 0, sw);
      overlay->add_node(node(i), host);
    }
    for (const auto& [a, b] : make_links(param)) {
      overlay->add_link(node(static_cast<std::size_t>(a)),
                        node(static_cast<std::size_t>(b)));
    }
    overlay->build();
    overlay->start_all();
    sim.run_until(sim.now() + 3 * sim::kSecond);  // links + LSU flood
  }

  /// Sends one message per ordered pair; returns delivered count.
  std::size_t all_pairs_delivery() {
    std::size_t delivered = 0;
    std::vector<std::map<std::string, int>> got(n);
    for (std::size_t i = 0; i < n; ++i) {
      overlay->daemon(node(i)).open_session(
          50, [&got, i](const DataBody& d) {
            got[i][d.src + "/" + util::to_string(d.payload)]++;
          });
    }
    for (std::size_t from = 0; from < n; ++from) {
      if (!overlay->daemon(node(from)).running()) continue;
      for (std::size_t to = 0; to < n; ++to) {
        if (from == to || !overlay->daemon(node(to)).running()) continue;
        overlay->daemon(node(from)).session_send(
            50, node(to), 50,
            util::to_bytes("m" + std::to_string(from) + "-" +
                           std::to_string(to)));
      }
    }
    sim.run_until(sim.now() + 3 * sim::kSecond);
    for (std::size_t from = 0; from < n; ++from) {
      if (!overlay->daemon(node(from)).running()) continue;
      for (std::size_t to = 0; to < n; ++to) {
        if (from == to || !overlay->daemon(node(to)).running()) continue;
        const auto key = node(from) + "/m" + std::to_string(from) + "-" +
                         std::to_string(to);
        const auto it = got[to].find(key);
        if (it != got[to].end()) {
          EXPECT_EQ(it->second, 1) << "duplicate delivery " << key;
          ++delivered;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) overlay->daemon(node(i)).close_session(50);
    return delivered;
  }
};

class TopologySweep : public ::testing::TestWithParam<TopologyParam> {};

TEST_P(TopologySweep, AllPairsDeliverExactlyOnce) {
  Harness harness;
  harness.build(GetParam());
  const std::size_t expected = harness.n * (harness.n - 1);
  EXPECT_EQ(harness.all_pairs_delivery(), expected);
}

TEST_P(TopologySweep, SurvivesNonCutNodeFailure) {
  const TopologyParam param = GetParam();
  if (param.shape == Shape::kLine || param.shape == Shape::kStar) {
    GTEST_SKIP() << "every interior/hub node is a cut vertex";
  }
  Harness harness;
  harness.build(param);
  // Rings and ring-based random graphs are 2-connected: kill any one
  // node; the rest must still reach each other.
  harness.overlay->daemon(Harness::node(1)).stop();
  harness.sim.run_until(harness.sim.now() + 3 * sim::kSecond);

  const std::size_t live = harness.n - 1;
  const std::size_t expected = live * (live - 1);
  EXPECT_EQ(harness.all_pairs_delivery(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologySweep,
    ::testing::Values(
        TopologyParam{Shape::kLine, 5, ForwardingMode::kRouted, 1},
        TopologyParam{Shape::kLine, 5, ForwardingMode::kPriorityFlood, 1},
        TopologyParam{Shape::kRing, 6, ForwardingMode::kRouted, 1},
        TopologyParam{Shape::kRing, 6, ForwardingMode::kPriorityFlood, 1},
        TopologyParam{Shape::kStar, 7, ForwardingMode::kRouted, 1},
        TopologyParam{Shape::kStar, 7, ForwardingMode::kPriorityFlood, 1},
        TopologyParam{Shape::kMesh, 5, ForwardingMode::kPriorityFlood, 1},
        TopologyParam{Shape::kRandom, 8, ForwardingMode::kRouted, 3},
        TopologyParam{Shape::kRandom, 8, ForwardingMode::kRouted, 4},
        TopologyParam{Shape::kRandom, 8, ForwardingMode::kPriorityFlood, 3},
        TopologyParam{Shape::kRandom, 8, ForwardingMode::kPriorityFlood, 4}),
    [](const ::testing::TestParamInfo<TopologyParam>& info) {
      std::ostringstream name;
      name << to_string(info.param.shape) << info.param.nodes
           << (info.param.mode == ForwardingMode::kRouted ? "Routed" : "Flood")
           << "s" << info.param.seed;
      return name.str();
    });

}  // namespace
}  // namespace spire::spines
