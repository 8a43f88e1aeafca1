// Incremental-SPF equivalence tests: the engine's repaired state must
// be byte-identical to the canonical full BFS after every confirmed-
// edge event, across randomized churn over seeded topologies. The
// reference implementation here is written independently from the
// engine's full_bfs() so a shared bug cannot hide the divergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "spines/node_table.hpp"
#include "spines/spf.hpp"

namespace spire::spines {
namespace {

/// Independent canonical-function reference: dist by plain BFS over
/// confirmed edges, parent = min-handle confirmed neighbor one hop
/// closer, route chased through parents. Paths continue through self
/// and non-stubs only.
struct Reference {
  std::vector<std::uint32_t> dist;
  std::vector<NodeHandle> routes;

  void compute(const std::vector<std::set<NodeHandle>>& adv, NodeHandle self,
               const std::set<NodeHandle>& stubs) {
    const std::size_t n = adv.size();
    auto confirmed = [&](NodeHandle a, NodeHandle b) {
      return adv[a].count(b) != 0 && adv[b].count(a) != 0;
    };
    auto transits = [&](NodeHandle u) {
      return u == self || stubs.count(u) == 0;
    };
    dist.assign(n, SpfEngine::kInfDist);
    dist[self] = 0;
    std::vector<NodeHandle> frontier{self};
    while (!frontier.empty()) {
      std::vector<NodeHandle> next;
      for (const NodeHandle u : frontier) {
        if (!transits(u)) continue;
        for (const NodeHandle v : adv[u]) {
          if (!confirmed(u, v) || dist[v] != SpfEngine::kInfDist) continue;
          dist[v] = dist[u] + 1;
          next.push_back(v);
        }
      }
      frontier = std::move(next);
    }
    std::vector<NodeHandle> parent(n, kNoHandle);
    parent[self] = self;
    for (NodeHandle v = 0; v < n; ++v) {
      if (v == self || dist[v] == SpfEngine::kInfDist) continue;
      for (NodeHandle u = 0; u < n; ++u) {
        if (dist[u] + 1 == dist[v] && transits(u) && confirmed(u, v)) {
          parent[v] = u;  // first hit is the minimum handle
          break;
        }
      }
    }
    routes.assign(n, kNoHandle);
    for (NodeHandle v = 0; v < n; ++v) {
      if (v == self || parent[v] == kNoHandle) continue;
      NodeHandle hop = v;
      while (parent[hop] != self) hop = parent[hop];
      routes[v] = hop;
    }
  }
};

/// Drives an SpfEngine and the reference through the same edge events.
struct SpfHarness {
  explicit SpfHarness(std::size_t n, NodeHandle self = 0) : self_(self) {
    adv_.resize(n);
    engine_.attach_self(self);
    engine_.ensure_nodes(n);
  }

  void toggle(NodeHandle a, NodeHandle b) {
    if (adv_[a].count(b) != 0) {
      adv_[a].erase(b);
      adv_[b].erase(a);
    } else {
      adv_[a].insert(b);
      adv_[b].insert(a);
    }
    push_row(a);
    push_row(b);
  }

  /// Removes only one direction of an edge (an origin withdrawing a
  /// neighbor the far side still advertises): the confirmed edge must
  /// drop even though one advertisement remains.
  void withdraw_one_side(NodeHandle a, NodeHandle b) {
    adv_[a].erase(b);
    push_row(a);
  }

  void make_stub(NodeHandle v) {
    stubs_.insert(v);
    engine_.set_stub(v);
  }

  void push_row(NodeHandle v) {
    std::vector<NodeHandle> row(adv_[v].begin(), adv_[v].end());
    engine_.set_adjacency(v, row);
  }

  ::testing::AssertionResult recompute_and_check() {
    engine_.recompute();
    if (!engine_.verify_against_full()) {
      return ::testing::AssertionFailure()
             << "engine state diverged from its own full BFS";
    }
    ref_.compute(adv_, self_, stubs_);
    for (NodeHandle v = 0; v < adv_.size(); ++v) {
      if (engine_.dist(v) != ref_.dist[v]) {
        return ::testing::AssertionFailure()
               << "dist[" << v << "]: engine " << engine_.dist(v)
               << " reference " << ref_.dist[v];
      }
      if (engine_.route(v) != ref_.routes[v]) {
        return ::testing::AssertionFailure()
               << "route[" << v << "]: engine " << engine_.route(v)
               << " reference " << ref_.routes[v];
      }
    }
    return ::testing::AssertionSuccess();
  }

  NodeHandle self_;
  std::vector<std::set<NodeHandle>> adv_;
  std::set<NodeHandle> stubs_;
  SpfEngine engine_;
  Reference ref_;
};

TEST(SpfEngine, LineTopologyRoutesThroughFirstHop) {
  SpfHarness h(5);
  for (NodeHandle v = 0; v + 1 < 5; ++v) h.toggle(v, v + 1);
  ASSERT_TRUE(h.recompute_and_check());
  EXPECT_EQ(h.engine_.dist(4), 4u);
  EXPECT_EQ(h.engine_.route(4), 1u);
}

TEST(SpfEngine, CanonicalTieBreakPrefersMinimumHandleParent) {
  // Diamond 0-{1,2}-3: node 3 sits at distance 2 behind both 1 and 2;
  // the canonical parent is 1 (minimum handle), so the route is via 1.
  SpfHarness h(4);
  h.toggle(0, 1);
  h.toggle(0, 2);
  h.toggle(1, 3);
  h.toggle(2, 3);
  ASSERT_TRUE(h.recompute_and_check());
  EXPECT_EQ(h.engine_.route(3), 1u);

  // Removing 1-3 must shift the route to 2 — and removing it
  // incrementally must match the from-scratch answer.
  h.toggle(1, 3);
  ASSERT_TRUE(h.recompute_and_check());
  EXPECT_EQ(h.engine_.route(3), 2u);
}

TEST(SpfEngine, OneSidedWithdrawalDropsConfirmedEdge) {
  SpfHarness h(3);
  h.toggle(0, 1);
  h.toggle(1, 2);
  ASSERT_TRUE(h.recompute_and_check());
  ASSERT_EQ(h.engine_.dist(2), 2u);

  h.withdraw_one_side(1, 2);  // node 2 still advertises 1
  ASSERT_TRUE(h.recompute_and_check());
  EXPECT_EQ(h.engine_.dist(2), SpfEngine::kInfDist);
  EXPECT_EQ(h.engine_.route(2), kNoHandle);
}

TEST(SpfEngine, RandomizedChurnStaysIdenticalToReference) {
  // Several seeds, each: grow a random connected-ish graph, then churn
  // single links with a recompute + full comparison after every event —
  // exactly the steady-state workload (one LSU per recompute window).
  for (const std::uint32_t seed : {7u, 23u, 99u, 1234u}) {
    std::mt19937 rng(seed);
    constexpr std::size_t kNodes = 40;
    SpfHarness h(kNodes);
    std::uniform_int_distribution<NodeHandle> pick(0, kNodes - 1);

    // Spanning chain plus random chords so most of the graph is
    // reachable and removals actually orphan subtrees.
    for (NodeHandle v = 0; v + 1 < kNodes; ++v) h.toggle(v, v + 1);
    for (int i = 0; i < 60; ++i) {
      NodeHandle a = pick(rng), b = pick(rng);
      if (a != b) h.toggle(a, b);
    }
    ASSERT_TRUE(h.recompute_and_check()) << "seed " << seed << " warmup";

    for (int event = 0; event < 400; ++event) {
      NodeHandle a = pick(rng), b = pick(rng);
      if (a == b) continue;
      if (event % 16 == 15) {
        h.withdraw_one_side(a, b);
      } else {
        h.toggle(a, b);
      }
      ASSERT_TRUE(h.recompute_and_check())
          << "seed " << seed << " event " << event;
    }

    // The point of the engine: single-link churn must overwhelmingly
    // take the incremental path, not fall back to full BFS.
    const SpfStats& s = h.engine_.stats();
    EXPECT_GT(s.incremental_runs, 10 * s.full_runs)
        << "seed " << seed << ": incremental " << s.incremental_runs
        << " full " << s.full_runs;
  }
}

TEST(SpfEngine, StubsEndPathsButNeverTransitUnderChurn) {
  // A stub is a path's last vertex only (or its first, as self): the
  // incremental repair must honour that under the same single-link
  // churn, including when a stub offers the only shorter path.
  for (const std::uint32_t seed : {5u, 77u, 2024u}) {
    for (const NodeHandle self : {NodeHandle{0}, NodeHandle{3}}) {
      std::mt19937 rng(seed);
      constexpr std::size_t kNodes = 36;
      SpfHarness h(kNodes, self);
      for (NodeHandle v = 3; v < kNodes; v += 4) h.make_stub(v);
      std::uniform_int_distribution<NodeHandle> pick(0, kNodes - 1);
      for (NodeHandle v = 0; v + 1 < kNodes; ++v) h.toggle(v, v + 1);
      for (int i = 0; i < 60; ++i) {
        NodeHandle a = pick(rng), b = pick(rng);
        if (a != b) h.toggle(a, b);
      }
      ASSERT_TRUE(h.recompute_and_check()) << "seed " << seed << " warmup";
      for (int event = 0; event < 300; ++event) {
        NodeHandle a = pick(rng), b = pick(rng);
        if (a == b) continue;
        h.toggle(a, b);
        ASSERT_TRUE(h.recompute_and_check())
            << "seed " << seed << " self " << self << " event " << event;
      }
      const SpfStats& s = h.engine_.stats();
      EXPECT_GT(s.incremental_runs, 10 * s.full_runs) << "seed " << seed;
    }
  }
}

TEST(SpfEngine, StubOnTheOnlyPathLeavesTheFarSideUnreachable) {
  // 0 - 1(stub) - 2: node 0 reaches the stub but not through it; the
  // stub itself, as self, routes to both sides.
  SpfHarness from_end(3, 0);
  from_end.make_stub(1);
  from_end.toggle(0, 1);
  from_end.toggle(1, 2);
  ASSERT_TRUE(from_end.recompute_and_check());
  EXPECT_EQ(from_end.engine_.route(1), 1u);
  EXPECT_EQ(from_end.engine_.route(2), kNoHandle);

  SpfHarness from_stub(3, 1);
  from_stub.make_stub(1);
  from_stub.toggle(0, 1);
  from_stub.toggle(1, 2);
  ASSERT_TRUE(from_stub.recompute_and_check());
  EXPECT_EQ(from_stub.engine_.route(0), 0u);
  EXPECT_EQ(from_stub.engine_.route(2), 2u);
}

TEST(SpfEngine, BatchedChurnBetweenRecomputes) {
  // Many LSUs can land inside one coalescing window, including add +
  // remove of the same edge; the batch-delta path must still match.
  std::mt19937 rng(4242);
  constexpr std::size_t kNodes = 32;
  SpfHarness h(kNodes);
  std::uniform_int_distribution<NodeHandle> pick(0, kNodes - 1);
  for (NodeHandle v = 0; v + 1 < kNodes; ++v) h.toggle(v, v + 1);
  ASSERT_TRUE(h.recompute_and_check());

  for (int batch = 0; batch < 120; ++batch) {
    const int events = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < events; ++i) {
      NodeHandle a = pick(rng), b = pick(rng);
      if (a != b) h.toggle(a, b);
    }
    ASSERT_TRUE(h.recompute_and_check()) << "batch " << batch;
  }
}

TEST(SpfEngine, GrowingMembershipFallsBackThenGoesIncremental) {
  // A node's first advertisement is a shape change (full-BFS fallback);
  // subsequent flaps on the same membership must repair incrementally.
  SpfHarness h(6);
  h.toggle(0, 1);
  ASSERT_TRUE(h.recompute_and_check());
  const std::uint64_t full_before = h.engine_.stats().full_runs;
  h.toggle(1, 2);  // node 2's first row: shape change
  ASSERT_TRUE(h.recompute_and_check());
  EXPECT_GT(h.engine_.stats().full_runs, full_before);

  const std::uint64_t full_settled = h.engine_.stats().full_runs;
  h.toggle(1, 2);
  ASSERT_TRUE(h.recompute_and_check());
  h.toggle(1, 2);
  ASSERT_TRUE(h.recompute_and_check());
  EXPECT_EQ(h.engine_.stats().full_runs, full_settled);
  EXPECT_GE(h.engine_.stats().incremental_runs, 2u);
}

TEST(NodeTable, OverflowIsExplicitAndCounted) {
  NodeTable table(3);
  EXPECT_EQ(table.capacity(), 3u);
  EXPECT_NE(table.intern("a"), kNoHandle);
  EXPECT_NE(table.intern("b"), kNoHandle);
  EXPECT_NE(table.intern("c"), kNoHandle);
  EXPECT_EQ(table.overflows(), 0u);

  // Fourth distinct name: rejected and counted, not silently capped.
  EXPECT_EQ(table.intern("d"), kNoHandle);
  EXPECT_EQ(table.intern("e"), kNoHandle);
  EXPECT_EQ(table.overflows(), 2u);
  EXPECT_EQ(table.size(), 3u);

  // Existing names keep interning at the boundary.
  EXPECT_EQ(table.intern("a"), table.lookup("a"));
  EXPECT_EQ(table.overflows(), 2u);
}

TEST(NodeTable, DefaultBoundCoversWideAreaDeployments) {
  NodeTable table;
  EXPECT_GE(table.capacity(), 4096u);  // the old hard bound, now a floor
  EXPECT_EQ(table.capacity(), kMaxOverlayNodes);
}

}  // namespace
}  // namespace spire::spines
