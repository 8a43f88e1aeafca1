// Incremental shortest-path-first engine for the overlay control plane.
//
// The daemon's route table is a pure function of the confirmed-edge
// graph (an edge counts only if both endpoints advertise each other),
// defined canonically so two different algorithms can compute it and be
// compared byte-for-byte:
//
//   dist[v]   = BFS hop count from self over confirmed edges whose
//               inner vertices are not stubs;
//   parent[v] = the minimum-handle confirmed neighbor of v at
//               dist[v] - 1 that is self or not a stub
//               (parent[self] = self);
//   route[v]  = v when parent[v] == self, else route[parent[v]].
//
// A stub (an overlay client) is only ever a path's first or last
// vertex: routes end at it, and start at it when it is self, but never
// pass through it.
//
// Two implementations of that function live here. full_bfs() rebuilds
// everything from the adjacency rows; the incremental path repairs only
// the region affected by the confirmed-edge deltas accumulated since
// the last recompute (orphan the subtrees cut off by removed tree
// edges, then re-settle the invalid/improved region with a bucket
// queue in distance order). Single link flaps — the steady-state
// workload at 500 daemons — touch O(affected subtree), not O(graph).
// Topology-shape changes (an origin's first advertisement, oversized
// delta batches) fall back to the full BFS. Debug builds assert the
// incremental result equals the full recomputation after every run.
#pragma once

#include <cstdint>
#include <vector>

#include "spines/node_table.hpp"

namespace spire::spines {

struct SpfStats {
  std::uint64_t full_runs = 0;
  std::uint64_t incremental_runs = 0;
  /// Vertices re-settled across all incremental runs (repair work).
  std::uint64_t vertices_settled = 0;
  std::uint64_t fallback_shape = 0;  ///< full runs forced by a shape change
  std::uint64_t fallback_batch = 0;  ///< full runs forced by delta overflow
};

class SpfEngine {
 public:
  static constexpr std::uint32_t kInfDist = 0xFFFFFFFFu;
  /// Confirmed-edge delta batches larger than this are cheaper to
  /// rebuild than to repair.
  static constexpr std::size_t kMaxIncrementalEdges = 64;

  /// Sets the BFS root. Must be called before the first recompute().
  void attach_self(NodeHandle self);

  /// Grows every handle-indexed structure to `count` nodes. New nodes
  /// start with no adjacency and stay unreachable until advertised.
  void ensure_nodes(std::size_t count);

  /// Marks `node` a stub: no path transits it.
  void set_stub(NodeHandle node);
  [[nodiscard]] bool stub(NodeHandle node) const {
    return node < n_ && stub_[node] != 0;
  }

  /// Replaces `origin`'s advertised adjacency row (sorted + deduped
  /// internally, self-loops dropped). Returns true when the row
  /// actually changed — the caller's cue to mark routes dirty.
  /// Confirmed-edge deltas are accumulated for the next recompute().
  bool set_adjacency(NodeHandle origin,
                     const std::vector<NodeHandle>& neighbors);

  /// Recomputes dist/parent/route, incrementally when possible.
  void recompute();

  [[nodiscard]] NodeHandle route(NodeHandle dst) const {
    return dst < routes_.size() ? routes_[dst] : kNoHandle;
  }
  [[nodiscard]] std::uint32_t dist(NodeHandle dst) const {
    return dst < dist_.size() ? dist_[dst] : kInfDist;
  }
  [[nodiscard]] const std::vector<NodeHandle>& routes() const {
    return routes_;
  }
  [[nodiscard]] std::size_t node_count() const { return n_; }
  /// True when `a` and `b` advertise each other: the edges routes use.
  /// Handles the engine has not seen are never confirmed.
  [[nodiscard]] bool confirmed_edge(NodeHandle a, NodeHandle b) const {
    return a < n_ && b < n_ && confirmed(a, b);
  }
  [[nodiscard]] const SpfStats& stats() const { return stats_; }

  /// Recomputes the canonical function from scratch into scratch
  /// buffers and compares with the current dist/parent/route state.
  /// Used by the daemon's debug assert and the equivalence tests.
  [[nodiscard]] bool verify_against_full();

 private:
  struct EdgeDelta {
    NodeHandle u = kNoHandle;
    NodeHandle v = kNoHandle;
  };

  [[nodiscard]] bool advertises(NodeHandle a, NodeHandle b) const;
  [[nodiscard]] bool confirmed(NodeHandle a, NodeHandle b) const {
    return advertises(a, b) && advertises(b, a);
  }
  /// Whether paths may continue through `u`: self, or any non-stub.
  [[nodiscard]] bool transits(NodeHandle u) const {
    return u == self_ || stub_[u] == 0;
  }

  /// Canonical full BFS into the given output vectors.
  void compute_full(std::vector<std::uint32_t>& dist,
                    std::vector<NodeHandle>& parent,
                    std::vector<NodeHandle>& routes) const;
  void full_bfs();
  void incremental();
  void rebuild_children();
  void orphan_subtree(NodeHandle v);
  void detach_child(NodeHandle parent, NodeHandle child);
  void push_candidate(NodeHandle v, std::uint32_t d);

  NodeHandle self_ = kNoHandle;
  std::size_t n_ = 0;
  bool has_run_ = false;
  bool force_full_ = true;

  std::vector<std::vector<NodeHandle>> adj_;  ///< sorted advertised rows
  std::vector<std::uint8_t> row_present_;
  std::vector<std::uint8_t> stub_;

  std::vector<std::uint32_t> dist_;
  std::vector<NodeHandle> parent_;
  std::vector<NodeHandle> routes_;
  std::vector<std::vector<NodeHandle>> children_;  ///< current SPF tree

  std::vector<EdgeDelta> pending_add_;
  std::vector<EdgeDelta> pending_remove_;

  // Incremental-run scratch (reused across runs, sized lazily).
  std::vector<std::vector<NodeHandle>> buckets_;
  std::vector<std::uint32_t> settled_round_;
  std::uint32_t round_ = 0;
  std::vector<NodeHandle> invalid_scratch_;
  std::vector<NodeHandle> stack_scratch_;
  std::vector<NodeHandle> route_fix_queue_;
  std::vector<NodeHandle> row_scratch_;

  // verify_against_full scratch.
  std::vector<std::uint32_t> vdist_;
  std::vector<NodeHandle> vparent_;
  std::vector<NodeHandle> vroutes_;

  SpfStats stats_;
};

}  // namespace spire::spines
