#include "spines/spf.hpp"

#include <algorithm>
#include <cassert>

namespace spire::spines {

void SpfEngine::attach_self(NodeHandle self) {
  self_ = self;
  if (self_ != kNoHandle) ensure_nodes(self_ + 1);
  force_full_ = true;
}

void SpfEngine::ensure_nodes(std::size_t count) {
  if (count <= n_) return;
  n_ = count;
  adj_.resize(n_);
  row_present_.resize(n_, 0);
  stub_.resize(n_, 0);
  dist_.resize(n_, kInfDist);
  parent_.resize(n_, kNoHandle);
  routes_.resize(n_, kNoHandle);
  children_.resize(n_);
  settled_round_.resize(n_, 0);
}

void SpfEngine::set_stub(NodeHandle node) {
  ensure_nodes(node + 1);
  stub_[node] = 1;
  force_full_ = true;
}

bool SpfEngine::advertises(NodeHandle a, NodeHandle b) const {
  const std::vector<NodeHandle>& row = adj_[a];
  return std::binary_search(row.begin(), row.end(), b);
}

bool SpfEngine::set_adjacency(NodeHandle origin,
                              const std::vector<NodeHandle>& neighbors) {
  ensure_nodes(origin + 1);
  row_scratch_.clear();
  for (const NodeHandle x : neighbors) {
    if (x == kNoHandle || x == origin) continue;
    ensure_nodes(x + 1);
    row_scratch_.push_back(x);
  }
  std::sort(row_scratch_.begin(), row_scratch_.end());
  row_scratch_.erase(std::unique(row_scratch_.begin(), row_scratch_.end()),
                     row_scratch_.end());

  std::vector<NodeHandle>& row = adj_[origin];
  if (row_present_[origin] && row == row_scratch_) return false;

  if (!row_present_[origin]) {
    // An origin's first advertisement changes the shape of the graph
    // (a brand-new vertex with edges): rebuild rather than repair.
    row_present_[origin] = 1;
    force_full_ = true;
  } else {
    // Record the confirmed-edge deltas: (origin, x) was/is confirmed
    // exactly when x advertises origin back, and x's row is untouched
    // by this call.
    auto old_it = row.begin();
    auto new_it = row_scratch_.begin();
    while (old_it != row.end() || new_it != row_scratch_.end()) {
      if (new_it == row_scratch_.end() ||
          (old_it != row.end() && *old_it < *new_it)) {
        if (advertises(*old_it, origin)) {
          pending_remove_.push_back({origin, *old_it});
        }
        ++old_it;
      } else if (old_it == row.end() || *new_it < *old_it) {
        if (advertises(*new_it, origin)) {
          pending_add_.push_back({origin, *new_it});
        }
        ++new_it;
      } else {
        ++old_it;
        ++new_it;
      }
    }
  }
  row = row_scratch_;
  return true;
}

void SpfEngine::compute_full(std::vector<std::uint32_t>& dist,
                             std::vector<NodeHandle>& parent,
                             std::vector<NodeHandle>& routes) const {
  dist.assign(n_, kInfDist);
  parent.assign(n_, kNoHandle);
  routes.assign(n_, kNoHandle);
  if (self_ == kNoHandle || self_ >= n_) return;
  dist[self_] = 0;
  parent[self_] = self_;

  // Each frontier is processed in ascending handle order, so the first
  // discoverer of v is its minimum-handle neighbor at dist - 1 — the
  // canonical parent.
  std::vector<NodeHandle> frontier{self_};
  std::vector<NodeHandle> next;
  std::uint32_t d = 0;
  while (!frontier.empty()) {
    next.clear();
    for (const NodeHandle u : frontier) {
      if (!transits(u)) continue;
      for (const NodeHandle v : adj_[u]) {
        if (dist[v] != kInfDist) continue;
        if (!advertises(v, u)) continue;  // unconfirmed edge
        dist[v] = d + 1;
        parent[v] = u;
        routes[v] = (u == self_) ? v : routes[u];
        next.push_back(v);
      }
    }
    std::sort(next.begin(), next.end());
    frontier.swap(next);
    ++d;
  }
}

void SpfEngine::rebuild_children() {
  for (auto& c : children_) c.clear();
  for (NodeHandle v = 0; v < n_; ++v) {
    if (v == self_ || parent_[v] == kNoHandle) continue;
    children_[parent_[v]].push_back(v);
  }
}

void SpfEngine::full_bfs() {
  ++stats_.full_runs;
  compute_full(dist_, parent_, routes_);
  rebuild_children();
}

void SpfEngine::detach_child(NodeHandle parent, NodeHandle child) {
  std::vector<NodeHandle>& kids = children_[parent];
  const auto it = std::find(kids.begin(), kids.end(), child);
  if (it != kids.end()) {
    *it = kids.back();
    kids.pop_back();
  }
}

void SpfEngine::orphan_subtree(NodeHandle v) {
  if (dist_[v] == kInfDist) return;  // already invalid
  detach_child(parent_[v], v);
  stack_scratch_.clear();
  stack_scratch_.push_back(v);
  while (!stack_scratch_.empty()) {
    const NodeHandle x = stack_scratch_.back();
    stack_scratch_.pop_back();
    if (dist_[x] == kInfDist) continue;
    dist_[x] = kInfDist;
    parent_[x] = kNoHandle;
    routes_[x] = kNoHandle;
    invalid_scratch_.push_back(x);
    for (const NodeHandle c : children_[x]) stack_scratch_.push_back(c);
    children_[x].clear();
  }
}

void SpfEngine::push_candidate(NodeHandle v, std::uint32_t d) {
  if (buckets_.size() <= d) buckets_.resize(d + 1);
  buckets_[d].push_back(v);
}

void SpfEngine::incremental() {
  ++stats_.incremental_runs;
  ++round_;
  invalid_scratch_.clear();
  route_fix_queue_.clear();

  // Phase 1: removed tree edges orphan the subtree hanging off them.
  // Edges that were re-added within the same batch are still confirmed
  // and need no repair.
  for (const EdgeDelta& e : pending_remove_) {
    if (confirmed(e.u, e.v)) continue;
    if (parent_[e.v] == e.u) {
      orphan_subtree(e.v);
    } else if (parent_[e.u] == e.v) {
      orphan_subtree(e.u);
    }
    // A removed non-tree edge cannot change the canonical function:
    // dist is realized by tree paths, and the canonical parent is the
    // minimum-handle neighbor at dist - 1, which a non-parent edge
    // endpoint is not.
  }

  // Phase 2: seed the bucket queue. Invalid vertices are relaxed from
  // every still-valid confirmed neighbor that transits; added edges can
  // improve an endpoint's dist or (at equal dist) its canonical parent.
  std::uint32_t max_bucket = 0;
  auto seed = [&](NodeHandle v, std::uint32_t d) {
    push_candidate(v, d);
    max_bucket = std::max(max_bucket, d);
  };
  for (const NodeHandle x : invalid_scratch_) {
    for (const NodeHandle u : adj_[x]) {
      if (dist_[u] == kInfDist || !transits(u) || !advertises(u, x)) continue;
      seed(x, dist_[u] + 1);
    }
  }
  for (const EdgeDelta& e : pending_add_) {
    if (!confirmed(e.u, e.v)) continue;  // removed again within the batch
    const NodeHandle ends[2][2] = {{e.u, e.v}, {e.v, e.u}};
    for (const auto& uv : ends) {
      const NodeHandle a = uv[0];
      const NodeHandle b = uv[1];
      if (dist_[a] == kInfDist || !transits(a)) continue;
      if (dist_[a] + 1 < dist_[b]) {
        seed(b, dist_[a] + 1);
      } else if (dist_[b] != kInfDist && dist_[a] + 1 == dist_[b] &&
                 a < parent_[b]) {
        seed(b, dist_[b]);  // canonical-parent-only revisit
      }
    }
  }

  // Phase 3: settle in distance order. Every vertex with final dist d
  // has a candidate in bucket d by the time bucket d is processed, and
  // all vertices at d - 1 are final then, so the canonical parent scan
  // over current dist values is exact.
  std::uint64_t settled = 0;
  for (std::uint32_t d = 0; d < buckets_.size() && d <= max_bucket; ++d) {
    // Index buckets_[d] afresh on every access: seed() below may grow
    // buckets_ and reallocate, so no reference may be held across it.
    for (std::size_t i = 0; i < buckets_[d].size(); ++i) {
      const NodeHandle v = buckets_[d][i];
      if (settled_round_[v] == round_) continue;
      if (d > dist_[v]) continue;  // a better candidate already settled
      NodeHandle p = kNoHandle;
      for (const NodeHandle u : adj_[v]) {
        if (dist_[u] == d - 1 && transits(u) && advertises(u, v)) {
          p = u;
          break;  // rows are sorted: first hit is the minimum handle
        }
      }
      if (p == kNoHandle) continue;  // superseded candidate; skip
      const std::uint32_t old_dist = dist_[v];
      const bool was_invalid = old_dist == kInfDist;
      if (!was_invalid && parent_[v] != kNoHandle) detach_child(parent_[v], v);
      dist_[v] = d;
      parent_[v] = p;
      children_[p].push_back(v);
      const NodeHandle old_route = routes_[v];
      routes_[v] = (p == self_) ? v : routes_[p];
      settled_round_[v] = round_;
      ++settled;
      if (routes_[v] != old_route) route_fix_queue_.push_back(v);
      if ((was_invalid || d < old_dist) && transits(v)) {
        for (const NodeHandle w : adj_[v]) {
          if (!advertises(w, v)) continue;
          if (d + 1 < dist_[w]) {
            seed(w, d + 1);
          } else if (d + 1 == dist_[w] && settled_round_[w] != round_ &&
                     v < parent_[w]) {
            seed(w, dist_[w]);  // v became w's canonical parent
          }
        }
      }
    }
    buckets_[d].clear();
  }
  for (auto& bucket : buckets_) bucket.clear();  // drop unreached seeds
  stats_.vertices_settled += settled;

  // Phase 4: a route change propagates to every stale descendant. A
  // vertex settled in phase 3 already derived its route from a final
  // ancestor chain; everything else inherits parent-first down the
  // children lists (re-fixing until values stabilize).
  for (std::size_t head = 0; head < route_fix_queue_.size(); ++head) {
    const NodeHandle v = route_fix_queue_[head];
    for (const NodeHandle c : children_[v]) {
      const NodeHandle nr = (v == self_) ? c : routes_[v];
      if (routes_[c] != nr) {
        routes_[c] = nr;
        route_fix_queue_.push_back(c);
      }
    }
  }
}

void SpfEngine::recompute() {
  if (self_ == kNoHandle) return;
  ensure_nodes(self_ + 1);
  const bool batch_overflow =
      pending_add_.size() + pending_remove_.size() > kMaxIncrementalEdges;
  if (!has_run_ || force_full_ || batch_overflow) {
    if (has_run_ && force_full_) ++stats_.fallback_shape;
    if (has_run_ && !force_full_ && batch_overflow) ++stats_.fallback_batch;
    full_bfs();
  } else {
    incremental();
  }
  has_run_ = true;
  force_full_ = false;
  pending_add_.clear();
  pending_remove_.clear();
}

bool SpfEngine::verify_against_full() {
  compute_full(vdist_, vparent_, vroutes_);
  return vdist_ == dist_ && vparent_ == parent_ && vroutes_ == routes_;
}

}  // namespace spire::spines
