#include "spines/daemon.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace spire::spines {

namespace {
/// Approximate wire size of a data message for pacing purposes.
std::size_t data_wire_size(const DataBody& d) { return 64 + d.payload.size(); }
}  // namespace

void Daemon::PriorityClassQueue::clear() {
  for (auto& q : by_source) q.clear();
  active.clear();
  rr_next = 0;
  depth = 0;
}

Daemon::Daemon(sim::Simulator& sim, net::Host& host, DaemonConfig config,
               const crypto::Keyring& keyring, crypto::Verifier verifier)
    : sim_(sim),
      host_(host),
      config_(std::move(config)),
      keyring_(keyring),
      verifier_(std::move(verifier)),
      signer_(config_.id, keyring.identity_key(config_.id)),
      log_("spines." + config_.id),
      dedup_(config_.dedup_cache_size),
      metrics_("spines.daemon." + config_.id) {
  metrics_.counter("data_originated", &stats_.data_originated);
  metrics_.counter("data_delivered", &stats_.data_delivered);
  metrics_.counter("data_forwarded", &stats_.data_forwarded);
  metrics_.counter("dropped_auth", &stats_.dropped_auth);
  metrics_.counter("dropped_malformed", &stats_.dropped_malformed);
  metrics_.counter("dropped_replay", &stats_.dropped_replay);
  metrics_.counter("dropped_dedup", &stats_.dropped_dedup);
  metrics_.counter("dropped_queue_full", &stats_.dropped_queue_full);
  metrics_.counter("dropped_no_route", &stats_.dropped_no_route);
  metrics_.counter("dropped_ttl", &stats_.dropped_ttl);
  metrics_.counter("lsu_accepted", &stats_.lsu_accepted);
  metrics_.counter("lsu_rejected_sig", &stats_.lsu_rejected_sig);
  metrics_.counter("lsu_sent", &stats_.lsu_sent);
  metrics_.counter("lsu_retransmits", &stats_.lsu_retransmits);
  metrics_.counter("lsu_reflected", &stats_.lsu_reflected);
  metrics_.counter("data_retransmits", &stats_.data_retransmits);
  metrics_.counter("data_abandoned", &stats_.data_abandoned);
  metrics_.counter("acks_sent", &stats_.acks_sent);
  metrics_.counter("hellos_sent", &stats_.hellos_sent);
  metrics_.counter("packets_sent", &stats_.packets_sent);
  metrics_.counter("route_recomputes", &stats_.route_recomputes);
  metrics_.counter("route_recomputes_coalesced",
                   &stats_.route_recomputes_coalesced);
  metrics_.counter("dedup_evictions", &stats_.dedup_evictions);
  metrics_.counter("spf_incremental", &stats_.spf_incremental);
  metrics_.counter("spf_full", &stats_.spf_full);
  metrics_.counter("border_summaries_sent", &stats_.border_summaries_sent);
  metrics_.counter("summaries_accepted", &stats_.summaries_accepted);
  metrics_.counter("summaries_rejected_sig", &stats_.summaries_rejected_sig);
  metrics_.counter("lsu_bytes_sent", &stats_.lsu_bytes_sent);
  metrics_.counter("summary_bytes_sent", &stats_.summary_bytes_sent);
  metrics_.counter("inter_area_control_bytes",
                   &stats_.inter_area_control_bytes);
  metrics_.counter("node_table_overflows", &stats_.node_table_overflows);
  for (std::size_t p = 0; p < stats_.max_queue_depth.size(); ++p) {
    metrics_.gauge_fn("max_queue_depth" + std::to_string(p), [this, p] {
      return static_cast<std::int64_t>(stats_.max_queue_depth[p]);
    });
  }
  self_ = admit_node(config_.id);
  spf_.attach_self(self_);
}

NodeHandle Daemon::admit_node(std::string_view id) {
  const NodeHandle h = nodes_.intern(id);
  if (h == kNoHandle) {
    // Explicit, counted overflow: an undersized table shows up in the
    // metrics snapshot instead of silently dropping members.
    stats_.node_table_overflows = nodes_.overflows();
    return kNoHandle;
  }
  if (nodes_.size() > lsdb_.size()) {
    lsdb_.resize(nodes_.size());
    neighbors_.resize(nodes_.size());
    remote_vias_.resize(nodes_.size());
    remote_routes_.resize(nodes_.size(), kNoHandle);
    control_bytes_by_neighbor_.resize(nodes_.size(), 0);
    relay_roles_.resize(nodes_.size());
    spf_.ensure_nodes(nodes_.size());
  }
  return h;
}

void Daemon::make_channels(Neighbor& n, const NodeId& id, bool corrupted) {
  // Per-direction keys: each direction seals under a key bound to the
  // sender's id, so the two directions never share a nonce space.
  const std::string link_label =
      corrupted ? "corrupted-binary-without-keys" : "";
  auto dir_key = [&](const NodeId& sender) {
    crypto::SymmetricKey base = keyring_.link_key(config_.id, id);
    if (corrupted) {
      // A rebuilt daemon without the deployment's key material: derive
      // from a wrong base so nothing it seals verifies anywhere.
      base = keyring_.derive(link_label + sender);
    }
    return link_direction_key(base, sender);
  };
  n.send_channel = std::make_unique<crypto::SecureChannel>(dir_key(config_.id));
  n.recv_channel = std::make_unique<crypto::SecureChannel>(dir_key(id));
}

void Daemon::corrupt_channels(Neighbor& n, const NodeId& id) {
  n.held_send_channel = std::move(n.send_channel);
  n.held_recv_channel = std::move(n.recv_channel);
  make_channels(n, id, true);
}

void Daemon::add_neighbor(const NodeId& id, net::Endpoint address) {
  add_neighbor(id, address, config_.area);
}

void Daemon::add_neighbor(const NodeId& id, net::Endpoint address,
                          std::uint32_t area) {
  const NodeHandle h = admit_node(id);
  if (h == kNoHandle || neighbors_[h]) return;
  auto n = std::make_unique<Neighbor>();
  n->handle = h;
  n->address = address;
  n->area = area;
  make_channels(*n, id, false);
  if (keys_corrupted_) corrupt_channels(*n, id);
  neighbors_[h] = std::move(n);
  neighbor_order_.push_back(h);
}

void Daemon::add_stub(const NodeId& id) {
  const NodeHandle h = admit_node(id);
  if (h != kNoHandle) spf_.set_stub(h);
}

bool Daemon::is_border() const {
  for (const NodeHandle h : neighbor_order_) {
    if (!same_area(*neighbors_[h])) return true;
  }
  return false;
}

std::uint64_t Daemon::control_bytes_to(const NodeId& neighbor) const {
  const NodeHandle h = nodes_.lookup(neighbor);
  return h < control_bytes_by_neighbor_.size() ? control_bytes_by_neighbor_[h]
                                               : 0;
}

void Daemon::start() {
  if (running_) return;
  running_ = true;
  host_.bind_udp(config_.udp_port,
                 [this](const net::Datagram& d) { handle_udp(d); });
  hello_tick(epoch_);
  // The first anti-entropy refresh lands at a per-daemon phase, so the
  // overlay's refreshes spread over the whole interval.
  const sim::Time phase =
      crypto::digest_prefix64(crypto::sha256(config_.id)) % config_.lsu_refresh;
  sim_.schedule_after(phase, [this, epoch = epoch_] { lsu_tick(epoch); });
  if (is_border()) summary_tick(epoch_);
  retransmit_tick(epoch_);
}

void Daemon::stop() {
  if (!running_) return;
  running_ = false;
  ++epoch_;  // orphan every scheduled tick, pump, and route-recompute timer
  host_.unbind_udp(config_.udp_port);
  own_lsu_dirty_ = false;
  routes_dirty_ = false;
  route_recompute_scheduled_ = false;
  for (const NodeHandle h : neighbor_order_) {
    Neighbor& n = *neighbors_[h];
    n.up = false;
    for (auto& q : n.queues) q.clear();
    n.unacked.clear();
    // Pacing state must not leak into the next start(): a restarted
    // daemon begins with an idle link.
    n.busy_until = 0;
    n.pump_scheduled = false;
  }
}

void Daemon::open_session(SessionPort port, SessionHandler handler) {
  sessions_[port] = std::move(handler);
}

void Daemon::close_session(SessionPort port) { sessions_.erase(port); }

bool Daemon::session_send(SessionPort src_port, const NodeId& dst,
                          SessionPort dst_port, util::Bytes payload,
                          Priority priority) {
  if (!running_) return false;
  DataBody data;
  data.src = config_.id;
  data.dst = dst;
  data.src_port = src_port;
  data.dst_port = dst_port;
  data.priority = priority;
  data.msg_seq = ++data_seq_;
  data.payload = std::move(payload);
  ++stats_.data_originated;
  on_data(kNoHandle, std::move(data));
  return true;
}

void Daemon::corrupt_link_keys() {
  if (keys_corrupted_) return;
  keys_corrupted_ = true;
  for (const NodeHandle h : neighbor_order_) {
    corrupt_channels(*neighbors_[h], NodeId(nodes_.name(h)));
  }
}

void Daemon::restore_link_keys() {
  if (!keys_corrupted_) return;
  keys_corrupted_ = false;
  for (const NodeHandle h : neighbor_order_) {
    Neighbor& n = *neighbors_[h];
    n.send_channel = std::move(n.held_send_channel);
    n.recv_channel = std::move(n.held_recv_channel);
  }
}

bool Daemon::link_up(const NodeId& neighbor) const {
  const Neighbor* n = neighbor_slot(nodes_.lookup(neighbor));
  return n != nullptr && n->up;
}

std::optional<NodeId> Daemon::next_hop(const NodeId& dst) const {
  const NodeHandle h = nodes_.lookup(dst);
  if (h == kNoHandle) return std::nullopt;
  const NodeHandle hop = route_for(h);
  if (hop == kNoHandle) return std::nullopt;
  return NodeId(nodes_.name(hop));
}

NodeHandle Daemon::route_for(NodeHandle dst) const {
  const NodeHandle hop = spf_.route(dst);
  if (hop != kNoHandle) return hop;  // intra-area always wins
  return dst < remote_routes_.size() ? remote_routes_[dst] : kNoHandle;
}

bool Daemon::lsdb_contains(const NodeId& origin) const {
  const NodeHandle h = nodes_.lookup(origin);
  return h != kNoHandle && h < lsdb_.size() && lsdb_[h].present;
}

std::uint64_t Daemon::lsdb_seq(const NodeId& origin) const {
  return lsdb_contains(origin) ? lsdb_[nodes_.lookup(origin)].seq : 0;
}

std::size_t Daemon::unacked_count(const NodeId& neighbor) const {
  const Neighbor* n = neighbor_slot(nodes_.lookup(neighbor));
  return n != nullptr ? n->unacked.size() : 0;
}

bool Daemon::reliable(PacketType type) const {
  return type == PacketType::kLinkState ||
         (type == PacketType::kData && config_.reliable_data_links &&
          config_.mode == ForwardingMode::kRouted);
}

void Daemon::send_packet(NodeHandle neighbor, PacketType type,
                         std::span<const std::uint8_t> body) {
  Neighbor* n = neighbor_slot(neighbor);
  if (n == nullptr || !running_) return;

  // Control-plane byte accounting: the wide-area bench gates LSU +
  // summary bytes, split by whether the link crosses an area border.
  if (type == PacketType::kLinkState || type == PacketType::kAreaSummary) {
    if (type == PacketType::kAreaSummary) {
      stats_.summary_bytes_sent += body.size();
      ++stats_.border_summaries_sent;
    } else {
      stats_.lsu_bytes_sent += body.size();
      ++stats_.lsu_sent;
    }
    if (!same_area(*n)) stats_.inter_area_control_bytes += body.size();
    if (neighbor < control_bytes_by_neighbor_.size()) {
      control_bytes_by_neighbor_[neighbor] += body.size();
    }
  }

  // Whatever goes out but an ack stands in for a hello on this link. An
  // ack does not: a link that only acks could then go silent on its far
  // end if the acks are lost.
  if (type != PacketType::kAck) n->last_sent = sim_.now();

  // Inner packet [type u8][link_seq u64][body blob], serialized into the
  // reusable scratch: the hot path allocates nothing.
  inner_scratch_.clear();
  inner_scratch_.reserve(1 + 8 + 4 + body.size());
  inner_scratch_.u8(static_cast<std::uint8_t>(type));
  inner_scratch_.u64(++n->send_link_seq);
  inner_scratch_.blob(body);

  // Reliable message service: LSUs, and data packets on routed links,
  // are tracked until acked (flooded data has its own redundancy).
  if (reliable(type)) {
    n->unacked[n->send_link_seq] = Neighbor::Unacked{
        util::Bytes(inner_scratch_.bytes().begin(),
                    inner_scratch_.bytes().end()),
        sim_.now(), 0, type == PacketType::kLinkState};
  }
  transmit_inner(neighbor, inner_scratch_.bytes());
}

void Daemon::transmit_inner(NodeHandle neighbor,
                            std::span<const std::uint8_t> inner_bytes) {
  Neighbor* n = neighbor_slot(neighbor);
  if (n == nullptr || !running_) return;
  ++stats_.packets_sent;
  // Link envelope [sender str][sealed bool][body blob], built in the
  // second scratch; in sealed mode the body is sealed straight into it
  // (inner_bytes never aliases env_scratch_).
  const bool sealed = config_.intrusion_tolerant;
  const std::size_t body_len =
      inner_bytes.size() + (sealed ? crypto::SecureChannel::kOverhead : 0);
  env_scratch_.clear();
  env_scratch_.reserve(4 + config_.id.size() + 1 + 4 + body_len);
  env_scratch_.str(config_.id);
  env_scratch_.boolean(sealed);
  if (sealed) {
    env_scratch_.u32(static_cast<std::uint32_t>(body_len));
    n->send_channel->seal_into(inner_bytes, env_scratch_.extend(body_len));
  } else {
    env_scratch_.blob(inner_bytes);
  }
  host_.send_udp(n->address.ip, n->address.port, config_.udp_port,
                 std::span<const std::uint8_t>(env_scratch_.bytes()));
}

void Daemon::send_ack(NodeHandle neighbor, std::uint64_t acked_seq) {
  ++stats_.acks_sent;
  send_packet(neighbor, PacketType::kAck, AckBody{acked_seq}.encode());
}

/// An unacked link packet is resent once it is this old.
constexpr sim::Time kRetransmitTimeout = 50 * sim::kMillisecond;

void Daemon::retransmit_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  sim_.schedule_after(kRetransmitTimeout / 2,
                      [this, epoch] { retransmit_tick(epoch); });
  const sim::Time now = sim_.now();
  bool topology_changed = false;
  bool wide_changed = false;
  for (const NodeHandle h : neighbor_order_) {
    Neighbor& n = *neighbors_[h];
    for (auto it = n.unacked.begin(); it != n.unacked.end();) {
      if (now - it->second.sent_at < kRetransmitTimeout) {
        ++it;
        continue;
      }
      if (it->second.retries >= kMaxRetransmits) {
        // The link is dead. Hellos notice that on an ordinary link; a
        // demand link has none, so this is where it goes down. The
        // adjacency-up sync repairs a lost LSU when it returns.
        if (!it->second.lsu) ++stats_.data_abandoned;
        it = n.unacked.erase(it);
        if (n.up && demand(n)) {
          if (take_down(n, "packet abandoned")) {
            topology_changed = true;
          } else {
            wide_changed = true;
          }
        }
        continue;
      }
      ++it->second.retries;
      it->second.sent_at = now;
      ++(it->second.lsu ? stats_.lsu_retransmits : stats_.data_retransmits);
      transmit_inner(h, it->second.inner_bytes);
      ++it;
    }
  }
  if (topology_changed) mark_own_lsu_dirty();
  if (wide_changed) refresh_remote_routes();
}

void Daemon::handle_udp(const net::Datagram& dgram) {
  if (!running_) return;

  // Both framings are parsed over borrowed spans: the receive path
  // allocates nothing until a body decoder needs ownership.
  const auto env = LinkEnvelope::parse(dgram.payload);
  if (!env) {
    ++stats_.dropped_malformed;
    return;
  }
  const NodeHandle from = nodes_.lookup(env->sender);

  Neighbor* n = neighbor_slot(from);
  if (n == nullptr) {
    ++stats_.dropped_auth;
    return;  // unknown daemons are not neighbors; drop.
  }

  std::span<const std::uint8_t> inner_bytes = env->body;
  if (config_.intrusion_tolerant) {
    if (!env->sealed) {
      ++stats_.dropped_auth;
      return;
    }
    // A plaintext is never longer than its sealed body.
    if (open_scratch_.size() < env->body.size()) {
      open_scratch_.resize(env->body.size());
    }
    if (!n->recv_channel->open_into(env->body, open_scratch_)) {
      ++stats_.dropped_auth;
      return;  // wrong keys, tampering, or a non-member impersonating.
    }
    inner_bytes = std::span<const std::uint8_t>(open_scratch_).first(
        env->body.size() - crypto::SecureChannel::kOverhead);
  }

  const auto inner = InnerPacket::parse(inner_bytes);
  if (!inner) {
    // Legacy debug opcode and other malformed inner packets land here.
    if (!inner_bytes.empty() && inner_bytes.front() == kDebugPacketType) {
      if (config_.intrusion_tolerant) {
        ++stats_.debug_packets_ignored;  // code path compiled out in IT mode
      } else {
        ++stats_.debug_packets_honoured;
      }
    }
    return;
  }
  const PacketType type = inner->type;
  const std::uint64_t link_seq = inner->link_seq;
  const std::span<const std::uint8_t> body = inner->body;

  const bool acked = reliable(type);
  if (!n->recv_window.accept(link_seq)) {
    ++stats_.dropped_replay;
    // A duplicate usually means our ack was lost: re-ack so the sender
    // stops retransmitting.
    if (acked) send_ack(from, link_seq);
    return;
  }
  if (acked) send_ack(from, link_seq);

  // Past the MAC and the replay window, any packet proves the far end
  // is alive and holds the link keys, exactly as a hello would.
  heard_from(from);
  process_inner(from, type, body);
}

void Daemon::process_inner(NodeHandle from, PacketType type,
                           std::span<const std::uint8_t> body) {
  switch (type) {
    case PacketType::kHello:
      if (HelloBody::decode(body)) on_hello(from);
      break;
    case PacketType::kLinkState:
      if (const auto lsu = LinkStateBody::decode(body)) {
        on_link_state(from, *lsu, body);
      }
      break;
    case PacketType::kAreaSummary:
      if (const auto summary = AreaSummaryBody::decode(body)) {
        on_area_summary(from, *summary);
      }
      break;
    case PacketType::kData: {
      // A flood duplicate from a known source is dropped over the
      // borrowed bytes, exactly as on_data() would drop it after a full
      // decode. Malformed bodies fail both reads and leave no trace.
      const auto key = DataBody::peek_key(body);
      if (!key) break;
      const NodeHandle src = nodes_.lookup(key->src);
      if (src != kNoHandle && dedup_.contains(src, key->msg_seq)) {
        ++stats_.dropped_dedup;
        break;
      }
      if (auto data = DataBody::decode(body)) on_data(from, std::move(*data));
      break;
    }
    case PacketType::kAck:
      if (const auto ack = AckBody::decode(body)) {
        neighbor_slot(from)->unacked.erase(ack->acked_seq);
      }
      break;
  }
}

void Daemon::heard_from(NodeHandle from) {
  Neighbor& n = *neighbors_[from];
  n.last_heard = sim_.now();
  if (!n.up) {
    n.up = true;
    log_.debug("link to ", nodes_.name(from), " up");
    if (same_area(n)) {
      if (!is_stub()) sync_lsdb_to(from);
      mark_own_lsu_dirty();  // adjacency changed
    } else {
      // A wide link came up (or healed after a partition): re-advertise
      // immediately instead of waiting out the summary interval, so
      // remote reachability converges at hello speed.
      send_summaries();
      refresh_remote_routes();
    }
  }
}

void Daemon::on_hello(NodeHandle from) {
  // Nothing sends hellos on an up demand link, so one arriving means the
  // far end holds the link down (it restarted, or its ARQ gave up) and
  // is probing. Answer it, at most once per hello interval, so a
  // neighbor spraying hellos cannot make this daemon spray back.
  Neighbor& n = *neighbors_[from];
  if (demand(n) && (!n.last_hello_sent ||
                    sim_.now() - *n.last_hello_sent >= config_.hello_interval)) {
    send_hello(from);
  }
}

void Daemon::on_link_state(NodeHandle arrival, const LinkStateBody& lsu,
                           std::span<const std::uint8_t> wire) {
  // Fault containment: link-state never crosses an area border, so an
  // LSU arriving over a wide link is bogus regardless of signature.
  const Neighbor* arr = neighbor_slot(arrival);
  if (arr != nullptr && !same_area(*arr)) return;

  // Look up — never insert — before the signature verifies: a forged
  // LSU from a non-member must leave no trace in the node table or the
  // LSDB (and stale floods from members skip verification entirely).
  const bool is_self = lsu.origin == config_.id;
  NodeHandle origin = nodes_.lookup(lsu.origin);
  const std::uint64_t known_seq =
      (origin != kNoHandle && origin < lsdb_.size() && lsdb_[origin].present)
          ? lsdb_[origin].seq
          : 0;
  if (!is_self && lsu.seq <= known_seq) return;  // stale or duplicate

  const util::Bytes covered = lsu.signed_bytes();
  if (!verifier_.verify(lsu.origin, covered, lsu.signature)) {
    ++stats_.lsu_rejected_sig;
    return;
  }
  if (is_self) {
    ++stats_.lsu_reflected;  // our own, reflected back
    return;
  }

  ++stats_.lsu_accepted;
  origin = admit_node(lsu.origin);
  if (origin == kNoHandle) return;  // node table full

  std::vector<NodeHandle> adj;
  adj.reserve(lsu.neighbors.size());
  for (const NodeId& name : lsu.neighbors) {
    const NodeHandle h = admit_node(name);
    if (h != kNoHandle) adj.push_back(h);
  }

  LsdbEntry& entry = lsdb_[origin];
  if (!entry.present) {
    entry.present = true;
    ++lsdb_count_;
    invalidate_relays();  // m grew
  }
  entry.seq = lsu.seq;
  entry.lsu.assign(wire.begin(), wire.end());
  // Deferred recomputation: a refresh that does not change the
  // adjacency (seq bump only) must not trigger a route recompute. The
  // SPF engine compares against its stored row and accumulates the
  // confirmed-edge delta for the next incremental repair.
  if (spf_.set_adjacency(origin, adj)) {
    invalidate_relays();
    mark_routes_dirty();
  }

  // A stub keeps link state for its own routes but relays none: its
  // transit neighbors flood every LSU to each other directly.
  if (!is_stub()) flood_lsu(entry.lsu, arrival, origin);
}

void Daemon::flood_lsu(std::span<const std::uint8_t> body, NodeHandle arrival,
                       NodeHandle origin) {
  // Never back where it came from or to its origin, and never across an
  // area border.
  for (const NodeHandle h : neighbor_order_) {
    if (h != arrival && h != origin && neighbors_[h]->up &&
        same_area(*neighbors_[h])) {
      send_packet(h, PacketType::kLinkState, body);
    }
  }
}

void Daemon::sync_lsdb_to(NodeHandle neighbor) {
  // Only origin-signed LSUs this daemon accepted are relayed, verbatim;
  // the receiver drops stale ones before verifying and checks the rest
  // exactly as it checks a flood.
  for (NodeHandle origin = 0; origin < lsdb_.size(); ++origin) {
    const LsdbEntry& entry = lsdb_[origin];
    if (entry.present && origin != self_ && origin != neighbor) {
      send_packet(neighbor, PacketType::kLinkState, entry.lsu);
    }
  }
}

void Daemon::on_data(NodeHandle arrival, DataBody data) {
  const NodeHandle src = admit_node(data.src);
  if (src == kNoHandle) {
    ++stats_.dropped_auth;  // a member minting unbounded source names
    return;
  }
  if (dedup_.check_and_insert(src, data.msg_seq)) {
    ++stats_.dropped_dedup;
    return;
  }
  stats_.dedup_evictions = dedup_.evictions();

  const bool is_broadcast = data.dst == kBroadcastDst;
  const NodeHandle dst = is_broadcast ? kNoHandle : nodes_.lookup(data.dst);
  if ((!is_broadcast && dst == self_) || (is_broadcast && src != self_)) {
    const auto session = sessions_.find(data.dst_port);
    if (session != sessions_.end()) {
      ++stats_.data_delivered;
      session->second(data);
    }
    if (!is_broadcast) return;  // unicast terminates at its destination
  }

  if (withhold_relaying_ && arrival != kNoHandle) return;
  if (data.ttl <= 1) {
    ++stats_.dropped_ttl;
    return;
  }
  data.ttl--;

  // One shared unit per forwarded message: flood fan-out enqueues the
  // same object on every neighbor queue instead of copying the payload,
  // and pump() encodes it once for all of them.
  auto unit = std::make_shared<ForwardUnit>();
  unit->body = std::move(data);

  if (is_broadcast || config_.mode == ForwardingMode::kPriorityFlood) {
    // Bounded-redundancy flooding: the source sends to every neighbor
    // and its designated relays to every neighbor but the source and
    // the arrival link. Any other daemon forwards only to neighbors the
    // source has no confirmed edge to, which covers every daemon the
    // relays cannot reach in one hop, and every cross-area source.
    const bool relay = arrival == kNoHandle || relays_for(src);
    for (const NodeHandle h : neighbor_order_) {
      if (h == arrival || h == src || !neighbors_[h]->up) continue;
      if (!relay && spf_.confirmed_edge(src, h)) continue;
      enqueue_data(h, src, unit);
    }
  } else {
    const NodeHandle hop = route_for(dst);
    if (hop == kNoHandle) {
      ++stats_.dropped_no_route;
      return;
    }
    enqueue_data(hop, src, unit);
  }
  ++stats_.data_forwarded;
}

std::vector<NodeId> Daemon::flood_relays(const NodeId& source) const {
  std::vector<NodeHandle> relays;
  designate_relays(nodes_.lookup(source), relays);
  std::vector<NodeId> names;
  for (const NodeHandle h : relays) names.emplace_back(nodes_.name(h));
  return names;
}

void Daemon::designate_relays(NodeHandle src,
                              std::vector<NodeHandle>& out) const {
  out.clear();
  if (src == kNoHandle) return;
  // Rank keys depend only on the two names, so every daemon holding the
  // same link state designates the same relays, with nothing on the wire.
  std::vector<std::pair<std::uint64_t, NodeHandle>> ranked;
  for (NodeHandle x = 0; x < nodes_.size(); ++x) {
    if (!spf_.confirmed_edge(src, x)) continue;
    util::ByteWriter w;
    w.str(nodes_.name(src));
    w.str(nodes_.name(x));
    ranked.emplace_back(crypto::digest_prefix64(crypto::sha256(w.bytes())), x);
  }
  std::sort(ranked.begin(), ranked.end(), [this](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : nodes_.name(a.second) < nodes_.name(b.second);
  });
  // Any BFT group over m daemons has f <= (m-1)/3; f+2 relays give a
  // neighbor f+1 one-relay copies besides the direct one.
  const std::size_t m = lsdb_count_ + (lsdb_[self_].present ? 0 : 1);
  const std::size_t r = (m - 1) / 3 + 2;
  for (std::size_t i = 0; i < ranked.size() && i < r; ++i) {
    out.push_back(ranked[i].second);
  }
}

bool Daemon::relays_for(NodeHandle src) {
  RelayRole& role = relay_roles_[src];
  if (role.generation != relay_generation_) {
    std::vector<NodeHandle> relays;
    designate_relays(src, relays);
    role.relay = std::find(relays.begin(), relays.end(), self_) != relays.end();
    role.generation = relay_generation_;
  }
  return role.relay;
}

void Daemon::enqueue_data(NodeHandle neighbor, NodeHandle src,
                          const std::shared_ptr<ForwardUnit>& unit) {
  Neighbor& n = *neighbors_[neighbor];
  const auto prio = static_cast<std::size_t>(unit->body.priority);
  PriorityClassQueue& pq = n.queues[prio];
  if (pq.by_source.size() <= src) pq.by_source.resize(nodes_.size());
  auto& queue = pq.by_source[src];
  if (queue.size() >= config_.per_source_queue_cap) {
    // Per-source cap: an abusive source only ever drops its own traffic.
    ++stats_.dropped_queue_full;
    return;
  }
  if (queue.empty()) pq.active.push_back(src);
  queue.push_back(unit);
  ++pq.depth;
  stats_.max_queue_depth[prio] =
      std::max<std::uint64_t>(stats_.max_queue_depth[prio], pq.depth);
  if (!n.pump_scheduled) pump(neighbor);
}

/// Overlay egress pacing (bytes per microsecond, ~1 Gb/s).
constexpr double kLinkBytesPerUs = 125.0;

void Daemon::pump(NodeHandle neighbor) {
  Neighbor& n = *neighbors_[neighbor];
  n.pump_scheduled = false;
  if (!running_) return;

  if (sim_.now() < n.busy_until) {
    n.pump_scheduled = true;
    sim_.schedule_at(n.busy_until, [this, neighbor, epoch = epoch_] {
      if (epoch == epoch_) pump(neighbor);
    });
    return;
  }

  // Highest priority class with traffic; round-robin across sources.
  for (int prio = 2; prio >= 0; --prio) {
    PriorityClassQueue& pq = n.queues[static_cast<std::size_t>(prio)];
    if (pq.empty()) continue;

    const std::size_t idx = pq.rr_next % pq.active.size();
    const NodeHandle src = pq.active[idx];
    auto& queue = pq.by_source[src];
    const std::shared_ptr<ForwardUnit> unit = std::move(queue.front());
    queue.pop_front();
    --pq.depth;
    if (queue.empty()) {
      // The next source slides into idx; the cursor stays put.
      pq.active.erase(pq.active.begin() + static_cast<std::ptrdiff_t>(idx));
      pq.rr_next = idx;
    } else {
      pq.rr_next = idx + 1;
    }

    if (unit->encoded.empty()) unit->encoded = unit->body.encode();
    const double bytes = static_cast<double>(data_wire_size(unit->body));
    const auto tx_time =
        static_cast<sim::Time>(std::ceil(bytes / kLinkBytesPerUs));
    n.busy_until = sim_.now() + tx_time;
    send_packet(neighbor, PacketType::kData, unit->encoded);

    bool more = false;
    for (const auto& q : n.queues) {
      if (!q.empty()) {
        more = true;
        break;
      }
    }
    if (more) {
      n.pump_scheduled = true;
      sim_.schedule_at(n.busy_until, [this, neighbor, epoch = epoch_] {
        if (epoch == epoch_) pump(neighbor);
      });
    }
    return;
  }
}

void Daemon::hello_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  ++hello_seq_;
  const sim::Time now = sim_.now();
  bool topology_changed = false;
  bool wide_changed = false;
  for (const NodeHandle h : neighbor_order_) {
    Neighbor& n = *neighbors_[h];
    const bool on_demand = demand(n);
    if (n.up && !on_demand && now - n.last_heard > config_.link_timeout) {
      if (take_down(n, "hello timeout")) {
        topology_changed = true;
      } else {
        wide_changed = true;  // a wide link died: vias must re-resolve
      }
    }
    // A down link is probed every interval. An up ordinary link gets a
    // hello only when nothing else went to it within the interval; an
    // up demand link gets none.
    if (!n.up || (!on_demand && now - n.last_sent >= config_.hello_interval)) {
      send_hello(h);
    }
  }
  if (topology_changed) mark_own_lsu_dirty();
  if (wide_changed) refresh_remote_routes();
  sim_.schedule_after(config_.hello_interval,
                      [this, epoch] { hello_tick(epoch); });
}

void Daemon::send_hello(NodeHandle neighbor) {
  ++stats_.hellos_sent;
  neighbors_[neighbor]->last_hello_sent = sim_.now();
  send_packet(neighbor, PacketType::kHello, HelloBody{hello_seq_}.encode());
}

bool Daemon::take_down(Neighbor& n, const char* cause) {
  n.up = false;
  log_.debug("link to ", nodes_.name(n.handle), " down (", cause, ")");
  return same_area(n);
}

void Daemon::lsu_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  mark_own_lsu_dirty();
  sim_.schedule_after(config_.lsu_refresh, [this, epoch] { lsu_tick(epoch); });
}

void Daemon::originate_own_lsu() {
  LinkStateBody lsu;
  lsu.origin = config_.id;
  lsu.seq = ++own_lsu_seq_;
  std::vector<NodeHandle> adj;
  for (const NodeHandle h : neighbor_order_) {
    // Cross-area adjacency is border-daemon state, not area topology:
    // it is advertised through summaries, never through LSUs.
    if (neighbors_[h]->up && same_area(*neighbors_[h])) {
      lsu.neighbors.emplace_back(nodes_.name(h));
      adj.push_back(h);
    }
  }
  lsu.signature = signer_.sign(lsu.signed_bytes());

  // Record our own entry so route computation sees it; only an actual
  // adjacency change dirties the routes (the periodic refresh does not).
  // The coalesced callback that runs this recomputes right after.
  LsdbEntry& entry = lsdb_[self_];
  if (!entry.present) {
    entry.present = true;
    ++lsdb_count_;
  }
  entry.seq = lsu.seq;
  if (spf_.set_adjacency(self_, adj)) {
    invalidate_relays();
    routes_dirty_ = true;
  }

  flood_lsu(lsu.encode(), kNoHandle, self_);
}

void Daemon::mark_routes_dirty() {
  routes_dirty_ = true;
  schedule_coalesced();
}

void Daemon::mark_own_lsu_dirty() {
  own_lsu_dirty_ = true;
  schedule_coalesced();
}

/// Topology events (accepted LSUs, hello up/down transitions, the
/// refresh) within this window collapse into one callback that
/// originates the own LSU once, if it is dirty, then runs a single
/// route recomputation.
constexpr sim::Time kRouteCoalesceInterval = 1 * sim::kMillisecond;

void Daemon::schedule_coalesced() {
  if (route_recompute_scheduled_) {
    ++stats_.route_recomputes_coalesced;
    return;
  }
  route_recompute_scheduled_ = true;
  sim_.schedule_after(kRouteCoalesceInterval, [this, epoch = epoch_] {
    if (epoch != epoch_ || !running_) return;
    route_recompute_scheduled_ = false;
    if (own_lsu_dirty_) {
      own_lsu_dirty_ = false;
      originate_own_lsu();
    }
    if (routes_dirty_) {
      routes_dirty_ = false;
      recompute_routes();
    }
  });
}

void Daemon::recompute_routes() {
  ++stats_.route_recomputes;
  // The SPF engine holds the advertised-adjacency rows (fed from
  // accepted LSUs); edges count only when both endpoints advertise
  // each other, so a Byzantine origin can only remove itself, not
  // fabricate paths. The recompute is incremental when the accumulated
  // confirmed-edge delta allows it, and must be indistinguishable from
  // a full BFS.
  spf_.recompute();
#ifndef NDEBUG
  assert(spf_.verify_against_full() &&
         "incremental SPF diverged from the canonical full BFS");
#endif
  stats_.spf_full = spf_.stats().full_runs;
  stats_.spf_incremental = spf_.stats().incremental_runs;
  // Intra-area distances changed, so the best local border for each
  // remote destination may have too.
  refresh_remote_routes();
}

// ---- hierarchical areas: summaries, vias, remote routes -------------------

void Daemon::summary_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || !running_) return;
  sim_.schedule_after(config_.summary_interval,
                      [this, epoch] { summary_tick(epoch); });
  send_summaries();
}

void Daemon::send_summaries() {
  if (!running_) return;
  const sim::Time now = sim_.now();

  // Own-area stream: every member the intra-area SPF currently
  // reaches, plus self. Handles ascend, so the rotation order is
  // stable across intervals.
  member_scratch_.clear();
  for (NodeHandle h = 0; h < nodes_.size(); ++h) {
    if (h == self_ || spf_.dist(h) != SpfEngine::kInfDist) {
      member_scratch_.push_back(h);
    }
  }
  static const std::vector<std::uint32_t> kEmptyPath;
  emit_summary_stream(config_.area, kEmptyPath, member_scratch_,
                      own_area_cursor_);

  // Transit streams: areas learned across our own wide links, pruned
  // of members that stopped being re-advertised.
  for (auto& [area, fa] : foreign_) {
    for (auto it = fa.members.begin(); it != fa.members.end();) {
      if (now - it->second > kSummaryMemberTimeout) {
        it = fa.members.erase(it);
      } else {
        ++it;
      }
    }
    if (fa.members.empty()) continue;
    member_scratch_.clear();
    for (const auto& [h, seen] : fa.members) member_scratch_.push_back(h);
    emit_summary_stream(area, fa.path, member_scratch_, fa.cursor);
  }
}

void Daemon::emit_summary_stream(std::uint32_t subject_area,
                                 const std::vector<std::uint32_t>& path,
                                 const std::vector<NodeHandle>& members,
                                 std::size_t& cursor) {
  if (members.empty()) return;
  AreaSummaryBody body;
  body.origin = config_.id;
  body.area = subject_area;
  body.seq = ++own_summary_seq_;
  body.area_path = path;
  if (std::find(body.area_path.begin(), body.area_path.end(), config_.area) ==
      body.area_path.end()) {
    body.area_path.push_back(config_.area);
  }
  body.total_members = static_cast<std::uint32_t>(members.size());
  // BATMAN-style originator capping: at most summary_fanout_cap names
  // per advertisement, rotating through the set so every member is
  // covered within ceil(n/cap) intervals.
  const std::size_t count =
      std::min(config_.summary_fanout_cap, members.size());
  if (cursor >= members.size()) cursor = 0;
  body.members.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    body.members.emplace_back(nodes_.name(members[(cursor + i) % members.size()]));
  }
  cursor = (cursor + count) % members.size();
  body.signature = signer_.sign(body.signed_bytes());
  const util::Bytes encoded = body.encode();

  for (const NodeHandle h : neighbor_order_) {
    Neighbor& n = *neighbors_[h];
    if (!n.up) continue;
    if (same_area(n)) {
      // Re-originate foreign reachability into the local area (the
      // own-area stream is already known intra-area).
      if (subject_area != config_.area) {
        send_packet(h, PacketType::kAreaSummary, encoded);
      }
    } else {
      // Across the wide link, unless the far area already carried it.
      bool seen = n.area == subject_area;
      for (const std::uint32_t a : body.area_path) seen = seen || a == n.area;
      if (!seen) send_packet(h, PacketType::kAreaSummary, encoded);
    }
  }
}

void Daemon::on_area_summary(NodeHandle arrival, const AreaSummaryBody& s) {
  const Neighbor* arr = neighbor_slot(arrival);
  if (arr == nullptr) return;
  if (s.origin == config_.id) return;  // our own, reflected back
  const bool cross = !same_area(*arr);

  // Lookup-before-insert + stale-skip, mirroring the LSU path: forged
  // summaries from non-members leave no trace, and stale floods skip
  // signature verification entirely.
  NodeHandle origin = nodes_.lookup(s.origin);
  if (origin != kNoHandle) {
    const auto it = summary_seq_.find({origin, s.area});
    if (it != summary_seq_.end() && s.seq <= it->second) return;
  }
  if (cross) {
    // Summaries are re-originated at every border ("next-hop-self"):
    // across a wide link the signer must be the link's far end.
    if (origin == kNoHandle || origin != arrival) return;
    if (s.area == config_.area) return;  // our own area, bounced back
    for (const std::uint32_t a : s.area_path) {
      if (a == config_.area) return;  // already traversed us: loop
    }
  }
  if (!verifier_.verify(s.origin, s.signed_bytes(), s.signature)) {
    ++stats_.summaries_rejected_sig;
    return;
  }
  origin = admit_node(s.origin);
  if (origin == kNoHandle) return;  // node table full
  ++stats_.summaries_accepted;
  summary_seq_[{origin, s.area}] = s.seq;

  // Borders merge cross-link summaries into their foreign-area state
  // (for transit + intra re-origination). Intra-area summaries only
  // feed the via table — merging them back into foreign state would
  // let two borders keep each other's ghost entries alive forever.
  ForeignArea* fa = nullptr;
  if (cross) {
    fa = &foreign_[s.area];
    fa->path = s.area_path;
  }
  const sim::Time now = sim_.now();
  for (const NodeId& name : s.members) {
    const NodeHandle h = admit_node(name);
    if (h == kNoHandle || h == self_) continue;
    if (fa != nullptr) fa->members[h] = now;
    note_remote_via(h, origin);
  }
  refresh_remote_routes();

  if (!cross) {
    // Flood on within the area so interior daemons two hops from the
    // border learn the via as well (per-(origin, area) seq dedup above
    // keeps this loop-free).
    const util::Bytes body = s.encode();
    for (const NodeHandle h : neighbor_order_) {
      Neighbor& n = *neighbors_[h];
      if (h != arrival && n.up && same_area(n)) {
        send_packet(h, PacketType::kAreaSummary, body);
      }
    }
  }
}

void Daemon::note_remote_via(NodeHandle dst, NodeHandle via) {
  if (dst == kNoHandle || via == kNoHandle || dst == self_) return;
  if (remote_vias_.size() <= dst) remote_vias_.resize(nodes_.size());
  auto& vias = remote_vias_[dst];
  for (RemoteVia& rv : vias) {
    if (rv.via == via) {
      rv.last_seen = sim_.now();
      return;
    }
  }
  constexpr std::size_t kMaxViasPerDst = 8;
  if (vias.size() >= kMaxViasPerDst) {
    // Evict the stalest advertiser: the via table stays bounded per
    // destination no matter how many borders advertise it.
    auto oldest = std::min_element(
        vias.begin(), vias.end(), [](const RemoteVia& a, const RemoteVia& b) {
          return a.last_seen < b.last_seen;
        });
    *oldest = RemoteVia{via, sim_.now()};
    return;
  }
  vias.push_back(RemoteVia{via, sim_.now()});
}

void Daemon::refresh_remote_routes() {
  const sim::Time now = sim_.now();
  std::fill(remote_routes_.begin(), remote_routes_.end(), kNoHandle);
  for (NodeHandle dst = 0; dst < remote_vias_.size(); ++dst) {
    auto& vias = remote_vias_[dst];
    if (vias.empty()) continue;
    std::erase_if(vias, [&](const RemoteVia& rv) {
      return now - rv.last_seen > kSummaryMemberTimeout;
    });
    std::uint32_t best_cost = SpfEngine::kInfDist;
    NodeHandle best_via = kNoHandle;
    NodeHandle best_hop = kNoHandle;
    for (const RemoteVia& rv : vias) {
      std::uint32_t cost = SpfEngine::kInfDist;
      NodeHandle hop = kNoHandle;
      const Neighbor* n = neighbor_slot(rv.via);
      if (n != nullptr && n->up && !same_area(*n)) {
        // Our own wide link. Strictly cheaper than any border reached
        // through the area (even one at SPF distance 1): the resolved
        // cost then decreases strictly at every forwarding hop, which
        // rules out deflection loops between equal-distance borders.
        cost = 0;
        hop = rv.via;
      } else if (rv.via != self_ &&
                 spf_.dist(rv.via) != SpfEngine::kInfDist) {
        cost = spf_.dist(rv.via);  // a local border, via the SPF tree
        hop = spf_.route(rv.via);
      }
      if (hop == kNoHandle) continue;
      if (cost < best_cost || (cost == best_cost && rv.via < best_via)) {
        best_cost = cost;
        best_via = rv.via;
        best_hop = hop;
      }
    }
    remote_routes_[dst] = best_hop;
  }
}

}  // namespace spire::spines
