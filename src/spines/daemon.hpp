// Spines overlay daemon.
//
// Implements the properties the paper's deployments rely on (§II, §IV):
//  * authenticated + encrypted links (per-link keys, AES-128-GCM,
//    per-direction nonce spaces, replay counters) in intrusion-tolerant
//    mode — a daemon without the current keys simply cannot join;
//  * signed link-state flooding with bidirectional edge confirmation,
//    so a Byzantine daemon can only lie about its own adjacencies;
//  * two forwarding modes: shortest-path routing, and the
//    intrusion-tolerant priority flood with per-source round-robin
//    fairness and per-source queue caps, which keeps a traffic-blasting
//    compromised daemon from starving correct sources. The flood is
//    bounded: a source's messages are relayed only by ⌊(m−1)/3⌋+2 of
//    its neighbors, designated from link state every daemon holds, and
//    by any daemon whose neighbor the source cannot reach directly
//    (DESIGN.md "Bounded-redundancy flooding");
//  * the legacy "debug" code path that the red team's patched binary
//    targeted, which is compiled out (ignored) in intrusion-tolerant
//    mode — reproducing the excursion result.
//
// Data-plane fast path (see DESIGN.md "Performance architecture"): node
// names are interned to dense uint32 handles at admission, so neighbor
// state, routes, the LSDB, and the per-priority queues are flat vectors
// — the handle_udp → on_data → enqueue_data → pump → send_packet chain
// does zero string compares. Route recomputation is event-coalesced
// behind a dirty flag, flood dedup is an O(1) open-addressing ring, and
// forwarded messages are shared (not copied) across neighbor queues and
// encoded once per pump batch.
//
// Quiet control plane (see DESIGN.md "Quiet control plane"): link state
// is flooded on change, the way OSPF runs it. LSUs ride the per-link
// ARQ, a same-area adjacency coming up pulls the neighbor's view current
// by relaying every held origin-signed LSU to it, hello transitions
// within one kRouteCoalesceInterval collapse into a single origination,
// and the periodic refresh is slow, per-daemon-phased anti-entropy.
//
// Liveness by exception (see DESIGN.md "Liveness by exception"): any
// fresh authenticated packet from a neighbor counts as hearing from it,
// so a hello goes only to a neighbor nothing else went to within the
// hello interval. Stub daemons (overlay clients) originate their own
// LSU but relay no other, and routes never transit them; a link with a
// stub end runs in demand mode, with no periodic hellos once it is up,
// and goes down when its ARQ abandons a packet.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/keyring.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "spines/dedup_ring.hpp"
#include "spines/message.hpp"
#include "spines/node_table.hpp"
#include "spines/replay_window.hpp"
#include "spines/spf.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace spire::spines {

constexpr std::uint16_t kDefaultDaemonPort = 8100;
/// Legacy debug opcode (see file comment). Present for fidelity to the
/// red-team excursion; only honoured outside intrusion-tolerant mode.
constexpr std::uint8_t kDebugPacketType = 4;

/// A transit daemon carries other daemons' traffic and link state; a
/// stub only originates and terminates its own (overlay clients).
enum class NodeRole { kTransit, kStub };

enum class ForwardingMode {
  kRouted,        ///< shortest-path unicast
  kPriorityFlood  ///< intrusion-tolerant constrained flooding
};

struct DaemonConfig {
  NodeId id;
  std::uint16_t udp_port = kDefaultDaemonPort;
  /// Seal all link traffic and disable legacy code paths.
  bool intrusion_tolerant = true;
  ForwardingMode mode = ForwardingMode::kPriorityFlood;
  sim::Time hello_interval = 100 * sim::kMillisecond;
  sim::Time link_timeout = 350 * sim::kMillisecond;
  /// Anti-entropy re-origination of the own LSU. Changes are flooded
  /// when they happen (reliably, per link) and adjacency-up syncs the
  /// LSDB, so this only repairs what both missed. Each daemon's first
  /// refresh fires at a phase hashed from its id, so refreshes never
  /// align across the overlay.
  sim::Time lsu_refresh = 30 * sim::kSecond;
  std::size_t per_source_queue_cap = 128;
  std::size_t dedup_cache_size = 8192;
  /// Spines' reliable message service: per-link ARQ for data packets
  /// (ack + retransmit), so routed traffic survives transient drops.
  /// LSUs always ride the same ARQ, in both forwarding modes; this
  /// switch covers data only.
  bool reliable_data_links = true;

  // --- hierarchical area routing (wide-area overlays) -------------------
  /// Routing area this daemon belongs to. LSUs flood only within the
  /// area; reachability crosses area borders as bounded summary
  /// advertisements from border daemons (daemons with a neighbor in a
  /// different area). Single-area overlays behave exactly as before.
  std::uint32_t area = 0;
  /// Border daemons advertise each summary stream once per interval.
  sim::Time summary_interval = 1 * sim::kSecond;
  /// Max member names per summary advertisement; larger sets rotate
  /// through consecutive advertisements (BATMAN-style originator
  /// capping), so per-interval fan-out is bounded regardless of area
  /// size.
  std::size_t summary_fanout_cap = 64;
};

/// ARQ resends of an unacked link packet (LSU or data) before it is
/// abandoned.
constexpr int kMaxRetransmits = 6;
/// Remote members not re-advertised within this window are dropped.
constexpr sim::Time kSummaryMemberTimeout = 10 * sim::kSecond;

struct DaemonStats {
  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t dropped_auth = 0;
  /// Datagrams at the daemon port that do not parse as a link envelope.
  std::uint64_t dropped_malformed = 0;
  std::uint64_t dropped_replay = 0;
  std::uint64_t dropped_dedup = 0;
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t lsu_accepted = 0;
  std::uint64_t lsu_rejected_sig = 0;
  std::uint64_t lsu_sent = 0;         ///< per-link LSU copies, first sends
  std::uint64_t lsu_retransmits = 0;  ///< ARQ resends of unacked LSUs
  /// Verified own LSUs that came back; correct peers never send one.
  std::uint64_t lsu_reflected = 0;
  std::uint64_t debug_packets_ignored = 0;
  std::uint64_t debug_packets_honoured = 0;
  std::uint64_t data_retransmits = 0;
  std::uint64_t data_abandoned = 0;  ///< gave up after max retransmits (data)
  std::uint64_t acks_sent = 0;
  std::uint64_t hellos_sent = 0;
  /// Every link packet put on the wire, retransmits included.
  std::uint64_t packets_sent = 0;
  // Control-plane churn and queue-pressure observability (printed by the
  // soak/topology benches so regressions are visible in bench output).
  std::uint64_t route_recomputes = 0;
  std::uint64_t route_recomputes_coalesced = 0;
  std::uint64_t dedup_evictions = 0;
  std::array<std::uint64_t, 3> max_queue_depth{};  ///< per priority class
  // Incremental-SPF and wide-area control-plane observability.
  std::uint64_t spf_incremental = 0;  ///< recomputes repaired incrementally
  std::uint64_t spf_full = 0;         ///< recomputes that ran the full BFS
  std::uint64_t border_summaries_sent = 0;
  std::uint64_t summaries_accepted = 0;
  std::uint64_t summaries_rejected_sig = 0;
  std::uint64_t lsu_bytes_sent = 0;
  std::uint64_t summary_bytes_sent = 0;
  /// LSU + summary bytes sent over links whose far end is in another
  /// area — the wide-area control-plane budget bench_wide_area gates.
  std::uint64_t inter_area_control_bytes = 0;
  std::uint64_t node_table_overflows = 0;
};

/// Delivery callback for a local session.
using SessionHandler = std::function<void(const DataBody&)>;

class Daemon {
 public:
  /// `verifier` must know the identity keys of every legitimate overlay
  /// node; `keyring` supplies link keys and this node's signing key.
  Daemon(sim::Simulator& sim, net::Host& host, DaemonConfig config,
         const crypto::Keyring& keyring, crypto::Verifier verifier);

  /// Declares a neighbor and its underlay address. Call before start().
  void add_neighbor(const NodeId& id, net::Endpoint address);
  /// Same, for a neighbor in (possibly) another routing area. A
  /// cross-area neighbor makes this daemon a border daemon: LSUs never
  /// cross the link; summary advertisements do.
  void add_neighbor(const NodeId& id, net::Endpoint address,
                    std::uint32_t area);
  /// Declares `id` (possibly this daemon) a stub: routes never transit
  /// it, and as this daemon it relays no other origin's LSU. Every link
  /// with a stub end runs in demand mode. Call before start().
  void add_stub(const NodeId& id);

  /// Binds the UDP port and begins hello/LSU cycles.
  void start();
  /// Unbinds and goes silent (the excursion's "stop the daemons" step).
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  // ---- session API (local applications) ---------------------------------
  void open_session(SessionPort port, SessionHandler handler);
  void close_session(SessionPort port);
  /// Sends a message into the overlay. Returns false if the daemon is
  /// stopped.
  bool session_send(SessionPort src_port, const NodeId& dst,
                    SessionPort dst_port, util::Bytes payload,
                    Priority priority = Priority::kHigh);

  // ---- attack-framework hooks --------------------------------------------
  /// Replaces this daemon's key material with garbage, modelling the red
  /// team's rebuilt/modified binary that lacked the new link keys.
  void corrupt_link_keys();
  /// Restores correct keys (reinstalling the legitimate binary). The
  /// legitimate channels resume where they stopped, so no (key, nonce)
  /// pair is ever sealed twice.
  void restore_link_keys();
  /// A compromised relay: the daemon keeps its keys, hellos, LSUs,
  /// originations and deliveries, but forwards nothing it received.
  void withhold_relaying(bool withhold) { withhold_relaying_ = withhold; }

  [[nodiscard]] const DaemonStats& stats() const { return stats_; }
  [[nodiscard]] const DaemonConfig& config() const { return config_; }
  [[nodiscard]] bool link_up(const NodeId& neighbor) const;
  [[nodiscard]] std::optional<NodeId> next_hop(const NodeId& dst) const;
  /// LSDB introspection (used by the forged-LSU regression test: a
  /// non-member origin must leave no trace).
  [[nodiscard]] std::size_t lsdb_size() const { return lsdb_count_; }
  [[nodiscard]] bool lsdb_contains(const NodeId& origin) const;
  /// Sequence number of the held LSU from `origin` (0 if none).
  [[nodiscard]] std::uint64_t lsdb_seq(const NodeId& origin) const;
  /// Packets sent to `neighbor` that still await a link-level ack.
  [[nodiscard]] std::size_t unacked_count(const NodeId& neighbor) const;
  /// True when any declared neighbor is in another area.
  [[nodiscard]] bool is_border() const;
  /// Total LSU + summary bytes this daemon has sent to `neighbor`
  /// (bench_wide_area sums these over the designated wide links).
  [[nodiscard]] std::uint64_t control_bytes_to(const NodeId& neighbor) const;
  [[nodiscard]] const NodeTable& node_table() const { return nodes_; }
  /// The neighbors of `source` that relay its flooded messages, as this
  /// daemon's link state designates them, in rank order.
  [[nodiscard]] std::vector<NodeId> flood_relays(const NodeId& source) const;

 private:
  /// One data message staged for transmission. Flood fan-out shares one
  /// unit across every neighbor queue; the wire encoding is produced
  /// once, on first transmission, and reused for every copy sent.
  struct ForwardUnit {
    DataBody body;
    util::Bytes encoded;
  };

  /// Per-source FIFOs for one priority class, indexed by source handle,
  /// with a round-robin ring of sources that currently have traffic.
  struct PriorityClassQueue {
    std::vector<std::deque<std::shared_ptr<ForwardUnit>>> by_source;
    std::vector<NodeHandle> active;  ///< sources with non-empty queues
    std::size_t rr_next = 0;         ///< round-robin cursor into `active`
    std::size_t depth = 0;           ///< total queued across sources

    [[nodiscard]] bool empty() const { return depth == 0; }
    void clear();
  };

  struct Neighbor {
    NodeHandle handle = kNoHandle;
    net::Endpoint address;
    std::uint32_t area = 0;  ///< routing area of the far end
    std::unique_ptr<crypto::SecureChannel> send_channel;
    std::unique_ptr<crypto::SecureChannel> recv_channel;
    /// The legitimate channels, set aside while the keys are corrupted:
    /// their nonce counters must resume, not restart, under the same key.
    std::unique_ptr<crypto::SecureChannel> held_send_channel;
    std::unique_ptr<crypto::SecureChannel> held_recv_channel;
    std::uint64_t send_link_seq = 0;
    ReplayWindow recv_window;
    /// Last fresh authenticated packet from the far end, of any type.
    sim::Time last_heard = 0;
    /// Last first send to the far end of anything but an ack.
    sim::Time last_sent = 0;
    /// Last hello sent; spaces the replies on a demand link.
    std::optional<sim::Time> last_hello_sent;
    bool up = false;
    /// Reliable-service state: unacked LSU and data packets awaiting ack.
    struct Unacked {
      util::Bytes inner_bytes;
      sim::Time sent_at = 0;
      int retries = 0;
      bool lsu = false;
    };
    std::map<std::uint64_t, Unacked> unacked;
    std::array<PriorityClassQueue, 3> queues;
    sim::Time busy_until = 0;
    bool pump_scheduled = false;
  };

  struct LsdbEntry {
    bool present = false;
    std::uint64_t seq = 0;
    /// The accepted signed LSU as received, relayed verbatim by the
    /// adjacency-up sync (empty for the own entry, which is always
    /// re-originated instead).
    util::Bytes lsu;
  };

  /// One "dst is reachable via this advertiser" fact from an accepted
  /// summary. Interior daemons collect local borders as vias; borders
  /// additionally collect their cross-area neighbors.
  struct RemoteVia {
    NodeHandle via = kNoHandle;
    sim::Time last_seen = 0;
  };

  /// Border-side state for one remote area whose members this daemon
  /// has learned across its wide-area links.
  struct ForeignArea {
    std::vector<std::uint32_t> path;  ///< areas traversed so far
    std::map<NodeHandle, sim::Time> members;  ///< member -> last seen
    std::size_t cursor = 0;  ///< rotation position for capped fan-out
  };

  void make_channels(Neighbor& n, const NodeId& id, bool corrupted);
  /// Sets `n`'s legitimate channels aside and seals with garbage keys.
  void corrupt_channels(Neighbor& n, const NodeId& id);
  void handle_udp(const net::Datagram& dgram);
  void process_inner(NodeHandle from, PacketType type,
                     std::span<const std::uint8_t> body);
  /// A fresh authenticated packet from `from`: refreshes its liveness
  /// and brings a down link up.
  void heard_from(NodeHandle from);
  void on_hello(NodeHandle from);
  /// `wire` is the LSU's encoding as received; it is stored and relayed
  /// verbatim.
  void on_link_state(NodeHandle arrival, const LinkStateBody& lsu,
                     std::span<const std::uint8_t> wire);
  void on_area_summary(NodeHandle arrival, const AreaSummaryBody& summary);
  /// `arrival` is kNoHandle for locally originated messages.
  void on_data(NodeHandle arrival, DataBody data);
  void hello_tick(std::uint64_t epoch);
  void send_hello(NodeHandle neighbor);
  /// Marks `n` down; returns true for a same-area (link-state) link.
  bool take_down(Neighbor& n, const char* cause);
  void lsu_tick(std::uint64_t epoch);
  void summary_tick(std::uint64_t epoch);
  void retransmit_tick(std::uint64_t epoch);
  void send_ack(NodeHandle neighbor, std::uint64_t acked_seq);
  /// True for packet types that ride the per-link ARQ.
  [[nodiscard]] bool reliable(PacketType type) const;
  void transmit_inner(NodeHandle neighbor,
                      std::span<const std::uint8_t> inner_bytes);
  /// Signs a fresh own LSU for the current same-area adjacency and
  /// floods it. Runs only inside the coalesced callback.
  void originate_own_lsu();
  /// Sends an LSU to every up same-area neighbor except `arrival` and
  /// the LSU's own `origin`.
  void flood_lsu(std::span<const std::uint8_t> body, NodeHandle arrival,
                 NodeHandle origin);
  /// Relays every held LSU to a same-area neighbor whose link just came
  /// up, except its own and ours (ours is re-originated anyway).
  void sync_lsdb_to(NodeHandle neighbor);
  void send_packet(NodeHandle neighbor, PacketType type,
                   std::span<const std::uint8_t> body);
  void enqueue_data(NodeHandle neighbor, NodeHandle src,
                    const std::shared_ptr<ForwardUnit>& unit);
  void pump(NodeHandle neighbor);
  /// Set a dirty flag and schedule the coalesced callback, which runs
  /// once per kRouteCoalesceInterval: it originates the own LSU if it
  /// is dirty, then recomputes routes if they are.
  void mark_routes_dirty();
  void mark_own_lsu_dirty();
  void schedule_coalesced();
  void recompute_routes();
  /// Border origination: advertises every summary stream (own area +
  /// learned foreign areas) across wide links and into the local area.
  void send_summaries();
  /// Emits one capped, rotated advertisement for a member set.
  void emit_summary_stream(std::uint32_t subject_area,
                           const std::vector<std::uint32_t>& path,
                           const std::vector<NodeHandle>& members,
                           std::size_t& cursor);
  /// Records "dst reachable via `via`" with freshness `now`.
  void note_remote_via(NodeHandle dst, NodeHandle via);
  /// Rebuilds remote_routes_ from the via table and the current SPF
  /// result: best via = min (cost, handle), cost 1 for an up direct
  /// cross-area neighbor, else the intra-area SPF distance.
  void refresh_remote_routes();
  /// Ranks `src`'s confirmed neighbors and keeps the first r =
  /// ⌊(m−1)/3⌋+2, m being the daemons in this LSDB, self included.
  void designate_relays(NodeHandle src, std::vector<NodeHandle>& out) const;
  /// Whether this daemon relays `src`'s flooded messages; cached per
  /// source until the link state changes.
  bool relays_for(NodeHandle src);
  /// Called where a confirmed edge or the LSDB size may have changed.
  void invalidate_relays() { ++relay_generation_; }
  /// Intra-area route if the SPF tree reaches dst, else the summary-
  /// derived remote route.
  [[nodiscard]] NodeHandle route_for(NodeHandle dst) const;
  [[nodiscard]] bool same_area(const Neighbor& n) const {
    return n.area == config_.area;
  }
  [[nodiscard]] bool is_stub() const { return spf_.stub(self_); }
  /// A link with a stub end whose data rides the ARQ: no hellos while
  /// up, and down when the ARQ abandons a packet.
  [[nodiscard]] bool demand(const Neighbor& n) const {
    return (is_stub() || spf_.stub(n.handle)) && reliable(PacketType::kData);
  }
  /// Interns `id`, dropping to kNoHandle when the node table is full;
  /// grows every handle-indexed vector to match.
  NodeHandle admit_node(std::string_view id);
  [[nodiscard]] Neighbor* neighbor_slot(NodeHandle h) {
    return h < neighbors_.size() ? neighbors_[h].get() : nullptr;
  }
  [[nodiscard]] const Neighbor* neighbor_slot(NodeHandle h) const {
    return h < neighbors_.size() ? neighbors_[h].get() : nullptr;
  }

  sim::Simulator& sim_;
  net::Host& host_;
  DaemonConfig config_;
  const crypto::Keyring& keyring_;
  crypto::Verifier verifier_;
  crypto::Signer signer_;
  util::Logger log_;

  bool running_ = false;
  bool keys_corrupted_ = false;
  bool withhold_relaying_ = false;
  /// Timer epoch: bumped on stop() so orphaned tick/pump lambdas no-op
  /// (mirrors the Prime replica's timer-epoch pattern).
  std::uint64_t epoch_ = 0;

  NodeTable nodes_;
  NodeHandle self_ = kNoHandle;
  std::vector<std::unique_ptr<Neighbor>> neighbors_;  ///< indexed by handle
  std::vector<NodeHandle> neighbor_order_;            ///< declaration order
  std::map<SessionPort, SessionHandler> sessions_;

  std::uint64_t hello_seq_ = 0;
  std::uint64_t own_lsu_seq_ = 0;
  std::uint64_t data_seq_ = 0;

  std::vector<LsdbEntry> lsdb_;    ///< indexed by origin handle
  std::size_t lsdb_count_ = 0;
  bool own_lsu_dirty_ = false;
  bool routes_dirty_ = false;
  bool route_recompute_scheduled_ = false;
  SpfEngine spf_;  ///< intra-area routes (canonical BFS + incremental)

  /// Per source handle: whether this daemon is one of its relays, valid
  /// while `generation` matches relay_generation_.
  struct RelayRole {
    std::uint64_t generation = 0;
    bool relay = false;
  };
  std::vector<RelayRole> relay_roles_;
  std::uint64_t relay_generation_ = 1;

  // --- wide-area state ---------------------------------------------------
  std::uint64_t own_summary_seq_ = 0;
  std::size_t own_area_cursor_ = 0;  ///< rotation over own-area members
  std::map<std::uint32_t, ForeignArea> foreign_;  ///< borders only
  /// Per-(origin handle, subject area) newest accepted summary seq.
  std::map<std::pair<NodeHandle, std::uint32_t>, std::uint64_t> summary_seq_;
  std::vector<std::vector<RemoteVia>> remote_vias_;  ///< by dst handle
  std::vector<NodeHandle> remote_routes_;            ///< by dst handle
  std::vector<std::uint64_t> control_bytes_by_neighbor_;  ///< by handle
  std::vector<NodeHandle> member_scratch_;  ///< summary-stream staging

  DedupRing dedup_;

  // Reusable serialization scratch: the send path encodes (and seals)
  // into these instead of allocating per packet.
  util::ByteWriter inner_scratch_;
  util::ByteWriter env_scratch_;
  /// Plaintext of the datagram handle_udp is processing in sealed mode.
  /// Only grows. Safe to reuse because a send never re-enters
  /// handle_udp synchronously: frames leave through the NIC and the
  /// switch with link latency.
  util::Bytes open_scratch_;

  DaemonStats stats_;
  obs::Binder metrics_;  ///< exposes stats_ in the metrics registry
};

}  // namespace spire::spines
