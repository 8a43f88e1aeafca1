// One populated instance of every wire format in the system: the 19
// Prime messages, the 8 SCADA payloads and the 6 Spines packets, with
// the Envelope and LinkEnvelope in both of their forms. Every vector
// field holds at least one element. The golden-vector test pins their
// bytes; the round-trip fuzz mutates them.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "prime/messages.hpp"
#include "scada/wire.hpp"
#include "spines/message.hpp"

namespace spire::wire_samples {

struct Sample {
  std::string name;
  util::Bytes wire;
  /// Decodes bytes as the sample's type: nullopt if rejected, else the
  /// decoded value encoded again.
  std::function<std::optional<util::Bytes>(std::span<const std::uint8_t>)>
      reencode;
};

template <typename T>
Sample sample(std::string name, const T& value) {
  return {std::move(name), value.encode(),
          [](std::span<const std::uint8_t> b) -> std::optional<util::Bytes> {
            const auto decoded = T::decode(b);
            if (!decoded) return std::nullopt;
            return decoded->encode();
          }};
}

/// A fixed byte pattern, so no vector depends on a key schedule.
inline crypto::Signature sig(std::uint8_t first) {
  crypto::Signature s;
  for (std::size_t i = 0; i < s.mac.size(); ++i) {
    s.mac[i] = static_cast<std::uint8_t>(first + i);
  }
  return s;
}

inline crypto::Digest digest(std::uint8_t first) { return sig(first).mac; }

inline prime::ClientUpdate client_update(std::uint64_t seq) {
  prime::ClientUpdate u;
  u.client = "client/hmi";
  u.client_seq = seq;
  u.payload = {0xde, 0xad, static_cast<std::uint8_t>(seq)};
  u.client_sig = sig(static_cast<std::uint8_t>(0x10 + seq));
  return u;
}

inline prime::PoAru po_aru(prime::ReplicaId replica) {
  prime::PoAru a;
  a.replica = replica;
  a.aru_seq = 4 + replica;
  a.aru = {3, 0, 5, 1};
  a.sig = sig(static_cast<std::uint8_t>(0x40 + replica));
  return a;
}

inline prime::PreparedProof prepared_proof() {
  prime::PreparedProof p;
  p.order_seq = 17;
  p.preprepare_envelope = {0x04, 0x01, 0x02};
  p.prepare_envelopes = {{0x05, 0x0a}, {0x05}};
  return p;
}

inline prime::ViewState view_state() {
  prime::ViewState v;
  v.replica = 1;
  v.view = 4;
  v.max_prepared = 17;
  v.max_committed = 16;
  v.prepared = {prepared_proof()};
  v.sig = sig(0x60);
  return v;
}

inline scada::StatusReport status_report(std::string device,
                                         std::uint64_t seq) {
  scada::StatusReport r;
  r.device = std::move(device);
  r.report_seq = seq;
  r.breakers = {true, false, true};
  r.readings = {480, 7};
  return r;
}

inline scada::SupervisoryCommand supervisory_command() {
  scada::SupervisoryCommand c;
  c.device = "plc-phys";
  c.breaker = 3;
  c.close = true;
  c.command_id = 7;
  return c;
}

inline scada::StateUpdate state_update() {
  scada::StateUpdate s;
  s.replica = 1;
  s.version = 9;
  s.kind = scada::StateUpdate::kDelta;
  s.base_version = 8;
  s.state = {0x01, 0x02, 0x03, 0x04};
  s.sig = sig(0x90);
  return s;
}

inline std::vector<Sample> all() {
  std::vector<Sample> out;

  // ---- Prime ----
  prime::Envelope solo;
  solo.type = prime::MsgType::kPrepare;
  solo.sender = "prime/1";
  solo.body = {0x01, 0x02, 0x03};
  solo.signature = sig(0x01);
  out.push_back(sample("Envelope.solo", solo));
  prime::Envelope batched = solo;
  batched.type = prime::MsgType::kPoAru;
  batched.batch = prime::BatchProof{2, {digest(0x20), digest(0x30)}};
  out.push_back(sample("Envelope.batched", batched));

  out.push_back(sample("ClientUpdate", client_update(7)));

  prime::PoRequest po_request;
  po_request.origin = 2;
  po_request.po_seq = 9;
  po_request.updates = {client_update(1), client_update(2)};
  out.push_back(sample("PoRequest", po_request));

  out.push_back(sample("PoAru", po_aru(1)));

  prime::PrePrepare pp;
  pp.leader = 0;
  pp.view = 3;
  pp.order_seq = 17;
  pp.rows = {std::make_shared<const prime::PoAru>(po_aru(0)), nullptr,
             std::make_shared<const prime::PoAru>(po_aru(2)), nullptr};
  out.push_back(sample("PrePrepare", pp));

  prime::PrepareOrCommit vote;
  vote.replica = 2;
  vote.view = 3;
  vote.order_seq = 17;
  vote.preprepare_digest = digest(0x50);
  out.push_back(sample("PrepareOrCommit", vote));

  prime::NewLeader new_leader;
  new_leader.replica = 3;
  new_leader.proposed_view = 4;
  out.push_back(sample("NewLeader", new_leader));

  out.push_back(sample("PreparedProof", prepared_proof()));
  out.push_back(sample("ViewState", view_state()));

  prime::NewView new_view;
  new_view.leader = 1;
  new_view.view = 4;
  new_view.start_seq = 17;
  new_view.justification = {view_state()};
  out.push_back(sample("NewView", new_view));

  prime::PoReqFetch fetch;
  fetch.origin = 2;
  fetch.po_seq = 9;
  out.push_back(sample("PoReqFetch", fetch));

  prime::PoReqResp po_resp;
  po_resp.origin = 2;
  po_resp.po_seq = 9;
  po_resp.envelope = {0x02, 0x00, 0x07};
  out.push_back(sample("PoReqResp", po_resp));

  prime::StateReq state_req;
  state_req.nonce = 0x0102030405060708;
  out.push_back(sample("StateReq", state_req));

  prime::StateResp state_resp;
  state_resp.nonce = 0x0102030405060708;
  state_resp.view = 4;
  state_resp.applied_seq = 40;
  state_resp.snapshot_digest = digest(0x70);
  out.push_back(sample("StateResp", state_resp));

  prime::SnapshotReq snap_req;
  snap_req.nonce = 11;
  snap_req.applied_seq = 40;
  out.push_back(sample("SnapshotReq", snap_req));

  prime::SnapshotResp snap_resp;
  snap_resp.nonce = 11;
  snap_resp.applied_seq = 40;
  snap_resp.blob = {0xaa, 0xbb, 0xcc};
  out.push_back(sample("SnapshotResp", snap_resp));

  prime::CommitCertReq cert_req;
  cert_req.order_seq = 17;
  out.push_back(sample("CommitCertReq", cert_req));

  prime::CommitCertResp cert_resp;
  cert_resp.order_seq = 17;
  cert_resp.preprepare_envelope = {0x04, 0x09};
  cert_resp.commit_envelopes = {{0x06, 0x01}, {0x06, 0x02, 0x03}};
  out.push_back(sample("CommitCertResp", cert_resp));

  prime::Checkpoint checkpoint;
  checkpoint.replica = 3;
  checkpoint.applied_seq = 40;
  checkpoint.snapshot_digest = digest(0x80);
  checkpoint.sig = sig(0x88);
  out.push_back(sample("Checkpoint", checkpoint));

  // ---- SCADA ----
  out.push_back(sample("StatusReport", status_report("fd7", 3)));
  out.push_back(sample("SupervisoryCommand", supervisory_command()));

  scada::BatchReport batch;
  batch.reports = {status_report("fd0", 1), status_report("fd5", 2)};
  out.push_back(sample("BatchReport", batch));

  scada::ResyncRequest resync;
  resync.displayed_version = 42;
  out.push_back(sample("ResyncRequest", resync));

  scada::ClientPayload payload;
  payload.type = scada::ScadaMsgType::kBatchReport;
  payload.body = batch.encode();
  out.push_back(sample("ClientPayload", payload));

  scada::CommandOrder order;
  order.replica = 2;
  order.issuer = "client/hmi";
  order.command = supervisory_command();
  order.sig = sig(0xa0);
  out.push_back(sample("CommandOrder", order));

  out.push_back(sample("StateUpdate", state_update()));

  scada::MasterOutput output;
  output.type = scada::ScadaMsgType::kStateUpdate;
  output.body = state_update().encode();
  out.push_back(sample("MasterOutput", output));

  // ---- Spines ----
  out.push_back(sample("HelloBody", spines::HelloBody{5}));
  out.push_back(sample("AckBody", spines::AckBody{2}));

  spines::LinkStateBody lsu;
  lsu.origin = "int1";
  lsu.seq = 3;
  lsu.neighbors = {"int2", "int3"};
  lsu.signature = sig(0xb0);
  out.push_back(sample("LinkStateBody", lsu));

  spines::AreaSummaryBody summary;
  summary.origin = "b1";
  summary.area = 2;
  summary.seq = 8;
  summary.area_path = {1, 2};
  summary.total_members = 5;
  summary.members = {"x", "y"};
  summary.signature = sig(0xc0);
  out.push_back(sample("AreaSummaryBody", summary));

  spines::DataBody data;
  data.src = "a";
  data.dst = spines::kBroadcastDst;
  data.src_port = 10;
  data.dst_port = 20;
  data.priority = spines::Priority::kHigh;
  data.msg_seq = 99;
  data.ttl = 7;
  data.payload = {0x70, 0x6c};
  out.push_back(sample("DataBody", data));

  const spines::LinkEnvelope sealed{"ext1", true, {0x00, 0x11, 0x22}};
  out.push_back(sample("LinkEnvelope.sealed", sealed));
  const spines::LinkEnvelope plain{"ext2", false, {0x01, 0x02}};
  out.push_back(sample("LinkEnvelope.plaintext", plain));

  const spines::InnerPacket inner{spines::PacketType::kData, 12,
                                  {0x33, 0x44}};
  out.push_back(sample("InnerPacket", inner));
  return out;
}

}  // namespace spire::wire_samples
