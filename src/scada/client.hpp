// SCADA client-side helper: signs updates and submits them to all
// replicas (through whatever transport the deployment wires in —
// external Spines in the hardened setup, the loopback fabric in tests).
#pragma once

#include <functional>
#include <string>

#include "crypto/keyring.hpp"
#include "obs/trace.hpp"
#include "prime/messages.hpp"
#include "scada/wire.hpp"

namespace spire::scada {

class ScadaClient {
 public:
  /// `submit` must deliver the envelope bytes to every replica.
  using SubmitFn = std::function<void(const util::Bytes& envelope)>;

  ScadaClient(std::string identity, const crypto::Keyring& keyring,
              SubmitFn submit)
      : signer_(identity, keyring.identity_key(identity)),
        submit_(std::move(submit)) {}

  [[nodiscard]] const std::string& identity() const {
    return signer_.identity();
  }
  /// Sequence number the next send() will use. Lets callers create
  /// tracer spans for a batch before handing it to send().
  [[nodiscard]] std::uint64_t peek_seq() const { return next_seq_; }

  /// Signs and submits one SCADA payload as a Prime client update.
  void send(ScadaMsgType type, util::Bytes body) {
    ClientPayload payload;
    payload.type = type;
    payload.body = std::move(body);

    const std::uint64_t seq = next_seq_++;
    const util::Bytes envelope =
        prime::seal_client_update(signer_, seq, payload.encode());
    if (auto* tracer = obs::Tracer::current()) {
      tracer->client_submit(signer_.identity(), seq);
    }
    submit_(envelope);
  }

 private:
  crypto::Signer signer_;
  SubmitFn submit_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace spire::scada
