// Key management and message authentication for the reproduction.
//
// The real Spire deployment uses RSA signatures for Prime protocol
// messages and pre-shared keys for Spines link authentication and
// encryption. Here a trusted-dealer Keyring derives every key
// deterministically from a master seed, and "signatures" are
// HMAC-SHA256 authenticators under a per-sender key that all verifiers
// hold (DESIGN.md §3 documents this substitution). The attack
// framework honours the resulting rule: a compromised component can
// only authenticate messages as identities whose signing keys it
// actually holds.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "crypto/aes_gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"

namespace spire::crypto {

using SymmetricKey = std::array<std::uint8_t, 32>;

/// A per-sender message authenticator (signature substitute).
struct Signature {
  Digest mac{};

  bool operator==(const Signature&) const = default;

  static auto fields(auto& s) { return util::codec::fields(s.mac); }
};

/// Derives all system keys from one master seed. In deployment terms
/// this plays the role of the offline provisioning step that installs
/// key material on each Spire component before it is fielded.
class Keyring {
 public:
  explicit Keyring(std::string_view master_seed);

  /// Per-identity signing/verification key ("replica/3", "hmi/0", ...).
  [[nodiscard]] SymmetricKey identity_key(std::string_view identity) const;

  /// Symmetric key for an overlay link, independent of direction.
  [[nodiscard]] SymmetricKey link_key(std::string_view endpoint_a,
                                      std::string_view endpoint_b) const;

  /// Arbitrary labelled key (session keys, network-wide group keys).
  [[nodiscard]] SymmetricKey derive(std::string_view label) const;

 private:
  SymmetricKey master_{};
};

/// Signs messages as one identity. The HMAC key schedule is expanded
/// once at construction, not per message.
class Signer {
 public:
  Signer(std::string identity, SymmetricKey key)
      : identity_(std::move(identity)), state_(key) {}

  [[nodiscard]] const std::string& identity() const { return identity_; }
  [[nodiscard]] Signature sign(std::span<const std::uint8_t> message) const;

 private:
  std::string identity_;
  HmacState state_;
};

/// Verifies authenticators from a set of known identities. Key
/// schedules are expanded once in add_identity(), not per verify.
class Verifier {
 public:
  void add_identity(std::string identity, SymmetricKey key);
  [[nodiscard]] bool knows(std::string_view identity) const;
  [[nodiscard]] bool verify(std::string_view identity,
                            std::span<const std::uint8_t> message,
                            const Signature& sig) const;

 private:
  std::map<std::string, HmacState, std::less<>> keys_;
};

/// Authenticated encryption for overlay links, AES-128-GCM:
/// wire format = u64 nonce-counter || ciphertext || 16-byte GCM tag.
/// The 96-bit IV is 4 zero bytes || the nonce counter, so the tag
/// covers the nonce as well as the ciphertext. The GCM key (the first
/// 16 bytes of HMAC(link key, "enc")) is expanded once, at
/// construction, not per packet. Each channel seals under its own
/// nonce counter, and a (key, nonce) pair must never seal twice: under
/// GCM a repeat leaks the hash key and lets an attacker forge packets.
class SecureChannel {
 public:
  explicit SecureChannel(SymmetricKey key);

  static constexpr std::size_t kNonceSize = 8;
  static constexpr std::size_t kTagSize = 16;
  static constexpr std::size_t kOverhead = kNonceSize + kTagSize;

  /// Encrypts and authenticates `plaintext` into the first
  /// plaintext.size() + kOverhead bytes of `out`, which must not overlap
  /// it. Each call consumes one nonce. Throws std::length_error if `out`
  /// is too short.
  void seal_into(std::span<const std::uint8_t> plaintext,
                 std::span<std::uint8_t> out);

  /// Verifies `sealed` and, only if its tag is genuine, decrypts it into
  /// the first sealed.size() - kOverhead bytes of `out`, which must not
  /// overlap it. Returns false on any tampering or truncation, leaving
  /// `out` untouched. Throws std::length_error if `out` is too short for
  /// the plaintext.
  [[nodiscard]] bool open_into(std::span<const std::uint8_t> sealed,
                               std::span<std::uint8_t> out) const;

  /// Allocating form of seal_into().
  [[nodiscard]] util::Bytes seal(std::span<const std::uint8_t> plaintext);

  /// Allocating form of open_into(); nullopt on tampering or truncation.
  [[nodiscard]] std::optional<util::Bytes> open(
      std::span<const std::uint8_t> sealed) const;

 private:
  GcmKey key_;
  std::uint64_t next_nonce_ = 1;
};

}  // namespace spire::crypto
