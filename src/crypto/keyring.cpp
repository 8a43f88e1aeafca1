#include "crypto/keyring.hpp"

#include <algorithm>
#include <stdexcept>

namespace spire::crypto {

namespace {

SymmetricKey digest_to_key(const Digest& d) {
  SymmetricKey k{};
  std::copy(d.begin(), d.end(), k.begin());
  return k;
}

util::Bytes key_span(std::string_view s) { return util::to_bytes(s); }

}  // namespace

Keyring::Keyring(std::string_view master_seed) {
  master_ = digest_to_key(sha256(master_seed));
}

SymmetricKey Keyring::derive(std::string_view label) const {
  const util::Bytes label_bytes = key_span(label);
  return digest_to_key(hmac_sha256(master_, label_bytes));
}

SymmetricKey Keyring::identity_key(std::string_view identity) const {
  return derive("identity:" + std::string(identity));
}

SymmetricKey Keyring::link_key(std::string_view endpoint_a,
                               std::string_view endpoint_b) const {
  std::string lo(endpoint_a);
  std::string hi(endpoint_b);
  if (hi < lo) std::swap(lo, hi);
  return derive("link:" + lo + "|" + hi);
}

Signature Signer::sign(std::span<const std::uint8_t> message) const {
  Signature s;
  s.mac = state_.mac(message);
  return s;
}

void Verifier::add_identity(std::string identity, SymmetricKey key) {
  keys_.insert_or_assign(std::move(identity), HmacState(key));
}

bool Verifier::knows(std::string_view identity) const {
  return keys_.find(identity) != keys_.end();
}

bool Verifier::verify(std::string_view identity,
                      std::span<const std::uint8_t> message,
                      const Signature& sig) const {
  const auto it = keys_.find(identity);
  if (it == keys_.end()) return false;
  const Digest expected = it->second.mac(message);
  return digest_equal(expected, sig.mac);
}

SecureChannel::SecureChannel(SymmetricKey key)
    // Domain-separate the encryption and MAC keys from the link key.
    : enc_key_(digest_to_key(hmac_sha256(key, util::to_bytes("enc")))),
      mac_(digest_to_key(hmac_sha256(key, util::to_bytes("mac")))) {}

void SecureChannel::seal_into(std::span<const std::uint8_t> plaintext,
                              std::span<std::uint8_t> out) {
  const std::size_t body_len = kNonceSize + plaintext.size();
  if (out.size() < body_len + kTagSize) {
    throw std::length_error("SecureChannel::seal_into: output too short");
  }
  const std::uint64_t nonce_counter = next_nonce_++;
  ChaChaNonce nonce{};
  for (std::size_t i = 0; i < kNonceSize; ++i) {
    nonce[i] = static_cast<std::uint8_t>(nonce_counter >> (56 - 8 * i));
  }
  std::copy_n(nonce.begin(), kNonceSize, out.begin());
  chacha20_xor_into(enc_key_, nonce, 1, plaintext,
                    out.subspan(kNonceSize, plaintext.size()));
  const Digest tag = mac_.mac(out.first(body_len));
  std::copy(tag.begin(), tag.end(), out.subspan(body_len, kTagSize).begin());
}

bool SecureChannel::open_into(std::span<const std::uint8_t> sealed,
                              std::span<std::uint8_t> out) const {
  if (sealed.size() < kOverhead) return false;
  const std::size_t body_len = sealed.size() - kTagSize;
  const std::size_t plain_len = body_len - kNonceSize;
  if (out.size() < plain_len) {
    throw std::length_error("SecureChannel::open_into: output too short");
  }
  // Encrypt-then-MAC: nothing is decrypted until the tag verifies.
  const Digest tag = mac_.mac(sealed.first(body_len));
  Digest provided{};
  std::copy_n(sealed.subspan(body_len).begin(), kTagSize, provided.begin());
  if (!digest_equal(tag, provided)) return false;

  ChaChaNonce nonce{};
  std::copy_n(sealed.begin(), kNonceSize, nonce.begin());
  chacha20_xor_into(enc_key_, nonce, 1, sealed.subspan(kNonceSize, plain_len),
                    out.first(plain_len));
  return true;
}

util::Bytes SecureChannel::seal(std::span<const std::uint8_t> plaintext) {
  util::Bytes out(plaintext.size() + kOverhead);
  seal_into(plaintext, out);
  return out;
}

std::optional<util::Bytes> SecureChannel::open(
    std::span<const std::uint8_t> sealed) const {
  if (sealed.size() < kOverhead) return std::nullopt;
  util::Bytes out(sealed.size() - kOverhead);
  if (!open_into(sealed, out)) return std::nullopt;
  return out;
}

}  // namespace spire::crypto
