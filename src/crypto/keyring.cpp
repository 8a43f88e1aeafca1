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

AesKey gcm_key(const SymmetricKey& link_key) {
  const Digest d = hmac_sha256(link_key, util::to_bytes("enc"));
  AesKey k{};
  std::copy_n(d.begin(), k.size(), k.begin());
  return k;
}

/// 4 zero bytes || the big-endian nonce counter in the first 8 bytes of
/// `nonce`.
GcmIv gcm_iv(std::span<const std::uint8_t> nonce) {
  GcmIv iv{};
  std::copy_n(nonce.begin(), SecureChannel::kNonceSize, iv.begin() + 4);
  return iv;
}

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

SecureChannel::SecureChannel(SymmetricKey key) : key_(gcm_key(key)) {}

void SecureChannel::seal_into(std::span<const std::uint8_t> plaintext,
                              std::span<std::uint8_t> out) {
  const std::size_t body_len = kNonceSize + plaintext.size();
  if (out.size() < body_len + kTagSize) {
    throw std::length_error("SecureChannel::seal_into: output too short");
  }
  const std::uint64_t nonce = next_nonce_++;
  for (std::size_t i = 0; i < kNonceSize; ++i) {
    out[i] = static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  }
  const GcmTag tag = aes_gcm_seal(key_, gcm_iv(out), {}, plaintext,
                                  out.subspan(kNonceSize, plaintext.size()));
  std::copy(tag.begin(), tag.end(), out.subspan(body_len, kTagSize).begin());
}

bool SecureChannel::open_into(std::span<const std::uint8_t> sealed,
                              std::span<std::uint8_t> out) const {
  if (sealed.size() < kOverhead) return false;
  const std::size_t plain_len = sealed.size() - kOverhead;
  if (out.size() < plain_len) {
    throw std::length_error("SecureChannel::open_into: output too short");
  }
  // aes_gcm_open checks the tag before it decrypts anything.
  return aes_gcm_open(key_, gcm_iv(sealed), {},
                      sealed.subspan(kNonceSize, plain_len),
                      sealed.last<kTagSize>(), out.first(plain_len));
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
