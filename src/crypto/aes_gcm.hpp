// AES-128-GCM (NIST SP 800-38D), validated against the McGrew & Viega
// test cases: the link encryption and authentication Spines runs in
// intrusion-tolerant mode (SecureChannel, crypto/keyring.hpp), which
// defeated the red team's modified-daemon attack in the paper (§IV-B).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace spire::crypto {

using AesKey = std::array<std::uint8_t, 16>;
using GcmIv = std::array<std::uint8_t, 12>;
using GcmTag = std::array<std::uint8_t, 16>;

/// Everything GCM derives from one key, computed once: the AES-128
/// round keys and the hash key H = AES(K, 0^128), in each kernel's form.
struct GcmKey {
  explicit GcmKey(const AesKey& key);

  /// The 11 round keys, in FIPS 197 byte order.
  alignas(16) std::array<std::uint8_t, 176> round_keys{};
  /// H^1..H^4, each byte-reversed (the PCLMULQDQ kernel's layout).
  alignas(16) std::array<std::array<std::uint8_t, 16>, 4> h_powers{};
  /// Shoup's 4-bit tables: H times the element i, high and low halves.
  std::array<std::uint64_t, 16> h_table_hi{};
  std::array<std::uint64_t, 16> h_table_lo{};
};

/// The two implementations; they write the same bytes.
enum class GcmKernel {
  kPortable,  ///< table-based AES and GHASH in portable C++
  kAesNi,     ///< AES-NI + PCLMULQDQ; only where fastest_gcm_kernel() is it
};

/// kAesNi when this build has that kernel and the CPU supports it.
[[nodiscard]] GcmKernel fastest_gcm_kernel();

/// Encrypts `in` into `out`, which must be the same size
/// (std::length_error otherwise) and either be `in` itself or not
/// overlap it, and returns the tag over `aad` and the ciphertext.
[[nodiscard]] GcmTag aes_gcm_seal(const GcmKey& key, const GcmIv& iv,
                                  std::span<const std::uint8_t> aad,
                                  std::span<const std::uint8_t> in,
                                  std::span<std::uint8_t> out,
                                  GcmKernel kernel = fastest_gcm_kernel());

/// Checks `tag` over `aad` and the ciphertext `in` in constant time and,
/// only if it matches, decrypts `in` into `out` (same size and overlap
/// rules as aes_gcm_seal()). Returns false, with `out` untouched, on a
/// mismatch.
[[nodiscard]] bool aes_gcm_open(const GcmKey& key, const GcmIv& iv,
                                std::span<const std::uint8_t> aad,
                                std::span<const std::uint8_t> in,
                                std::span<const std::uint8_t, 16> tag,
                                std::span<std::uint8_t> out,
                                GcmKernel kernel = fastest_gcm_kernel());

}  // namespace spire::crypto
