// ChaCha20 stream cipher (RFC 8439 block function), validated against
// the RFC test vector. Provides the link encryption that Spines runs
// in intrusion-tolerant mode — the encryption that defeated the red
// team's modified-daemon attack in the paper (§IV-B).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace spire::crypto {

using ChaChaKey = std::array<std::uint8_t, 32>;
using ChaChaNonce = std::array<std::uint8_t, 12>;

/// Computes one 64-byte ChaCha20 keystream block (RFC 8439 §2.3). The
/// scalar reference the multi-block kernel is tested against.
[[nodiscard]] std::array<std::uint8_t, 64> chacha20_block(
    const ChaChaKey& key, std::uint32_t counter, const ChaChaNonce& nonce);

/// XORs `in` with the keystream starting at block `counter` and writes
/// the result to `out`, which must be the same size (std::length_error
/// otherwise) and either be `in` itself or not overlap it. Runs the AVX2
/// kernel when the CPU has AVX2, else the SSE2 one (detail:: below).
/// Encryption and decryption are the same operation.
void chacha20_xor_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                       std::uint32_t counter,
                       std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out);

/// Allocating form of chacha20_xor_into().
[[nodiscard]] util::Bytes chacha20_xor(const ChaChaKey& key,
                                       const ChaChaNonce& nonce,
                                       std::uint32_t counter,
                                       std::span<const std::uint8_t> data);

namespace detail {

/// The kernels chacha20_xor_into() dispatches between, exposed so tests
/// can check each one against chacha20_block() on whatever CPU runs
/// them. Same contract as chacha20_xor_into(), except that the sizes
/// are not checked.
///
/// True when this build has the AVX2 kernel and the CPU supports it.
[[nodiscard]] bool cpu_has_avx2();
/// Row-wise AVX2 kernel: each pass computes only the blocks its bytes
/// need (one up to 64 B, two up to 128 B, else four). Call only when
/// cpu_has_avx2().
void chacha20_xor_avx2(const ChaChaKey& key, const ChaChaNonce& nonce,
                       std::uint32_t counter, std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out);
/// Four blocks per pass in SSE2 registers (scalar where SSE2 is absent).
void chacha20_xor_sse2(const ChaChaKey& key, const ChaChaNonce& nonce,
                       std::uint32_t counter, std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out);

}  // namespace detail

}  // namespace spire::crypto
