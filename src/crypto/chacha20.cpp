#include "crypto/chacha20.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace spire::crypto {

namespace {

using State = std::array<std::uint32_t, 16>;

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

std::uint32_t load32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

State initial_state(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce) {
  return {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,
          load32_le(key.data() + 0),  load32_le(key.data() + 4),
          load32_le(key.data() + 8),  load32_le(key.data() + 12),
          load32_le(key.data() + 16), load32_le(key.data() + 20),
          load32_le(key.data() + 24), load32_le(key.data() + 28),
          counter,
          load32_le(nonce.data() + 0), load32_le(nonce.data() + 4),
          load32_le(nonce.data() + 8)};
}

constexpr std::size_t kPass = 4 * 64;  ///< keystream bytes per kernel pass

#if defined(__SSE2__)

template <int N>
__m128i rotl4(__m128i x) {
  if constexpr (N == 16) {
    // Swapping the 16-bit halves of each lane is one shuffle per half
    // instead of two shifts and an OR.
    return _mm_shufflehi_epi16(_mm_shufflelo_epi16(x, 0xB1), 0xB1);
  } else {
    return _mm_or_si128(_mm_slli_epi32(x, N), _mm_srli_epi32(x, 32 - N));
  }
}

void quarter_round4(__m128i& a, __m128i& b, __m128i& c, __m128i& d) {
  a = _mm_add_epi32(a, b); d = rotl4<16>(_mm_xor_si128(d, a));
  c = _mm_add_epi32(c, d); b = rotl4<12>(_mm_xor_si128(b, c));
  a = _mm_add_epi32(a, b); d = rotl4<8>(_mm_xor_si128(d, a));
  c = _mm_add_epi32(c, d); b = rotl4<7>(_mm_xor_si128(b, c));
}

/// Keystream blocks state[12] .. state[12]+3 (the 32-bit counter wraps,
/// as in the scalar block function). Vectorised across blocks: lane j
/// of x[i] is word i of block j, so each quarter round is four
/// independent scalar quarter rounds. SSE2 is part of the x86-64
/// baseline, so there is no runtime dispatch.
void keystream4(const State& state, std::uint8_t* out) {
  __m128i x[16];
  __m128i in[16];
  for (std::size_t i = 0; i < 16; ++i) {
    in[i] = _mm_set1_epi32(static_cast<int>(state[i]));
  }
  in[12] = _mm_add_epi32(in[12], _mm_set_epi32(3, 2, 1, 0));
  std::copy(std::begin(in), std::end(in), std::begin(x));

  for (int round = 0; round < 10; ++round) {
    quarter_round4(x[0], x[4], x[8], x[12]);
    quarter_round4(x[1], x[5], x[9], x[13]);
    quarter_round4(x[2], x[6], x[10], x[14]);
    quarter_round4(x[3], x[7], x[11], x[15]);
    quarter_round4(x[0], x[5], x[10], x[15]);
    quarter_round4(x[1], x[6], x[11], x[12]);
    quarter_round4(x[2], x[7], x[8], x[13]);
    quarter_round4(x[3], x[4], x[9], x[14]);
  }

  // Transpose each group of four words from word-major (one word of
  // four blocks per vector) to block-major, then store little-endian.
  for (std::size_t g = 0; g < 4; ++g) {
    const __m128i a = _mm_add_epi32(x[4 * g + 0], in[4 * g + 0]);
    const __m128i b = _mm_add_epi32(x[4 * g + 1], in[4 * g + 1]);
    const __m128i c = _mm_add_epi32(x[4 * g + 2], in[4 * g + 2]);
    const __m128i d = _mm_add_epi32(x[4 * g + 3], in[4 * g + 3]);
    const __m128i ab_lo = _mm_unpacklo_epi32(a, b);  // a0 b0 a1 b1
    const __m128i cd_lo = _mm_unpacklo_epi32(c, d);  // c0 d0 c1 d1
    const __m128i ab_hi = _mm_unpackhi_epi32(a, b);  // a2 b2 a3 b3
    const __m128i cd_hi = _mm_unpackhi_epi32(c, d);  // c2 d2 c3 d3
    const __m128i blocks[4] = {
        _mm_unpacklo_epi64(ab_lo, cd_lo), _mm_unpackhi_epi64(ab_lo, cd_lo),
        _mm_unpacklo_epi64(ab_hi, cd_hi), _mm_unpackhi_epi64(ab_hi, cd_hi)};
    for (std::size_t j = 0; j < 4; ++j) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 64 * j + 16 * g),
                       blocks[j]);
    }
  }
}

#endif  // __SSE2__

std::array<std::uint8_t, 64> block_from_state(const State& state) {
  State working = state;
  for (int round = 0; round < 10; ++round) {
    quarter_round(working[0], working[4], working[8], working[12]);
    quarter_round(working[1], working[5], working[9], working[13]);
    quarter_round(working[2], working[6], working[10], working[14]);
    quarter_round(working[3], working[7], working[11], working[15]);
    quarter_round(working[0], working[5], working[10], working[15]);
    quarter_round(working[1], working[6], working[11], working[12]);
    quarter_round(working[2], working[7], working[8], working[13]);
    quarter_round(working[3], working[4], working[9], working[14]);
  }

  std::array<std::uint8_t, 64> out{};
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint32_t v = working[i] + state[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  return out;
}

#if !defined(__SSE2__)
/// Portable fallback: four scalar reference blocks.
void keystream4(const State& state, std::uint8_t* out) {
  State s = state;
  for (std::size_t j = 0; j < 4; ++j, ++s[12]) {
    const auto block = block_from_state(s);
    std::copy(block.begin(), block.end(), out + 64 * j);
  }
}
#endif

}  // namespace

std::array<std::uint8_t, 64> chacha20_block(const ChaChaKey& key,
                                            std::uint32_t counter,
                                            const ChaChaNonce& nonce) {
  return block_from_state(initial_state(key, counter, nonce));
}

void chacha20_xor_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                       std::uint32_t counter,
                       std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out) {
  if (out.size() != in.size()) {
    throw std::length_error("chacha20_xor_into: output size != input size");
  }
  State state = initial_state(key, counter, nonce);
  alignas(16) std::array<std::uint8_t, kPass> keystream;
  const std::uint8_t* src = in.data();
  std::uint8_t* dst = out.data();
  for (std::size_t offset = 0; offset < in.size(); offset += kPass) {
    keystream4(state, keystream.data());
    state[12] += 4;
    const std::size_t n = std::min(kPass, in.size() - offset);
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset + i] = static_cast<std::uint8_t>(src[offset + i] ^ keystream[i]);
    }
  }
}

util::Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                         std::uint32_t counter,
                         std::span<const std::uint8_t> data) {
  util::Bytes out(data.size());
  chacha20_xor_into(key, nonce, counter, data, out);
  return out;
}

}  // namespace spire::crypto
