#include "crypto/chacha20.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#define SPIRE_CHACHA20_AVX2 1
#include <immintrin.h>
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
/// baseline, so this kernel needs no CPUID check.
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

#ifdef SPIRE_CHACHA20_AVX2

// Row-wise AVX2 kernel. Register r of a chain holds row r of the 4x4
// state: a __m128i for one block, a __m256i for two consecutive blocks
// (the lower counter in the low lane). A column round is then one
// vector quarter round over the four rows, and a diagonal round the
// same after rotating three of the rows within each block.
// Compiled for AVX2 but only called after a runtime CPUID check.

template <int N>
__attribute__((target("avx2"))) __m128i rotl_row(__m128i x) {
  if constexpr (N == 16 || N == 8) {
    // Rotations by whole bytes are one vpshufb instead of two shifts
    // and an OR.
    const __m128i shuffle =
        N == 16 ? _mm_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13)
                : _mm_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
    return _mm_shuffle_epi8(x, shuffle);
  } else {
    return _mm_or_si128(_mm_slli_epi32(x, N), _mm_srli_epi32(x, 32 - N));
  }
}

template <int N>
__attribute__((target("avx2"))) __m256i rotl_row(__m256i x) {
  if constexpr (N == 16 || N == 8) {
    const __m256i shuffle = _mm256_broadcastsi128_si256(
        N == 16 ? _mm_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13)
                : _mm_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14));
    return _mm256_shuffle_epi8(x, shuffle);
  } else {
    return _mm256_or_si256(_mm256_slli_epi32(x, N), _mm256_srli_epi32(x, 32 - N));
  }
}

__attribute__((target("avx2"))) __m128i add_rows(__m128i a, __m128i b) {
  return _mm_add_epi32(a, b);
}
__attribute__((target("avx2"))) __m256i add_rows(__m256i a, __m256i b) {
  return _mm256_add_epi32(a, b);
}
__attribute__((target("avx2"))) __m128i xor_rows(__m128i a, __m128i b) {
  return _mm_xor_si128(a, b);
}
__attribute__((target("avx2"))) __m256i xor_rows(__m256i a, __m256i b) {
  return _mm256_xor_si256(a, b);
}
/// Rotates each block's row left by `Words` 32-bit words.
template <int Words>
__attribute__((target("avx2"))) __m128i rotate_words(__m128i x) {
  return _mm_shuffle_epi32(x, (Words == 1) ? 0x39 : (Words == 2) ? 0x4E : 0x93);
}
template <int Words>
__attribute__((target("avx2"))) __m256i rotate_words(__m256i x) {
  return _mm256_shuffle_epi32(x, (Words == 1) ? 0x39 : (Words == 2) ? 0x4E : 0x93);
}

template <class V>
__attribute__((target("avx2"))) void quarter_round_rows(V& a, V& b, V& c, V& d) {
  a = add_rows(a, b); d = rotl_row<16>(xor_rows(d, a));
  c = add_rows(c, d); b = rotl_row<12>(xor_rows(b, c));
  a = add_rows(a, b); d = rotl_row<8>(xor_rows(d, a));
  c = add_rows(c, d); b = rotl_row<7>(xor_rows(b, c));
}

/// The diagonal round lines up (a[j], b[j+1], c[j+2], d[j+3]) in lane
/// j+1 by rotating rows a, c and d, not b: a quarter round ends by
/// writing b, so leaving b in place keeps the rotations off the
/// critical path of a one-chain pass.
template <class V>
__attribute__((target("avx2"))) void double_round_rows(V& a, V& b, V& c, V& d) {
  quarter_round_rows(a, b, c, d);
  a = rotate_words<3>(a); c = rotate_words<1>(c); d = rotate_words<2>(d);
  quarter_round_rows(a, b, c, d);
  a = rotate_words<1>(a); c = rotate_words<3>(c); d = rotate_words<2>(d);
}

/// XORs the first `n` bytes of `src` with the keystream, given as
/// 32-byte chunks that cover `n`, into `dst`; `dst` may be `src`.
__attribute__((target("avx2"))) void xor_keystream(const __m256i* keystream,
                                                   std::size_t n,
                                                   const std::uint8_t* src,
                                                   std::uint8_t* dst) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(v, keystream[i / 32]));
  }
  if (i < n) {
    alignas(32) std::uint8_t tail[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tail), keystream[i / 32]);
    for (std::size_t j = i; j < n; ++j) {
      dst[j] = static_cast<std::uint8_t>(src[j] ^ tail[j - i]);
    }
  }
}

/// Keystream for `Chains` two-block chains (row3 holds the pass's first
/// counter in both lanes), as 32-byte chunks in stream order. Two
/// chains run in one loop so their dependency chains overlap.
template <int Chains>
__attribute__((target("avx2"))) void keystream_chains(__m256i row0, __m256i row1,
                                                      __m256i row2, __m256i row3,
                                                      __m256i* out) {
  __m256i a[Chains], b[Chains], c[Chains], d[Chains], counters[Chains];
  for (int k = 0; k < Chains; ++k) {
    counters[k] = _mm256_add_epi32(
        row3, _mm256_setr_epi32(2 * k, 0, 0, 0, 2 * k + 1, 0, 0, 0));
    a[k] = row0; b[k] = row1; c[k] = row2; d[k] = counters[k];
  }
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < Chains; ++k) double_round_rows(a[k], b[k], c[k], d[k]);
  }
  for (int k = 0; k < Chains; ++k) {
    const __m256i ka = _mm256_add_epi32(a[k], row0);
    const __m256i kb = _mm256_add_epi32(b[k], row1);
    const __m256i kc = _mm256_add_epi32(c[k], row2);
    const __m256i kd = _mm256_add_epi32(d[k], counters[k]);
    out[4 * k + 0] = _mm256_permute2x128_si256(ka, kb, 0x20);
    out[4 * k + 1] = _mm256_permute2x128_si256(kc, kd, 0x20);
    out[4 * k + 2] = _mm256_permute2x128_si256(ka, kb, 0x31);
    out[4 * k + 3] = _mm256_permute2x128_si256(kc, kd, 0x31);
  }
}

bool detect_avx2() { return __builtin_cpu_supports("avx2"); }

const bool kHasAvx2 = detect_avx2();

#endif  // SPIRE_CHACHA20_AVX2

}  // namespace

std::array<std::uint8_t, 64> chacha20_block(const ChaChaKey& key,
                                            std::uint32_t counter,
                                            const ChaChaNonce& nonce) {
  return block_from_state(initial_state(key, counter, nonce));
}

namespace detail {

#ifdef SPIRE_CHACHA20_AVX2

bool cpu_has_avx2() { return kHasAvx2; }

__attribute__((target("avx2"))) void chacha20_xor_avx2(
    const ChaChaKey& key, const ChaChaNonce& nonce, std::uint32_t counter,
    std::span<const std::uint8_t> in, std::span<std::uint8_t> out) {
  const State state = initial_state(key, counter, nonce);
  const auto row = [&state](std::size_t r) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4 * r));
  };
  const __m128i row0 = row(0), row1 = row(1), row2 = row(2);
  __m128i row3 = row(3);
  const std::uint8_t* src = in.data();
  std::uint8_t* dst = out.data();
  std::size_t left = in.size();
  // Each pass computes only the blocks its bytes need: one block up to
  // 64 B, one two-block chain up to 128 B, else two interleaved chains
  // (four blocks).
  while (left > 0) {
    __m256i keystream[8];
    std::size_t blocks = 0;
    if (left <= 64) {
      __m128i a = row0, b = row1, c = row2, d = row3;
      for (int round = 0; round < 10; ++round) double_round_rows(a, b, c, d);
      keystream[0] = _mm256_inserti128_si256(
          _mm256_castsi128_si256(_mm_add_epi32(a, row0)), _mm_add_epi32(b, row1), 1);
      keystream[1] = _mm256_inserti128_si256(
          _mm256_castsi128_si256(_mm_add_epi32(c, row2)), _mm_add_epi32(d, row3), 1);
      blocks = 1;
    } else {
      const __m256i r0 = _mm256_broadcastsi128_si256(row0);
      const __m256i r1 = _mm256_broadcastsi128_si256(row1);
      const __m256i r2 = _mm256_broadcastsi128_si256(row2);
      const __m256i r3 = _mm256_broadcastsi128_si256(row3);
      if (left <= 128) {
        keystream_chains<1>(r0, r1, r2, r3, keystream);
        blocks = 2;
      } else {
        keystream_chains<2>(r0, r1, r2, r3, keystream);
        blocks = 4;
      }
    }
    const std::size_t n = std::min(left, 64 * blocks);
    xor_keystream(keystream, n, src, dst);
    src += n;
    dst += n;
    left -= n;
    row3 = _mm_add_epi32(row3, _mm_setr_epi32(static_cast<int>(blocks), 0, 0, 0));
  }
}

#else

bool cpu_has_avx2() { return false; }

void chacha20_xor_avx2(const ChaChaKey&, const ChaChaNonce&, std::uint32_t,
                       std::span<const std::uint8_t>, std::span<std::uint8_t>) {
  throw std::logic_error("chacha20_xor_avx2: no AVX2 kernel in this build");
}

#endif  // SPIRE_CHACHA20_AVX2

void chacha20_xor_sse2(const ChaChaKey& key, const ChaChaNonce& nonce,
                       std::uint32_t counter, std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out) {
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

}  // namespace detail

void chacha20_xor_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                       std::uint32_t counter,
                       std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out) {
  if (out.size() != in.size()) {
    throw std::length_error("chacha20_xor_into: output size != input size");
  }
  if (detail::cpu_has_avx2()) {
    detail::chacha20_xor_avx2(key, nonce, counter, in, out);
  } else {
    detail::chacha20_xor_sse2(key, nonce, counter, in, out);
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
