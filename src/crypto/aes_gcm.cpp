#include "crypto/aes_gcm.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#define SPIRE_AES_GCM_AESNI 1
#include <immintrin.h>
#endif

namespace spire::crypto {

namespace {

using Block = std::array<std::uint8_t, 16>;

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
}

/// The AES S-box (FIPS 197 §5.1.1), generated: p walks every nonzero
/// element as a power of the generator 3 while q walks its inverse, and
/// the affine map of q is S(p).
constexpr std::array<std::uint8_t, 256> make_sbox() {
  const auto rotl8 = [](std::uint8_t x, int n) {
    return static_cast<std::uint8_t>((x << n) | (x >> (8 - n)));
  };
  std::array<std::uint8_t, 256> s{};
  std::uint8_t p = 1;
  std::uint8_t q = 1;
  do {
    p = static_cast<std::uint8_t>(p ^ xtime(p));  // p * 3
    q = static_cast<std::uint8_t>(q ^ (q << 1));  // q / 3
    q = static_cast<std::uint8_t>(q ^ (q << 2));
    q = static_cast<std::uint8_t>(q ^ (q << 4));
    if (q & 0x80) q ^= 0x09;
    s[p] = static_cast<std::uint8_t>(q ^ rotl8(q, 1) ^ rotl8(q, 2) ^
                                     rotl8(q, 3) ^ rotl8(q, 4) ^ 0x63);
  } while (p != 1);
  s[0] = 0x63;
  return s;
}

constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();

template <class T>
void store_be(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
  }
}

/// One AES-128 block, a byte at a time through the S-box.
Block aes_encrypt_portable(const std::uint8_t* rk, Block s) {
  for (std::size_t i = 0; i < 16; ++i) s[i] ^= rk[i];
  for (std::size_t round = 1; round <= 10; ++round) {
    Block t;  // SubBytes and ShiftRows: row r of column c comes from column c + r
    for (std::size_t i = 0; i < 16; ++i) t[i] = kSbox[s[(i + 4 * (i % 4)) % 16]];
    for (std::size_t c = 0; c < 16 && round < 10; c += 4) {  // MixColumns
      const Block a = t;
      const std::uint8_t all = a[c] ^ a[c + 1] ^ a[c + 2] ^ a[c + 3];
      for (std::size_t r = 0; r < 4; ++r) {
        t[c + r] = a[c + r] ^ all ^ xtime(a[c + r] ^ a[c + (r + 1) % 4]);
      }
    }
    for (std::size_t i = 0; i < 16; ++i) s[i] = t[i] ^ rk[16 * round + i];
  }
  return s;
}

/// x times H in GF(2^128), four bits at a time through Shoup's tables.
/// kReduce4[r] folds the four bits r shifted out of the low end back
/// in, as the top 16 bits of the high word.
void ghash_multiply(const GcmKey& key, Block& x) {
  static constexpr std::uint64_t kReduce4[16] = {
      0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
      0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0};
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (std::size_t i = 16; i-- > 0;) {
    for (const unsigned nibble : {x[i] & 0xfu, static_cast<unsigned>(x[i] >> 4)}) {
      const std::uint64_t rem = lo & 0xf;
      lo = (hi << 60) | (lo >> 4);
      hi = (hi >> 4) ^ (kReduce4[rem] << 48) ^ key.h_table_hi[nibble];
      lo ^= key.h_table_lo[nibble];
    }
  }
  store_be(x.data(), hi);
  store_be(x.data() + 8, lo);
}

/// Folds `data`, its last block zero-padded, into the GHASH state `x`.
void ghash_portable(const GcmKey& key, Block& x,
                    std::span<const std::uint8_t> data) {
  for (std::size_t at = 0; at < data.size(); at += 16) {
    const std::size_t n = std::min<std::size_t>(16, data.size() - at);
    for (std::size_t i = 0; i < n; ++i) x[i] ^= data[at + i];
    ghash_multiply(key, x);
  }
}

/// IV || 32-bit big-endian block counter; counter 1 is J0.
Block counter_block(const GcmIv& iv, std::uint32_t counter) {
  Block b;
  std::copy(iv.begin(), iv.end(), b.begin());
  store_be(b.data() + 12, counter);
  return b;
}

/// E(K, J0) XOR GHASH(aad, text, their bit lengths): the tag.
Block tag_portable(const GcmKey& key, const GcmIv& iv,
                   std::span<const std::uint8_t> aad,
                   std::span<const std::uint8_t> text) {
  Block lengths;
  store_be(lengths.data(), std::uint64_t{aad.size()} * 8);
  store_be(lengths.data() + 8, std::uint64_t{text.size()} * 8);
  Block x{};
  for (const auto part : {aad, text, std::span<const std::uint8_t>(lengths)}) {
    ghash_portable(key, x, part);
  }
  const Block mask = aes_encrypt_portable(key.round_keys.data(), counter_block(iv, 1));
  for (std::size_t i = 0; i < 16; ++i) x[i] ^= mask[i];
  return x;
}

/// XORs `in` with E(K, J0 + 1), E(K, J0 + 2), ... into `out`.
void ctr_xor_portable(const GcmKey& key, const GcmIv& iv,
                      std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) {
  std::uint32_t counter = 2;
  for (std::size_t at = 0; at < in.size(); at += 16, ++counter) {
    const Block ks =
        aes_encrypt_portable(key.round_keys.data(), counter_block(iv, counter));
    const std::size_t n = std::min<std::size_t>(16, in.size() - at);
    for (std::size_t i = 0; i < n; ++i) {
      out[at + i] = static_cast<std::uint8_t>(in[at + i] ^ ks[i]);
    }
  }
}

#ifdef SPIRE_AES_GCM_AESNI

// The AES-NI + PCLMULQDQ kernel, compiled for those extensions but only
// called after a runtime CPUID check. GHASH runs on byte-reversed
// blocks (Gueron & Kounavis, "Intel Carry-Less Multiplication
// Instruction and its Usage for Computing the GCM Mode", Alg. 5), and
// counter blocks are held reversed too, so the 32-bit block counter is
// lane 0 and one add steps it.
#define SPIRE_AESNI_TARGET __attribute__((target("aes,pclmul,ssse3")))

SPIRE_AESNI_TARGET inline __m128i reverse_bytes(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0));
}

SPIRE_AESNI_TARGET inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

SPIRE_AESNI_TARGET inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

/// The round keys, H^1..H^4, and the reversed J0 = IV || 1 of one call.
struct AesniState {
  __m128i rk[11];
  __m128i h[4];
  __m128i j0;
};

SPIRE_AESNI_TARGET AesniState load_state(const GcmKey& key, const GcmIv& iv) {
  AesniState s;
  for (std::size_t i = 0; i < 11; ++i) s.rk[i] = load(key.round_keys.data() + 16 * i);
  for (std::size_t i = 0; i < 4; ++i) s.h[i] = load(key.h_powers[i].data());
  std::uint64_t iv_lo = 0;
  std::uint32_t iv_hi = 0;
  std::memcpy(&iv_lo, iv.data(), 8);
  std::memcpy(&iv_hi, iv.data() + 8, 4);
  // Bytes 12..15 of J0 are the big-endian counter 1.
  s.j0 = reverse_bytes(_mm_set_epi32(0x01000000, static_cast<int>(iv_hi),
                                     static_cast<int>(iv_lo >> 32),
                                     static_cast<int>(iv_lo)));
  return s;
}

template <int N>
SPIRE_AESNI_TARGET inline void encrypt_blocks(const __m128i* rk, __m128i* b) {
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) b[i] = _mm_xor_si128(b[i], rk[0]);
  for (int round = 1; round < 10; ++round) {
#pragma GCC unroll 8
    for (int i = 0; i < N; ++i) b[i] = _mm_aesenc_si128(b[i], rk[round]);
  }
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) b[i] = _mm_aesenclast_si128(b[i], rk[10]);
}

/// XORs the len <= 16 * N bytes at `in` with N keystream blocks from
/// the reversed counter block `ctr` on, all N in flight at once. The
/// counters are built in registers: assembling each in memory and
/// loading it back stalls on store forwarding.
template <int N>
SPIRE_AESNI_TARGET inline void ctr_xor_blocks(const __m128i* rk, __m128i ctr,
                                              const std::uint8_t* in,
                                              std::uint8_t* out,
                                              std::size_t len) {
  __m128i ks[N];
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) {
    ks[i] = reverse_bytes(_mm_add_epi32(ctr, _mm_setr_epi32(i, 0, 0, 0)));
  }
  encrypt_blocks<N>(rk, ks);
  std::size_t at = 0;
  for (; at + 16 <= len; at += 16) {
    store(out + at, _mm_xor_si128(load(in + at), ks[at / 16]));
  }
  const auto* tail = reinterpret_cast<const std::uint8_t*>(&ks[at / 16]);
  for (std::size_t i = at; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>(in[i] ^ tail[i - at]);
  }
}

SPIRE_AESNI_TARGET void ctr_xor_aesni(const GcmKey& key, const GcmIv& iv,
                                      std::span<const std::uint8_t> in,
                                      std::span<std::uint8_t> out) {
  const AesniState s = load_state(key, iv);
  __m128i ctr = _mm_add_epi32(s.j0, _mm_setr_epi32(1, 0, 0, 0));
  for (std::size_t at = 0; at < in.size(); at += 128) {
    const std::size_t n = std::min<std::size_t>(128, in.size() - at);
    if (n > 64) {
      ctr_xor_blocks<8>(s.rk, ctr, in.data() + at, out.data() + at, n);
    } else if (n > 16) {
      ctr_xor_blocks<4>(s.rk, ctr, in.data() + at, out.data() + at, n);
    } else {
      ctr_xor_blocks<1>(s.rk, ctr, in.data() + at, out.data() + at, n);
    }
    ctr = _mm_add_epi32(ctr, _mm_setr_epi32(8, 0, 0, 0));
  }
}

/// A carry-less product not yet reduced: lo + mid * x^64 + hi * x^128.
/// Products added here share one reduction.
struct Product {
  __m128i lo;
  __m128i mid;
  __m128i hi;
};

SPIRE_AESNI_TARGET inline void multiply_add(Product& p, __m128i a, __m128i b) {
  p.lo = _mm_xor_si128(p.lo, _mm_clmulepi64_si128(a, b, 0x00));
  p.hi = _mm_xor_si128(p.hi, _mm_clmulepi64_si128(a, b, 0x11));
  p.mid = _mm_xor_si128(p.mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                             _mm_clmulepi64_si128(a, b, 0x01)));
}

/// Shifts the 256-bit product left one bit (the product of reversed
/// operands is one bit short) and reduces it modulo
/// x^128 + x^7 + x^2 + x + 1.
SPIRE_AESNI_TARGET inline __m128i reduce(const Product& p) {
  __m128i lo = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
  __m128i hi = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4)),
                    _mm_srli_si128(lo_carry, 12));
  __m128i fold = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi32(lo, 31),
                                             _mm_slli_epi32(lo, 30)),
                               _mm_slli_epi32(lo, 25));
  const __m128i fold_high = _mm_srli_si128(fold, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(fold, 12));
  fold = _mm_xor_si128(_mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
                       _mm_xor_si128(_mm_srli_epi32(lo, 7), fold_high));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, fold));
}

/// Folds `data`, the last block zero-padded, into the reversed GHASH
/// state `x`: X = (X + B1) H^4 + B2 H^3 + B3 H^2 + B4 H, one reduction
/// per four blocks (`h` holds H^1..H^4).
SPIRE_AESNI_TARGET __m128i ghash_aesni(const __m128i* h, __m128i x,
                                       std::span<const std::uint8_t> data) {
  for (std::size_t at = 0; at < data.size(); at += 64) {
    const std::size_t n = std::min<std::size_t>(64, data.size() - at);
    const std::size_t blocks = (n + 15) / 16;
    alignas(16) std::uint8_t padded[64] = {};
    const std::uint8_t* src = data.data() + at;
    if (n % 16 != 0) {
      std::memcpy(padded, src, n);
      src = padded;
    }
    Product p{};
    for (std::size_t i = 0; i < blocks; ++i) {
      __m128i b = reverse_bytes(load(src + 16 * i));
      if (i == 0) b = _mm_xor_si128(b, x);
      multiply_add(p, b, h[blocks - 1 - i]);
    }
    x = reduce(p);
  }
  return x;
}

SPIRE_AESNI_TARGET Block tag_aesni(const GcmKey& key, const GcmIv& iv,
                                   std::span<const std::uint8_t> aad,
                                   std::span<const std::uint8_t> text) {
  const AesniState s = load_state(key, iv);
  __m128i mask = reverse_bytes(s.j0);
  encrypt_blocks<1>(s.rk, &mask);
  __m128i x = ghash_aesni(s.h, _mm_setzero_si128(), aad);
  x = ghash_aesni(s.h, x, text);
  Product p{};
  const __m128i lengths = _mm_set_epi64x(static_cast<long long>(aad.size() * 8),
                                         static_cast<long long>(text.size() * 8));
  multiply_add(p, _mm_xor_si128(x, lengths), s.h[0]);
  Block tag;
  store(tag.data(), _mm_xor_si128(reverse_bytes(reduce(p)), mask));
  return tag;
}

const bool kHasAesni = __builtin_cpu_supports("aes") &&
                       __builtin_cpu_supports("pclmul") &&
                       __builtin_cpu_supports("ssse3");

#else

const bool kHasAesni = false;

#endif  // SPIRE_AES_GCM_AESNI

/// One kernel's two passes.
struct Kernel {
  void (*ctr_xor)(const GcmKey&, const GcmIv&, std::span<const std::uint8_t>,
                  std::span<std::uint8_t>);
  Block (*tag)(const GcmKey&, const GcmIv&, std::span<const std::uint8_t>,
               std::span<const std::uint8_t>);
};

// Without the AES-NI kernel in the build, fastest_gcm_kernel() is
// kPortable, and kAesNi (a caller error there) runs the portable kernel.
Kernel kernel_of([[maybe_unused]] GcmKernel kernel) {
#ifdef SPIRE_AES_GCM_AESNI
  if (kernel == GcmKernel::kAesNi) return {ctr_xor_aesni, tag_aesni};
#endif
  return {ctr_xor_portable, tag_portable};
}

void check_sizes(std::span<const std::uint8_t> in, std::span<std::uint8_t> out) {
  if (out.size() != in.size()) {
    throw std::length_error("aes_gcm: output size != input size");
  }
}

}  // namespace

GcmKey::GcmKey(const AesKey& key) {
  // AES-128 key expansion (FIPS 197 §5.2), a 4-byte word at a time.
  std::copy(key.begin(), key.end(), round_keys.begin());
  std::uint8_t rcon = 0x01;
  for (std::size_t i = 16; i < round_keys.size(); i += 4) {
    std::uint8_t* w = round_keys.data() + i;
    std::copy_n(w - 4, 4, w);
    if (i % 16 == 0) {  // RotWord, SubWord, Rcon
      const std::uint8_t first = w[0];
      for (std::size_t j = 0; j < 4; ++j) w[j] = kSbox[j < 3 ? w[j + 1] : first];
      w[0] ^= rcon;
      rcon = xtime(rcon);
    }
    for (std::size_t j = 0; j < 4; ++j) w[j] ^= round_keys[i + j - 16];
  }

  // H into the tables. The element 8 (1000b) is 1 in GCM's bit order,
  // each halving of the index multiplies by x, and the other entries
  // follow by linearity (entry 0 stays zero).
  const Block h = aes_encrypt_portable(round_keys.data(), Block{});
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    hi = hi << 8 | h[i];
    lo = lo << 8 | h[8 + i];
  }
  for (std::size_t i = 8; i > 0; i >>= 1) {
    h_table_hi[i] = hi;
    h_table_lo[i] = lo;
    const std::uint64_t reduce = (lo & 1) ? 0xe100000000000000ULL : 0;
    lo = (hi << 63) | (lo >> 1);
    hi = (hi >> 1) ^ reduce;
  }
  for (std::size_t i = 3; i < 16; ++i) {
    const std::size_t top = std::bit_floor(i);
    h_table_hi[i] = h_table_hi[top] ^ h_table_hi[i - top];
    h_table_lo[i] = h_table_lo[top] ^ h_table_lo[i - top];
  }

  Block power = h;
  for (auto& reversed : h_powers) {
    std::reverse_copy(power.begin(), power.end(), reversed.begin());
    ghash_multiply(*this, power);
  }
}

GcmKernel fastest_gcm_kernel() {
  return kHasAesni ? GcmKernel::kAesNi : GcmKernel::kPortable;
}

GcmTag aes_gcm_seal(const GcmKey& key, const GcmIv& iv,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> in,
                    std::span<std::uint8_t> out, GcmKernel kernel) {
  check_sizes(in, out);
  const Kernel k = kernel_of(kernel);
  k.ctr_xor(key, iv, in, out);
  return k.tag(key, iv, aad, out);
}

bool aes_gcm_open(const GcmKey& key, const GcmIv& iv,
                  std::span<const std::uint8_t> aad,
                  std::span<const std::uint8_t> in,
                  std::span<const std::uint8_t, 16> tag,
                  std::span<std::uint8_t> out, GcmKernel kernel) {
  check_sizes(in, out);
  // GHASH needs only the ciphertext, so the tag is checked, in
  // constant time, before anything is decrypted.
  const Kernel k = kernel_of(kernel);
  const Block expected = k.tag(key, iv, aad, in);
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) diff |= expected[i] ^ tag[i];
  if (diff != 0) return false;
  k.ctr_xor(key, iv, in, out);
  return true;
}

}  // namespace spire::crypto
