// Crypto validation: SHA-256 against FIPS/NIST vectors, HMAC-SHA256
// against RFC 4231, AES-128-GCM against McGrew & Viega, plus the keyring,
// authenticator, and sealed-channel behaviour the overlay depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/aes_gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keyring.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "util/hex.hpp"

namespace spire::crypto {
namespace {

using spire::util::Bytes;
using spire::util::from_hex;
using spire::util::to_hex;

std::string digest_hex(const Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

// ---- SHA-256 (FIPS 180-4 / NIST CAVP vectors) -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(digest_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog and "
                          "keeps going for more than one block of input data";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(std::string_view(msg).substr(0, split));
    ctx.update(std::string_view(msg).substr(split));
    EXPECT_EQ(ctx.finish(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'x');
    Sha256 ctx;
    ctx.update(msg);
    EXPECT_EQ(ctx.finish(), sha256(msg)) << "len " << len;
  }
}

// ---- HMAC-SHA256 (RFC 4231) --------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = util::to_bytes("Hi There");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = util::to_bytes("Jefe");
  const Bytes data = util::to_bytes("what do ya want for nothing?");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes data =
      util::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DigestEqualIsConstantTimeStyle) {
  Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// ---- AES-128-GCM (McGrew & Viega, "The Galois/Counter Mode of Operation") ----

/// Each kernel this CPU can run. The default, fastest_gcm_kernel(), is
/// one of them; SecureChannel's tests run it.
std::vector<GcmKernel> gcm_kernels() {
  std::vector<GcmKernel> kernels = {GcmKernel::kPortable};
  if (fastest_gcm_kernel() == GcmKernel::kAesNi) kernels.push_back(GcmKernel::kAesNi);
  return kernels;
}

const char* kernel_name(GcmKernel kernel) {
  return kernel == GcmKernel::kAesNi ? "AES-NI" : "portable";
}

template <std::size_t N>
std::array<std::uint8_t, N> from_hex_array(const char* hex) {
  const Bytes b = from_hex(hex);
  std::array<std::uint8_t, N> a{};
  EXPECT_EQ(b.size(), N) << hex;
  std::copy_n(b.begin(), std::min(N, b.size()), a.begin());
  return a;
}

TEST(AesGcm, McGrewViegaTestCases1To4) {
  // AES-128 test cases 1-4 of the GCM specification (cross-checked
  // against OpenSSL 3's EVP_aes_128_gcm), on every kernel.
  const char* k3 = "feffe9928665731c6d6a8f9467308308";
  const char* p3 =
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
  const char* c3 =
      "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985";
  struct Case {
    const char* key;
    const char* iv;
    const char* aad;
    std::string plaintext;
    std::string ciphertext;
    const char* tag;
  };
  const Case cases[] = {
      {"00000000000000000000000000000000", "000000000000000000000000", "", "",
       "", "58e2fccefa7e3061367f1d57a4e7455a"},
      {"00000000000000000000000000000000", "000000000000000000000000", "",
       "00000000000000000000000000000000", "0388dace60b6a392f328c2b971b2fe78",
       "ab6e47d42cec13bdf53a67b21257bddf"},
      {k3, "cafebabefacedbaddecaf888", "", p3, c3,
       "4d5c2af327cd64a62cf35abd2ba6fab4"},
      {k3, "cafebabefacedbaddecaf888", "feedfacedeadbeeffeedfacedeadbeefabaddad2",
       std::string(p3, 120), std::string(c3, 120),
       "5bc94fbc3221a5db94fae95ae7121a47"},
  };
  for (const GcmKernel kernel : gcm_kernels()) {
    const char* name = kernel_name(kernel);
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      const Case& c = cases[i];
      const GcmKey key(from_hex_array<16>(c.key));
      const GcmIv iv = from_hex_array<12>(c.iv);
      const Bytes aad = from_hex(c.aad);
      const Bytes plaintext = from_hex(c.plaintext);
      Bytes sealed(plaintext.size());
      const GcmTag tag = aes_gcm_seal(key, iv, aad, plaintext, sealed, kernel);
      EXPECT_EQ(to_hex(sealed), c.ciphertext) << name << " case " << i + 1;
      EXPECT_EQ(to_hex(tag), c.tag) << name << " case " << i + 1;
      Bytes opened(sealed.size());
      ASSERT_TRUE(aes_gcm_open(key, iv, aad, sealed, tag, opened, kernel))
          << name << " case " << i + 1;
      EXPECT_EQ(opened, plaintext) << name << " case " << i + 1;
    }
  }
}

TEST(AesGcm, AesNiKernelMatchesPortable) {
  // Every length 0..1100 covers empty input, partial tails, every
  // block count in an eight-block pass, several passes, and every
  // remainder of the four-block GHASH. Out of place and in place, with
  // and without AAD; each kernel also opens what the other sealed.
  if (fastest_gcm_kernel() != GcmKernel::kAesNi) {
    GTEST_SKIP() << "no AES-NI/PCLMULQDQ on this CPU; the AES-NI kernel is unchecked";
  }
  AesKey raw{};
  for (std::uint8_t i = 0; i < raw.size(); ++i) raw[i] = static_cast<std::uint8_t>(3 * i + 1);
  const GcmKey key(raw);
  const GcmIv iv = {0, 0, 0, 0, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef};
  Bytes data(1100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (const std::size_t aad_len : {std::size_t{0}, std::size_t{20}}) {
    const std::span<const std::uint8_t> aad(data.data(), aad_len);
    for (std::size_t len = 0; len <= data.size(); ++len) {
      const std::span<const std::uint8_t> in(data.data(), len);
      Bytes portable(len);
      Bytes aesni(len);
      const GcmTag portable_tag =
          aes_gcm_seal(key, iv, aad, in, portable, GcmKernel::kPortable);
      const GcmTag aesni_tag =
          aes_gcm_seal(key, iv, aad, in, aesni, GcmKernel::kAesNi);
      ASSERT_EQ(aesni, portable) << "length " << len << " aad " << aad_len;
      ASSERT_EQ(aesni_tag, portable_tag) << "length " << len << " aad " << aad_len;

      Bytes in_place(in.begin(), in.end());
      ASSERT_EQ(aes_gcm_seal(key, iv, aad, in_place, in_place, GcmKernel::kAesNi),
                aesni_tag);
      ASSERT_EQ(in_place, aesni) << "in place, length " << len;
      ASSERT_TRUE(
          aes_gcm_open(key, iv, aad, in_place, aesni_tag, in_place, GcmKernel::kAesNi));
      ASSERT_TRUE(std::equal(in_place.begin(), in_place.end(), in.begin()))
          << "open in place, length " << len;

      Bytes opened(len);
      ASSERT_TRUE(
          aes_gcm_open(key, iv, aad, portable, portable_tag, opened, GcmKernel::kAesNi));
      ASSERT_TRUE(std::equal(opened.begin(), opened.end(), in.begin()));
      ASSERT_TRUE(
          aes_gcm_open(key, iv, aad, aesni, aesni_tag, opened, GcmKernel::kPortable));
      ASSERT_TRUE(std::equal(opened.begin(), opened.end(), in.begin()));
    }
  }
}

TEST(AesGcm, OpenChecksTheTagBeforeDecrypting) {
  const GcmKey key(AesKey{});
  const GcmIv iv{};
  const Bytes msg = util::to_bytes("close breaker B12");
  for (const GcmKernel kernel : gcm_kernels()) {
    const char* name = kernel_name(kernel);
    Bytes sealed(msg.size());
    GcmTag tag = aes_gcm_seal(key, iv, {}, msg, sealed, kernel);
    Bytes out(msg.size(), 0xEE);
    ASSERT_TRUE(aes_gcm_open(key, iv, {}, sealed, tag, out, kernel)) << name;
    EXPECT_EQ(out, msg) << name;
    tag[15] ^= 0x80;
    out.assign(msg.size(), 0xEE);
    EXPECT_FALSE(aes_gcm_open(key, iv, {}, sealed, tag, out, kernel)) << name;
    EXPECT_EQ(out, Bytes(msg.size(), 0xEE)) << name;
    // In place too: a rejected ciphertext is left as it was.
    const Bytes before = sealed;
    EXPECT_FALSE(aes_gcm_open(key, iv, {}, sealed, tag, sealed, kernel)) << name;
    EXPECT_EQ(sealed, before) << name;
  }
  Bytes short_out(msg.size() - 1);
  EXPECT_THROW((void)aes_gcm_seal(key, iv, {}, msg, short_out), std::length_error);
  EXPECT_THROW((void)aes_gcm_open(key, iv, {}, msg, GcmTag{}, short_out),
               std::length_error);
}

// ---- keyring / authenticators --------------------------------------------------

TEST(Keyring, DerivationIsDeterministicAndDomainSeparated) {
  Keyring kr("seed");
  EXPECT_EQ(kr.identity_key("prime/0"), Keyring("seed").identity_key("prime/0"));
  EXPECT_NE(kr.identity_key("prime/0"), kr.identity_key("prime/1"));
  EXPECT_NE(kr.identity_key("prime/0"), Keyring("other").identity_key("prime/0"));
  EXPECT_NE(kr.identity_key("x"), kr.derive("x"));
}

TEST(Keyring, LinkKeysAreSymmetric) {
  Keyring kr("seed");
  EXPECT_EQ(kr.link_key("int0", "int1"), kr.link_key("int1", "int0"));
  EXPECT_NE(kr.link_key("int0", "int1"), kr.link_key("int0", "int2"));
}

TEST(SignerVerifier, AcceptsGenuineRejectsForged) {
  Keyring kr("seed");
  Signer alice("alice", kr.identity_key("alice"));
  Verifier verifier;
  verifier.add_identity("alice", kr.identity_key("alice"));
  verifier.add_identity("bob", kr.identity_key("bob"));

  const Bytes msg = util::to_bytes("open breaker B57");
  const Signature sig = alice.sign(msg);
  EXPECT_TRUE(verifier.verify("alice", msg, sig));
  EXPECT_FALSE(verifier.verify("bob", msg, sig));     // wrong claimed identity
  EXPECT_FALSE(verifier.verify("carol", msg, sig));   // unknown identity

  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(verifier.verify("alice", tampered, sig));
}

TEST(SecureChannel, RoundTrip) {
  Keyring kr("seed");
  SecureChannel sender(kr.link_key("a", "b"));
  SecureChannel receiver(kr.link_key("a", "b"));
  const Bytes msg = util::to_bytes("hello spines");
  const auto sealed = sender.seal(msg);
  EXPECT_EQ(sealed.size(), msg.size() + SecureChannel::kOverhead);
  const auto opened = receiver.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(SecureChannel, DetectsTampering) {
  // Every single-bit flip, in the nonce, the ciphertext or the tag.
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  const auto sealed = channel.seal(util::to_bytes("payload"));
  ASSERT_TRUE(channel.open(sealed).has_value());
  for (std::size_t bit = 0; bit < 8 * sealed.size(); ++bit) {
    Bytes tampered(sealed);
    tampered[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(channel.open(tampered).has_value()) << "flipped bit " << bit;
  }
}

TEST(SecureChannel, RejectsTruncation) {
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  const auto sealed = channel.seal(util::to_bytes("payload"));
  const std::span<const std::uint8_t> prefix(sealed.data(), 10);
  EXPECT_FALSE(channel.open(prefix).has_value());
}

TEST(SecureChannel, WrongKeyCannotOpen) {
  Keyring kr("seed");
  SecureChannel good(kr.link_key("a", "b"));
  SecureChannel bad(kr.link_key("a", "c"));
  const auto sealed = good.seal(util::to_bytes("payload"));
  EXPECT_FALSE(bad.open(sealed).has_value());
}

TEST(SecureChannel, CiphertextHidesPlaintextAndVaries) {
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  const Bytes msg = util::to_bytes("SECRET-BREAKER-COMMAND");
  const auto sealed1 = channel.seal(msg);
  const auto sealed2 = channel.seal(msg);
  // Different nonces => different ciphertexts for the same plaintext.
  EXPECT_NE(sealed1, sealed2);
  // Plaintext must not appear in the ciphertext.
  const std::string hay(sealed1.begin(), sealed1.end());
  EXPECT_EQ(hay.find("SECRET"), std::string::npos);
}

TEST(SecureChannel, EmptyPayload) {
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  const auto sealed = channel.seal({});
  const auto opened = channel.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(SecureChannel, WireBytesMatchGoldenVectors) {
  // Sealed bytes for a fixed raw key, with nonces 1..8 consumed in
  // order, cross-checked against OpenSSL 3's EVP_aes_128_gcm under the
  // first 16 bytes of HMAC-SHA256(key, "enc") and the IV 0^32 || nonce.
  // Any change to the link wire format or its crypto fails here. The
  // two shortest are given whole, the rest as SHA-256 of the sealed
  // bytes.
  SymmetricKey key{};
  for (std::uint8_t i = 0; i < key.size(); ++i) key[i] = i;
  SecureChannel channel(key);
  struct Golden {
    std::size_t length;
    const char* sealed_sha256;
  };
  const Golden golden[] = {
      {0, "a683ce06dd75f34445138f62ad9d44935cc34efc93a291ebcb81458620a1555d"},
      {1, "cbb1e8721f7860d6077449b59461697cea53156a230bcfa2cd8cfe449d16ddba"},
      {63, "6b8b634a0c8d43028a05bc3d545e1759053cc91b47642a25171955eedbbb2168"},
      {64, "e639565ea49c47b4d35d473d4bfda9849ae5404a6efec8b23c8d7ab1eb257e9b"},
      {65, "9e22f97abd88f7afd9dc2f7d7382e9e9f993a400a95c8710ed90abe75efa3b14"},
      {144, "cac2884d5308f83badda21f1ea8be7d119a196603f9c68ff43224394c5c45aec"},
      {186, "79935b4d2ccc36587c9ab8a5ff4c92b83eb5d5156f0c14939fed9377531d0240"},
      {1400, "ec30fbf54147b48ed6ae0f281a62862c0fbc60ed3b7b22ccf0a9d1153e5d0e2e"},
  };
  for (const Golden& g : golden) {
    Bytes plaintext(g.length);
    for (std::size_t i = 0; i < g.length; ++i) {
      plaintext[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    const Bytes sealed = channel.seal(plaintext);
    ASSERT_EQ(sealed.size(), g.length + SecureChannel::kOverhead);
    EXPECT_EQ(digest_hex(sha256(sealed)), g.sealed_sha256) << "length " << g.length;
    if (g.length == 0) {
      EXPECT_EQ(to_hex(sealed), "00000000000000012ab2f740b466039ac1ef86b8ed523c34");
    } else if (g.length == 1) {
      EXPECT_EQ(to_hex(sealed), "000000000000000245924264a1fc5bf8f38558741d4a5fa573");
    }
  }
}

TEST(SecureChannel, InPlaceFormsMatchAllocatingForms) {
  Keyring kr("seed");
  SecureChannel a(kr.link_key("a", "b"));
  SecureChannel b(kr.link_key("a", "b"));
  const Bytes msg = util::to_bytes("in place seal and open");
  Bytes sealed(msg.size() + SecureChannel::kOverhead + 5, 0xEE);
  a.seal_into(msg, sealed);
  EXPECT_EQ(sealed[msg.size() + SecureChannel::kOverhead], 0xEE);  // untouched
  sealed.resize(msg.size() + SecureChannel::kOverhead);
  EXPECT_EQ(sealed, b.seal(msg));  // same key, same nonce, same bytes

  Bytes plain(msg.size() + 3, 0xEE);
  ASSERT_TRUE(a.open_into(sealed, plain));
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), plain.begin()));
  EXPECT_EQ(plain[msg.size()], 0xEE);

  Bytes short_out(msg.size() - 1);
  EXPECT_THROW(a.seal_into(msg, short_out), std::length_error);
  EXPECT_THROW((void)a.open_into(sealed, short_out), std::length_error);
}

TEST(SecureChannel, OpenIntoRejectsEveryForgery) {
  Keyring kr("seed");
  SecureChannel sender(kr.link_key("a", "b"));
  SecureChannel receiver(kr.link_key("a", "b"));
  SecureChannel stranger(kr.link_key("a", "c"));
  const Bytes msg = util::to_bytes("open breaker B57 at feeder 3");
  const Bytes sealed = sender.seal(msg);
  const Bytes untouched(msg.size(), 0xEE);

  auto rejected = [&](const SecureChannel& channel,
                      std::span<const std::uint8_t> input) {
    Bytes out(untouched);
    const bool opened = channel.open_into(input, out);
    // A rejected input leaves the output buffer exactly as it was.
    return !opened && out == untouched;
  };
  // Every single-bit flip of the nonce, the ciphertext and the tag.
  for (std::size_t bit = 0; bit < 8 * sealed.size(); ++bit) {
    Bytes forged(sealed);
    forged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_TRUE(rejected(receiver, forged)) << "flipped bit " << bit;
  }
  // Every truncation.
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    EXPECT_TRUE(rejected(receiver, std::span<const std::uint8_t>(sealed.data(), len)))
        << "truncated to " << len;
  }
  EXPECT_TRUE(rejected(stranger, sealed));

  Bytes out(msg.size());
  ASSERT_TRUE(receiver.open_into(sealed, out));
  EXPECT_EQ(out, msg);
}

TEST(Merkle, SingleLeafRootIsLeaf) {
  const Digest leaf = merkle_leaf(util::to_bytes("only"));
  MerkleTree tree({leaf});
  EXPECT_EQ(tree.root(), leaf);
  EXPECT_TRUE(tree.path(0).empty());
  EXPECT_EQ(MerkleTree::fold(leaf, 0, {}), leaf);
}

TEST(Merkle, PathsFoldToRootForEveryLeaf) {
  for (std::size_t n : {2u, 3u, 5u, 8u, 13u}) {
    std::vector<Digest> leaves;
    for (std::size_t i = 0; i < n; ++i) {
      leaves.push_back(merkle_leaf(util::to_bytes("leaf" + std::to_string(i))));
    }
    MerkleTree tree(leaves);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(MerkleTree::fold(leaves[i], i, tree.path(i)), tree.root())
          << "n=" << n << " leaf=" << i;
    }
  }
}

TEST(Merkle, TamperedLeafOrPathChangesRoot) {
  std::vector<Digest> leaves = {merkle_leaf(util::to_bytes("a")),
                                merkle_leaf(util::to_bytes("b")),
                                merkle_leaf(util::to_bytes("c"))};
  MerkleTree tree(leaves);
  const Digest wrong_leaf = merkle_leaf(util::to_bytes("x"));
  EXPECT_NE(MerkleTree::fold(wrong_leaf, 0, tree.path(0)), tree.root());
  auto path = tree.path(1);
  path[0][3] ^= 0x01;
  EXPECT_NE(MerkleTree::fold(leaves[1], 1, path), tree.root());
  // Wrong index changes the left/right fold order, so it cannot
  // reproduce the root either.
  EXPECT_NE(MerkleTree::fold(leaves[1], 0, tree.path(1)), tree.root());
}

TEST(Merkle, DomainSeparationLeafVsNode) {
  // A node preimage reinterpreted as leaf data must not collide: the
  // 0x00/0x01 prefixes keep the two hash domains disjoint.
  const Digest l = merkle_leaf(util::to_bytes("l"));
  const Digest r = merkle_leaf(util::to_bytes("r"));
  const Digest node = merkle_node(l, r);
  std::vector<std::uint8_t> concat(l.begin(), l.end());
  concat.insert(concat.end(), r.begin(), r.end());
  EXPECT_NE(node, merkle_leaf(concat));
  EXPECT_NE(node, sha256(concat));
}

}  // namespace
}  // namespace spire::crypto
