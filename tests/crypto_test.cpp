// Crypto validation: SHA-256 against FIPS/NIST vectors, HMAC-SHA256
// against RFC 4231, ChaCha20 against RFC 8439, plus the keyring,
// authenticator, and sealed-channel behaviour the overlay depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "crypto/chacha20.hpp"
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

// ---- ChaCha20 (RFC 8439 §2.3.2 / §2.4.2) --------------------------------------

TEST(ChaCha20, Rfc8439BlockVector) {
  ChaChaKey key{};
  for (std::uint8_t i = 0; i < 32; ++i) key[i] = i;
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = chacha20_block(key, 1, nonce);
  const Bytes expected = from_hex(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  EXPECT_EQ(Bytes(block.begin(), block.end()), expected);
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  ChaChaKey key{};
  for (std::uint8_t i = 0; i < 32; ++i) key[i] = i;
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const auto ciphertext =
      chacha20_xor(key, nonce, 1, util::to_bytes(plaintext));
  EXPECT_EQ(to_hex(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  ChaChaKey key{};
  key[0] = 0x42;
  ChaChaNonce nonce{};
  const Bytes msg = util::to_bytes("attack at dawn, breaker B57");
  const auto ct = chacha20_xor(key, nonce, 7, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(chacha20_xor(key, nonce, 7, ct), msg);
}

TEST(ChaCha20, MultiBlockKernelMatchesScalarReference) {
  // Lengths 0..1100 cover empty input, partial tails, every block count
  // in a pass and several passes; counters 0xFFFFFFFD and 0xFFFFFFFF
  // wrap the 32-bit block counter mid-pass and between passes. Each
  // kernel is called directly as well as through the dispatcher, so
  // both are checked whichever one this CPU selects.
  using Kernel = void (*)(const ChaChaKey&, const ChaChaNonce&, std::uint32_t,
                          std::span<const std::uint8_t>, std::span<std::uint8_t>);
  ChaChaKey key{};
  for (std::uint8_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(3 * i + 1);
  const ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x2a, 0x00, 0x00, 0x00, 0x07};
  Bytes data(1100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const auto check = [&](const char* name, Kernel kernel) {
    for (const std::uint32_t counter : {0u, 1u, 7u, 0xFFFFFFFDu, 0xFFFFFFFFu}) {
      Bytes expected(data);
      std::uint32_t block_counter = counter;
      for (std::size_t offset = 0; offset < expected.size(); offset += 64) {
        const auto ks = chacha20_block(key, block_counter++, nonce);
        for (std::size_t i = offset; i < std::min(offset + 64, expected.size()); ++i) {
          expected[i] ^= ks[i - offset];
        }
      }
      for (std::size_t len = 0; len <= data.size(); ++len) {
        const std::span<const std::uint8_t> in(data.data(), len);
        const std::span<const std::uint8_t> want(expected.data(), len);
        Bytes out(len);
        kernel(key, nonce, counter, in, out);
        ASSERT_TRUE(std::equal(out.begin(), out.end(), want.begin()))
            << name << ", counter " << counter << " length " << len;
        Bytes in_place(in.begin(), in.end());
        kernel(key, nonce, counter, in_place, in_place);
        ASSERT_EQ(in_place, out)
            << name << " in place, counter " << counter << " length " << len;
      }
    }
  };
  check("chacha20_xor_into", chacha20_xor_into);
  check("SSE2 kernel", crypto::detail::chacha20_xor_sse2);
  if (!crypto::detail::cpu_has_avx2()) {
    GTEST_SKIP() << "no AVX2 on this CPU; the AVX2 kernel is unchecked";
  }
  check("AVX2 kernel", crypto::detail::chacha20_xor_avx2);
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
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  auto sealed = channel.seal(util::to_bytes("payload"));
  sealed[sealed.size() / 2] ^= 0xFF;
  EXPECT_FALSE(channel.open(sealed).has_value());
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
  // order. Recorded before the multi-block kernel and the cached MAC
  // state replaced the one-block-at-a-time path; any change to the
  // link wire format or its crypto fails here. The two shortest are
  // given whole, the rest as SHA-256 of the sealed bytes.
  SymmetricKey key{};
  for (std::uint8_t i = 0; i < key.size(); ++i) key[i] = i;
  SecureChannel channel(key);
  struct Golden {
    std::size_t length;
    const char* sealed_sha256;
  };
  const Golden golden[] = {
      {0, "a58f847294802fc7643153c91a8467cefc7df8eb1d6f9ac1f33f0eec94e8708d"},
      {1, "a014dae8a835dd84004d0d12a3619403350f1ab0d088b1fa04076d0f4b00d4a2"},
      {63, "9e72386d57f86d64b1b8906abe52282dec0c5a521383f3fdc9270ab9d6f66f3a"},
      {64, "fb7d03f95f0c7a590076fc8c4232922d8c1c6b8b264cc62e1e72103f01782fcd"},
      {65, "35a29e82bea28a8267ed80c99a8892350382988a9770891e82e41e5fc1f305e9"},
      {144, "a233014578e929a077edad441b13df6cbe592492022dd4d4777fda7e6c8da940"},
      {186, "c50572d5005777a665a1b4312f64a0b2e8a4be7c98e72df50ee2b00f9fe07dee"},
      {1400, "c0c500fdba376ee5408c00a4c3dbd6a568326a9309278cc89fcb185166351faf"},
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
      EXPECT_EQ(to_hex(sealed),
                "0000000000000001793f535955c708b46d2a09a4acb24c9c"
                "e613e8654a3522fa9d02212e2607db8f");
    } else if (g.length == 1) {
      EXPECT_EQ(to_hex(sealed),
                "0000000000000002be70af1a1b78782f07e1e0deddb35013a7"
                "715590ea45e57b5cd1047f47be37fe30");
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
  const std::size_t tag_at = sealed.size() - SecureChannel::kTagSize;
  for (const std::size_t flip : {std::size_t{0}, std::size_t{7},   // nonce
                                 std::size_t{8}, tag_at - 1,       // ciphertext
                                 tag_at, sealed.size() - 1}) {     // tag
    Bytes forged(sealed);
    forged[flip] ^= 0x01;
    EXPECT_TRUE(rejected(receiver, forged)) << "flipped byte " << flip;
  }
  for (std::size_t len = 0; len < SecureChannel::kOverhead; ++len) {
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
