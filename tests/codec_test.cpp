// Golden wire vectors: the bytes of one populated instance of every
// wire format (tests/wire_samples.hpp), captured from the hand-written
// encoders that the declarative codec replaced. A change that alters
// any of them changes the protocol: it regenerates these vectors in
// the same commit and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/codec.hpp"
#include "util/hex.hpp"
#include "wire_samples.hpp"

namespace spire {
namespace {

const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> vectors = {
      {"Envelope.solo",
       "05000000077072696d652f31000000030102030102030405060708090a0b0c0d"
       "0e0f101112131415161718191a1b1c1d1e1f20"},
      {"Envelope.batched",
       "83000000077072696d652f310000000301020300000002022021222324252627"
       "28292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f3031323334353637"
       "38393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f0102030405060708"
       "090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20"},
      {"ClientUpdate",
       "0000000a636c69656e742f686d69000000000000000700000003dead07171819"
       "1a1b1c1d1e1f202122232425262728292a2b2c2d2e2f30313233343536"},
      {"PoRequest",
       "000000020000000000000009000000020000000a636c69656e742f686d690000"
       "00000000000100000003dead011112131415161718191a1b1c1d1e1f20212223"
       "2425262728292a2b2c2d2e2f300000000a636c69656e742f686d690000000000"
       "00000200000003dead0212131415161718191a1b1c1d1e1f2021222324252627"
       "28292a2b2c2d2e2f3031"},
      {"PoAru",
       "0000000100000000000000050000000400000000000000030000000000000000"
       "000000000000000500000000000000014142434445464748494a4b4c4d4e4f50"
       "5152535455565758595a5b5c5d5e5f60"},
      {"PrePrepare",
       "000000000000000000000003000000000000001168f35fc944aa2cd4c2435987"
       "3676c2ccd0d3584f380ee6e34bbaf4f549ed9e18000000040100000000000000"
       "0000000004000000040000000000000003000000000000000000000000000000"
       "050000000000000001404142434445464748494a4b4c4d4e4f50515253545556"
       "5758595a5b5c5d5e5f0001000000020000000000000006000000040000000000"
       "0000030000000000000000000000000000000500000000000000014243444546"
       "4748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606100"},
      {"PrepareOrCommit",
       "0000000200000000000000030000000000000011505152535455565758595a5b"
       "5c5d5e5f606162636465666768696a6b6c6d6e6f"},
      {"NewLeader",
       "000000030000000000000004"},
      {"PreparedProof",
       "0000000000000011000000030401020000000200000002050a0000000105"},
      {"ViewState",
       "0000000100000000000000040000000000000011000000000000001000000001"
       "0000000000000011000000030401020000000200000002050a00000001056061"
       "62636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"},
      {"NewView",
       "0000000100000000000000040000000000000011000000010000000100000000"
       "0000000400000000000000110000000000000010000000010000000000000011"
       "000000030401020000000200000002050a000000010560616263646566676869"
       "6a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"},
      {"PoReqFetch",
       "000000020000000000000009"},
      {"PoReqResp",
       "00000002000000000000000900000003020007"},
      {"StateReq",
       "0102030405060708"},
      {"StateResp",
       "0102030405060708000000000000000400000000000000287071727374757677"
       "78797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f"},
      {"SnapshotReq",
       "000000000000000b0000000000000028"},
      {"SnapshotResp",
       "000000000000000b000000000000002800000003aabbcc"},
      {"CommitCertReq",
       "0000000000000011"},
      {"CommitCertResp",
       "00000000000000110000000204090000000200000002060100000003060203"},
      {"Checkpoint",
       "000000030000000000000028808182838485868788898a8b8c8d8e8f90919293"
       "9495969798999a9b9c9d9e9f88898a8b8c8d8e8f909192939495969798999a9b"
       "9c9d9e9fa0a1a2a3a4a5a6a7"},
      {"StatusReport",
       "000000036664370000000000000003000000030100010000000201e00007"},
      {"SupervisoryCommand",
       "00000008706c632d706879730003010000000000000007"},
      {"BatchReport",
       "000000020000001e000000036664300000000000000001000000030100010000"
       "000201e000070000001e00000003666435000000000000000200000003010001"
       "0000000201e00007"},
      {"ResyncRequest",
       "000000000000002a"},
      {"ClientPayload",
       "0500000048000000020000001e00000003666430000000000000000100000003"
       "0100010000000201e000070000001e0000000366643500000000000000020000"
       "00030100010000000201e00007"},
      {"CommandOrder",
       "000000020000000a636c69656e742f686d690000001700000008706c632d7068"
       "79730003010000000000000007a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2"
       "b3b4b5b6b7b8b9babbbcbdbebf"},
      {"StateUpdate",
       "0000000100000000000000090100000000000000080000000401020304909192"
       "939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf"},
      {"MasterOutput",
       "040000003d000000010000000000000009010000000000000008000000040102"
       "0304909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacad"
       "aeaf"},
      {"HelloBody",
       "0000000000000005"},
      {"AckBody",
       "0000000000000002"},
      {"LinkStateBody",
       "00000004696e743100000000000000030000000200000004696e743200000004"
       "696e7433b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacb"
       "cccdcecf"},
      {"AreaSummaryBody",
       "0000000262310000000200000000000000080000000200000001000000020000"
       "00050000000200000001780000000179c0c1c2c3c4c5c6c7c8c9cacbcccdcecf"
       "d0d1d2d3d4d5d6d7d8d9dadbdcdddedf"},
      {"DataBody",
       "0000000161000000012a000a00140200000000000000630700000002706c"},
      {"LinkEnvelope.sealed",
       "00000004657874310100000003001122"},
      {"LinkEnvelope.plaintext",
       "000000046578743200000000020102"},
      {"InnerPacket",
       "03000000000000000c000000023344"},
  };
  return vectors;
}

// Each sample encodes to its pinned bytes, and the pinned bytes decode
// and encode back to themselves.
TEST(WireGolden, EveryFormatEncodesToItsPinnedBytes) {
  const auto samples = wire_samples::all();
  EXPECT_EQ(samples.size(), golden().size());
  for (const auto& s : samples) {
    SCOPED_TRACE(s.name);
    ASSERT_EQ(golden().count(s.name), 1u);
    const std::string& hex = golden().at(s.name);
    EXPECT_EQ(util::to_hex(s.wire), hex);
    const auto again = s.reencode(util::from_hex(hex));
    ASSERT_TRUE(again);
    EXPECT_EQ(util::to_hex(*again), hex);
  }
}

// A bool is one byte, 0 or 1. Any other byte would decode to true and
// encode back as 1, so it is rejected: in a field of its own, in a
// list, and inside a message nested in a blob.
TEST(WireCodec, BoolBytesOtherThanZeroOrOneAreRejected) {
  const auto command = wire_samples::supervisory_command().encode();
  const std::size_t close_at = 4 + 8 + 2;  // device "plc-phys", breaker
  ASSERT_EQ(command[close_at], 1);
  util::Bytes two = command;
  two[close_at] = 2;
  EXPECT_FALSE(scada::SupervisoryCommand::decode(two));

  scada::CommandOrder order;
  order.command = wire_samples::supervisory_command();
  util::Bytes order_wire = order.encode();
  const std::size_t nested_close_at = 4 + 4 + 4 + close_at;
  ASSERT_EQ(order_wire[nested_close_at], 1);
  order_wire[nested_close_at] = 2;
  EXPECT_FALSE(scada::CommandOrder::decode(order_wire));

  const auto report = wire_samples::status_report("fd7", 3).encode();
  const std::size_t first_breaker_at = 4 + 3 + 8 + 4;
  ASSERT_EQ(report[first_breaker_at], 1);
  util::Bytes bad_report = report;
  bad_report[first_breaker_at] = 2;
  EXPECT_FALSE(scada::StatusReport::decode(bad_report));

  const spines::LinkEnvelope env{"ext1", true, {0x00, 0x11}};
  util::Bytes env_wire = env.encode();
  const std::size_t sealed_at = 4 + 4;
  ASSERT_EQ(env_wire[sealed_at], 1);
  env_wire[sealed_at] = 2;
  EXPECT_FALSE(spines::LinkEnvelope::decode(env_wire));
}

// Zero is the Pre-Prepare's "matrix digest not yet computed" sentinel,
// and encoding replaces it with the computed digest. A wire claiming a
// zero digest therefore has no canonical encoding and is rejected.
TEST(WireCodec, PrePrepareRejectsZeroMatrixDigest) {
  prime::PrePrepare pp;
  pp.leader = 0;
  pp.view = 3;
  pp.order_seq = 17;
  pp.rows = {std::make_shared<const prime::PoAru>(wire_samples::po_aru(0)),
             nullptr};
  util::Bytes wire = pp.encode();
  ASSERT_TRUE(prime::PrePrepare::decode(wire));
  const std::size_t digest_at = 4 + 8 + 8;
  std::fill_n(wire.begin() + digest_at, 32, 0);
  EXPECT_FALSE(prime::PrePrepare::decode(wire));
}

/// Records the largest allocation a vector asks for.
std::size_t largest_alloc = 0;

template <typename T>
struct CountingAlloc {
  using value_type = T;
  CountingAlloc() = default;
  template <typename U>
  explicit CountingAlloc(const CountingAlloc<U>&) {}
  T* allocate(std::size_t n) {
    largest_alloc = std::max(largest_alloc, n * sizeof(T));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) { std::allocator<T>{}.deallocate(p, n); }
  bool operator==(const CountingAlloc&) const = default;
};

struct CountedList {
  std::vector<std::uint64_t, CountingAlloc<std::uint64_t>> values;

  static auto fields(auto& s) {
    return util::codec::fields(util::codec::list<65536>(s.values));
  }
};

// A list's count is checked against its cap, and what the decoder
// reserves against the input: 4 bytes claiming 65536 elements are
// rejected without first allocating room for them (512 KiB here; a
// BatchReport claiming 65536 reports used to reserve 6.8 MB).
TEST(WireCodec, ListCountReservesNoMoreThanTheInputHolds) {
  const util::Bytes claim = {0x00, 0x01, 0x00, 0x00};
  largest_alloc = 0;
  EXPECT_FALSE(util::codec::decode<CountedList>(claim));
  EXPECT_LE(largest_alloc, claim.size() * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace spire
