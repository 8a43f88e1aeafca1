// Unit tests for serialization, hex, and logging utilities.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/hex.hpp"
#include "util/interner.hpp"
#include "util/log.hpp"

namespace spire::util {
namespace {

TEST(ByteWriter, RoundTripsPrimitives) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);
  w.str("hello");
  w.blob(to_bytes("world"));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(to_string(r.blob()), "world");
  EXPECT_TRUE(r.done());
}

TEST(ByteWriter, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[3], 0x04);
}

TEST(ByteReader, ThrowsOnTruncatedInput) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.u32(), SerializationError);
}

TEST(ByteReader, ThrowsOnOversizedBlobLength) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW(r.blob(), SerializationError);
}

TEST(ByteReader, ThrowsOnOversizedStringLength) {
  ByteWriter w;
  w.u32(5);
  w.u8('a');
  ByteReader r(w.bytes());
  EXPECT_THROW(r.str(), SerializationError);
}

TEST(ByteReader, ExpectDoneDetectsTrailingBytes) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.expect_done(), SerializationError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(ByteReader, EmptyBlobAndString) {
  ByteWriter w;
  w.blob({});
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.str().empty());
}

TEST(ByteReader, BorrowedReadsAliasTheInput) {
  ByteWriter w;
  w.str("sender");
  w.blob(to_bytes("payload"));
  const Bytes encoded = w.take();

  ByteReader r(encoded);
  const std::string_view s = r.str_view();
  const std::span<const std::uint8_t> b = r.blob_span();
  r.expect_done();
  EXPECT_EQ(s, "sender");
  EXPECT_EQ(to_string(b), "payload");
  // The views alias the encoded buffer rather than owning copies.
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(s.data()), encoded.data());
  EXPECT_GE(b.data(), encoded.data());
  EXPECT_LE(b.data() + b.size(), encoded.data() + encoded.size());
}

TEST(ByteReader, BorrowedReadsAreBoundsChecked) {
  ByteWriter w;
  w.u32(100);  // length prefix promising more than the buffer holds
  w.u8(1);
  const Bytes encoded = w.take();
  ByteReader r(encoded);
  EXPECT_THROW(r.blob_span(), SerializationError);
  ByteReader r2(encoded);
  EXPECT_THROW(r2.str_view(), SerializationError);
  ByteReader r3(encoded);
  EXPECT_EQ(r3.raw_span(5).data(), encoded.data());
  EXPECT_THROW(r3.raw_span(1), SerializationError);
}

TEST(StringInterner, AssignsDenseHandlesInInsertionOrder) {
  StringInterner interner;
  EXPECT_EQ(interner.intern("a"), 0u);
  EXPECT_EQ(interner.intern("b"), 1u);
  EXPECT_EQ(interner.intern("a"), 0u);  // stable on re-intern
  EXPECT_EQ(interner.lookup("b"), 1u);
  EXPECT_EQ(interner.lookup("never-seen"), StringInterner::kInvalid);
  EXPECT_EQ(interner.name(1), "b");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(StringInterner, HandlesStayDenseAndStableAsTheIndexGrows) {
  StringInterner interner;
  constexpr std::uint32_t kNames = 20'000;
  std::vector<std::size_t> footprint;  // memory_bytes() after each intern
  for (std::uint32_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(interner.intern("dev" + std::to_string(i)), i);
    footprint.push_back(interner.memory_bytes());
  }
  // The index rebuilt itself several times on the way.
  EXPECT_GT(footprint.back(), footprint[kNames / 8]);
  EXPECT_EQ(interner.size(), kNames);
  for (std::uint32_t i = 0; i < kNames; ++i) {
    const std::string name = "dev" + std::to_string(i);
    ASSERT_EQ(interner.lookup(name), i);
    ASSERT_EQ(interner.name(i), name);
    ASSERT_EQ(interner.intern(name), i);  // re-intern: same handle
  }
  EXPECT_EQ(interner.size(), kNames);
  EXPECT_EQ(interner.lookup("dev20000"), StringInterner::kInvalid);
  EXPECT_THROW((void)interner.name(kNames), std::out_of_range);
}

TEST(StringInterner, EmptyAndPrefixSharingNamesAreDistinct) {
  StringInterner interner;
  EXPECT_EQ(interner.lookup(""), StringInterner::kInvalid);
  const std::vector<std::string> names = {"fd1", "fd", "", "fd10", "f",
                                          "fd100", "d1"};
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(interner.intern(names[i]), i);
  }
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(interner.lookup(names[i]), i) << '"' << names[i] << '"';
    EXPECT_EQ(interner.name(i), names[i]);
  }
  EXPECT_TRUE(interner.name(2).empty());
  EXPECT_EQ(interner.lookup("fd1000"), StringInterner::kInvalid);
  EXPECT_EQ(interner.lookup("fd2"), StringInterner::kInvalid);
  // A view of a stored name is a valid key to intern again.
  EXPECT_EQ(interner.intern(interner.name(3).substr(0, 2)), 1u);
  EXPECT_EQ(interner.intern(interner.name(5).substr(1)), 7u);  // "d100"
  EXPECT_EQ(interner.name(7), "d100");
}

TEST(StringInterner, ReserveSizesTheIndexOnce) {
  StringInterner interner;
  interner.reserve(1000, 5 * 1000);
  const std::size_t reserved = interner.memory_bytes();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(interner.intern("n" + std::to_string(1000 + i)), i);
  }
  EXPECT_EQ(interner.memory_bytes(), reserved);
  // 5 B of arena, 4 B of end offset and at most 4/0.375 B of table.
  EXPECT_LE(reserved, 1000 * (5 + 4 + 11));
}

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0001ABFF"), data);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), SerializationError);   // odd length
  EXPECT_THROW(from_hex("zz"), SerializationError);    // non-hex
}

TEST(Log, SinkReceivesFormattedLines) {
  auto& config = LogConfig::instance();
  const auto old_level = config.level;
  auto old_sink = config.sink;

  std::vector<std::string> lines;
  config.level = LogLevel::kDebug;
  config.sink = [&lines](const std::string& line) { lines.push_back(line); };

  Logger log("test.component");
  log.debug("value=", 42);
  log.trace("suppressed at debug level");

  config.level = old_level;
  config.sink = std::move(old_sink);

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("test.component"), std::string::npos);
  EXPECT_NE(lines[0].find("value=42"), std::string::npos);
}

TEST(Log, PerComponentOverridesUseLongestDottedPrefix) {
  auto& config = LogConfig::instance();
  const auto old_level = config.level;
  config.level = LogLevel::kWarn;
  config.set_override("prime", LogLevel::kDebug);
  config.set_override("prime.replica3", LogLevel::kError);

  EXPECT_EQ(config.level_for("prime"), LogLevel::kDebug);
  EXPECT_EQ(config.level_for("prime.replica1"), LogLevel::kDebug);
  EXPECT_EQ(config.level_for("prime.replica3"), LogLevel::kError);
  EXPECT_EQ(config.level_for("prime.replica3.sub"), LogLevel::kError);
  // "primer" is not covered by the "prime" prefix (dot boundary).
  EXPECT_EQ(config.level_for("primer"), LogLevel::kWarn);
  EXPECT_EQ(config.level_for("spines.daemon"), LogLevel::kWarn);

  config.clear_overrides();
  EXPECT_EQ(config.level_for("prime"), LogLevel::kWarn);
  config.level = old_level;
}

TEST(Log, OverridesGateLoggerOutput) {
  auto& config = LogConfig::instance();
  const auto old_level = config.level;
  auto old_sink = config.sink;
  std::vector<std::string> lines;
  config.level = LogLevel::kOff;
  config.sink = [&lines](const std::string& line) { lines.push_back(line); };
  config.set_override("spines", LogLevel::kInfo);

  Logger spines_log("spines.daemon.int0");
  Logger prime_log("prime.replica0");
  spines_log.info("overlay up");
  prime_log.info("suppressed: no override, global off");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("overlay up"), std::string::npos);

  // The logger's memoized override refreshes when overrides change.
  config.set_override("spines", LogLevel::kError);
  spines_log.info("now suppressed");
  EXPECT_EQ(lines.size(), 1u);

  // With overrides cleared, direct assignment to the global level still
  // takes effect (the fast path reads it live).
  config.clear_overrides();
  config.level = LogLevel::kInfo;
  prime_log.info("global info visible");
  EXPECT_EQ(lines.size(), 2u);

  config.level = old_level;
  config.sink = std::move(old_sink);
}

TEST(Log, ApplySpecParsesGlobalAndPerComponentElements) {
  auto& config = LogConfig::instance();
  const auto old_level = config.level;

  EXPECT_TRUE(config.apply_spec("prime=debug,spines=warn"));
  EXPECT_EQ(config.level_for("prime.replica0"), LogLevel::kDebug);
  EXPECT_EQ(config.level_for("spines.daemon.ext1"), LogLevel::kWarn);

  EXPECT_TRUE(config.apply_spec("error"));  // bare level = global default
  EXPECT_EQ(config.level, LogLevel::kError);
  EXPECT_EQ(config.level_for("scada.hmi"), LogLevel::kError);
  EXPECT_EQ(config.level_for("prime.replica0"), LogLevel::kDebug);

  EXPECT_FALSE(config.apply_spec("bogus"));
  EXPECT_FALSE(config.apply_spec(""));
  EXPECT_TRUE(config.apply_spec("off,scada=info"));
  EXPECT_EQ(config.level, LogLevel::kOff);
  EXPECT_EQ(config.level_for("scada.proxy.b1"), LogLevel::kInfo);

  config.clear_overrides();
  config.level = old_level;
}

TEST(Log, ParseLogLevelNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
}

}  // namespace
}  // namespace spire::util
