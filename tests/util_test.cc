#include <gtest/gtest.h>

#include <set>

#include "util/bytes.h"
#include "util/flags.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/time.h"

namespace lazyeye {
namespace {

// ---------------------------------------------------------------- time ----

TEST(TimeTest, ConstructorsAgree) {
  EXPECT_EQ(ms(1), us(1000));
  EXPECT_EQ(sec(1), ms(1000));
  EXPECT_EQ(minutes(1), sec(60));
  EXPECT_EQ(ms_f(0.5), us(500));
  EXPECT_EQ(ms_f(250.0), ms(250));
}

TEST(TimeTest, ToMsRoundTrips) {
  EXPECT_DOUBLE_EQ(to_ms(ms(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_ms(us(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_sec(ms(1750)), 1.75);
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(format_duration(ms(0)), "0ms");
  EXPECT_EQ(format_duration(ms(250)), "250ms");
  EXPECT_EQ(format_duration(ms(1750)), "1750ms");
  EXPECT_EQ(format_duration(sec(2)), "2s");
  EXPECT_EQ(format_duration(us(50)), "50us");
  EXPECT_EQ(format_duration(ns(7)), "7ns");
  EXPECT_EQ(format_duration(-ms(5)), "-5ms");
  EXPECT_EQ(format_duration(sec(12)), "12s");
}

// ----------------------------------------------------------------- rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng{99};
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng{3};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng{11};
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, RangeInclusive) {
  Rng rng{5};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DurationRange) {
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    const SimTime t = rng.next_duration(ms(10), ms(20));
    EXPECT_GE(t, ms(10));
    EXPECT_LE(t, ms(20));
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent{123};
  Rng child = parent.fork();
  // The fork must not replay the parent's stream.
  Rng parent2{123};
  parent2.fork();
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

// --------------------------------------------------------------- bytes ----

TEST(BytesTest, WriterBigEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 7u);
  EXPECT_EQ(d[0], 0x01);
  EXPECT_EQ(d[1], 0x02);
  EXPECT_EQ(d[2], 0x03);
  EXPECT_EQ(d[3], 0x04);
  EXPECT_EQ(d[6], 0x07);
}

TEST(BytesTest, ReaderRoundTrip) {
  ByteWriter w;
  w.u16(0xbeef);
  w.u32(0xdeadc0de);
  w.bytes(std::string_view{"abc"});
  const auto buf = w.take();

  ByteReader r{buf};
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadc0deu);
  EXPECT_EQ(r.str(3), "abc");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, ReaderOutOfBoundsSticks) {
  const std::vector<std::uint8_t> buf{0x01};
  ByteReader r{buf};
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0);  // out of bounds
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // still failing
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, ReaderSeekForCompressionPointers) {
  const std::vector<std::uint8_t> buf{0xaa, 0xbb, 0xcc};
  ByteReader r{buf};
  r.skip(2);
  r.seek(1);
  EXPECT_EQ(r.u8(), 0xbb);
  r.seek(17);
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u8(0x42);
  w.patch_u16(0, 0x1234);
  EXPECT_EQ(w.data()[0], 0x12);
  EXPECT_EQ(w.data()[1], 0x34);
  EXPECT_EQ(w.data()[2], 0x42);
}

TEST(BytesTest, ToHex) {
  const std::vector<std::uint8_t> buf{0x0a, 0xff, 0x00};
  EXPECT_EQ(to_hex(buf), "0a ff 00");
}

// -------------------------------------------------------------- result ----

TEST(ResultTest, SuccessAndFailure) {
  Result<int> ok{42};
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  const auto bad = Result<int>::failure("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ResultTest, StatusDefaultOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  const auto f = Status::failure("broken");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error(), "broken");
}

// ------------------------------------------------------------- strings ----

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a.b.c", '.'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(".a.", '.'), (std::vector<std::string>{"", "a", ""}));
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(to_lower("AbC-123"), "abc-123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("example.com", "exam"));
  EXPECT_FALSE(starts_with("a", "ab"));
  EXPECT_TRUE(ends_with("example.com", ".com"));
  EXPECT_FALSE(ends_with("com", ".com"));
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("250"), 250u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(StringsTest, ParseFlagKeepsTheValueInItsBounds) {
  int count = 7;
  EXPECT_TRUE(parse_flag("--n", "1", 1, 256, count));
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(parse_flag("--n", "256", 1, 256, count));
  EXPECT_EQ(count, 256);
  for (const char* bad : {"0", "257", "100000", "x", "12abc", "-1", "+5",
                          " 5", "", "99999999999999999999"}) {
    EXPECT_FALSE(parse_flag("--n", bad, 1, 256, count)) << bad;
  }
  EXPECT_EQ(count, 256);  // a refused value leaves the old one

  std::uint64_t seed = 0;
  EXPECT_TRUE(parse_flag("--seed", "18446744073709551615", 0, UINT64_MAX,
                         seed));
  EXPECT_EQ(seed, UINT64_MAX);
}

TEST(StringsTest, Format) {
  EXPECT_EQ(str_format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(str_format("%.1f %%", 43.75), "43.8 %");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

// --------------------------------------------------------------- table ----

TEST(TableTest, RendersAlignedColumns) {
  TextTable t{{"Name", "Value"}};
  t.set_align(1, TextTable::Align::kRight);
  t.add_row({"x", "1"});
  t.add_row({"longer", "250"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Name   | Value |"), std::string::npos);
  EXPECT_NE(out.find("| x      |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| longer |   250 |"), std::string::npos);
}

TEST(TableTest, SeparatorRows) {
  TextTable t{{"A"}};
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // Header rule + separator rule.
  std::size_t rules = 0;
  for (std::size_t pos = 0; (pos = out.find("|---", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 2u);
}

TEST(TableTest, ShortRowsPadded) {
  TextTable t{{"A", "B"}};
  t.add_row({"only-a"});
  EXPECT_NE(t.render().find("| only-a |"), std::string::npos);
}

}  // namespace
}  // namespace lazyeye
