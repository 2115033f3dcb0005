#include <cmath>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "gtest/gtest.h"

namespace partix {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "not_found: missing thing");
}

TEST(StatusTest, EveryCodeHasName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "parse_error");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "corruption");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, DefaultIsError) {
  Result<int> r;
  EXPECT_FALSE(r.ok());
}

Result<int> Doubler(Result<int> in) {
  PARTIX_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

TEST(StringsTest, Split) {
  auto parts = Split("a//b", '/');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  auto nonempty = SplitSkipEmpty("/x/y/", '/');
  ASSERT_EQ(nonempty.size(), 2u);
  EXPECT_EQ(nonempty[0], "x");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, ContainsAndAffixes) {
  EXPECT_TRUE(Contains("hello world", "lo wo"));
  EXPECT_FALSE(Contains("hello", "LO"));
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(EndsWith("hello", "llo"));
  EXPECT_FALSE(StartsWith("h", "he"));
}

TEST(StringsTest, ParseNumbers) {
  double d = 0;
  EXPECT_TRUE(ParseDouble(" 3.25 ", &d));
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_FALSE(ParseDouble("3.2x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64("-17", &i));
  EXPECT_EQ(i, -17);
  EXPECT_FALSE(ParseInt64("1.5", &i));
}

TEST(StringsTest, FormatNumber) {
  EXPECT_EQ(FormatNumber(42.0), "42");
  EXPECT_EQ(FormatNumber(-3.0), "-3");
  EXPECT_EQ(FormatNumber(2.5), "2.5");
  EXPECT_EQ(FormatNumber(std::nan("")), "NaN");
}

TEST(StringsTest, XmlEscaping) {
  EXPECT_EQ(EscapeXmlText("a<b&c>d\"e"), "a&lt;b&amp;c&gt;d\"e");
  EXPECT_EQ(EscapeXmlAttr("a\"b"), "a&quot;b");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(5 * 1024 * 1024), "5.0 MiB");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(5);
  int low = 0;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(8, 1.0) == 0) ++low;
  }
  // With s=1 over 8 ranks the first rank should get ~37% of the mass,
  // versus 12.5% uniform.
  EXPECT_GT(low, kDraws / 5);
}

TEST(RngTest, ZipfZeroSkewIsRoughlyUniform) {
  Rng rng(5);
  int low = 0;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(8, 0.0) == 0) ++low;
  }
  EXPECT_LT(low, kDraws / 4);
}

TEST(RngTest, SentenceInjectsWord) {
  Rng rng(5);
  std::string s = rng.Sentence(10, "zebra");
  EXPECT_TRUE(Contains(s, "zebra"));
}

TEST(RngTest, WordLengthBounds) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::string w = rng.Word(3, 6);
    EXPECT_GE(w.size(), 3u);
    EXPECT_LE(w.size(), 6u);
  }
}

}  // namespace
}  // namespace partix
