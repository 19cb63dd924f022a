#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/common/parse.hpp"

namespace mc = magus::common;

TEST(Parse, ParseIntAcceptsPlainIntegers) {
  EXPECT_EQ(mc::parse_int("0"), 0);
  EXPECT_EQ(mc::parse_int("40"), 40);
  EXPECT_EQ(mc::parse_int("-3"), -3);
}

TEST(Parse, ParseIntRejectsGarbage) {
  EXPECT_THROW((void)mc::parse_int(""), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int("abc"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int("12x"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int("1.5"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int("99999999999999999999"), mc::ConfigError);
}

TEST(Parse, ParseIntErrorNamesToken) {
  try {
    (void)mc::parse_int("12x");
    FAIL() << "expected ConfigError";
  } catch (const mc::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("12x"), std::string::npos);
  }
}

TEST(Parse, ParseDoubleAcceptsFiniteNumbers) {
  EXPECT_DOUBLE_EQ(mc::parse_double("0"), 0.0);
  EXPECT_DOUBLE_EQ(mc::parse_double("0.05"), 0.05);
  EXPECT_DOUBLE_EQ(mc::parse_double("-2.5"), -2.5);
  EXPECT_DOUBLE_EQ(mc::parse_double("1e+05"), 100000.0);
  EXPECT_DOUBLE_EQ(mc::parse_double("6000"), 6000.0);
}

TEST(Parse, ParseDoubleRejectsGarbageAndNonFinite) {
  for (const char* tok : {"", "abc", "0.05x", "12x", "1.5.2", " ", "1e999", "inf", "-inf",
                          "+Inf", "nan", "NaN", "infinity"}) {
    EXPECT_THROW((void)mc::parse_double(tok), mc::ConfigError) << "'" << tok << "'";
  }
}

TEST(Parse, ParseU64AcceptsFullRange) {
  EXPECT_EQ(mc::parse_u64("0"), 0u);
  EXPECT_EQ(mc::parse_u64("2025"), 2025u);
  EXPECT_EQ(mc::parse_u64("18446744073709551615"), 18446744073709551615ull);
}

TEST(Parse, ParseU64RejectsSignsGarbageAndOverflow) {
  // std::stoull would wrap "-3" to 18446744073709551613.
  for (const char* tok : {"", "-3", "-1", "+5", "8x", "1.5", "abc", " ",
                          "18446744073709551616"}) {
    EXPECT_THROW((void)mc::parse_u64(tok), mc::ConfigError) << "'" << tok << "'";
  }
}

TEST(Parse, NumberErrorsNameTheToken) {
  for (const char* tok : {"0.05x", "inf", "abc"}) {
    try {
      (void)mc::parse_double(tok);
      ADD_FAILURE() << "expected ConfigError for '" << tok << "'";
    } catch (const mc::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(tok), std::string::npos) << e.what();
    }
  }
  try {
    (void)mc::parse_u64("-3");
    ADD_FAILURE() << "expected ConfigError for '-3'";
  } catch (const mc::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'-3'"), std::string::npos) << e.what();
  }
}

TEST(Parse, ParseLabeledPrefixesTheSource) {
  try {
    (void)mc::parse_labeled("--nodes", "8x", mc::parse_int);
    FAIL() << "expected ConfigError";
  } catch (const mc::ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("--nodes: ", 0), 0u) << msg;
    EXPECT_NE(msg.find("'8x'"), std::string::npos) << msg;
  }
  EXPECT_EQ(mc::parse_labeled("--seed", "7", mc::parse_u64), 7u);
}

TEST(Parse, ParseIntListSplitsOnCommas) {
  EXPECT_EQ(mc::parse_int_list("0"), (std::vector<int>{0}));
  EXPECT_EQ(mc::parse_int_list("0,40"), (std::vector<int>{0, 40}));
  EXPECT_EQ(mc::parse_int_list("1,2,3"), (std::vector<int>{1, 2, 3}));
}

TEST(Parse, ParseIntListRejectsEmptyTokens) {
  EXPECT_THROW((void)mc::parse_int_list(""), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0,,1"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0,40,"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list(",0"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0,x"), mc::ConfigError);
}

TEST(Parse, ParseIntListWhitespaceTokens) {
  // std::stoi skips leading whitespace, so "0, 40" parses; trailing
  // whitespace inside a token is trailing garbage and must be rejected, as
  // must a token that is nothing but whitespace.
  EXPECT_EQ(mc::parse_int_list("0, 40"), (std::vector<int>{0, 40}));
  EXPECT_THROW((void)mc::parse_int_list("0 ,40"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0, ,40"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list(" "), mc::ConfigError);
}

TEST(Parse, ParseIntListIntLimits) {
  EXPECT_EQ(mc::parse_int_list("2147483647"), (std::vector<int>{2147483647}));
  EXPECT_EQ(mc::parse_int_list("-2147483648,0"),
            (std::vector<int>{-2147483648, 0}));
  // One past INT_MAX overflows std::stoi and must surface as ConfigError,
  // not a bare std::out_of_range.
  EXPECT_THROW((void)mc::parse_int_list("2147483648"), mc::ConfigError);
  EXPECT_THROW((void)mc::parse_int_list("0,99999999999999999999"), mc::ConfigError);
}

TEST(Parse, ParseIntListLongLists) {
  EXPECT_EQ(mc::parse_int_list("1,-2,3,-4,5"), (std::vector<int>{1, -2, 3, -4, 5}));
}

// --- parse_flags ------------------------------------------------------------

namespace {
const mc::FlagSpec kSpec{{"nodes", "out", "jobs"}, {"dry-run"}};

std::string flag_error(const std::vector<std::string>& args) {
  try {
    (void)mc::parse_flags(args, kSpec);
  } catch (const mc::ConfigError& e) {
    return e.what();
  }
  return "";
}
}  // namespace

TEST(ParseFlags, ValuedFlagsAndSwitches) {
  const auto flags = mc::parse_flags({"--nodes", "8", "--dry-run", "--out", "-"}, kSpec);
  EXPECT_EQ(flags.size(), 3u);
  EXPECT_EQ(flags.at("nodes"), "8");
  EXPECT_EQ(flags.at("dry-run"), "1");
  EXPECT_EQ(flags.at("out"), "-");  // a lone dash is a value, not a flag
  EXPECT_TRUE(mc::parse_flags({}, kSpec).empty());
}

TEST(ParseFlags, TrailingValuedFlagWithoutValueIsRejected) {
  // `fleet --nodes 8 --out x.jsonl --jobs` once dropped --jobs silently.
  const std::string err = flag_error({"--nodes", "8", "--out", "x.jsonl", "--jobs"});
  EXPECT_NE(err.find("missing value"), std::string::npos) << err;
  EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
}

TEST(ParseFlags, ValuedFlagFollowedByFlagIsRejected) {
  const std::string err = flag_error({"--jobs", "--out", "x.jsonl"});
  EXPECT_NE(err.find("missing value for flag '--jobs'"), std::string::npos) << err;
}

TEST(ParseFlags, UnknownFlagIsRejected) {
  // `run ... --bogus 1` was once accepted.
  const std::string err = flag_error({"--nodes", "8", "--bogus", "1"});
  EXPECT_NE(err.find("unknown flag '--bogus'"), std::string::npos) << err;
  // A switch is not a valued flag, and a valued flag is not a switch.
  EXPECT_NE(flag_error({"--dry-run", "1"}).find("expected a flag, got '1'"),
            std::string::npos);
}

TEST(ParseFlags, BareWordAndRepeatedFlagAreRejected) {
  EXPECT_NE(flag_error({"nodes", "8"}).find("expected a flag, got 'nodes'"),
            std::string::npos);
  EXPECT_NE(flag_error({"--nodes", "8", "--nodes", "9"}).find("repeated flag '--nodes'"),
            std::string::npos);
  EXPECT_NE(flag_error({"--dry-run", "--dry-run"}).find("repeated flag"), std::string::npos);
}
