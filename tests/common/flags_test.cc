#include "common/flags.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace culinary::flags {
namespace {

/// A table shaped like an experiment binary's, with every kind of flag.
struct Fixture {
  bool small = false;
  bool keep_header = true;
  uint64_t seed = 0;
  size_t null_recipes = 100000;
  uint32_t narrow = 7;
  double rate = 0.05;
  double deadline_ms = 0.0;
  std::string out = "world";
  std::vector<std::string> positional;

  std::vector<Flag> Table() {
    return {Presence("small", &small, "the miniature world"),
            Presence("corrupt-header", &keep_header, "damage the header",
                     false),
            Unsigned("seed", &seed, "world seed"),
            Unsigned("null-recipes", &null_recipes, "null recipes per model",
                     2),
            Unsigned("narrow", &narrow, "a 32-bit target"),
            Double("rate", &rate, "corruption rate", 0.0, 1.0),
            Double("deadline-ms", &deadline_ms, "deadline",
                   0.0, std::numeric_limits<double>::infinity()),
            String("out", &out, "PREFIX", "output prefix")};
  }

  Status Run(std::vector<std::string_view> args, size_t min_positional = 0,
             size_t max_positional = 0) {
    return Parse(args, Table(),
                 {"<in> <out>", min_positional, max_positional, &positional});
  }
};

TEST(FlagsTest, ParsesEveryKind) {
  Fixture f;
  ASSERT_TRUE(f.Run({"--small", "--corrupt-header", "--seed=42",
                     "--null-recipes=2", "--narrow=4294967295", "--rate=0.5",
                     "--deadline-ms=1e300", "--out=x"})
                  .ok());
  EXPECT_TRUE(f.small);
  EXPECT_FALSE(f.keep_header);
  EXPECT_EQ(f.seed, 42u);
  EXPECT_EQ(f.null_recipes, 2u);
  EXPECT_EQ(f.narrow, 4294967295u);
  EXPECT_EQ(f.rate, 0.5);
  EXPECT_EQ(f.deadline_ms, 1e300);
  EXPECT_EQ(f.out, "x");
}

TEST(FlagsTest, AbsentFlagsKeepTheirDefaults) {
  Fixture f;
  ASSERT_TRUE(f.Run({}).ok());
  EXPECT_FALSE(f.small);
  EXPECT_TRUE(f.keep_header);
  EXPECT_EQ(f.null_recipes, 100000u);
  EXPECT_EQ(f.rate, 0.05);
  EXPECT_EQ(f.out, "world");
}

TEST(FlagsTest, EmptyStringValueIsKept) {
  Fixture f;
  ASSERT_TRUE(f.Run({"--out="}).ok());
  EXPECT_EQ(f.out, "");
}

TEST(FlagsTest, ValueMustParseWhole) {
  for (const char* arg : {"--seed=abc", "--seed=7x", "--seed=", "--seed= 7",
                          "--seed=+7", "--seed=0x10", "--seed=1e3",
                          "--rate=abc", "--rate=0.5x", "--rate=", "--rate= 0.5",
                          "--rate=+0.5"}) {
    Fixture f;
    Status status = f.Run({arg});
    EXPECT_TRUE(status.IsInvalidArgument()) << arg;
    EXPECT_NE(status.message().find(arg), std::string::npos)
        << status.message();
  }
}

TEST(FlagsTest, NegativesAreRefused) {
  for (const char* arg : {"--seed=-1", "--seed=-0", "--null-recipes=-5",
                          "--rate=-0.5", "--deadline-ms=-1"}) {
    Fixture f;
    EXPECT_TRUE(f.Run({arg}).IsInvalidArgument()) << arg;
  }
}

TEST(FlagsTest, OverflowIsRefused) {
  Fixture f;
  ASSERT_TRUE(f.Run({"--seed=18446744073709551615"}).ok());
  EXPECT_EQ(f.seed, std::numeric_limits<uint64_t>::max());
  for (const char* arg :
       {"--seed=18446744073709551616", "--seed=99999999999999999999999",
        "--deadline-ms=1e999"}) {
    Fixture g;
    EXPECT_TRUE(g.Run({arg}).IsInvalidArgument()) << arg;
  }
  Fixture h;
  EXPECT_TRUE(h.Run({"--narrow=4294967296"}).IsInvalidArgument());
  EXPECT_EQ(h.narrow, 7u);  // not wrapped to 0
}

TEST(FlagsTest, BoundsAreInclusive) {
  Fixture f;
  EXPECT_TRUE(f.Run({"--null-recipes=1"}).IsInvalidArgument());
  EXPECT_TRUE(f.Run({"--null-recipes=0"}).IsInvalidArgument());
  EXPECT_EQ(f.null_recipes, 100000u);
  for (const char* arg : {"--rate=0", "--rate=1", "--deadline-ms=0",
                          "--deadline-ms=inf"}) {
    Fixture g;
    EXPECT_TRUE(g.Run({arg}).ok()) << arg;
  }
  for (const char* arg : {"--rate=1.0000001", "--rate=7", "--rate=inf",
                          "--rate=18446744073709551616"}) {
    Fixture g;
    EXPECT_TRUE(g.Run({arg}).IsInvalidArgument()) << arg;
  }
}

TEST(FlagsTest, NaNIsRefused) {
  for (const char* arg : {"--rate=nan", "--rate=NaN", "--deadline-ms=nan"}) {
    Fixture f;
    EXPECT_TRUE(f.Run({arg}).IsInvalidArgument()) << arg;
    EXPECT_FALSE(std::isnan(f.rate) || std::isnan(f.deadline_ms));
  }
}

TEST(FlagsTest, PresenceFlagTakesNoValue) {
  for (const char* arg : {"--small=1", "--small=", "--small=true"}) {
    Fixture f;
    Status status = f.Run({arg});
    EXPECT_TRUE(status.IsInvalidArgument()) << arg;
    EXPECT_FALSE(f.small);
  }
}

TEST(FlagsTest, ValueFlagNeedsEquals) {
  Fixture f;
  Status status = f.Run({"--seed", "5"}, 0, 2);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--seed=N"), std::string::npos)
      << status.message();
  EXPECT_TRUE(f.Run({"--out"}).IsInvalidArgument());
}

TEST(FlagsTest, RepeatedFlagIsRefused) {
  for (const std::vector<std::string_view>& args :
       {std::vector<std::string_view>{"--small", "--small"},
        std::vector<std::string_view>{"--seed=1", "--seed=1"},
        std::vector<std::string_view>{"--out=a", "--small", "--out=b"}}) {
    Fixture f;
    Status status = f.Run(args);
    EXPECT_TRUE(status.IsInvalidArgument());
    EXPECT_NE(status.message().find("repeated flag"), std::string::npos)
        << status.message();
  }
}

TEST(FlagsTest, UnknownFlagIsRefused) {
  for (const char* arg : {"--bogus", "--bogus=1", "--", "--=5", "--Small",
                          "--null_recipes=5", "--see=1"}) {
    Fixture f;
    Status status = f.Run({arg});
    EXPECT_TRUE(status.IsInvalidArgument()) << arg;
    EXPECT_NE(status.message().find(arg), std::string::npos)
        << status.message();
  }
}

TEST(FlagsTest, Positionals) {
  Fixture none;
  EXPECT_TRUE(none.Run({"stray"}).IsInvalidArgument());
  EXPECT_TRUE(none.Run({"-x"}).IsInvalidArgument());

  Fixture two;
  ASSERT_TRUE(two.Run({"in.csv", "--small", "out.csv"}, 2, 2).ok());
  EXPECT_EQ(two.positional, (std::vector<std::string>{"in.csv", "out.csv"}));
  EXPECT_TRUE(two.small);

  Fixture missing;
  Status status = missing.Run({"in.csv"}, 2, 2);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("<in> <out>"), std::string::npos);

  Fixture extra;
  EXPECT_TRUE(extra.Run({"a", "b", "c"}, 2, 2).IsInvalidArgument());
}

TEST(FlagsTest, UsageListsEveryFlag) {
  Fixture f;
  const std::vector<Flag> table = f.Table();
  const std::string usage =
      Usage("/some/dir/tool", table, {"<in> <out>", 2, 2, &f.positional});
  EXPECT_EQ(usage.rfind("usage: tool <in> <out> [flags]\n", 0), 0u) << usage;
  for (const char* line :
       {"--small ", "--corrupt-header ", "--seed=N ", "--null-recipes=N ", "--narrow=N ",
        "--rate=X ", "--deadline-ms=X ", "--out=PREFIX ",
        "null recipes per model, at least 2 (default 100000)",
        "a 32-bit target, at most 4294967295 (default 7)",
        "corruption rate, in [0, 1] (default 0.05)",
        "deadline, at least 0 (default 0)",
        "output prefix (default world)"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
  EXPECT_EQ(static_cast<size_t>(
                std::count(usage.begin(), usage.end(), '\n')),
            table.size() + 1);
}

}  // namespace
}  // namespace culinary::flags
