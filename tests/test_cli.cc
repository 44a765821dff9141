#include "muxwise/cli.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace muxwise::cli {
namespace {

TEST(FlagSetTest, NumbersMustParseWholeAndFinite) {
  for (const char* bad : {"abc", "1.5x", "", "inf", "nan", "1e999"}) {
    FlagSet flags("t", {std::string("--rate=") + bad});
    EXPECT_EQ(flags.Number("rate", 7.0), 7.0);
    EXPECT_FALSE(flags.Done(0, 0, "t")) << bad;
  }
  FlagSet flags("t", {"--rate=-2.5e1"});
  EXPECT_EQ(flags.Number("rate", 7.0), -25.0);
  EXPECT_TRUE(flags.Done(0, 0, "t"));
}

TEST(FlagSetTest, CountsRejectSignsJunkOverflowAndValuesBelowMin) {
  for (const char* bad : {"-1", "+3", "3x", " 3", "99999999999999999999"}) {
    FlagSet flags("t", {std::string("--runs=") + bad});
    EXPECT_EQ(flags.Count("runs", 5), 5u);
    EXPECT_FALSE(flags.Done(0, 0, "t")) << bad;
  }
  FlagSet zero("t", {"--runs=0"});
  zero.Count("runs", 5, 1);
  EXPECT_FALSE(zero.Done(0, 0, "t"));

  FlagSet flags("t", {"--seed=18446744073709551615", "--runs=0"});
  EXPECT_EQ(flags.Count("seed", 1), 18446744073709551615ULL);
  EXPECT_EQ(flags.Count("runs", 5), 0u);
  EXPECT_TRUE(flags.Done(0, 0, "t"));
}

TEST(FlagSetTest, SwitchesTakeNoValueAndOptionsNeedOne) {
  FlagSet with_value("t", {"--no-wall=1"});
  EXPECT_TRUE(with_value.Switch("no-wall"));
  EXPECT_FALSE(with_value.Done(0, 0, "t"));

  FlagSet bare("t", {"--out"});
  EXPECT_EQ(bare.String("out", "x"), "x");
  EXPECT_FALSE(bare.Done(0, 0, "t"));
}

TEST(FlagSetTest, UnknownFlagsAndWrongArityAreErrors) {
  FlagSet unknown("t", {"--threshold=0.1", "a"});
  EXPECT_FALSE(unknown.Done(1, 1, "t"));

  FlagSet arity("t", {"a", "b", "c"});
  EXPECT_FALSE(arity.Done(1, 2, "t"));

  FlagSet ok("t", {"a", "--out=f", "b", "--diff"});
  EXPECT_TRUE(ok.Switch("diff"));
  EXPECT_EQ(ok.String("out"), "f");
  EXPECT_TRUE(ok.Done(2, 2, "t"));
  EXPECT_EQ(ok.positional(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace muxwise::cli
