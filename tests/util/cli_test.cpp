#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace ers {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, SpaceSeparatedValue) {
  const auto a = make({"--depth", "7"});
  EXPECT_EQ(a.get_int("depth", 0), 7);
}

TEST(CliArgs, EqualsSeparatedValue) {
  const auto a = make({"--depth=9"});
  EXPECT_EQ(a.get_int("depth", 0), 9);
}

TEST(CliArgs, BooleanFlag) {
  const auto a = make({"--verbose"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_FALSE(a.has("quiet"));
}

TEST(CliArgs, BooleanFlagFollowedByAnotherFlag) {
  const auto a = make({"--verbose", "--depth", "3"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get_int("depth", 0), 3);
}

TEST(CliArgs, DefaultsWhenMissing) {
  const auto a = make({});
  EXPECT_EQ(a.get("tree", "R1"), "R1");
  EXPECT_EQ(a.get_int("procs", 16), 16);
  EXPECT_DOUBLE_EQ(a.get_double("scale", 1.5), 1.5);
}

TEST(CliArgs, PositionalArguments) {
  const auto a = make({"input.txt", "--depth", "2", "more"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  EXPECT_EQ(a.positional()[1], "more");
}

TEST(CliArgs, DoubleParsing) {
  const auto a = make({"--scale=2.25"});
  EXPECT_DOUBLE_EQ(a.get_double("scale", 0.0), 2.25);
}

TEST(CliArgs, KnownFlagsPassTheCheck) {
  const auto a = make({"input.txt", "--scale", "3", "--verbose"});
  a.reject_unknown({"scale", "verbose", "trees"});
  EXPECT_EQ(a.get_int("scale", 0), 3);
}

TEST(CliArgs, UnknownFlagExitsTwo) {
  const auto a = make({"--scale", "3", "--bogus", "1"});
  EXPECT_EXIT(a.reject_unknown({"scale"}), ::testing::ExitedWithCode(2),
              "unknown option --bogus");
}

}  // namespace
}  // namespace ers
