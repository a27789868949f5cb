#include "util/args.h"

#include <gtest/gtest.h>

namespace netsample {
namespace {

ArgParser parser() {
  ArgParser p;
  p.add_flag("k", "K", "granularity", "50");
  p.add_flag("out", "FILE", "output path");
  p.add_flag("verbose", "", "chatty mode");
  p.add_flag("rate", "R", "a real number", "1.5");
  return p;
}

TEST(ArgParser, PositionalsAndFlags) {
  auto p = parser();
  ASSERT_TRUE(p.parse({"trace.pcap", "--k", "100", "--verbose"}).is_ok());
  ASSERT_EQ(p.positionals().size(), 1u);
  EXPECT_EQ(p.positionals()[0], "trace.pcap");
  EXPECT_EQ(p.get_int("k"), 100);
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_TRUE(p.given("k"));
  EXPECT_TRUE(p.given("verbose"));
  EXPECT_FALSE(p.given("rate"));  // has() is true: it has a default
}

TEST(ArgParser, DefaultsApply) {
  auto p = parser();
  ASSERT_TRUE(p.parse({}).is_ok());
  EXPECT_EQ(p.get_int("k"), 50);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.5);
  EXPECT_FALSE(p.get_bool("verbose"));
  EXPECT_TRUE(p.has("k"));
  EXPECT_FALSE(p.has("out"));
  EXPECT_FALSE(p.given("k"));  // a default is not a given flag
}

TEST(ArgParser, EqualsSyntax) {
  auto p = parser();
  ASSERT_TRUE(p.parse({"--k=128", "--out=x.pcap"}).is_ok());
  EXPECT_EQ(p.get_int("k"), 128);
  EXPECT_EQ(p.get_string("out"), "x.pcap");
}

TEST(ArgParser, UnknownFlagRejected) {
  auto p = parser();
  const auto s = p.parse({"--bogus", "1"});
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ArgParser, MissingValueRejected) {
  auto p = parser();
  EXPECT_FALSE(p.parse({"--out"}).is_ok());
}

TEST(ArgParser, SwitchWithValueRejected) {
  auto p = parser();
  EXPECT_FALSE(p.parse({"--verbose=yes"}).is_ok());
}

TEST(ArgParser, MissingRequiredThrowsOnAccess) {
  auto p = parser();
  ASSERT_TRUE(p.parse({}).is_ok());
  EXPECT_THROW((void)p.get_string("out"), std::invalid_argument);
}

TEST(ArgParser, BadNumberThrows) {
  auto p = parser();
  ASSERT_TRUE(p.parse({"--k", "abc"}).is_ok());
  EXPECT_THROW((void)p.get_int("k"), std::invalid_argument);
  ASSERT_TRUE(p.parse({"--rate", "1.5x"}).is_ok());
  EXPECT_THROW((void)p.get_double("rate"), std::invalid_argument);
}

TEST(ArgParser, NegativeNumbersParse) {
  auto p = parser();
  ASSERT_TRUE(p.parse({"--k", "-3", "--rate", "-0.5"}).is_ok());
  EXPECT_EQ(p.get_int("k"), -3);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), -0.5);
}

TEST(ArgParser, HelpListsFlags) {
  auto p = parser();
  const auto h = p.help();
  EXPECT_NE(h.find("--k"), std::string::npos);
  EXPECT_NE(h.find("default: 50"), std::string::npos);
  EXPECT_NE(h.find("--verbose"), std::string::npos);
}

TEST(ArgParser, ReparseClearsState) {
  auto p = parser();
  ASSERT_TRUE(p.parse({"a", "--k", "9"}).is_ok());
  ASSERT_TRUE(p.parse({"b"}).is_ok());
  EXPECT_EQ(p.positionals().size(), 1u);
  EXPECT_EQ(p.positionals()[0], "b");
  EXPECT_EQ(p.get_int("k"), 50);  // back to default
}

}  // namespace
}  // namespace netsample
