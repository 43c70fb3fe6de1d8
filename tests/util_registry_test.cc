// Registry<V>: the one named-thing lookup behind --cc and --qdisc. The
// tests pin the lookup contract, the did-you-mean error text (which the CLI
// and .topo parse errors surface verbatim), and the enumeration helpers the
// --help strings are built from.
#include "util/registry.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "net/queue.h"
#include "tcp/congestion_control.h"

namespace tcpdyn::util {
namespace {

Registry<int> colors() {
  Registry<int> r;
  r.add("red", 1, "the warm one")
      .add("green", 2, "the calm one")
      .add("blue", 3, "the cool one");
  return r;
}

TEST(Registry, FindAndRequire) {
  const Registry<int> r = colors();
  ASSERT_NE(r.find("green"), nullptr);
  EXPECT_EQ(*r.find("green"), 2);
  EXPECT_EQ(r.find("mauve"), nullptr);
  EXPECT_EQ(r.require("blue", "color"), 3);
  EXPECT_EQ(r.size(), 3u);
}

TEST(Registry, RequireThrowsWithSuggestionAndList) {
  const Registry<int> r = colors();
  try {
    r.require("gren", "color");
    FAIL() << "require should throw on an unknown name";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown color 'gren'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'green'?"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid: red, green, blue"), std::string::npos) << msg;
  }
}

TEST(Registry, NoSuggestionWhenNothingIsClose) {
  const Registry<int> r = colors();
  EXPECT_EQ(r.suggest("xylophone"), "");
  try {
    r.require("xylophone", "color");
    FAIL() << "require should throw on an unknown name";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(Registry, NamesJoinedAndHelp) {
  const Registry<int> r = colors();
  EXPECT_EQ(r.names_joined(), "red|green|blue");
  EXPECT_EQ(r.names_joined(", "), "red, green, blue");
  const std::string help = r.help();
  // Names padded so descriptions align: "green" is the widest at 5.
  EXPECT_NE(help.find("  red    the warm one\n"), std::string::npos) << help;
  EXPECT_NE(help.find("  green  the calm one\n"), std::string::npos) << help;
}

TEST(Registry, EditDistance) {
  EXPECT_EQ(Registry<int>::edit_distance("", ""), 0u);
  EXPECT_EQ(Registry<int>::edit_distance("abc", ""), 3u);
  EXPECT_EQ(Registry<int>::edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(Registry<int>::edit_distance("cubic", "cubbic"), 1u);
}

// The production registries: registration order is presentation order, and
// every historic name must resolve (these lists are what --help shows and
// what the .topo grammar accepts).
TEST(Registry, CcRegistryCoversEveryAlgorithm) {
  const auto& r = tcp::cc_registry();
  EXPECT_EQ(r.names_joined(),
            "tahoe|reno|newreno|cubic|vegas|bbr|fixed");
  EXPECT_EQ(*r.find("tahoe"), tcp::CcAlgorithm::kTahoe);
  EXPECT_EQ(*r.find("bbr"), tcp::CcAlgorithm::kBbr);
}

TEST(Registry, QdiscRegistryCoversEveryDiscipline) {
  const auto& r = net::qdisc_registry();
  EXPECT_EQ(r.names_joined(), "droptail|randomdrop|red|red-ecn|drr");
  ASSERT_NE(r.find("red-ecn"), nullptr);
  EXPECT_EQ(r.find("red-ecn")->kind, net::QdiscKind::kRed);
  EXPECT_TRUE(r.find("red-ecn")->ecn);
  EXPECT_FALSE(r.find("red")->ecn);
}

}  // namespace
}  // namespace tcpdyn::util
