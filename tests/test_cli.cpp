// Unit tests for the dependency-free CLI argument parser used by the
// ssp_* tools.

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"

namespace ssp::cli {
namespace {

/// Builds a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Cli, ParsesKeyValuePairs) {
  Argv a({"prog", "--in", "file.mtx", "--sigma2", "50"});
  ArgParser p("prog", "test");
  p.option("in", "input").option("sigma2", "target");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_EQ(p.get("in", ""), "file.mtx");
  EXPECT_DOUBLE_EQ(p.get_double("sigma2", 0.0), 50.0);
}

TEST(Cli, ParsesEqualsForm) {
  Argv a({"prog", "--sigma2=123.5", "--name=x"});
  ArgParser p("prog", "test");
  p.option("sigma2", "target").option("name", "a name");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_DOUBLE_EQ(p.get_double("sigma2", 0.0), 123.5);
  EXPECT_EQ(p.get("name", ""), "x");
}

TEST(Cli, BooleanFlags) {
  Argv a({"prog", "--verbose", "--out", "o.mtx"});
  ArgParser p("prog", "test");
  p.option("verbose", "flag").option("quiet", "flag").option("out", "output");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_TRUE(p.get_bool("verbose", false));
  EXPECT_FALSE(p.get_bool("quiet", false));
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_FALSE(p.has("quiet"));
}

TEST(Cli, TrailingFlagIsBoolean) {
  Argv a({"prog", "--check"});
  ArgParser p("prog", "test");
  p.option("check", "flag");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_TRUE(p.get_bool("check", false));
}

TEST(Cli, HelpReturnsFalse) {
  Argv a({"prog", "--help"});
  ArgParser p("prog", "test");
  EXPECT_FALSE(p.parse(a.argc(), a.argv()));
  Argv b({"prog", "-h"});
  ArgParser q("prog", "test");
  EXPECT_FALSE(q.parse(b.argc(), b.argv()));
}

TEST(Cli, UnknownFlagsThrowNamingTheFlag) {
  const auto parse = [](std::vector<std::string> argv) {
    Argv a(std::move(argv));
    ArgParser p("prog", "test");
    add_sparsify_options(p);
    add_dynamic_options(p);
    return p.parse(a.argc(), a.argv());
  };
  // Flags of retired options, and misspelt ones, fail instead of being
  // silently ignored.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"prog", "--inner-solver", "tree-pcg"}, "--inner-solver"},
       {{"prog", "--rebuild-threshold", "0.5"}, "--rebuild-threshold"},
       {{"prog", "--rebuild-threshold=0.5"}, "--rebuild-threshold"},
       {{"prog", "--sigma2", "9", "--sigma"}, "--sigma"}};
  for (const auto& [argv, flag] : cases) {
    try {
      parse(argv);
      ADD_FAILURE() << flag << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
  // --help / -h stay accepted next to registered flags.
  EXPECT_FALSE(parse({"prog", "--sigma2", "9", "--help"}));
  EXPECT_FALSE(parse({"prog", "-h"}));
}

/// The flag names usage() lists, one per "  --name" line.
std::vector<std::string> listed_flags(const ArgParser& p) {
  std::vector<std::string> flags;
  std::istringstream lines(p.usage());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  --", 0) != 0) continue;
    flags.push_back(line.substr(4, line.find(' ', 4) - 4));
  }
  return flags;
}

TEST(Cli, EveryRegisteredFlagParses) {
  // Every shared flag set plus ssp_sparsify's own flags.
  ArgParser p("prog", "test");
  p.option("in", "input").option("out", "output").option("progress", "p");
  p.option("kernels", "k");
  add_sparsify_options(p);
  add_partition_options(p);
  add_dynamic_options(p);
  add_outofcore_options(p);
  add_trace_option(p);
  add_serve_options(p);
  const std::vector<std::string> flags = listed_flags(p);
  ASSERT_GT(flags.size(), 20u);
  for (const std::string& flag : flags) {
    Argv a({"prog", "--" + flag, "1", "--" + flag + "=2"});
    ArgParser q = p;
    EXPECT_TRUE(q.parse(a.argc(), a.argv())) << flag;
    EXPECT_EQ(q.get(flag, ""), "2") << flag;
  }
}

TEST(Cli, RequireThrowsWhenMissing) {
  Argv a({"prog"});
  ArgParser p("prog", "test");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_THROW((void)p.require("in"), std::invalid_argument);
}

TEST(Cli, TypedGettersValidate) {
  Argv a({"prog", "--n", "abc"});
  ArgParser p("prog", "test");
  p.option("n", "count");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  EXPECT_THROW((void)p.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_double("n", 0.0), std::invalid_argument);
  EXPECT_EQ(p.get_int("missing", 7), 7);

  // Trailing characters and empty values are rejected, not truncated.
  for (const char* bad : {"5x", "1e3junk", ""}) {
    Argv b({"prog", "--n", bad});
    ArgParser q("prog", "test");
    q.option("n", "count");
    ASSERT_TRUE(q.parse(b.argc(), b.argv())) << bad;
    EXPECT_THROW((void)q.get_int("n", 0), std::invalid_argument) << bad;
    EXPECT_THROW((void)q.get_double("n", 0.0), std::invalid_argument) << bad;
  }
  Argv fraction({"prog", "--n", "0.1"});
  ArgParser f("prog", "test");
  f.option("n", "count");
  ASSERT_TRUE(f.parse(fraction.argc(), fraction.argv()));
  EXPECT_THROW((void)f.get_int("n", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(f.get_double("n", 0.0), 0.1);
}

TEST(Cli, PositionalArguments) {
  Argv a({"prog", "input.mtx", "--k", "3", "extra"});
  ArgParser p("prog", "test");
  p.option("k", "parts");
  ASSERT_TRUE(p.parse(a.argc(), a.argv()));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.mtx");
  EXPECT_EQ(p.positional()[1], "extra");
}

TEST(Cli, ServeOptionsDefaultsAndOverrides) {
  {
    Argv a({"prog"});
    ArgParser p("prog", "test");
    add_serve_options(p);
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    const serve::ServerConfig config = serve_config_from(p, DynamicOptions{});
    EXPECT_EQ(config.socket_path, "ssp_serve.sock");
    EXPECT_EQ(config.tcp_port, -1);  // unix socket is the default transport
    EXPECT_EQ(config.max_clients, 64);
    EXPECT_EQ(config.max_line_bytes, 65536u);
    EXPECT_EQ(config.serve.max_sessions, 64);
    EXPECT_EQ(config.serve.max_queued_batches, 8);
    EXPECT_DOUBLE_EQ(config.serve.drain_seconds, 5.0);
  }
  {
    Argv a({"prog", "--socket", "/tmp/s.sock", "--max-sessions", "4",
            "--max-queue", "2", "--max-clients", "8", "--max-line-bytes",
            "256", "--drain-timeout", "0.5"});
    ArgParser p("prog", "test");
    add_serve_options(p);
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    const serve::ServerConfig config = serve_config_from(p, DynamicOptions{});
    EXPECT_EQ(config.socket_path, "/tmp/s.sock");
    EXPECT_EQ(config.max_clients, 8);
    EXPECT_EQ(config.max_line_bytes, 256u);
    EXPECT_EQ(config.serve.max_sessions, 4);
    EXPECT_EQ(config.serve.max_queued_batches, 2);
    EXPECT_DOUBLE_EQ(config.serve.drain_seconds, 0.5);
  }
}

TEST(Cli, ServeTcpFlagForms) {
  {
    // `--tcp <port>` binds that loopback port.
    Argv a({"prog", "--tcp", "7077"});
    ArgParser p("prog", "test");
    add_serve_options(p);
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(serve_config_from(p, DynamicOptions{}).tcp_port, 7077);
  }
  {
    // Bare `--tcp` means "any ephemeral port".
    Argv a({"prog", "--tcp"});
    ArgParser p("prog", "test");
    add_serve_options(p);
    ASSERT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(serve_config_from(p, DynamicOptions{}).tcp_port, 0);
  }
}

TEST(Cli, ServeOptionsRejectOutOfRangeValues) {
  const auto config_of = [](std::vector<std::string> argv) {
    Argv a(std::move(argv));
    ArgParser p("prog", "test");
    add_serve_options(p);
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    return serve_config_from(p, DynamicOptions{});
  };
  EXPECT_THROW((void)config_of({"prog", "--tcp", "70000"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--socket="}), std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-sessions", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-queue", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-clients", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-line-bytes", "4"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--drain-timeout", "-1"}),
               std::invalid_argument);
  EXPECT_THROW((void)config_of({"prog", "--max-sessions", "lots"}),
               std::invalid_argument);
}

TEST(Cli, UsageListsOptions) {
  ArgParser p("prog", "does things");
  p.option("in", "input file").option("sigma2", "target", "100");
  const std::string u = p.usage();
  EXPECT_NE(u.find("--in"), std::string::npos);
  EXPECT_NE(u.find("default: 100"), std::string::npos);
  EXPECT_NE(u.find("does things"), std::string::npos);
}

}  // namespace
}  // namespace ssp::cli
