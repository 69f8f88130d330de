// Pins the bench-option flag contract: an unknown `--flag` is rejected
// with exit code 2 and a stderr message naming the offending flag, while
// declared extra flags and the common set keep parsing; a numeric flag
// value must parse whole, or common::Flags throws std::invalid_argument
// naming the flag and the value (which ScenarioRegistry::run_main turns
// into exit 2, see scenario_registry_test). The rest of common::Flags is
// pinned by common_test; this suite covers the eval::BenchOptions layer
// every scenario goes through.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/parallel.h"
#include "eval/bench_options.h"

namespace poiprivacy::eval {
namespace {

TEST(BenchOptionsDeathTest, UnknownFlagExitsWithCode2NamingTheFlag) {
  const char* argv[] = {"prog", "--bogus", "7"};
  EXPECT_EXIT(BenchOptions(3, argv), testing::ExitedWithCode(2),
              "unknown flag: --bogus");
}

TEST(BenchOptionsDeathTest, UndeclaredExtraFlagExitsWithCode2) {
  // `--r` is only legal for scenarios that declare it as an extra flag.
  const char* argv[] = {"prog", "--r", "2.5"};
  EXPECT_EXIT(BenchOptions(3, argv), testing::ExitedWithCode(2),
              "unknown flag: --r");
}

TEST(BenchOptionsDeathTest, UnknownFlagErrorIncludesUsage) {
  const char* argv[] = {"prog", "--typo"};
  EXPECT_EXIT(BenchOptions(2, argv), testing::ExitedWithCode(2),
              "usage: prog");
}

TEST(BenchOptions, DeclaredExtraFlagParses) {
  const char* argv[] = {"prog", "--r", "2.5", "--seed", "7"};
  const BenchOptions options(5, argv, {"r"});
  EXPECT_EQ(options.flags.get("r", 0.0), 2.5);
  EXPECT_EQ(options.seed, 7u);
}

TEST(BenchOptions, CommonFlagsKeepTheirDefaults) {
  const char* argv[] = {"prog"};
  const BenchOptions options(1, argv);
  EXPECT_EQ(options.seed, 42u);
  EXPECT_EQ(options.locations, 250u);
  EXPECT_FALSE(options.full);
}

/// The std::invalid_argument message of `get` on `--name value`, or ""
/// when it parses.
template <typename T>
std::string numeric_get_error(const char* name, const char* value) {
  const std::string flag = std::string("--") + name;
  const char* argv[] = {"prog", flag.c_str(), value};
  const common::Flags flags(3, argv);
  try {
    flags.get(name, T{});
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(FlagValues, GarbageIsRejectedNamingFlagAndValue) {
  EXPECT_EQ(numeric_get_error<std::int64_t>("seed", "banana"),
            "invalid value for --seed: 'banana'");
  EXPECT_EQ(numeric_get_error<double>("eps", "banana"),
            "invalid value for --eps: 'banana'");
  EXPECT_NE(numeric_get_error<std::int64_t>("seed", ""), "");
}

TEST(FlagValues, TrailingJunkIsRejected) {
  EXPECT_EQ(numeric_get_error<std::int64_t>("seed", "12abc"),
            "invalid value for --seed: '12abc'");
  EXPECT_EQ(numeric_get_error<double>("eps", "0.5x"),
            "invalid value for --eps: '0.5x'");
  EXPECT_NE(numeric_get_error<std::int64_t>("threads", "2.5"), "");
}

TEST(FlagValues, OutOfRangeIsRejected) {
  EXPECT_EQ(numeric_get_error<std::int64_t>("seed", "99999999999999999999"),
            "invalid value for --seed: '99999999999999999999'");
  EXPECT_EQ(numeric_get_error<double>("eps", "1e999"),
            "invalid value for --eps: '1e999'");
}

TEST(FlagValues, WellFormedNumbersParse) {
  const char* argv[] = {"prog", "--seed", "-12", "--eps", "2.5e-1"};
  const common::Flags flags(5, argv);
  EXPECT_EQ(flags.get("seed", std::int64_t{0}), -12);
  EXPECT_EQ(flags.get("eps", 0.0), 0.25);
}

TEST(FlagValues, ThreadsOutOfRangeThrowsAndLeavesTheDefault) {
  const std::size_t before = common::default_thread_count();
  for (const char* value : {"-1", "257", "100000"}) {
    const char* argv[] = {"prog", "--threads", value};
    const common::Flags flags(3, argv);
    try {
      flags.apply_threads_flag();
      ADD_FAILURE() << "--threads " << value << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("invalid value for --threads: '") + value +
                    "' (expected 0..256)");
    }
    EXPECT_EQ(common::default_thread_count(), before) << value;
  }
}

TEST(RunMain, HelpSkipsTheBodyAndBadValuesExit2) {
  int runs = 0;
  const auto body = [&](const common::Flags& flags) {
    ++runs;
    return static_cast<int>(flags.get("seed", std::int64_t{0}));
  };
  const char* ok[] = {"prog", "--seed", "7"};
  EXPECT_EQ(common::run_main(3, ok, {"seed"}, body), 7);
  const char* help[] = {"prog", "--help"};
  EXPECT_EQ(common::run_main(2, help, {"seed"}, body), 0);
  const char* garbage[] = {"prog", "--seed", "banana"};
  EXPECT_EQ(common::run_main(3, garbage, {"seed"}, body), 2);
  const char* unknown[] = {"prog", "--sed", "7"};
  EXPECT_EQ(common::run_main(3, unknown, {"seed"}, body), 2);
  EXPECT_EQ(runs, 2);  // --help and the unknown flag never reach the body
}

}  // namespace
}  // namespace poiprivacy::eval
