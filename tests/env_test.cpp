// EnvU64: the one checked parser behind QCNT_FAULT_SEED, QCNT_E20_KEYS and
// QCNT_TCP_PORT_BASE. Contract: strict base-10, full-string match, range
// checked — anything else reads as "not set" so a typo'd variable can
// never smuggle a half-parsed value into a test matrix.
#include "common/env.hpp"

#include <cstdlib>
#include <limits>

#include <gtest/gtest.h>

namespace qcnt::common {
namespace {

constexpr char kVar[] = "QCNT_ENV_TEST_VAR";

struct EnvGuard {
  ~EnvGuard() { ::unsetenv(kVar); }
  void Set(const char* v) { ::setenv(kVar, v, 1); }
};

TEST(EnvU64, UnsetIsNullopt) {
  EnvGuard g;
  ::unsetenv(kVar);
  EXPECT_FALSE(EnvU64(kVar, 0, 100).has_value());
}

TEST(EnvU64, EmptyIsNullopt) {
  EnvGuard g;
  g.Set("");
  EXPECT_FALSE(EnvU64(kVar, 0, 100).has_value());
}

TEST(EnvU64, ParsesInRange) {
  EnvGuard g;
  g.Set("42");
  auto v = EnvU64(kVar, 1, 64);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42u);
}

TEST(EnvU64, BoundsAreInclusive) {
  EnvGuard g;
  g.Set("1");
  EXPECT_EQ(EnvU64(kVar, 1, 64), 1u);
  g.Set("64");
  EXPECT_EQ(EnvU64(kVar, 1, 64), 64u);
}

TEST(EnvU64, OutOfRangeIsNullopt) {
  EnvGuard g;
  g.Set("0");
  EXPECT_FALSE(EnvU64(kVar, 1, 64).has_value());
  g.Set("65");
  EXPECT_FALSE(EnvU64(kVar, 1, 64).has_value());
}

TEST(EnvU64, GarbageIsNullopt) {
  EnvGuard g;
  for (const char* bad : {"abc", "12abc", "12 ", " 12", "0x10", "1.5",
                          "--3", "12,000"}) {
    g.Set(bad);
    EXPECT_FALSE(EnvU64(kVar, 0, 1u << 20).has_value()) << "input: " << bad;
  }
}

TEST(EnvU64, SignsAreRejected) {
  // strtoull would happily wrap "-1" to 2^64-1; the helper must not.
  EnvGuard g;
  g.Set("-1");
  EXPECT_FALSE(
      EnvU64(kVar, 0, std::numeric_limits<std::uint64_t>::max()).has_value());
  g.Set("+5");
  EXPECT_FALSE(EnvU64(kVar, 0, 100).has_value());
}

TEST(EnvU64, OverflowIsNullopt) {
  EnvGuard g;
  g.Set("99999999999999999999999999");  // > 2^64
  EXPECT_FALSE(
      EnvU64(kVar, 0, std::numeric_limits<std::uint64_t>::max()).has_value());
}

TEST(EnvU64, FullU64RangeParses) {
  EnvGuard g;
  g.Set("18446744073709551615");  // 2^64 - 1
  auto v = EnvU64(kVar, 0, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace qcnt::common
