// Unit tests for the support layer: integer math, the iterated logarithm,
// RNG determinism and distributions, the decision tape, statistics, tables,
// the JSON writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "support/json.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace rts::support {
namespace {

TEST(Math, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0);
  EXPECT_EQ(log2_floor(2), 1);
  EXPECT_EQ(log2_floor(3), 1);
  EXPECT_EQ(log2_floor(4), 2);
  EXPECT_EQ(log2_floor(1023), 9);
  EXPECT_EQ(log2_floor(1024), 10);
  EXPECT_EQ(log2_floor(1ULL << 63), 63);
}

TEST(Math, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(2), 1);
  EXPECT_EQ(log2_ceil(3), 2);
  EXPECT_EQ(log2_ceil(4), 2);
  EXPECT_EQ(log2_ceil(5), 3);
  EXPECT_EQ(log2_ceil(1025), 11);
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

TEST(Math, LogStar) {
  EXPECT_EQ(log_star(1.0), 0);
  EXPECT_EQ(log_star(2.0), 1);
  EXPECT_EQ(log_star(4.0), 2);
  EXPECT_EQ(log_star(16.0), 3);
  EXPECT_EQ(log_star(65536.0), 4);
  EXPECT_EQ(log_star(1e19), 5);  // 2^65536 unreachable; anything sane is <= 5
}

TEST(Math, DeltaIterationsLogStarShape) {
  // With the Fig-1 rate r(j) = f(j) - 1 = 2 log j + 5, the hitting-time
  // iteration count grows like log*, i.e. stays tiny even for huge k.
  const auto rate = [](double j) {
    return j <= 1.0 ? 0.0 : 2.0 * std::log2(j) + 5.0;
  };
  const int at_256 = delta_iterations(256, rate);
  const int at_1m = delta_iterations(1 << 20, rate);
  EXPECT_GE(at_256, 1);
  EXPECT_LE(at_1m, at_256 + 3);  // log*-ish growth: nearly flat
  EXPECT_LE(at_1m, 12);
}

TEST(Math, Fig1PerformanceBound) {
  EXPECT_DOUBLE_EQ(fig1_performance_bound(1), 6.0);
  EXPECT_DOUBLE_EQ(fig1_performance_bound(2), 8.0);
  EXPECT_NEAR(fig1_performance_bound(1024), 2.0 * 10 + 6, 1e-9);
}

TEST(Rng, SplitMixDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(splitmix64(s1), splitmix64(s2) + 1);  // streams advanced equally
}

TEST(Rng, XoshiroDeterministicAndDistinct) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  Xoshiro256 c(8);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) all_equal_c = false;
  }
  EXPECT_FALSE(all_equal_c);
}

TEST(Rng, DrawIsUnbiasedAcrossRange) {
  PrngSource src(123);
  std::map<std::uint64_t, int> counts;
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) ++counts[src.draw(5)];
  ASSERT_EQ(counts.size(), 5u);
  for (const auto& [value, count] : counts) {
    EXPECT_LT(value, 5u);
    EXPECT_NEAR(count, trials / 5.0, trials * 0.02);
  }
}

TEST(Rng, DrawArityOneIsZero) {
  PrngSource src(9);
  EXPECT_EQ(src.draw(1), 0u);
}

TEST(Rng, GeometricTruncMatchesFig1Distribution) {
  PrngSource src(99);
  constexpr std::uint64_t kEll = 6;
  const int trials = 200000;
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < trials; ++i) ++counts[src.geometric_trunc(kEll)];
  // Pr(x = i) = 2^-i for i < ell; Pr(x = ell) = 2^-(ell-1).
  for (std::uint64_t i = 1; i < kEll; ++i) {
    const double expected = trials * std::pow(0.5, static_cast<double>(i));
    EXPECT_NEAR(counts[i], expected, trials * 0.01) << "i=" << i;
  }
  const double tail = trials * std::pow(0.5, static_cast<double>(kEll - 1));
  EXPECT_NEAR(counts[kEll], tail, trials * 0.01);
  EXPECT_EQ(counts.count(0), 0u);
  EXPECT_EQ(counts.count(kEll + 1), 0u);
}

TEST(Rng, TapeReplayAndNovelDecisions) {
  TapeSource fresh({});
  EXPECT_EQ(fresh.draw(3), 0u);  // novel decisions take value 0
  EXPECT_EQ(fresh.geometric_trunc(4), 1u);
  ASSERT_EQ(fresh.history().size(), 2u);
  EXPECT_EQ(fresh.history()[0].arity, 3u);
  EXPECT_EQ(fresh.history()[1].arity, 4u);

  TapeSource replay({{3, 2}, {4, 3}});
  EXPECT_EQ(replay.draw(3), 2u);
  EXPECT_EQ(replay.geometric_trunc(4), 4u);  // value 3 -> outcome 4
}

TEST(Rng, DeriveSeedSpreadsStreams) {
  const auto a = derive_seed(1, 0);
  const auto b = derive_seed(1, 1);
  const auto c = derive_seed(2, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 4.0);
  EXPECT_GT(acc.ci95_half_width(), 0.0);
}

TEST(Stats, SummarizeEmpty) {
  Accumulator acc;
  const Summary s = summarize(acc);
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Table, AlignedOutputContainsData) {
  Table t("demo", {"k", "steps"});
  t.add_row({"1", "3.14"});
  t.add_row({"1024", "2.71"});
  EXPECT_EQ(t.rows(), 2u);

  char buffer[4096] = {};
  std::FILE* mem = fmemopen(buffer, sizeof buffer, "w");
  ASSERT_NE(mem, nullptr);
  t.print(mem);
  std::fclose(mem);
  const std::string out(buffer);
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  EXPECT_NE(out.find("2.71"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t("demo", {"a", "b"});
  t.add_row({"1", "2"});
  char buffer[1024] = {};
  std::FILE* mem = fmemopen(buffer, sizeof buffer, "w");
  ASSERT_NE(mem, nullptr);
  t.print_csv(mem);
  std::fclose(mem);
  EXPECT_STREQ(buffer, "a,b\n1,2\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<std::size_t>(42)), "42");
}

TEST(Json, CommasOnlyBetweenSiblings) {
  JsonWriter json;
  json.begin_object().field("a", 1).object("empty").end_object();
  json.array("list").value(1).value("x").end_array();
  json.array("none").end_array().object("o").field("b", false).end_object();
  json.end_object().raw("\n").begin_object().end_object();
  EXPECT_EQ(json.str(),
            "{\"a\":1,\"empty\":{},\"list\":[1,\"x\"],\"none\":[],"
            "\"o\":{\"b\":false}}\n{}");
}

TEST(Json, ScalarsPrintExactly) {
  JsonWriter json;
  json.begin_object()
      .array("v")
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(static_cast<std::size_t>(7))
      .value(-3)
      .value(true)
      .value(0.1)
      .value(2.0)
      .value(1e-5)
      .end_array()
      .end_object();
  EXPECT_EQ(json.str(),
            "{\"v\":[18446744073709551615,-9223372036854775808,7,-3,true,"
            "0.1,2,1e-05]}");
  EXPECT_EQ(fmt_double(22.0 / 3.0), "7.333333333");
  EXPECT_EQ(hex64(0xc0ffee), "0000000000c0ffee");
}

TEST(Json, StringsAndKeysAreEscaped) {
  JsonWriter json;
  json.begin_object()
      .field("k\"ey", std::string("a\"b\\c\nd\te\x01"))
      .end_object();
  EXPECT_EQ(json.str(), "{\"k\\\"ey\":\"a\\\"b\\\\c\\nd\\u0009e\\u0001\"}");
}

TEST(Json, RawNeverPlacesAComma) {
  JsonWriter json;
  json.raw("{\n  ").key("schema").raw(" ").value("s");
  json.raw(",\n  ").key("n").raw(" ").value(2);
  json.raw("\n}\n");
  EXPECT_EQ(json.str(), "{\n  \"schema\": \"s\",\n  \"n\": 2\n}\n");
}

}  // namespace
}  // namespace rts::support
