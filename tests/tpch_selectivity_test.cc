#include "tpch/selectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tpch/dbgen.h"

namespace eedc::tpch {
namespace {

class SelectivitySweep : public ::testing::TestWithParam<double> {};

TEST_P(SelectivitySweep, ThresholdAchievesRequestedFraction) {
  // The paper's knobs: 1%, 10%, 50%, 100% on O_CUSTKEY and L_SHIPDATE.
  DbgenOptions opts;
  opts.scale_factor = 0.005;
  const TpchDatabase db = GenerateDatabase(opts);
  const double want = GetParam();

  for (const auto& [table, column] :
       std::vector<std::pair<storage::TablePtr, std::string>>{
           {db.orders, "o_custkey"}, {db.lineitem, "l_shipdate"}}) {
    auto threshold = ThresholdForSelectivity(*table, column, want);
    ASSERT_TRUE(threshold.ok());
    auto got = AchievedSelectivity(*table, column, *threshold);
    ASSERT_TRUE(got.ok());
    EXPECT_NEAR(*got, want, 0.02) << column;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperSelectivities, SelectivitySweep,
                         ::testing::Values(0.01, 0.05, 0.10, 0.50, 1.00));

TEST(SelectivityTest, FullSelectivityPassesEverything) {
  DbgenOptions opts;
  opts.scale_factor = 0.001;
  const TpchDatabase db = GenerateDatabase(opts);
  auto threshold = ThresholdForSelectivity(*db.orders, "o_custkey", 1.0);
  ASSERT_TRUE(threshold.ok());
  EXPECT_DOUBLE_EQ(
      AchievedSelectivity(*db.orders, "o_custkey", *threshold).value(),
      1.0);
}

TEST(SelectivityTest, ZeroSelectivityPassesAlmostNothing) {
  DbgenOptions opts;
  opts.scale_factor = 0.001;
  const TpchDatabase db = GenerateDatabase(opts);
  auto threshold = ThresholdForSelectivity(*db.orders, "o_custkey", 0.0);
  ASSERT_TRUE(threshold.ok());
  EXPECT_LT(
      AchievedSelectivity(*db.orders, "o_custkey", *threshold).value(),
      0.01);
}

TEST(SelectivityTest, RejectsBadInput) {
  DbgenOptions opts;
  opts.scale_factor = 0.001;
  const TpchDatabase db = GenerateDatabase(opts);
  EXPECT_FALSE(ThresholdForSelectivity(*db.orders, "o_custkey", 1.5).ok());
  EXPECT_FALSE(ThresholdForSelectivity(*db.orders, "missing", 0.5).ok());
  // Double column rejected.
  EXPECT_FALSE(
      ThresholdForSelectivity(*db.orders, "o_totalprice", 0.5).ok());
  storage::Table empty(db.orders->schema());
  EXPECT_FALSE(ThresholdForSelectivity(empty, "o_custkey", 0.5).ok());
}

TEST(SelectivityTest, MonotoneInFraction) {
  DbgenOptions opts;
  opts.scale_factor = 0.002;
  const TpchDatabase db = GenerateDatabase(opts);
  std::int64_t prev = std::numeric_limits<std::int64_t>::min();
  for (double f : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    auto t = ThresholdForSelectivity(*db.lineitem, "l_shipdate", f);
    ASSERT_TRUE(t.ok());
    EXPECT_GE(*t, prev);
    prev = *t;
  }
}

TEST(SelectivityTest, ThresholdIsTheOrderStatisticOfAFullSort) {
  DbgenOptions opts;
  opts.scale_factor = 0.005;
  const TpchDatabase db = GenerateDatabase(opts);
  // o_orderkey's values are distinct, so a neighbouring order statistic
  // would differ; the other two columns repeat values.
  for (const auto& [table, column] :
       std::vector<std::pair<storage::TablePtr, std::string>>{
           {db.orders, "o_orderkey"},
           {db.orders, "o_custkey"},
           {db.lineitem, "l_shipdate"}}) {
    const auto values = table->ColumnByName(column).value()->int64s();
    std::vector<std::int64_t> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    for (double f : {0.0, 1e-6, 0.13, 0.5, 0.999, 1.0}) {
      const auto idx = static_cast<std::size_t>(
          std::llround(f * static_cast<double>(sorted.size())));
      const std::int64_t want =
          f >= 1.0 ? sorted.back() + 1
                   : sorted[std::min(idx, sorted.size() - 1)];
      EXPECT_EQ(ThresholdForSelectivity(*table, column, f).value(), want)
          << column << " at " << f;
    }
  }
}

}  // namespace
}  // namespace eedc::tpch
