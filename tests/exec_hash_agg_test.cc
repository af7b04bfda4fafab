// Typed hash aggregation through the executor at W = 1/2/8: every case
// must give bit-identical rows at each worker count and match the naive
// string-keyed ReferenceSumBy (exec/reference.cc), which shares no code
// with the operator. Values are small multiples of powers of two, so sums
// are exact in any order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "exec/executor.h"
#include "exec/hash_agg_op.h"
#include "exec/reference.h"
#include "exec/scan_op.h"

namespace eedc::exec {
namespace {

using storage::Column;
using storage::DataType;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

using Row = std::vector<std::string>;

/// Each row as exact cell encodings (int64 and double by their 8 bytes,
/// strings as they are), rows sorted. A NaN is encoded by its sign only:
/// groups keep the first-seen NaN of their sign, and which one a worker
/// sees first depends on the morsel race.
std::vector<Row> ExactRows(const Table& t) {
  const auto bytes = [](char type, std::uint64_t bits) {
    std::string cell(1, type);
    cell.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
    return cell;
  };
  std::vector<Row> rows(t.num_rows());
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      switch (col.type()) {
        case DataType::kInt64:
          rows[r].push_back(
              bytes('i', static_cast<std::uint64_t>(col.Int64At(r))));
          break;
        case DataType::kDouble: {
          const double d = col.DoubleAt(r);
          rows[r].push_back(
              std::isnan(d) ? std::string(std::signbit(d) ? "-nan" : "+nan")
                            : bytes('d', std::bit_cast<std::uint64_t>(d)));
          break;
        }
        case DataType::kString:
          rows[r].push_back("s" + col.StringAt(r));
          break;
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// GROUP BY `group_by` over `input` on one node with `workers` pipelines
/// and 64-row morsels, so partials interleave heavily.
Table RunAgg(const TablePtr& input, const std::vector<std::string>& group_by,
             const std::vector<AggSpec>& aggs, int workers) {
  ClusterData cluster(1);
  cluster.LoadReplicated("t", input);
  Executor::Options options;
  options.workers_per_node = workers;
  options.morsel_rows = 64;
  Executor executor(&cluster, options);
  auto result = executor.Execute(HashAggPlan(ScanPlan("t"), group_by, aggs));
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return Table(Schema({}));
  return std::move(result->table);
}

/// Runs the aggregation at W = 1/2/8, requires bit-identical rows at every
/// W, and returns the W = 1 result.
Table RunAtEveryW(const TablePtr& input,
                  const std::vector<std::string>& group_by,
                  const std::vector<AggSpec>& aggs) {
  Table w1 = RunAgg(input, group_by, aggs, 1);
  const std::vector<Row> want = ExactRows(w1);
  for (int workers : {2, 8}) {
    EXPECT_EQ(ExactRows(RunAgg(input, group_by, aggs, workers)), want)
        << "workers=" << workers;
  }
  return w1;
}

/// SUM(v), COUNT(*) GROUP BY `group_by` at every W, checked against
/// ReferenceSumBy (same layout: group columns, sum, count).
Table ExpectSumCountMatchesReference(const TablePtr& input,
                                     const std::vector<std::string>& group_by) {
  Table got = RunAtEveryW(input, group_by,
                          {AggSpec::Sum(Col("v"), "sum"),
                           AggSpec::Count("count")});
  auto want = ReferenceSumBy(*input, group_by, "v");
  EXPECT_TRUE(want.ok()) << want.status();
  if (want.ok()) {
    EXPECT_EQ(ExactRows(got), ExactRows(*want));
  }
  return got;
}

TablePtr MakeTable(const Schema& schema, std::size_t rows,
                   const std::function<std::vector<Value>(std::size_t)>& row) {
  auto t = std::make_shared<Table>(schema);
  t->Reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) t->AppendRow(row(i));
  return t;
}

TEST(HashAggOpTest, ThreeInt64KeysWithManyGroupsGrowTheTable) {
  constexpr std::size_t kGroups = 110'000;
  const TablePtr t = MakeTable(
      Schema({Field{"a", DataType::kInt64, 8}, Field{"b", DataType::kInt64, 8},
              Field{"c", DataType::kInt64, 8},
              Field{"v", DataType::kDouble, 8}}),
      2 * kGroups, [](std::size_t i) -> std::vector<Value> {
        // Every group twice, the second time far from the first.
        const auto g = static_cast<std::int64_t>(i % kGroups);
        return {g / 1000, g % 1000 - 500,
                g * 1'000'003 - std::numeric_limits<std::int64_t>::max() / 2,
                static_cast<double>(i % 17) * 0.25};
      });
  const Table got = ExpectSumCountMatchesReference(t, {"a", "b", "c"});
  EXPECT_EQ(got.num_rows(), kGroups);
}

TEST(HashAggOpTest, DoubleKeysKeepSignedZerosApartAndGroupNaNsBySign) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double payload_nan =
      std::bit_cast<double>(std::uint64_t{0x7FF8000000000123ULL});
  const double keys[] = {0.0,
                         -0.0,
                         1.5,
                         -1.5,
                         nan,
                         payload_nan,
                         -nan,
                         -payload_nan,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::denorm_min(),
                         1e300};
  const TablePtr t = MakeTable(
      Schema({Field{"k", DataType::kDouble, 8},
              Field{"v", DataType::kDouble, 8}}),
      6000, [&keys](std::size_t i) -> std::vector<Value> {
        return {keys[i % 12], static_cast<double>(i % 5) - 2.0};
      });
  const Table got = ExpectSumCountMatchesReference(t, {"k"});
  // 12 keys, two NaN payloads per sign folded together.
  ASSERT_EQ(got.num_rows(), 10u);
  int pos_zero = 0, neg_zero = 0, pos_nan = 0, neg_nan = 0;
  for (std::size_t r = 0; r < got.num_rows(); ++r) {
    const double k = got.column(0).DoubleAt(r);
    if (k == 0.0) (std::signbit(k) ? neg_zero : pos_zero)++;
    if (std::isnan(k)) {
      (std::signbit(k) ? neg_nan : pos_nan)++;
      EXPECT_EQ(got.column(2).Int64At(r), 1000);  // both payloads' rows
    }
  }
  EXPECT_EQ(pos_zero, 1);
  EXPECT_EQ(neg_zero, 1);
  EXPECT_EQ(pos_nan, 1);
  EXPECT_EQ(neg_nan, 1);
}

TEST(HashAggOpTest, NaNGroupKeepsItsFirstSeenKey) {
  // One pipeline sees the rows in order, so each NaN group's key is the
  // first NaN of its sign, payload and all.
  const double first = std::bit_cast<double>(0xFFF800000000BEEFULL);
  const double later = std::bit_cast<double>(0xFFF8000000000001ULL);
  const TablePtr t = MakeTable(
      Schema({Field{"k", DataType::kDouble, 8},
              Field{"v", DataType::kDouble, 8}}),
      4, [&](std::size_t i) -> std::vector<Value> {
        return {i % 2 == 0 ? first : later, 1.0};
      });
  auto agg = HashAggOp::Create(std::make_unique<ScanOp>(t, nullptr), {"k"},
                               {AggSpec::Count("n")}, nullptr);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE((*agg)->Open().ok());
  auto block = (*agg)->Next();
  ASSERT_TRUE(block.ok() && block->has_value());
  ASSERT_EQ((*block)->size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>((*block)->column(0).DoubleAt(0)),
            0xFFF800000000BEEFULL);
  EXPECT_EQ((*block)->column(1).Int64At(0), 4);
}

TEST(HashAggOpTest, LongStringKeysDifferingAfterByteSeven) {
  std::vector<std::string> keys = {"",         "a",         "abcdefg",
                                   "abcdefgh", "abcdefgi",  "abcdefgh1",
                                   "abcdefgh2", std::string("a\0b", 3),
                                   std::string("a\0c", 3),
                                   "a string well past the inline width"};
  // Enough distinct long strings to grow the dictionary several times.
  for (int i = 0; i < 300; ++i) keys.push_back(StrFormat("Customer#%09d", i));
  const TablePtr t = MakeTable(
      Schema({Field{"s", DataType::kString, 8},
              Field{"v", DataType::kDouble, 8}}),
      20 * keys.size(), [&keys](std::size_t i) -> std::vector<Value> {
        return {keys[(i * 7) % keys.size()], static_cast<double>(i % 9)};
      });
  const Table got = ExpectSumCountMatchesReference(t, {"s"});
  EXPECT_EQ(got.num_rows(), keys.size());
}

TEST(HashAggOpTest, MixedInt64StringDoubleKey) {
  const char* strings[] = {"x", "longer than seven", "longer than sevenZ"};
  const double doubles[] = {0.5, -0.0, 0.0, 1e-300, -2.75};
  const TablePtr t = MakeTable(
      Schema({Field{"k", DataType::kInt64, 8},
              Field{"s", DataType::kString, 8},
              Field{"d", DataType::kDouble, 8},
              Field{"v", DataType::kInt64, 8}}),
      10'000, [&](std::size_t i) -> std::vector<Value> {
        return {static_cast<std::int64_t>(i % 7) - 3,
                std::string(strings[i % 3]), doubles[i % 5],
                static_cast<std::int64_t>(i % 11) - 5};
      });
  const Table got = ExpectSumCountMatchesReference(t, {"k", "s", "d"});
  EXPECT_EQ(got.num_rows(), 7u * 3u * 5u);
}

TEST(HashAggOpTest, MinMaxCountTogether) {
  const TablePtr t = MakeTable(
      Schema({Field{"tag", DataType::kString, 1},
              Field{"k", DataType::kInt64, 8},
              Field{"v", DataType::kDouble, 8}}),
      9000, [](std::size_t i) -> std::vector<Value> {
        const auto j = static_cast<std::int64_t>((i * 7919) % 9000);
        return {std::string(1, static_cast<char>('a' + i % 4)), j - 4500,
                static_cast<double>(j) * 0.125 - 100.0};
      });
  const Table got = RunAtEveryW(
      t, {"tag"},
      {AggSpec::Min(Col("v"), "min_v"), AggSpec::Count("n"),
       AggSpec::Max(Col("v"), "max_v"), AggSpec::Min(Col("k"), "min_k"),
       AggSpec::Max(Col("k"), "max_k"), AggSpec::Sum(Col("k"), "sum_k")});
  // Naive per-tag expectations.
  struct Expect {
    double min_v = std::numeric_limits<double>::infinity();
    double max_v = -std::numeric_limits<double>::infinity();
    std::int64_t min_k = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_k = std::numeric_limits<std::int64_t>::min();
    std::int64_t n = 0;
    std::int64_t sum_k = 0;
  };
  std::map<std::string, Expect> want;
  for (std::size_t i = 0; i < t->num_rows(); ++i) {
    Expect& e = want[t->column(0).StringAt(i)];
    const double v = t->column(2).DoubleAt(i);
    const std::int64_t k = t->column(1).Int64At(i);
    e.min_v = std::min(e.min_v, v);
    e.max_v = std::max(e.max_v, v);
    e.min_k = std::min(e.min_k, k);
    e.max_k = std::max(e.max_k, k);
    e.sum_k += k;
    ++e.n;
  }
  ASSERT_EQ(got.num_rows(), want.size());
  for (std::size_t r = 0; r < got.num_rows(); ++r) {
    const Expect& e = want.at(got.column(0).StringAt(r));
    EXPECT_EQ(got.column(1).DoubleAt(r), e.min_v);
    EXPECT_EQ(got.column(2).Int64At(r), e.n);
    EXPECT_EQ(got.column(3).DoubleAt(r), e.max_v);
    EXPECT_EQ(got.column(4).DoubleAt(r), static_cast<double>(e.min_k));
    EXPECT_EQ(got.column(5).DoubleAt(r), static_cast<double>(e.max_k));
    EXPECT_EQ(got.column(6).DoubleAt(r), static_cast<double>(e.sum_k));
  }
  // SUM and COUNT of the same input also match the reference.
  ExpectSumCountMatchesReference(t, {"tag"});
}

TEST(HashAggOpTest, EmptyGroupedAndGlobalInputAtEveryW) {
  const TablePtr empty = std::make_shared<Table>(
      Schema({Field{"k", DataType::kInt64, 8},
              Field{"v", DataType::kDouble, 8}}));
  EXPECT_EQ(ExpectSumCountMatchesReference(empty, {"k"}).num_rows(), 0u);
  const Table global = RunAtEveryW(
      empty, {},
      {AggSpec::Sum(Col("v"), "s"), AggSpec::Count("n"),
       AggSpec::Min(Col("v"), "lo"), AggSpec::Max(Col("k"), "hi")});
  ASSERT_EQ(global.num_rows(), 1u);
  EXPECT_EQ(global.column(0).DoubleAt(0), 0.0);
  EXPECT_EQ(global.column(1).Int64At(0), 0);
  EXPECT_EQ(global.column(2).DoubleAt(0), 0.0);
  EXPECT_EQ(global.column(3).DoubleAt(0), 0.0);
}

}  // namespace
}  // namespace eedc::exec
