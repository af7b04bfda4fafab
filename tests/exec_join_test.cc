#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/hash_join_op.h"
#include "exec/reference.h"
#include "exec/scan_op.h"
#include "storage/schema.h"

namespace eedc::exec {
namespace {

using storage::DataType;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::TablePtr;

TablePtr MakeOrders(int n) {
  auto t = std::make_shared<Table>(Schema(
      {Field{"o_key", DataType::kInt64, 5},
       Field{"o_val", DataType::kDouble, 5}}));
  for (int i = 0; i < n; ++i) {
    t->AppendRow({static_cast<std::int64_t>(i), i * 1.0});
  }
  return t;
}

TablePtr MakeLines(int orders, int lines_per_order) {
  auto t = std::make_shared<Table>(Schema(
      {Field{"l_key", DataType::kInt64, 5},
       Field{"l_qty", DataType::kInt64, 5}}));
  for (int o = 0; o < orders; ++o) {
    for (int l = 0; l < lines_per_order; ++l) {
      t->AppendRow(
          {static_cast<std::int64_t>(o), static_cast<std::int64_t>(l)});
    }
  }
  return t;
}

Table Drain(Operator& op) {
  EXPECT_TRUE(op.Open().ok());
  Table out(op.schema());
  while (true) {
    auto block = op.Next();
    EXPECT_TRUE(block.ok()) << block.status();
    if (!block.value().has_value()) break;
    block.value()->AppendLiveRowsTo(&out);
  }
  EXPECT_TRUE(op.Close().ok());
  return out;
}

StatusOr<OperatorPtr> MakeJoin(TablePtr build, TablePtr probe,
                               NodeMetrics* metrics,
                               double budget = 0.0) {
  HashJoinOp::Options options;
  options.memory_budget_bytes = budget;
  return HashJoinOp::Create(
      std::make_unique<ScanOp>(std::move(build), metrics),
      std::make_unique<ScanOp>(std::move(probe), metrics), "o_key",
      "l_key", options, metrics);
}

TEST(HashJoinOpTest, OneToManyJoin) {
  NodeMetrics metrics;
  auto join = MakeJoin(MakeOrders(100), MakeLines(100, 3), &metrics);
  ASSERT_TRUE(join.ok());
  const Table out = Drain(**join);
  EXPECT_EQ(out.num_rows(), 300u);
  // Output layout: probe columns then build columns.
  EXPECT_EQ(out.schema().field(0).name, "l_key");
  EXPECT_EQ(out.schema().field(2).name, "o_key");
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_EQ(out.column(0).Int64At(i), out.column(2).Int64At(i));
    EXPECT_DOUBLE_EQ(out.column(3).DoubleAt(i),
                     out.column(0).Int64At(i) * 1.0);
  }
  EXPECT_DOUBLE_EQ(metrics.build_rows, 100.0);
  EXPECT_DOUBLE_EQ(metrics.probe_rows, 300.0);
  EXPECT_DOUBLE_EQ(metrics.join_output_rows, 300.0);
  EXPECT_GT(metrics.hash_table_bytes, 0.0);
}

TEST(HashJoinOpTest, NoMatches) {
  auto orders = MakeOrders(10);
  auto far_lines = std::make_shared<Table>(Schema(
      {Field{"l_key", DataType::kInt64, 5},
       Field{"l_qty", DataType::kInt64, 5}}));
  far_lines->AppendRow({std::int64_t{999}, std::int64_t{1}});
  auto join = MakeJoin(orders, far_lines, nullptr);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(Drain(**join).num_rows(), 0u);
}

TEST(HashJoinOpTest, EmptyBuildSide) {
  auto join = MakeJoin(MakeOrders(0), MakeLines(5, 2), nullptr);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(Drain(**join).num_rows(), 0u);
}

TEST(HashJoinOpTest, EmptyProbeSide) {
  auto join = MakeJoin(MakeOrders(5), MakeLines(0, 0), nullptr);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(Drain(**join).num_rows(), 0u);
}

TEST(HashJoinOpTest, MatchesReferenceJoin) {
  auto build = MakeOrders(200);
  auto probe = MakeLines(250, 2);  // probe keys 200..249 find no match
  auto join = MakeJoin(build, probe, nullptr);
  ASSERT_TRUE(join.ok());
  const Table got = Drain(**join);
  auto want = ReferenceHashJoin(*build, *probe, "o_key", "l_key");
  ASSERT_TRUE(want.ok());
  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(got, *want, 1e-9, &diff)) << diff;
}

TEST(HashJoinOpTest, DuplicateBuildKeysProduceCrossProduct) {
  auto build = std::make_shared<Table>(Schema(
      {Field{"o_key", DataType::kInt64, 5},
       Field{"o_val", DataType::kDouble, 5}}));
  build->AppendRow({std::int64_t{1}, 10.0});
  build->AppendRow({std::int64_t{1}, 20.0});
  auto probe = std::make_shared<Table>(Schema(
      {Field{"l_key", DataType::kInt64, 5},
       Field{"l_qty", DataType::kInt64, 5}}));
  probe->AppendRow({std::int64_t{1}, std::int64_t{7}});
  probe->AppendRow({std::int64_t{1}, std::int64_t{8}});
  auto join = MakeJoin(build, probe, nullptr);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(Drain(**join).num_rows(), 4u);
}

TEST(HashJoinOpTest, MemoryBudgetEnforcesHPredicate) {
  // A tiny budget must trip the paper's H predicate (no 2-pass joins).
  NodeMetrics metrics;
  auto join =
      MakeJoin(MakeOrders(100000), MakeLines(10, 1), &metrics, 1024.0);
  ASSERT_TRUE(join.ok());
  Status st = (*join)->Open();
  EXPECT_TRUE(st.code() == StatusCode::kResourceExhausted) << st;
}

TEST(HashJoinOpTest, GenerousBudgetSucceeds) {
  auto join = MakeJoin(MakeOrders(1000), MakeLines(1000, 1), nullptr,
                       64.0 * 1024 * 1024);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(Drain(**join).num_rows(), 1000u);
}

TEST(HashJoinOpTest, AmbiguousOutputNamesRejected) {
  auto a = MakeOrders(1);
  auto join = HashJoinOp::Create(std::make_unique<ScanOp>(a, nullptr),
                                 std::make_unique<ScanOp>(a, nullptr),
                                 "o_key", "o_key", {}, nullptr);
  EXPECT_FALSE(join.ok());
}

TEST(HashJoinOpTest, NonIntegerKeysRejected) {
  auto build = MakeOrders(1);
  auto probe = MakeLines(1, 1);
  EXPECT_FALSE(HashJoinOp::Create(
                   std::make_unique<ScanOp>(build, nullptr),
                   std::make_unique<ScanOp>(probe, nullptr), "o_val",
                   "l_key", {}, nullptr)
                   .ok());
}

TEST(ReferenceTest, FilterByCallback) {
  auto t = MakeOrders(10);
  const Table evens = ReferenceFilter(
      *t, [](const Table& table, std::size_t row) {
        return table.column(0).Int64At(row) % 2 == 0;
      });
  EXPECT_EQ(evens.num_rows(), 5u);
}

TEST(ReferenceTest, SumBy) {
  auto t = MakeLines(3, 4);  // keys 0,1,2 each with qty 0..3
  auto sums = ReferenceSumBy(*t, {"l_key"}, "l_qty");
  ASSERT_TRUE(sums.ok());
  ASSERT_EQ(sums->num_rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(sums->column(1).DoubleAt(i), 6.0);  // 0+1+2+3
    EXPECT_EQ(sums->column(2).Int64At(i), 4);
  }
}

TEST(ReferenceTest, TablesEqualUnorderedDetectsDifferences) {
  auto a = MakeOrders(3);
  auto b = MakeOrders(3);
  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(*a, *b, 1e-9, &diff));
  Table c(a->schema());
  c.AppendRowFrom(*a, 2);
  c.AppendRowFrom(*a, 0);
  c.AppendRowFrom(*a, 1);
  EXPECT_TRUE(TablesEqualUnordered(*a, c, 1e-9, &diff));  // order-free
  Table d(a->schema());
  d.AppendRowFrom(*a, 0);
  EXPECT_FALSE(TablesEqualUnordered(*a, d, 1e-9, &diff));
  EXPECT_EQ(diff, "row count 3 vs 1");

  // Shape and type mismatches keep their messages.
  auto keys = std::make_shared<Table>(
      Schema({Field{"o_key", DataType::kInt64, 5}}));
  EXPECT_FALSE(TablesEqualUnordered(*a, *keys, 1e-9, &diff));
  EXPECT_EQ(diff, "column count 2 vs 1");
  Table retyped(Schema({Field{"o_key", DataType::kInt64, 5},
                        Field{"o_val", DataType::kInt64, 5}}));
  for (std::int64_t i = 0; i < 3; ++i) retyped.AppendRow({i, i});
  EXPECT_FALSE(TablesEqualUnordered(*a, retyped, 1e-9, &diff));
  EXPECT_EQ(diff, "column 1 type mismatch");

  // Typed multisets over int64, string and double columns.
  const Schema schema({Field{"k", DataType::kInt64, 5},
                       Field{"s", DataType::kString, 8},
                       Field{"v", DataType::kDouble, 5}});
  const auto make = [&schema](
                        const std::vector<std::vector<storage::Value>>& rows) {
    Table t(schema);
    for (const auto& row : rows) t.AppendRow(row);
    return t;
  };
  const Table m = make({{std::int64_t{2}, std::string("b"), 0.5},
                        {std::int64_t{1}, std::string("zz"), 1e12},
                        {std::int64_t{1}, std::string("a"), -3.25},
                        {std::int64_t{-7}, std::string(""), 0.0}});
  // Permuted rows.
  EXPECT_TRUE(TablesEqualUnordered(
      m,
      make({{std::int64_t{1}, std::string("a"), -3.25},
            {std::int64_t{-7}, std::string(""), 0.0},
            {std::int64_t{2}, std::string("b"), 0.5},
            {std::int64_t{1}, std::string("zz"), 1e12}}),
      1e-9, &diff))
      << diff;
  // Doubles within eps (relative above 1, absolute below) match; beyond
  // eps they do not.
  const Table near = make({{std::int64_t{1}, std::string("zz"), 1e12 + 100},
                           {std::int64_t{-7}, std::string(""), 1e-10},
                           {std::int64_t{2}, std::string("b"), 0.5},
                           {std::int64_t{1}, std::string("a"), -3.25}});
  EXPECT_TRUE(TablesEqualUnordered(m, near, 1e-9, &diff)) << diff;
  EXPECT_FALSE(TablesEqualUnordered(m, near, 1e-12, &diff));
  EXPECT_FALSE(diff.empty());
  // A difference in the row that sorts last is found too.
  EXPECT_FALSE(TablesEqualUnordered(
      m,
      make({{std::int64_t{2}, std::string("b"), 0.75},
            {std::int64_t{1}, std::string("zz"), 1e12},
            {std::int64_t{1}, std::string("a"), -3.25},
            {std::int64_t{-7}, std::string(""), 0.0}}),
      1e-9, &diff));
  // Strings and int64s compare exactly.
  EXPECT_FALSE(TablesEqualUnordered(
      m,
      make({{std::int64_t{2}, std::string("b"), 0.5},
            {std::int64_t{1}, std::string("zz "), 1e12},
            {std::int64_t{1}, std::string("a"), -3.25},
            {std::int64_t{-7}, std::string(""), 0.0}}),
      1e-9, &diff));
  EXPECT_FALSE(TablesEqualUnordered(
      m,
      make({{std::int64_t{2}, std::string("b"), 0.5},
            {std::int64_t{1}, std::string("zz"), 1e12},
            {std::int64_t{1}, std::string("a"), -3.25},
            {std::int64_t{-6}, std::string(""), 0.0}}),
      1e-9, &diff));
  // Same distinct rows and row count, different multiplicities.
  const Table twice_first = make({{std::int64_t{1}, std::string("a"), 1.0},
                                  {std::int64_t{1}, std::string("a"), 1.0},
                                  {std::int64_t{2}, std::string("b"), 2.0}});
  const Table twice_last = make({{std::int64_t{2}, std::string("b"), 2.0},
                                 {std::int64_t{1}, std::string("a"), 1.0},
                                 {std::int64_t{2}, std::string("b"), 2.0}});
  EXPECT_FALSE(TablesEqualUnordered(twice_first, twice_last, 1e-9, &diff));
  EXPECT_FALSE(TablesEqualUnordered(twice_last, twice_first, 1e-9, &diff));
  EXPECT_TRUE(TablesEqualUnordered(twice_first, twice_first, 0.0, &diff));
}

}  // namespace
}  // namespace eedc::exec
