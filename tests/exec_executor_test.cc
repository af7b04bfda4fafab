#include "exec/executor.h"

#include <gtest/gtest.h>

#include <limits>

#include "exec/reference.h"
#include "tpch/dates.h"
#include "tpch/dbgen.h"
#include "tpch/selectivity.h"

namespace eedc::exec {
namespace {

using storage::Table;
using storage::TablePtr;
using tpch::DbgenOptions;
using tpch::TpchDatabase;

DbgenOptions TestOpts() {
  DbgenOptions opts;
  opts.scale_factor = 0.002;
  opts.seed = 42;
  return opts;
}

/// Loads the partition-incompatible layout of Section 4.3: LINEITEM
/// partitioned on l_shipdate, ORDERS on o_custkey.
void LoadQ3Layout(const TpchDatabase& db, ClusterData* data) {
  ASSERT_TRUE(
      data->LoadHashPartitioned("lineitem", *db.lineitem, "l_shipdate")
          .ok());
  ASSERT_TRUE(
      data->LoadHashPartitioned("orders", *db.orders, "o_custkey").ok());
}

/// The paper's Q3-style dual-shuffle join plan.
PlanPtr DualShufflePlan(ExprPtr orders_pred, ExprPtr lineitem_pred) {
  PlanPtr build = ShufflePlan(
      FilterPlan(ScanPlan("orders"), std::move(orders_pred)),
      "o_orderkey");
  PlanPtr probe = ShufflePlan(
      FilterPlan(ScanPlan("lineitem"), std::move(lineitem_pred)),
      "l_orderkey");
  return HashJoinPlan(std::move(build), std::move(probe), "o_orderkey",
                      "l_orderkey");
}

/// Reference result computed naively on the unpartitioned tables.
Table ReferenceJoinResult(const TpchDatabase& db,
                          std::int64_t custkey_threshold,
                          std::int64_t shipdate_threshold) {
  const Table orders = ReferenceFilter(
      *db.orders, [&](const Table& t, std::size_t row) {
        return t.ColumnByName("o_custkey").value()->Int64At(row) <
               custkey_threshold;
      });
  const Table lineitem = ReferenceFilter(
      *db.lineitem, [&](const Table& t, std::size_t row) {
        return t.ColumnByName("l_shipdate").value()->Int64At(row) <
               shipdate_threshold;
      });
  auto joined =
      ReferenceHashJoin(orders, lineitem, "o_orderkey", "l_orderkey");
  EXPECT_TRUE(joined.ok());
  return std::move(joined).value();
}

class DualShuffleOnClusters : public ::testing::TestWithParam<int> {};

TEST_P(DualShuffleOnClusters, MatchesReferenceOnAnyClusterSize) {
  const int nodes = GetParam();
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  const std::int64_t ck =
      tpch::ThresholdForSelectivity(*db.orders, "o_custkey", 0.3).value();
  const std::int64_t sd =
      tpch::ThresholdForSelectivity(*db.lineitem, "l_shipdate", 0.4)
          .value();

  ClusterData data(nodes);
  LoadQ3Layout(db, &data);
  Executor executor(&data);
  auto result = executor.Execute(
      DualShufflePlan(Lt(Col("o_custkey"), I64(ck)),
                      Lt(Col("l_shipdate"), I64(sd))));
  ASSERT_TRUE(result.ok()) << result.status();

  const Table want = ReferenceJoinResult(db, ck, sd);
  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(result->table, want, 1e-9, &diff))
      << diff;
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, DualShuffleOnClusters,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ExecutorTest, BroadcastJoinMatchesDualShuffle) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  const std::int64_t ck =
      tpch::ThresholdForSelectivity(*db.orders, "o_custkey", 0.05).value();

  ClusterData data(4);
  LoadQ3Layout(db, &data);
  Executor executor(&data);

  // Broadcast build: ORDERS copies to every node; LINEITEM stays local.
  PlanPtr broadcast_plan = HashJoinPlan(
      BroadcastPlan(FilterPlan(ScanPlan("orders"),
                               Lt(Col("o_custkey"), I64(ck)))),
      ScanPlan("lineitem"), "o_orderkey", "l_orderkey");
  auto broadcast = executor.Execute(broadcast_plan);
  ASSERT_TRUE(broadcast.ok()) << broadcast.status();

  auto shuffled = executor.Execute(
      DualShufflePlan(Lt(Col("o_custkey"), I64(ck)), True()));
  ASSERT_TRUE(shuffled.ok()) << shuffled.status();

  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(broadcast->table, shuffled->table,
                                   1e-9, &diff))
      << diff;
}

TEST(ExecutorTest, Q1StyleTwoPhaseAggregation) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(4);
  ASSERT_TRUE(
      data.LoadHashPartitioned("lineitem", *db.lineitem, "l_orderkey")
          .ok());
  Executor executor(&data);

  // Partial per-node aggregation, gather, final re-aggregation: the
  // distributed Q1 plan shape.
  const std::int64_t cutoff = tpch::DayNumber(1998, 9, 2);
  PlanPtr partial = HashAggPlan(
      FilterPlan(ScanPlan("lineitem"), Le(Col("l_shipdate"), I64(cutoff))),
      {"l_returnflag", "l_linestatus"},
      {AggSpec::Sum(Col("l_quantity"), "sum_qty"),
       AggSpec::Sum(Mul(Col("l_extendedprice"),
                        Sub(F64(1.0), Col("l_discount"))),
                    "sum_disc_price"),
       AggSpec::Count("count_order")});
  PlanPtr final_agg = HashAggPlan(
      GatherPlan(partial), {"l_returnflag", "l_linestatus"},
      {AggSpec::Sum(Col("sum_qty"), "sum_qty"),
       AggSpec::Sum(Col("sum_disc_price"), "sum_disc_price"),
       AggSpec::Sum(Col("count_order"), "count_order")});
  auto result = executor.Execute(final_agg);
  ASSERT_TRUE(result.ok()) << result.status();

  // Reference: single-table sum over the filtered lineitem.
  const Table filtered = ReferenceFilter(
      *db.lineitem, [&](const Table& t, std::size_t row) {
        return t.ColumnByName("l_shipdate").value()->Int64At(row) <=
               cutoff;
      });
  auto want_qty =
      ReferenceSumBy(filtered, {"l_returnflag", "l_linestatus"},
                     "l_quantity");
  ASSERT_TRUE(want_qty.ok());

  ASSERT_EQ(result->table.num_rows(), want_qty->num_rows());
  // Compare the quantity sums group-by-group.
  for (std::size_t i = 0; i < result->table.num_rows(); ++i) {
    const std::string flag = result->table.column(0).StringAt(i);
    const std::string status = result->table.column(1).StringAt(i);
    bool found = false;
    for (std::size_t j = 0; j < want_qty->num_rows(); ++j) {
      if (want_qty->column(0).StringAt(j) == flag &&
          want_qty->column(1).StringAt(j) == status) {
        EXPECT_NEAR(result->table.column(2).DoubleAt(i),
                    want_qty->column(2).DoubleAt(j), 1e-6);
        // count column: final sum-of-counts must equal reference count.
        EXPECT_NEAR(result->table.column(4).DoubleAt(i),
                    static_cast<double>(want_qty->column(3).Int64At(j)),
                    1e-6);
        found = true;
      }
    }
    EXPECT_TRUE(found) << flag << "/" << status;
  }
}

TEST(ExecutorTest, MetricsDistinguishLocalAndRemoteShuffleBytes) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(4);
  LoadQ3Layout(db, &data);
  Executor executor(&data);
  auto result = executor.Execute(DualShufflePlan(True(), True()));
  ASSERT_TRUE(result.ok());

  double remote = 0.0, local = 0.0, received = 0.0, scanned = 0.0;
  for (const auto& nm : result->metrics.nodes) {
    remote += nm.total_sent_remote_bytes();
    received += nm.total_received_bytes();
    scanned += nm.scan_bytes;
    for (const auto& ex : nm.exchanges) local += ex.sent_local_bytes;
  }
  EXPECT_GT(scanned, 0.0);
  EXPECT_GT(remote, 0.0);
  EXPECT_GT(local, 0.0);
  // Everything sent is received (local copies loop back through the port).
  EXPECT_NEAR(received, remote + local, 1.0);
  // With 4 nodes, ~3/4 of routed bytes are remote.
  EXPECT_NEAR(remote / (remote + local), 0.75, 0.05);
}

TEST(ExecutorTest, WallTimeIsPopulated) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(2);
  LoadQ3Layout(db, &data);
  Executor executor(&data);
  auto result = executor.Execute(DualShufflePlan(True(), True()));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.wall.seconds(), 0.0);
  for (const auto& nm : result->metrics.nodes) {
    EXPECT_LE(nm.wall, result->metrics.wall);
  }
}

TEST(ExecutorTest, MissingTableFailsBeforeExecution) {
  ClusterData data(2);
  Executor executor(&data);
  auto result = executor.Execute(ScanPlan("nothing"));
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(ExecutorTest, MemoryBudgetAbortCleanlyUnblocksPeers) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(4);
  LoadQ3Layout(db, &data);
  Executor::Options options;
  // Node 2 cannot hold any hash table; others are unconstrained.
  options.node_memory_budget_bytes = {0.0, 0.0, 64.0, 0.0};
  Executor executor(&data, options);
  auto result = executor.Execute(DualShufflePlan(True(), True()));
  // Must fail with the H-predicate error and not deadlock.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExecutorTest, HeterogeneousExecutionViaDestinationSets) {
  // Section 5.2.2: Wimpy nodes (2, 3) only scan/filter/ship; Beefy nodes
  // (0, 1) build and probe the hash tables. Both shuffles restrict their
  // receivers to the joiners, so the scanners' joins see empty inputs —
  // even a tiny Wimpy memory budget is never tripped.
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(4);
  LoadQ3Layout(db, &data);

  const std::int64_t ck =
      tpch::ThresholdForSelectivity(*db.orders, "o_custkey", 0.5).value();
  const std::vector<int> joiners = {0, 1};
  PlanPtr build = ShufflePlan(
      FilterPlan(ScanPlan("orders"), Lt(Col("o_custkey"), I64(ck))),
      "o_orderkey", joiners);
  PlanPtr probe =
      ShufflePlan(ScanPlan("lineitem"), "l_orderkey", joiners);
  PlanPtr plan =
      HashJoinPlan(build, probe, "o_orderkey", "l_orderkey");

  Executor::Options options;
  options.node_memory_budget_bytes = {0.0, 0.0, 4096.0, 4096.0};
  Executor executor(&data, options);
  auto result = executor.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status();

  // Correct answer despite only two joiners.
  const Table want = ReferenceJoinResult(
      db, ck, std::numeric_limits<std::int64_t>::max());
  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(result->table, want, 1e-9, &diff))
      << diff;

  // Scanner nodes built nothing and received nothing.
  for (int scanner : {2, 3}) {
    const auto& nm =
        result->metrics.nodes[static_cast<std::size_t>(scanner)];
    EXPECT_DOUBLE_EQ(nm.build_rows, 0.0);
    EXPECT_DOUBLE_EQ(nm.total_received_bytes(), 0.0);
    EXPECT_GT(nm.scan_bytes, 0.0);  // they still scanned their partitions
  }
  // Joiners ingested the shuffled streams.
  for (int joiner : joiners) {
    const auto& nm =
        result->metrics.nodes[static_cast<std::size_t>(joiner)];
    EXPECT_GT(nm.build_rows, 0.0);
    EXPECT_GT(nm.total_received_bytes(), 0.0);
  }
}

TEST(ExecutorTest, RoundRobinLayoutStillJoinsCorrectly) {
  // Round-robin placement is partition-incompatible by construction; the
  // dual shuffle must still produce the right answer.
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(3);
  data.LoadRoundRobin("lineitem", *db.lineitem);
  data.LoadRoundRobin("orders", *db.orders);
  Executor executor(&data);
  auto result = executor.Execute(DualShufflePlan(True(), True()));
  ASSERT_TRUE(result.ok());
  const Table want = ReferenceJoinResult(
      db, std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max());
  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(result->table, want, 1e-9, &diff))
      << diff;
}

}  // namespace
}  // namespace eedc::exec
