// Cooperative cancellation: token semantics, port poisoning, and the
// executor tearing a cancelled query down cleanly — an error Status, no
// partial result, no hang.
#include "exec/cancel.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "exec/exchange_op.h"
#include "exec/executor.h"
#include "exec/reference.h"
#include "exec/scan_op.h"
#include "net/inproc.h"
#include "storage/schema.h"
#include "tpch/dbgen.h"
#include "tpch/selectivity.h"

namespace eedc::exec {
namespace {

using storage::DataType;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using tpch::DbgenOptions;
using tpch::TpchDatabase;

TEST(CancelTokenTest, StartsClear) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, FirstCancelReasonWins) {
  CancelToken token;
  token.Cancel(Status::Unavailable("node 2 crashed"));
  token.Cancel(Status::Cancelled("user abort"));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.status().IsUnavailable());
  EXPECT_TRUE(token.Check().IsUnavailable());
}

TEST(CancelTokenTest, FuseTripsOnNthCheck) {
  CancelToken token;
  token.CancelAfter(3, Status::Unavailable("crash"));
  EXPECT_TRUE(token.Check().ok());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.cancelled());  // two checks survived
  EXPECT_TRUE(token.Check().IsUnavailable());  // third trips
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.Check().IsUnavailable());  // sticky
}

TEST(CancelTokenTest, FuseClampsNonPositiveChecks) {
  CancelToken token;
  token.CancelAfter(0, Status::Cancelled("now"));
  EXPECT_TRUE(token.Check().IsCancelled());
}

TEST(CancelTokenTest, ResetRearms) {
  CancelToken token;
  token.CancelAfter(1, Status::Cancelled("boom"));
  EXPECT_FALSE(token.Check().ok());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
}

DbgenOptions TestOpts() {
  DbgenOptions opts;
  opts.scale_factor = 0.002;
  opts.seed = 42;
  return opts;
}

PlanPtr Q3StylePlan(const TpchDatabase& db) {
  const std::int64_t ck =
      tpch::ThresholdForSelectivity(*db.orders, "o_custkey", 0.3).value();
  PlanPtr build = ShufflePlan(
      FilterPlan(ScanPlan("orders"), Lt(Col("o_custkey"), I64(ck))),
      "o_orderkey");
  PlanPtr probe = ShufflePlan(ScanPlan("lineitem"), "l_orderkey");
  return HashJoinPlan(std::move(build), std::move(probe), "o_orderkey",
                      "l_orderkey");
}

void LoadLayout(const TpchDatabase& db, ClusterData* data) {
  ASSERT_TRUE(
      data->LoadHashPartitioned("lineitem", *db.lineitem, "l_shipdate")
          .ok());
  ASSERT_TRUE(
      data->LoadHashPartitioned("orders", *db.orders, "o_custkey").ok());
}

// The crash fuse: the query dies mid-flight with the token's reason, no
// result, and the executor returns (never hangs on a poisoned exchange).
TEST(ExecutorCancelTest, FuseCancelsMidQueryWithTokenReason) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(3);
  LoadLayout(db, &data);

  CancelToken token;
  token.CancelAfter(2, Status::Unavailable("node 1 crashed"));
  Executor::Options options;
  options.cancel = &token;
  Executor executor(&data, options);
  auto result = executor.Execute(Q3StylePlan(db));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
  EXPECT_TRUE(token.cancelled());
}

TEST(ExecutorCancelTest, PreCancelledTokenFailsFast) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(2);
  LoadLayout(db, &data);

  CancelToken token;
  token.Cancel(Status::Cancelled("shed before dispatch"));
  Executor::Options options;
  options.cancel = &token;
  Executor executor(&data, options);
  auto result = executor.Execute(Q3StylePlan(db));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
}

// A token that never trips must not perturb results: row-for-row
// identical to the tokenless run.
TEST(ExecutorCancelTest, UntrippedTokenLeavesResultsIdentical) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(3);
  LoadLayout(db, &data);

  Executor plain(&data);
  auto want = plain.Execute(Q3StylePlan(db));
  ASSERT_TRUE(want.ok()) << want.status();

  CancelToken token;
  Executor::Options options;
  options.cancel = &token;
  Executor guarded(&data, options);
  auto got = guarded.Execute(Q3StylePlan(db));
  ASSERT_TRUE(got.ok()) << got.status();

  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(got->table, want->table, 1e-9, &diff))
      << diff;
  EXPECT_GT(got->table.num_rows(), 0u);
}

Schema KeyedSchema() {
  return Schema({Field{"key", DataType::kInt64, 5},
                 Field{"val", DataType::kInt64, 5}});
}

TablePtr MakeKeyed(int lo, int hi) {
  auto t = std::make_shared<Table>(KeyedSchema());
  for (int i = lo; i < hi; ++i) {
    t->AppendRow(
        {static_cast<std::int64_t>(i), static_cast<std::int64_t>(i * 7)});
  }
  return t;
}

/// A two-node, one-worker-each exchange fabric.
std::unique_ptr<net::ExchangePort> MakeTwoNodePort() {
  net::InProcessTransport transport;
  auto port = transport.CreatePort(/*exchange_id=*/0, 2, {1, 1});
  EXPECT_TRUE(port.ok()) << port.status();
  return std::move(port).value();
}

// A peer that never opens its exchange instance models a dead sender:
// the bounded receive must surface DeadlineExceeded instead of hanging.
TEST(ExchangeCancelTest, StalledPeerHitsReceiveDeadline) {
  const auto port = MakeTwoNodePort();
  auto op = ExchangeOp::Create(
      std::make_unique<ScanOp>(MakeKeyed(0, 16), nullptr),
      ExchangeMode::kShuffle, "key", 0, port.get(), /*destinations=*/{},
      nullptr);
  ASSERT_TRUE(op.ok());
  static_cast<ExchangeOp*>(op->get())
      ->ConfigureCancellation(nullptr, Duration::Millis(50.0));
  ASSERT_TRUE((*op)->Open().ok());
  Status last = Status::OK();
  while (last.ok()) {
    auto block = (*op)->Next();
    if (!block.ok()) {
      last = block.status();
      break;
    }
    ASSERT_TRUE(block.value().has_value());  // must not report end-of-stream
  }
  EXPECT_TRUE(last.IsDeadlineExceeded()) << last;
  EXPECT_TRUE((*op)->Close().ok());
}

// Poison beats silence: a closed port surfaces its reason through Next()
// so no consumer ever mistakes a crash for end-of-stream.
TEST(ExchangeCancelTest, PoisonedChannelSurfacesReason) {
  const auto port = MakeTwoNodePort();
  auto op = ExchangeOp::Create(
      std::make_unique<ScanOp>(MakeKeyed(0, 16), nullptr),
      ExchangeMode::kShuffle, "key", 0, port.get(), /*destinations=*/{},
      nullptr);
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE((*op)->Open().ok());
  port->Close(Status::Unavailable("node 1 crashed"));
  Status last = Status::OK();
  while (last.ok()) {
    auto block = (*op)->Next();
    if (!block.ok()) {
      last = block.status();
      break;
    }
    if (!block.value().has_value()) break;
  }
  EXPECT_TRUE(last.IsUnavailable()) << last;
  EXPECT_TRUE((*op)->Close().ok());
}

}  // namespace
}  // namespace eedc::exec
