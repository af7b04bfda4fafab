#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "exec/exchange_op.h"
#include "exec/scan_op.h"
#include "net/inproc.h"
#include "storage/partitioner.h"
#include "storage/schema.h"

namespace eedc::exec {
namespace {

using storage::Block;
using storage::DataType;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::TablePtr;

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

/// One exchange's fabric over `n` single-worker nodes, from the default
/// in-process transport.
std::unique_ptr<net::ExchangePort> MakePort(int n) {
  net::InProcessTransport transport;
  auto port = transport.CreatePort(
      /*exchange_id=*/0, n, std::vector<int>(static_cast<std::size_t>(n), 1));
  EXPECT_TRUE(port.ok()) << port.status();
  return std::move(port).value();
}

// Runs one exchange instance per node over the given local tables and
// returns each node's received rows.
std::vector<Table> RunExchange(ExchangeMode mode,
                               const std::string& key,
                               std::vector<TablePtr> locals,
                               std::vector<NodeMetrics>* metrics_out) {
  const int n = static_cast<int>(locals.size());
  const auto port = MakePort(n);
  std::vector<NodeMetrics> metrics(static_cast<std::size_t>(n));
  std::vector<Table> results;
  results.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) results.emplace_back(KeyedSchema());

  std::vector<std::thread> threads;
  for (int node = 0; node < n; ++node) {
    threads.emplace_back([&, node] {
      auto op = ExchangeOp::Create(
          std::make_unique<ScanOp>(locals[static_cast<std::size_t>(node)],
                                   nullptr),
          mode, key, node, port.get(), /*destinations=*/{},
          &metrics[static_cast<std::size_t>(node)]);
      ASSERT_TRUE(op.ok());
      ASSERT_TRUE((*op)->Open().ok());
      while (true) {
        auto block = (*op)->Next();
        ASSERT_TRUE(block.ok());
        if (!block.value().has_value()) break;
        block.value()->AppendLiveRowsTo(
            &results[static_cast<std::size_t>(node)]);
      }
      ASSERT_TRUE((*op)->Close().ok());
    });
  }
  for (auto& t : threads) t.join();
  if (metrics_out) *metrics_out = std::move(metrics);
  return results;
}

TEST(ExchangeOpTest, ShuffleDeliversEveryRowToItsHashNode) {
  const int n = 4;
  std::vector<TablePtr> locals = {MakeKeyed(0, 100), MakeKeyed(100, 200),
                                  MakeKeyed(200, 300),
                                  MakeKeyed(300, 400)};
  std::vector<NodeMetrics> metrics;
  auto results = RunExchange(ExchangeMode::kShuffle, "key", locals,
                             &metrics);
  std::size_t total = 0;
  for (int node = 0; node < n; ++node) {
    const Table& r = results[static_cast<std::size_t>(node)];
    total += r.num_rows();
    for (std::size_t i = 0; i < r.num_rows(); ++i) {
      EXPECT_EQ(storage::PartitionOf(r.column(0).Int64At(i), n), node);
      // Payload travels with the key.
      EXPECT_EQ(r.column(1).Int64At(i), r.column(0).Int64At(i) * 7);
    }
  }
  EXPECT_EQ(total, 400u);
}

TEST(ExchangeOpTest, ShuffleByteAccountingSplitsLocalAndRemote) {
  std::vector<TablePtr> locals = {MakeKeyed(0, 1000), MakeKeyed(1000, 2000)};
  std::vector<NodeMetrics> metrics;
  RunExchange(ExchangeMode::kShuffle, "key", locals, &metrics);
  for (const auto& m : metrics) {
    ASSERT_EQ(m.exchanges.size(), 1u);
    const auto& ex = m.exchanges[0];
    // Each node routed 1000 rows x 10 B; about half stays local.
    EXPECT_NEAR(ex.sent_remote_bytes + ex.sent_local_bytes, 10000.0, 1.0);
    EXPECT_GT(ex.sent_remote_bytes, 3000.0);
    EXPECT_GT(ex.sent_local_bytes, 3000.0);
    EXPECT_DOUBLE_EQ(ex.rows_routed, 1000.0);
  }
}

TEST(ExchangeOpTest, BroadcastGivesEveryNodeEverything) {
  const int n = 3;
  std::vector<TablePtr> locals = {MakeKeyed(0, 50), MakeKeyed(50, 100),
                                  MakeKeyed(100, 150)};
  auto results =
      RunExchange(ExchangeMode::kBroadcast, "", locals, nullptr);
  for (int node = 0; node < n; ++node) {
    const Table& r = results[static_cast<std::size_t>(node)];
    EXPECT_EQ(r.num_rows(), 150u);
    // All 150 distinct keys present.
    std::set<std::int64_t> keys;
    for (std::size_t i = 0; i < r.num_rows(); ++i) {
      keys.insert(r.column(0).Int64At(i));
    }
    EXPECT_EQ(keys.size(), 150u);
  }
}

TEST(ExchangeOpTest, BroadcastAccountsRemoteCopies) {
  std::vector<TablePtr> locals = {MakeKeyed(0, 100), MakeKeyed(100, 200),
                                  MakeKeyed(200, 300)};
  std::vector<NodeMetrics> metrics;
  RunExchange(ExchangeMode::kBroadcast, "", locals, &metrics);
  for (const auto& m : metrics) {
    const auto& ex = m.exchanges[0];
    // 100 rows x 10 B to each of 2 remote nodes, plus a local copy.
    EXPECT_NEAR(ex.sent_remote_bytes, 2000.0, 1.0);
    EXPECT_NEAR(ex.sent_local_bytes, 1000.0, 1.0);
    EXPECT_NEAR(ex.received_bytes, 3000.0, 1.0);
  }
}

TEST(ExchangeOpTest, GatherCollectsOnNodeZero) {
  std::vector<TablePtr> locals = {MakeKeyed(0, 30), MakeKeyed(30, 60),
                                  MakeKeyed(60, 90), MakeKeyed(90, 120)};
  auto results = RunExchange(ExchangeMode::kGather, "", locals, nullptr);
  EXPECT_EQ(results[0].num_rows(), 120u);
  for (std::size_t node = 1; node < results.size(); ++node) {
    EXPECT_EQ(results[node].num_rows(), 0u);
  }
}

TEST(ExchangeOpTest, ShuffleRequiresKey) {
  const auto port = MakePort(2);
  auto op = ExchangeOp::Create(
      std::make_unique<ScanOp>(MakeKeyed(0, 1), nullptr),
      ExchangeMode::kShuffle, "", 0, port.get(), {}, nullptr);
  EXPECT_FALSE(op.ok());
}

TEST(ExchangeOpTest, DestinationsOutOfRangeRejected) {
  const auto port = MakePort(2);
  auto op = ExchangeOp::Create(
      std::make_unique<ScanOp>(MakeKeyed(0, 1), nullptr),
      ExchangeMode::kShuffle, "key", 0, port.get(), {5}, nullptr);
  EXPECT_FALSE(op.ok());
}

// Restricting destinations models heterogeneous execution: only joiner
// nodes receive shuffled tuples.
TEST(ExchangeOpTest, DestinationSubsetReceivesEverything) {
  const int n = 4;
  const auto port = MakePort(n);
  std::vector<TablePtr> locals = {MakeKeyed(0, 100), MakeKeyed(100, 200),
                                  MakeKeyed(200, 300),
                                  MakeKeyed(300, 400)};
  std::vector<Table> results;
  for (int i = 0; i < n; ++i) results.emplace_back(KeyedSchema());
  std::vector<std::thread> threads;
  for (int node = 0; node < n; ++node) {
    threads.emplace_back([&, node] {
      auto op = ExchangeOp::Create(
          std::make_unique<ScanOp>(locals[static_cast<std::size_t>(node)],
                                   nullptr),
          ExchangeMode::kShuffle, "key", node, port.get(),
          /*destinations=*/{0, 1}, nullptr);
      ASSERT_TRUE(op.ok());
      ASSERT_TRUE((*op)->Open().ok());
      while (true) {
        auto block = (*op)->Next();
        ASSERT_TRUE(block.ok());
        if (!block.value().has_value()) break;
        block.value()->AppendLiveRowsTo(
            &results[static_cast<std::size_t>(node)]);
      }
      ASSERT_TRUE((*op)->Close().ok());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(results[0].num_rows() + results[1].num_rows(), 400u);
  EXPECT_GT(results[0].num_rows(), 0u);
  EXPECT_GT(results[1].num_rows(), 0u);
  EXPECT_EQ(results[2].num_rows(), 0u);
  EXPECT_EQ(results[3].num_rows(), 0u);
}

// The run-based router must route *live* rows only, mapped through the
// selection, and preserve their payloads — including when selection runs
// are fragmented (every other row) and when they are contiguous spans.
TEST(ExchangeOpTest, ShuffleRoutesSelectionRunsCorrectly) {
  const int n = 3;
  const auto port = MakePort(n);
  std::vector<TablePtr> locals = {MakeKeyed(0, 300), MakeKeyed(300, 600),
                                  MakeKeyed(600, 900)};
  std::vector<Table> results;
  for (int i = 0; i < n; ++i) results.emplace_back(KeyedSchema());
  std::vector<std::thread> threads;
  for (int node = 0; node < n; ++node) {
    threads.emplace_back([&, node] {
      // A child that emits one borrowed block with a mixed selection:
      // a contiguous run [10, 60) plus every third row of [100, 250).
      class SelectingScan final : public Operator {
       public:
        explicit SelectingScan(TablePtr t) : table_(std::move(t)) {}
        Status Open() override { return Status::OK(); }
        StatusOr<std::optional<Block>> Next() override {
          if (done_) return std::optional<Block>();
          done_ = true;
          Block block = Block::Borrow(table_, 0, table_->num_rows());
          std::vector<std::uint32_t> sel;
          for (std::uint32_t r = 10; r < 60; ++r) sel.push_back(r);
          for (std::uint32_t r = 100; r < 250; r += 3) sel.push_back(r);
          block.SetSelection(std::move(sel));
          return std::optional<Block>(std::move(block));
        }
        Status Close() override { return Status::OK(); }
        const Schema& schema() const override { return table_->schema(); }

       private:
        TablePtr table_;
        bool done_ = false;
      };
      auto op = ExchangeOp::Create(
          std::make_unique<SelectingScan>(
              locals[static_cast<std::size_t>(node)]),
          ExchangeMode::kShuffle, "key", node, port.get(), {}, nullptr);
      ASSERT_TRUE(op.ok());
      ASSERT_TRUE((*op)->Open().ok());
      while (true) {
        auto block = (*op)->Next();
        ASSERT_TRUE(block.ok());
        if (!block.value().has_value()) break;
        block.value()->AppendLiveRowsTo(
            &results[static_cast<std::size_t>(node)]);
      }
      ASSERT_TRUE((*op)->Close().ok());
    });
  }
  for (auto& t : threads) t.join();
  // 50 contiguous + 50 strided live rows per node, hash-routed.
  std::set<std::int64_t> got;
  std::size_t total = 0;
  for (int node = 0; node < n; ++node) {
    const Table& r = results[static_cast<std::size_t>(node)];
    total += r.num_rows();
    for (std::size_t i = 0; i < r.num_rows(); ++i) {
      const std::int64_t key = r.column(0).Int64At(i);
      EXPECT_EQ(storage::PartitionOf(key, n), node);
      EXPECT_EQ(r.column(1).Int64At(i), key * 7);  // payload intact
      got.insert(key);
    }
  }
  EXPECT_EQ(total, 300u);
  EXPECT_EQ(got.size(), 300u);
  // Spot-check membership: selected rows present, unselected absent.
  EXPECT_TRUE(got.count(10) == 1 && got.count(59) == 1);
  EXPECT_TRUE(got.count(100) == 1 && got.count(103) == 1);
  EXPECT_TRUE(got.count(9) == 0 && got.count(60) == 0);
  EXPECT_TRUE(got.count(101) == 0);
}

TEST(ExchangeOpTest, SingleNodeShuffleIsLoopback) {
  std::vector<TablePtr> locals = {MakeKeyed(0, 42)};
  std::vector<NodeMetrics> metrics;
  auto results = RunExchange(ExchangeMode::kShuffle, "key", locals,
                             &metrics);
  EXPECT_EQ(results[0].num_rows(), 42u);
  EXPECT_DOUBLE_EQ(metrics[0].exchanges[0].sent_remote_bytes, 0.0);
}

}  // namespace
}  // namespace eedc::exec
