// Socket transport backend (net/socket.h): frames really cross a byte
// stream (TCP loopback, or an AF_UNIX pair where the sandbox forbids
// TCP), with credits as explicit ack bytes and worker-completion EOFs
// ordered behind the data. Gates: port-level round-trip, executor
// row-identity on a mixed-fleet query, backpressure, and Close() safety.
#include "net/socket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/reference.h"
#include "net/transport.h"
#include "storage/block.h"
#include "tpch/dbgen.h"
#include "workload/profiles.h"

namespace eedc::net {
namespace {

using storage::Block;
using storage::DataType;
using storage::Field;
using storage::Schema;

Schema KvSchema() {
  return Schema{Field{"k", DataType::kInt64, 8},
                Field{"s", DataType::kString, 16}};
}

Block MakeBlock(const Schema& schema, std::int64_t base, int rows) {
  Block b(schema);
  for (int i = 0; i < rows; ++i) {
    b.AppendRow({base + i, std::string("row-") + std::to_string(base + i)});
  }
  return b;
}

TEST(SocketTransportTest, ReportsStreamBackend) {
  SocketTransport transport;
  EXPECT_TRUE(transport.name() == "tcp" || transport.name() == "unix")
      << transport.name();
}

TEST(SocketTransportTest, FramesRoundTripAcrossTheSocket) {
  SocketTransport transport;
  auto port_or =
      transport.CreatePort(/*exchange_id=*/1, /*num_nodes=*/3, {1, 1, 1});
  ASSERT_TRUE(port_or.ok()) << port_or.status();
  auto port = std::move(port_or).value();
  const Schema schema = KvSchema();
  ASSERT_TRUE(port->BindSchema(schema).ok());

  // Every node ships 20 blocks to node 1 (node 1's own are loopback).
  for (int src = 0; src < 3; ++src) {
    for (int i = 0; i < 20; ++i) {
      port->Send(src, 1, MakeBlock(schema, src * 1000 + i * 10, 3),
                 nullptr);
    }
    port->SenderDone(src);
  }

  std::size_t rows = 0;
  std::vector<int> per_source(3, 0);
  while (true) {
    bool timed_out = false;
    auto got =
        port->Receive(1, Duration::Seconds(20.0), nullptr, &timed_out);
    if (!got.has_value()) {
      ASSERT_FALSE(timed_out) << "socket path lost frames or EOFs";
      break;
    }
    rows += got->block.size();
    per_source[static_cast<std::size_t>(got->source_node)] +=
        static_cast<int>(got->block.size());
  }
  EXPECT_EQ(rows, 3u * 20u * 3u);
  for (int src = 0; src < 3; ++src) {
    EXPECT_EQ(per_source[static_cast<std::size_t>(src)], 60)
        << "source " << src;
  }
}

TEST(SocketTransportTest, CreditAcksThrottleTheSender) {
  TransportOptions options;
  options.credit_window_frames = 2;
  options.coalesce_bytes = 0;
  SocketTransport transport(options);
  auto port_or = transport.CreatePort(0, 2, {1, 1});
  ASSERT_TRUE(port_or.ok()) << port_or.status();
  auto port = std::move(port_or).value();
  const Schema schema = KvSchema();
  ASSERT_TRUE(port->BindSchema(schema).ok());

  std::atomic<int> sent{0};
  std::thread sender([&] {
    for (int i = 0; i < 12; ++i) {
      port->Send(0, 1, MakeBlock(schema, i, 2), nullptr);
      sent.fetch_add(1);
    }
    port->SenderDone(0);
  });
  // No acks until the consumer dequeues: the sender stalls at the
  // window (the reader thread buffers frames but grants no credit).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LE(sent.load(), options.credit_window_frames + 1);

  port->SenderDone(1);
  int received = 0;
  while (true) {
    bool timed_out = false;
    auto got =
        port->Receive(1, Duration::Seconds(20.0), nullptr, &timed_out);
    if (!got.has_value()) {
      ASSERT_FALSE(timed_out);
      break;
    }
    ++received;
  }
  sender.join();
  EXPECT_EQ(sent.load(), 12);
  EXPECT_EQ(received, 12);
}

TEST(SocketTransportTest, CloseReleasesBlockedSendersAndReaders) {
  TransportOptions options;
  options.credit_window_frames = 1;
  options.coalesce_bytes = 0;
  SocketTransport transport(options);
  auto port_or = transport.CreatePort(0, 2, {1, 1});
  ASSERT_TRUE(port_or.ok()) << port_or.status();
  auto port = std::move(port_or).value();
  const Schema schema = KvSchema();
  ASSERT_TRUE(port->BindSchema(schema).ok());

  std::atomic<bool> done{false};
  std::thread sender([&] {
    for (int i = 0; i < 6; ++i) {
      port->Send(0, 1, MakeBlock(schema, i, 2), nullptr);
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load());
  port->Close(Status::Cancelled("query aborted"));
  sender.join();
  EXPECT_TRUE(done.load());
  bool timed_out = false;
  EXPECT_FALSE(
      port->Receive(1, Duration::Seconds(5.0), nullptr, &timed_out)
          .has_value());
  // Destruction joins the reader threads cleanly after a mid-stream
  // Close — no hang, no leak (ASan/TSan jobs run this file too).
}

TEST(SocketTransportTest,
     ExecutorRowsMatchSingleNodeReferenceOnMixedFleetQuery) {
  // The identity gate for this backend: a real multi-node query whose
  // shuffles cross actual sockets produces the same row multiset as a
  // one-node, one-worker run over the unpartitioned tables.
  tpch::DbgenOptions dbgen;
  dbgen.scale_factor = 0.002;
  dbgen.seed = 99;
  const tpch::TpchDatabase db = tpch::GenerateDatabase(dbgen);
  const auto load = [&db](exec::ClusterData* data) {
    ASSERT_TRUE(
        data->LoadHashPartitioned("lineitem", *db.lineitem, "l_orderkey")
            .ok());
    ASSERT_TRUE(
        data->LoadHashPartitioned("orders", *db.orders, "o_custkey").ok());
    data->LoadReplicated("supplier", db.supplier);
    data->LoadReplicated("nation", db.nation);
  };
  exec::ClusterData reference_data(1);
  load(&reference_data);
  exec::ClusterData data(3);
  load(&data);

  auto plan_or = workload::PlanForKind(workload::QueryKind::kQ3, db);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status();

  exec::Executor reference_exec(&reference_data);
  auto reference = reference_exec.Execute(plan_or.value());
  ASSERT_TRUE(reference.ok()) << reference.status();

  SocketTransport transport;
  exec::Executor::Options options;
  options.workers_per_node = 2;
  options.transport = &transport;
  exec::Executor socket_exec(&data, std::move(options));
  auto framed = socket_exec.Execute(plan_or.value());
  ASSERT_TRUE(framed.ok()) << framed.status();

  std::string diff;
  EXPECT_TRUE(exec::TablesEqualUnordered(reference->table, framed->table,
                                         1e-6, &diff))
      << diff;
  EXPECT_GT(framed->metrics.TotalRemoteBytes(), 0.0);
}

}  // namespace
}  // namespace eedc::net
