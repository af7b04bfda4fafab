// Transport-fabric behavior of the in-process backend (net/inproc.h):
// multi-node delivery with provenance, end of stream only after every
// sender, bounded receives, small-block coalescing, per-edge metrics,
// credit backpressure that stalls senders at the window without ever
// deadlocking, and Close() poisoning the port: blocked senders and
// receivers released, the first reason kept, late senders tolerated.
#include "net/inproc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "obs/metrics_registry.h"
#include "storage/block.h"

namespace eedc::net {
namespace {

using storage::Block;
using storage::DataType;
using storage::Field;
using storage::Schema;

Schema KvSchema() {
  return Schema{Field{"k", DataType::kInt64, 8},
                Field{"v", DataType::kDouble, 8}};
}

Block MakeBlock(const Schema& schema, std::int64_t base, int rows) {
  Block b(schema);
  for (int i = 0; i < rows; ++i) {
    b.AppendRow({base + i, (base + i) * 0.5});
  }
  return b;
}

std::unique_ptr<ExchangePort> MakePort(Transport& transport, int nodes,
                                       int senders_each) {
  auto port_or = transport.CreatePort(
      /*exchange_id=*/0, nodes, std::vector<int>(nodes, senders_each));
  EXPECT_TRUE(port_or.ok()) << port_or.status();
  auto port = std::move(port_or).value();
  EXPECT_TRUE(port->BindSchema(KvSchema()).ok());
  return port;
}

TEST(InProcessTransportTest, DeliversAcrossNodesWithProvenance) {
  InProcessTransport transport;
  auto port = MakePort(transport, /*nodes=*/3, /*senders_each=*/1);
  const Schema schema = KvSchema();

  // Every node ships one block to node 2 (including node 2's loopback).
  for (int src = 0; src < 3; ++src) {
    port->Send(src, 2, MakeBlock(schema, src * 100, 4), nullptr);
    port->SenderDone(src);
  }

  std::map<int, std::int64_t> first_key_by_source;
  int received = 0;
  while (true) {
    bool timed_out = false;
    auto got =
        port->Receive(2, Duration::Seconds(5.0), nullptr, &timed_out);
    if (!got.has_value()) break;
    ASSERT_FALSE(timed_out);
    ASSERT_EQ(got->block.size(), 4u);
    first_key_by_source[got->source_node] =
        got->block.column(0).Int64At(got->block.RowIndex(0));
    ++received;
  }
  EXPECT_EQ(received, 3);
  ASSERT_EQ(first_key_by_source.size(), 3u);
  for (int src = 0; src < 3; ++src) {
    EXPECT_EQ(first_key_by_source[src], src * 100) << "source " << src;
  }
  // Other nodes got nothing and drain immediately.
  bool timed_out = false;
  EXPECT_FALSE(
      port->Receive(0, Duration::Seconds(5.0), nullptr, &timed_out)
          .has_value());
  EXPECT_FALSE(timed_out);
}

TEST(InProcessTransportTest, MultipleSendersAllMustFinish) {
  InProcessTransport transport;
  auto port = MakePort(transport, /*nodes=*/3, /*senders_each=*/1);
  port->SenderDone(0);
  port->SenderDone(1);
  // Node 0 gets no data, yet with node 2's sender still open its stream
  // waits, not ends.
  std::atomic<bool> done{false};
  std::thread receiver([&] {
    while (port->Receive(0, Duration::Infinite(), nullptr, nullptr)
               .has_value()) {
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());  // third sender still open
  port->SenderDone(2);
  receiver.join();
  EXPECT_TRUE(done.load());
}

TEST(InProcessTransportTest, SmallRemoteBlocksCoalesceIntoFewerFrames) {
  obs::MetricsRegistry metrics;
  TransportOptions options;
  options.coalesce_bytes = 16 * 1024;
  options.metrics = &metrics;
  InProcessTransport transport(options);
  auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
  const Schema schema = KvSchema();

  // 50 tiny remote blocks, well under the threshold: they must arrive as
  // far fewer frames but the exact same 200 rows.
  for (int i = 0; i < 50; ++i) {
    port->Send(0, 1, MakeBlock(schema, i * 4, 4), nullptr);
  }
  port->SenderDone(0);
  port->SenderDone(1);

  std::size_t rows = 0;
  int blocks = 0;
  while (true) {
    bool timed_out = false;
    auto got =
        port->Receive(1, Duration::Seconds(5.0), nullptr, &timed_out);
    if (!got.has_value()) break;
    rows += got->block.size();
    ++blocks;
  }
  EXPECT_EQ(rows, 200u);
  EXPECT_LT(blocks, 50);
  EXPECT_EQ(metrics.counter("net.e0.s0d1.tx_frames"), blocks);
  EXPECT_EQ(metrics.counter("net.e0.s0d1.tx_rows"), 200.0);
  EXPECT_GT(metrics.counter("net.e0.s0d1.tx_bytes"), 0.0);
}

TEST(InProcessTransportTest, SlowReceiverStallsSenderAtCreditWindow) {
  TransportOptions options;
  options.credit_window_frames = 2;
  options.coalesce_bytes = 0;  // every Send is one frame
  InProcessTransport transport(options);
  auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
  const Schema schema = KvSchema();

  std::atomic<int> sent{0};
  std::thread sender([&] {
    Duration wait = Duration::Zero();
    for (int i = 0; i < 10; ++i) {
      port->Send(0, 1, MakeBlock(schema, i, 2), &wait);
      sent.fetch_add(1);
    }
    port->SenderDone(0);
  });

  // The receiver sleeps: the sender must stall once the window (2
  // frames) is full — liveness means "blocked at the window", never
  // "queues grow without bound" and never "deadlock".
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LE(sent.load(), options.credit_window_frames + 1);

  // Draining the inbox grants credits back and the sender finishes.
  port->SenderDone(1);
  int received = 0;
  while (true) {
    bool timed_out = false;
    auto got =
        port->Receive(1, Duration::Seconds(10.0), nullptr, &timed_out);
    if (!got.has_value()) {
      ASSERT_FALSE(timed_out) << "receiver timed out: sender deadlocked";
      break;
    }
    ++received;
  }
  sender.join();
  EXPECT_EQ(sent.load(), 10);
  EXPECT_EQ(received, 10);
}

// Loopback blocks and remote frames reach a receiver through different
// queues; the receive cases below run on both, named by the source node
// that ships to node 1.
constexpr int kEdgeSources[] = {1, 0};
const char* EdgeName(int source) {
  return source == 1 ? "loopback edge" : "remote edge";
}

TransportOptions OneFramePerSend() {
  TransportOptions options;
  options.coalesce_bytes = 0;
  return options;
}

TEST(InProcessTransportTest, ReceiveBlocksUntilSend) {
  for (const int source : kEdgeSources) {
    SCOPED_TRACE(EdgeName(source));
    InProcessTransport transport(OneFramePerSend());
    auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
    std::atomic<bool> got{false};
    std::thread receiver([&] {
      got.store(port->Receive(1, Duration::Infinite(), nullptr, nullptr)
                    .has_value());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    port->Send(source, 1, MakeBlock(KvSchema(), 1, 1), nullptr);
    receiver.join();
    EXPECT_TRUE(got.load());
  }
}

TEST(InProcessTransportTest, ReceiveForTimesOutOnStalledSender) {
  // Node 0's sender never sends nor finishes: a stalled peer.
  InProcessTransport transport;
  auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
  port->SenderDone(1);
  Duration blocked = Duration::Zero();
  bool timed_out = false;
  EXPECT_FALSE(
      port->Receive(1, Duration::Millis(30.0), &blocked, &timed_out)
          .has_value());
  EXPECT_TRUE(timed_out);
  EXPECT_GE(blocked.seconds(), 0.02);
}

TEST(InProcessTransportTest, ReceiveForDeliversBeforeDeadline) {
  for (const int source : kEdgeSources) {
    SCOPED_TRACE(EdgeName(source));
    InProcessTransport transport(OneFramePerSend());
    auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
    port->Send(source, 1, MakeBlock(KvSchema(), 1, 1), nullptr);
    bool timed_out = false;
    auto got = port->Receive(1, Duration::Seconds(5.0), nullptr, &timed_out);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(timed_out);
    EXPECT_EQ(got->block.size(), 1u);
  }
}

TEST(InProcessTransportTest, CloseReleasesCreditBlockedSenders) {
  TransportOptions options;
  options.credit_window_frames = 1;
  options.coalesce_bytes = 0;
  InProcessTransport transport(options);
  auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
  const Schema schema = KvSchema();

  std::atomic<bool> done{false};
  std::thread sender([&] {
    // The second send blocks on credit; nobody will ever receive.
    for (int i = 0; i < 5; ++i) {
      port->Send(0, 1, MakeBlock(schema, i, 2), nullptr);
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load());

  port->Close(Status::Cancelled("query aborted"));
  sender.join();  // hang here = the bug this test exists to catch
  EXPECT_TRUE(done.load());
  EXPECT_FALSE(port->close_reason().ok());

  // Post-Close the port behaves like a poisoned channel.
  bool timed_out = false;
  EXPECT_FALSE(
      port->Receive(1, Duration::Seconds(5.0), nullptr, &timed_out)
          .has_value());
}

TEST(InProcessTransportTest, ReceiveAfterCloseReturnsImmediately) {
  for (const int source : kEdgeSources) {
    SCOPED_TRACE(EdgeName(source));
    InProcessTransport transport(OneFramePerSend());
    auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
    port->Send(source, 1, MakeBlock(KvSchema(), 1, 1), nullptr);
    port->Close(Status::Unavailable("node down"));
    Duration blocked = Duration::Seconds(1.0);
    bool timed_out = true;
    // The queued block is discarded by the poison.
    EXPECT_FALSE(
        port->Receive(1, Duration::Seconds(5.0), &blocked, &timed_out)
            .has_value());
    EXPECT_FALSE(timed_out);
    EXPECT_EQ(blocked.seconds(), 0.0);
    EXPECT_TRUE(port->close_reason().IsUnavailable());
  }
}

TEST(InProcessTransportTest, CloseWakesBlockedReceiver) {
  InProcessTransport transport;
  auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
  std::atomic<bool> got{true};
  std::thread receiver([&] {
    got.store(port->Receive(1, Duration::Infinite(), nullptr, nullptr)
                  .has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  port->Close(Status::Cancelled("query cancelled"));
  receiver.join();  // hang here = Close left a receiver asleep
  EXPECT_FALSE(got.load());
  EXPECT_TRUE(port->close_reason().IsCancelled());
}

TEST(InProcessTransportTest, CloseKeepsFirstReasonAndToleratesLateSenders) {
  InProcessTransport transport(OneFramePerSend());
  auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
  port->Close(Status::Unavailable("first"));
  port->Close(Status::Cancelled("second"));
  EXPECT_TRUE(port->close_reason().IsUnavailable());
  // Late sends and surplus sender retirements after the poison are
  // no-ops, not crashes: AbortSend teardown races with Close in the
  // executor.
  port->Send(0, 1, MakeBlock(KvSchema(), 1, 1), nullptr);
  port->Send(1, 1, MakeBlock(KvSchema(), 2, 1), nullptr);
  port->SenderDone(0);
  port->AbortSend(0);
  port->SenderDone(1);
  port->SenderDone(1);
  EXPECT_FALSE(port->Receive(1, Duration::Seconds(5.0), nullptr, nullptr)
                   .has_value());
}

TEST(InProcessTransportDeathTest, SurplusSenderDoneOnOpenPortAborts) {
  InProcessTransport transport;
  auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
  // Node 0's worker retires twice, so node 1's retirement finds no token
  // left: clamping it would have ended every stream one sender early.
  port->SenderDone(0);
  port->SenderDone(0);
  EXPECT_DEATH(port->SenderDone(1), "SenderDone called too many times");
}

TEST(InProcessTransportTest, CooperativeDrainBreaksCreditCycles) {
  // Both nodes fill the other's window and keep sending: under the
  // engine's drain-then-receive protocol this is exactly the wait cycle
  // the cooperative inbound drain must break. With window=1 and 40
  // frames each way, a naive bounded implementation deadlocks instantly.
  TransportOptions options;
  options.credit_window_frames = 1;
  options.coalesce_bytes = 0;
  InProcessTransport transport(options);
  auto port = MakePort(transport, /*nodes=*/2, /*senders_each=*/1);
  const Schema schema = KvSchema();

  // Each node runs the engine's drain-then-receive protocol: ship every
  // frame first, only then start receiving. Until the send phases end,
  // neither node consumes — a blocked sender can only make progress via
  // the cooperative drain granting its peer's credit back.
  std::vector<int> received(2, 0);
  auto node_worker = [&](int self, int peer) {
    for (int i = 0; i < 40; ++i) {
      port->Send(self, peer, MakeBlock(schema, i, 2), nullptr);
    }
    port->SenderDone(self);
    while (true) {
      bool timed_out = false;
      auto got =
          port->Receive(self, Duration::Seconds(30.0), nullptr, &timed_out);
      if (!got.has_value()) {
        EXPECT_FALSE(timed_out) << "node " << self << " deadlocked";
        break;
      }
      ++received[static_cast<std::size_t>(self)];
    }
  };
  std::thread a(node_worker, 0, 1);
  std::thread b(node_worker, 1, 0);
  a.join();
  b.join();
  EXPECT_EQ(received[0], 40);
  EXPECT_EQ(received[1], 40);
}

TEST(InProcessTransportTest, SchemaRebindWithDifferentLayoutFails) {
  InProcessTransport transport;
  auto port = MakePort(transport, 2, 1);
  EXPECT_TRUE(port->BindSchema(KvSchema()).ok());  // idempotent
  EXPECT_FALSE(
      port->BindSchema(Schema{Field{"x", DataType::kString, 16}}).ok());
}

}  // namespace
}  // namespace eedc::net
