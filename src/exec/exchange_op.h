// Network exchange: P-store's "workhorse" operator (Section 4.3).
//
// Modes:
//   kShuffle   — hash-repartition rows on an int64 key across all nodes
//                (the "dual shuffle" join repartitions both inputs);
//   kBroadcast — every node receives a full copy of every input row (the
//                broadcast join's algorithmic bottleneck: each node must
//                ingest ~(N-1)/N of the table regardless of N);
//   kGather    — all rows are collected on node 0 (final results).
//
// Protocol: Open() drains the child, routing rows into per-destination
// blocks sent through the exchange's net::ExchangePort, then signals
// SenderDone. Next() yields blocks the port delivers to this node. Remote
// blocks serialize into wire frames under credit-based backpressure, and
// the port's cooperative drain keeps the drain-then-receive order
// deadlock-free despite the bounded buffers (see net/transport.h). Byte
// accounting distinguishes remote traffic (crosses the interconnect) from
// same-node loopback, on the send side and, by the port's provenance, on
// the receive side.
#ifndef EEDC_EXEC_EXCHANGE_OP_H_
#define EEDC_EXEC_EXCHANGE_OP_H_

#include <string>
#include <vector>

#include "exec/cancel.h"
#include "exec/operator.h"

namespace eedc::net {
class ExchangePort;
}  // namespace eedc::net

namespace eedc::exec {

enum class ExchangeMode { kShuffle, kBroadcast, kGather };

const char* ExchangeModeToString(ExchangeMode mode);

class ExchangeOp final : public Operator {
 public:
  /// `port` is shared by this exchange's instances on all nodes; Create
  /// binds the child schema to it. `partition_key` is required for
  /// kShuffle (int64 column). `destinations` restricts receivers
  /// (heterogeneous execution: Wimpy scanners ship to Beefy joiners only);
  /// empty means all nodes. Gather uses destinations[0] (default node 0).
  /// Credit-blocked sends are recorded as NodeMetrics::credit_wait.
  static StatusOr<OperatorPtr> Create(OperatorPtr child, ExchangeMode mode,
                                      std::string partition_key, int node_id,
                                      net::ExchangePort* port,
                                      std::vector<int> destinations,
                                      NodeMetrics* metrics);

  Status Open() override;
  StatusOr<std::optional<storage::Block>> Next() override;
  Status Close() override;
  const storage::Schema& schema() const override {
    return child_->schema();
  }

  /// Releases this node's SenderDone tokens if the send phase never
  /// completed — called when the node aborts so peers blocked in Receive()
  /// are unblocked instead of deadlocking.
  void AbortSend();

  /// Wires the failure model in: Open/Next observe `cancel` between
  /// blocks, and every Next() receive is bounded — after `receive_timeout`
  /// of cumulative blocking on the port the operator gives up with
  /// DeadlineExceeded instead of hanging on a dead sender. Either may be
  /// null/infinite to disable. Called by the executor at build time.
  void ConfigureCancellation(CancelToken* cancel, Duration receive_timeout);

 private:
  ExchangeOp(OperatorPtr child, ExchangeMode mode, std::string partition_key,
             int node_id, net::ExchangePort* port,
             std::vector<int> destinations, NodeMetrics* metrics);

  /// Sends one staged block to `dest` through the port, recording
  /// sent-byte/row metrics and credit waits.
  void ShipBlock(int dest, storage::Block&& block);
  void FlushPending(int dest);
  void RouteBlock(const storage::Block& block);
  /// Appends a run of `count` consecutive physical rows of `block`
  /// starting at `phys` to dest's staging block, chunking at capacity and
  /// flushing full chunks.
  void AppendRunToPending(int dest, const storage::Block& block,
                          std::size_t phys, std::size_t count);

  OperatorPtr child_;
  ExchangeMode mode_;
  std::string partition_key_;
  int node_id_;
  net::ExchangePort* port_;
  NodeMetrics* metrics_;

  int key_idx_ = -1;
  bool send_complete_ = false;
  std::vector<int> destinations_;
  std::vector<storage::Block> pending_;  // per-destination staging blocks

  CancelToken* cancel_ = nullptr;
  Duration receive_timeout_ = Duration::Infinite();
};

}  // namespace eedc::exec

#endif  // EEDC_EXEC_EXCHANGE_OP_H_
