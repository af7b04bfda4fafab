// Transport layer behind the exchange operator.
//
// A Transport manufactures ExchangePorts — one per exchange in a plan —
// that move serialized block frames (net/wire.h) between nodes with
// credit-based backpressure: every remote edge (source node, dest node)
// may hold at most `credit_window_frames` frames in flight, and a
// receiver grants a credit back each time it dequeues a frame. A slow
// receiver therefore stalls its senders at the window instead of letting
// queues grow without bound. Loopback edges (source == dest) never cross
// a NIC: they are credit-exempt and skip serialization, so a single-node
// exchange moves blocks by reference.
//
// Deadlock safety under the engine's drain-then-receive exchange
// protocol (exchange_op.h: every worker finishes sending before it
// receives): bounded edges would deadlock when a wait cycle of full
// windows forms across nodes. Implementations break every such cycle
// with a cooperative inbound drain — a sender blocked on credit moves
// frames from *its own node's* bounded wire queue into an unbounded
// spill queue, granting those frames' credits back. A worker waiting for
// credit thus never holds inbound capacity, so some edge in any would-be
// cycle always drains. A genuinely slow receiver whose node has nothing
// inbound still stalls its senders at the window — backpressure is real,
// only cycles are exempt.
//
// Two backends share this interface: InProcessTransport (net/inproc.h,
// frames move through in-memory queues; the default) and SocketTransport
// (net/socket.h, frames cross real byte-stream sockets with the credit
// protocol as explicit ack bytes). Results are identical across backends.
#ifndef EEDC_NET_TRANSPORT_H_
#define EEDC_NET_TRANSPORT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/units.h"
#include "net/wire.h"
#include "storage/block.h"
#include "storage/schema.h"

namespace eedc::obs {
class MetricsRegistry;
}  // namespace eedc::obs

namespace eedc::net {

struct TransportOptions {
  /// Frames one remote edge may hold in flight before Send blocks.
  int credit_window_frames = 4;
  /// Remote sends smaller than this coalesce into a per-edge staging
  /// block and ship together (flushed at the threshold, at block
  /// capacity, and at SenderDone). 0 disables coalescing.
  std::size_t coalesce_bytes = 16 * 1024;
  /// Ceiling on one frame's payload, enforced on BOTH ends of an edge:
  /// senders split oversized blocks at serialize time (never truncate),
  /// receivers reject larger lengths as stream corruption. Both ends
  /// must agree. Small values are useful to exercise the split path in
  /// tests.
  std::uint64_t max_frame_payload_bytes = kMaxFramePayloadBytes;
  /// Per-edge frame/byte counters and credit-wait totals land here
  /// (names: net.e<exchange>.s<src>d<dst>.{tx_frames,tx_bytes,...}).
  /// Not owned; may be null.
  obs::MetricsRegistry* metrics = nullptr;
};

/// A block received from a port, with its provenance: `source_node` lets
/// the receiver account remote vs loopback bytes honestly.
struct ReceivedBlock {
  storage::Block block;
  int source_node = 0;

  explicit ReceivedBlock(storage::Block b, int source)
      : block(std::move(b)), source_node(source) {}
};

/// One exchange's fabric: N per-node inboxes written by every worker of
/// every node. The call protocol:
///
///   BindSchema() once per exchange (pre-thread, from plan
///   instantiation) -> workers Send() any number of blocks ->
///   each worker SenderDone() exactly once -> dest workers Receive()
///   until nullopt. Close() poisons everything at any point.
class ExchangePort {
 public:
  virtual ~ExchangePort() = default;

  /// Declares the block schema of this exchange. Idempotent; called from
  /// plan instantiation before any worker thread starts. A second bind
  /// with a different digest fails (per-node plans disagree).
  virtual Status BindSchema(const storage::Schema& schema) = 0;

  /// Ships `block` from `source` to `dest`. Blocks while the edge is out
  /// of credit; `credit_wait` (may be null) receives the blocked time.
  /// Dropped silently after Close().
  virtual void Send(int source, int dest, storage::Block block,
                    Duration* credit_wait) = 0;

  /// One sending worker of `source` finished: flushes the coalescing
  /// staging of every edge out of `source` and retires one sender token
  /// on every inbox. Each worker calls exactly once.
  virtual void SenderDone(int source) = 0;

  /// SenderDone for an aborting worker: retires the tokens WITHOUT
  /// flushing staged data, and never blocks on credit (the peer may be
  /// the reason we are aborting).
  virtual void AbortSend(int source) = 0;

  /// Dequeues the next block addressed to `node`, waiting up to
  /// `timeout`. Returns nullopt when every sender is done and the inbox
  /// is drained, when poisoned, or on timeout (*timed_out = true).
  /// `blocked` (may be null) receives the time spent waiting.
  virtual std::optional<ReceivedBlock> Receive(int node, Duration timeout,
                                               Duration* blocked,
                                               bool* timed_out) = 0;

  /// Poisons the port: queued frames are dropped, blocked and later
  /// receivers return nullopt at once, credit-blocked senders are
  /// released, and late Send/SenderDone/AbortSend calls are no-ops. This
  /// is the failure path: a crashed sender can never hang its receivers.
  /// Idempotent; the first reason wins.
  virtual void Close(Status reason) = 0;

  /// The Close() reason, or OK when never poisoned.
  virtual Status close_reason() const = 0;

  virtual int id() const = 0;
  virtual int num_nodes() const = 0;
};

/// Factory for ports; one Transport outlives all ports it created.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Creates the fabric for exchange `exchange_id` over `num_nodes`
  /// nodes with `senders_per_node[i]` sending workers on node i.
  virtual StatusOr<std::unique_ptr<ExchangePort>> CreatePort(
      int exchange_id, int num_nodes,
      const std::vector<int>& senders_per_node) = 0;

  /// Backend name recorded in bench headers ("inproc", "tcp", "unix").
  virtual std::string name() const = 0;

  virtual const TransportOptions& options() const = 0;
};

}  // namespace eedc::net

#endif  // EEDC_NET_TRANSPORT_H_
