// In-process transport backend: the default interconnect.
//
// Frames move through per-node in-memory inboxes, but remote blocks are
// really serialized into wire frames (net/wire.h) and really
// credit-gated: each remote edge holds at most credit_window_frames
// frames in flight, a credit returning to the sender only when the
// receiver (or the cycle-breaking spill drain, see net/transport.h)
// dequeues a frame. Loopback edges skip serialization and credits
// entirely; small remote blocks coalesce in a per-edge staging block
// until the coalesce threshold, block capacity, or SenderDone flushes
// them.
//
// This is the fabric of every in-process query: the executor creates a
// default-option one per run when Executor::Options::transport is unset.
// It also makes transport behavior testable without sockets: results
// are identical to the socket backend, while byte/frame counters, credit
// waits and backpressure are all real.
#ifndef EEDC_NET_INPROC_H_
#define EEDC_NET_INPROC_H_

#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"

namespace eedc::net {

class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(TransportOptions options = {})
      : options_(options) {}

  StatusOr<std::unique_ptr<ExchangePort>> CreatePort(
      int exchange_id, int num_nodes,
      const std::vector<int>& senders_per_node) override;

  std::string name() const override { return "inproc"; }
  const TransportOptions& options() const override { return options_; }

 private:
  TransportOptions options_;
};

}  // namespace eedc::net

#endif  // EEDC_NET_INPROC_H_
