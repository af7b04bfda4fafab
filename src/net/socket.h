// Socket transport backend: frames cross real byte-stream sockets.
//
// Every remote edge (source node, dest node) gets its own connected
// socket pair: the sending side writes wire frames (net/wire.h) and
// reads credit bytes; the receiving side runs a reader thread that
// re-frames the byte stream (header, then payload_bytes of payload) into
// the destination inbox, and the consumer writes one credit byte back
// per dequeued frame. The sender admits at most credit_window_frames
// unacknowledged frames per edge, so backpressure crosses the socket
// end-to-end instead of relying on kernel buffer sizes.
//
// Worker completion also crosses the wire: each sending worker ends
// every edge with a kFrameEof control frame (ordered after its data by
// the byte stream), and the receiver retires that worker's sender token
// only when the EOF arrives — a receiver can never conclude "all senders
// done" while data frames are still in flight.
//
// Pairs prefer a TCP connection over loopback (backend name "tcp") and
// fall back to an AF_UNIX socketpair when the sandbox forbids TCP
// (backend name "unix"); framing and credit logic are identical either
// way. Close() shuts the sockets down, which releases reader threads,
// blocked writes, and credit-blocked senders — the port hang-safety
// contract (net/transport.h) extended across the wire.
#ifndef EEDC_NET_SOCKET_H_
#define EEDC_NET_SOCKET_H_

#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"

namespace eedc::net {

/// Establishes one connected stream pair: a TCP connection over loopback
/// (with TCP_NODELAY) when `use_tcp`, else an AF_UNIX socketpair.
/// `fds[0]` is the sender-side end, `fds[1]` the receiver-side end.
/// Returns false (no fds opened) when the pair cannot be established.
bool MakeSocketStreamPair(bool use_tcp, int fds[2]);

/// Builds a socket exchange port for ONE node of a multi-process fleet
/// from already-connected stream fds (e.g. received over SCM_RIGHTS from
/// a coordinator). `edge_fds` has num_nodes^2 entries in (source-major)
/// edge order; entry s*num_nodes+d must be a valid fd exactly when
/// s != d and the edge touches `local_node` (the send end when
/// s == local_node, the receive end when d == local_node), and -1
/// elsewhere. Takes ownership of every valid fd, including on error.
/// Framing, credit, EOF, and abort protocols are identical to
/// SocketTransport ports; additionally, a peer process dying mid-query
/// is detected as a premature stream end (or a failed send) on one of
/// its edges and poisons the port with Unavailable.
StatusOr<std::unique_ptr<ExchangePort>> CreatePreconnectedPort(
    int exchange_id, int num_nodes,
    const std::vector<int>& senders_per_node, int local_node,
    std::vector<int> edge_fds, TransportOptions options);

class SocketTransport final : public Transport {
 public:
  /// Probes connectivity once: the backend name is "tcp" when a loopback
  /// TCP pair can be established, "unix" otherwise.
  explicit SocketTransport(TransportOptions options = {});

  StatusOr<std::unique_ptr<ExchangePort>> CreatePort(
      int exchange_id, int num_nodes,
      const std::vector<int>& senders_per_node) override;

  std::string name() const override { return name_; }
  const TransportOptions& options() const override { return options_; }

 private:
  TransportOptions options_;
  bool use_tcp_ = false;
  std::string name_;
};

}  // namespace eedc::net

#endif  // EEDC_NET_SOCKET_H_
