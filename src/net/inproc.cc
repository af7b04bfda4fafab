#include "net/inproc.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"

namespace eedc::net {

namespace {

Duration SinceSteady(std::chrono::steady_clock::time_point start) {
  return Duration::Seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

class InProcessPort final : public ExchangePort {
 public:
  InProcessPort(int exchange_id, int num_nodes,
                const std::vector<int>& senders_per_node,
                TransportOptions options)
      : id_(exchange_id), num_nodes_(num_nodes), options_(options) {
    int total_senders = 0;
    for (int w : senders_per_node) {
      EEDC_CHECK(w >= 1);
      total_senders += w;
    }
    inboxes_.reserve(static_cast<std::size_t>(num_nodes));
    for (int i = 0; i < num_nodes; ++i) {
      auto inbox = std::make_unique<Inbox>();
      inbox->in_flight.assign(static_cast<std::size_t>(num_nodes), 0);
      inbox->senders_remaining = total_senders;
      inboxes_.push_back(std::move(inbox));
    }
    edges_.resize(static_cast<std::size_t>(num_nodes) * num_nodes);
    for (auto& e : edges_) e = std::make_unique<Edge>();
    edge_names_.reserve(edges_.size());
    for (int s = 0; s < num_nodes; ++s) {
      for (int d = 0; d < num_nodes; ++d) {
        const std::string prefix = "net.e" + std::to_string(id_) + ".s" +
                                   std::to_string(s) + "d" +
                                   std::to_string(d);
        edge_names_.push_back(EdgeNames{prefix + ".tx_frames",
                                        prefix + ".tx_bytes",
                                        prefix + ".tx_rows",
                                        prefix + ".credit_wait_s"});
      }
    }
  }

  Status BindSchema(const storage::Schema& schema) override {
    std::lock_guard<std::mutex> lock(schema_mu_);
    const std::uint64_t digest = SchemaDigest(schema);
    if (schema_.has_value()) {
      if (digest != schema_digest_) {
        return Status::InvalidArgument(
            "exchange " + std::to_string(id_) +
            " was bound to two different schemas");
      }
      return Status::OK();
    }
    schema_.emplace(schema);
    schema_digest_ = digest;
    return Status::OK();
  }

  void Send(int source, int dest, storage::Block block,
            Duration* credit_wait) override {
    if (closed_.load(std::memory_order_acquire)) return;
    if (block.empty()) return;
    if (source == dest) {
      // Loopback never crosses the NIC: no serialization, no credits,
      // no bound.
      Inbox& inbox = *inboxes_[static_cast<std::size_t>(dest)];
      {
        std::lock_guard<std::mutex> lock(inbox.mu);
        inbox.spill.emplace_back(std::move(block), source);
      }
      inbox.cv.notify_all();
      return;
    }
    // The wire carries dense frames; gather once up front so the
    // coalescing range-appends below see physical == logical rows.
    block.Compact();
    if (options_.coalesce_bytes == 0) {
      Transmit(source, dest, block, credit_wait);
      return;
    }
    Edge& edge = *edges_[EdgeIndex(source, dest)];
    std::vector<storage::Block> ready;
    {
      std::lock_guard<std::mutex> lock(edge.mu);
      std::size_t offset = 0;
      const std::size_t total = block.size();
      while (offset < total) {
        if (!edge.staging.has_value()) edge.staging.emplace(block.schema());
        storage::Block& staged = *edge.staging;
        const std::size_t room = staged.capacity() - staged.size();
        if (room == 0) {
          ready.push_back(std::move(staged));
          edge.staging.reset();
          continue;
        }
        const std::size_t take = std::min(room, total - offset);
        staged.AppendPhysicalRange(block, offset, take);
        offset += take;
        if (staged.full() ||
            static_cast<std::size_t>(staged.LogicalBytes()) >=
                options_.coalesce_bytes) {
          ready.push_back(std::move(staged));
          edge.staging.reset();
        }
      }
    }
    for (storage::Block& b : ready) Transmit(source, dest, b, credit_wait);
  }

  void SenderDone(int source) override {
    // Flush this node's staged edges so coalesced remainders ship. The
    // staging is shared by the node's workers; an early flush by the
    // first finisher just sends a smaller frame.
    for (int dest = 0; dest < num_nodes_; ++dest) {
      if (dest == source) continue;
      std::optional<storage::Block> staged;
      {
        Edge& edge = *edges_[EdgeIndex(source, dest)];
        std::lock_guard<std::mutex> lock(edge.mu);
        staged.swap(edge.staging);
      }
      if (staged.has_value() && !staged->empty()) {
        Transmit(source, dest, *staged, nullptr);
      }
    }
    RetireSenderToken();
  }

  void AbortSend(int source) override {
    (void)source;  // staged data is dropped wholesale by Close()
    RetireSenderToken();
  }

  std::optional<ReceivedBlock> Receive(int node, Duration timeout,
                                       Duration* blocked,
                                       bool* timed_out) override {
    if (timed_out != nullptr) *timed_out = false;
    if (blocked != nullptr) *blocked = Duration::Zero();
    Inbox& inbox = *inboxes_[static_cast<std::size_t>(node)];
    std::unique_lock<std::mutex> lock(inbox.mu);
    const auto ready = [this, &inbox] {
      return closed_.load(std::memory_order_relaxed) ||
             !inbox.spill.empty() || !inbox.wire.empty() ||
             inbox.senders_remaining == 0;
    };
    if (!ready()) {
      const auto wait_start = std::chrono::steady_clock::now();
      bool woke = true;
      if (timeout.is_finite()) {
        woke = inbox.cv.wait_for(
            lock, std::chrono::duration<double>(timeout.seconds()), ready);
      } else {
        inbox.cv.wait(lock, ready);
      }
      if (blocked != nullptr) *blocked = SinceSteady(wait_start);
      if (!woke) {
        if (timed_out != nullptr) *timed_out = true;
        return std::nullopt;
      }
    }
    if (closed_.load(std::memory_order_relaxed)) return std::nullopt;
    if (!inbox.spill.empty()) {
      ReceivedBlock received = std::move(inbox.spill.front());
      inbox.spill.pop_front();
      return received;
    }
    if (!inbox.wire.empty()) {
      WireFrame frame = std::move(inbox.wire.front());
      inbox.wire.pop_front();
      --inbox.in_flight[static_cast<std::size_t>(frame.source)];
      lock.unlock();
      // Credit granted: wake senders blocked on this inbox's window.
      inbox.cv.notify_all();
      StatusOr<ReceivedBlock> decoded = DecodeWire(frame);
      if (!decoded.ok()) {
        Close(decoded.status());
        return std::nullopt;
      }
      return std::move(decoded).value();
    }
    return std::nullopt;  // all senders done and the inbox is drained
  }

  void Close(Status reason) override {
    {
      std::lock_guard<std::mutex> lock(close_mu_);
      if (closed_.load(std::memory_order_relaxed)) return;
      close_reason_ = std::move(reason);
      closed_.store(true, std::memory_order_release);
    }
    for (auto& inbox : inboxes_) {
      {
        std::lock_guard<std::mutex> lock(inbox->mu);
        inbox->wire.clear();
        inbox->spill.clear();
        std::fill(inbox->in_flight.begin(), inbox->in_flight.end(), 0);
        inbox->senders_remaining = 0;
      }
      inbox->cv.notify_all();
    }
  }

  Status close_reason() const override {
    std::lock_guard<std::mutex> lock(close_mu_);
    return close_reason_;
  }

  int id() const override { return id_; }
  int num_nodes() const override { return num_nodes_; }

 private:
  struct WireFrame {
    std::string bytes;
    int source = 0;
  };
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    /// Serialized frames in flight, bounded per edge by the credit
    /// window (`in_flight[source]` < credit_window_frames).
    std::deque<WireFrame> wire;
    /// Unbounded overflow: loopback blocks and frames moved out of
    /// `wire` by the cooperative cycle-breaking drain (transport.h).
    std::deque<ReceivedBlock> spill;
    std::vector<int> in_flight;
    int senders_remaining = 0;
  };
  struct Edge {
    std::mutex mu;
    std::optional<storage::Block> staging;
  };
  struct EdgeNames {
    std::string tx_frames;
    std::string tx_bytes;
    std::string tx_rows;
    std::string credit_wait_s;
  };

  std::size_t EdgeIndex(int source, int dest) const {
    return static_cast<std::size_t>(source) *
               static_cast<std::size_t>(num_nodes_) +
           static_cast<std::size_t>(dest);
  }

  /// Serializes one dense block and pushes it onto dest's wire queue,
  /// blocking while the (source, dest) edge is out of credit. While
  /// blocked, drains source's own inbound wire queue into spill so no
  /// credit-waiter ever holds inbound capacity (the deadlock argument in
  /// transport.h).
  void Transmit(int source, int dest, const storage::Block& block,
                Duration* credit_wait) {
    // Same sender-side payload enforcement as the socket backend: split
    // at the bound, poison on an indivisible oversized row — never
    // truncate (the u32 length field would lie to the receiver).
    std::vector<EncodedFrame> frames;
    const Status encoded =
        EncodeBlockFrames(block, id_, source, dest,
                          options_.max_frame_payload_bytes, &frames);
    if (!encoded.ok()) {
      Close(encoded);
      return;
    }
    for (EncodedFrame& frame : frames) {
      TransmitFrame(source, dest, std::move(frame), credit_wait);
    }
  }

  void TransmitFrame(int source, int dest, EncodedFrame frame,
                     Duration* credit_wait) {
    std::string frame_bytes = std::move(frame.bytes);
    const std::size_t frame_size = frame_bytes.size();
    const std::size_t rows = frame.rows;
    Inbox& inbox = *inboxes_[static_cast<std::size_t>(dest)];
    const auto wait_start = std::chrono::steady_clock::now();
    bool waited = false;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(inbox.mu);
        if (closed_.load(std::memory_order_relaxed)) return;
        if (inbox.in_flight[static_cast<std::size_t>(source)] <
            options_.credit_window_frames) {
          ++inbox.in_flight[static_cast<std::size_t>(source)];
          inbox.wire.push_back(WireFrame{std::move(frame_bytes), source});
          break;
        }
      }
      waited = true;
      if (!DrainOneInbound(source)) {
        std::unique_lock<std::mutex> lock(inbox.mu);
        if (!closed_.load(std::memory_order_relaxed) &&
            inbox.in_flight[static_cast<std::size_t>(source)] >=
                options_.credit_window_frames) {
          inbox.cv.wait_for(lock, std::chrono::milliseconds(1));
        }
      }
    }
    inbox.cv.notify_all();
    const EdgeNames& names = edge_names_[EdgeIndex(source, dest)];
    if (options_.metrics != nullptr) {
      options_.metrics->AddCounter(names.tx_frames);
      options_.metrics->AddCounter(names.tx_bytes,
                                   static_cast<double>(frame_size));
      options_.metrics->AddCounter(names.tx_rows,
                                   static_cast<double>(rows));
    }
    if (waited) {
      const Duration elapsed = SinceSteady(wait_start);
      if (credit_wait != nullptr) *credit_wait += elapsed;
      if (options_.metrics != nullptr) {
        options_.metrics->AddCounter(names.credit_wait_s, elapsed.seconds());
      }
    }
  }

  /// Moves at most one frame from `node`'s own wire queue to its spill
  /// queue, granting the frame's credit back. Returns whether a frame
  /// moved. Called only by credit-blocked senders of `node`.
  bool DrainOneInbound(int node) {
    Inbox& inbox = *inboxes_[static_cast<std::size_t>(node)];
    WireFrame frame;
    {
      std::lock_guard<std::mutex> lock(inbox.mu);
      if (inbox.wire.empty()) return false;
      frame = std::move(inbox.wire.front());
      inbox.wire.pop_front();
      --inbox.in_flight[static_cast<std::size_t>(frame.source)];
    }
    inbox.cv.notify_all();  // the freed credit may unblock a sender
    StatusOr<ReceivedBlock> decoded = DecodeWire(frame);  // outside locks
    if (!decoded.ok()) {
      Close(decoded.status());
      return true;
    }
    {
      std::lock_guard<std::mutex> lock(inbox.mu);
      if (closed_.load(std::memory_order_relaxed)) return true;
      inbox.spill.push_back(std::move(decoded).value());
    }
    inbox.cv.notify_all();
    return true;
  }

  StatusOr<ReceivedBlock> DecodeWire(const WireFrame& frame) {
    // BindSchema happens-before worker start (transport.h contract), so
    // the schema is immutable by the time frames flow.
    std::optional<storage::Schema> schema;
    {
      std::lock_guard<std::mutex> lock(schema_mu_);
      schema = schema_;
    }
    if (!schema.has_value()) {
      return Status::FailedPrecondition(
          "exchange " + std::to_string(id_) +
          " received a frame before BindSchema");
    }
    EEDC_ASSIGN_OR_RETURN(DecodedFrame decoded,
                          DecodeFrame(*schema, frame.bytes));
    return ReceivedBlock(std::move(decoded.block), frame.source);
  }

  void RetireSenderToken() {
    for (auto& inbox : inboxes_) {
      {
        std::lock_guard<std::mutex> lock(inbox->mu);
        if (inbox->senders_remaining > 0) {
          --inbox->senders_remaining;
        } else {
          // Close() zeroes the counts under this lock, so a closed port
          // tolerates late senders. On an open port a missing token means
          // a worker retired twice: every stream would end one sender
          // early and silently truncate the result.
          EEDC_CHECK(closed_.load(std::memory_order_relaxed))
              << "exchange " << id_ << ": SenderDone called too many times";
        }
      }
      inbox->cv.notify_all();
    }
  }

  const int id_;
  const int num_nodes_;
  const TransportOptions options_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<std::unique_ptr<Edge>> edges_;  // source * num_nodes + dest
  std::vector<EdgeNames> edge_names_;

  mutable std::mutex schema_mu_;
  std::optional<storage::Schema> schema_;
  std::uint64_t schema_digest_ = 0;

  std::atomic<bool> closed_{false};
  mutable std::mutex close_mu_;
  Status close_reason_;
};

}  // namespace

StatusOr<std::unique_ptr<ExchangePort>> InProcessTransport::CreatePort(
    int exchange_id, int num_nodes,
    const std::vector<int>& senders_per_node) {
  if (num_nodes <= 0 ||
      static_cast<int>(senders_per_node.size()) != num_nodes) {
    return Status::InvalidArgument(
        "CreatePort needs one sender count per node");
  }
  return std::unique_ptr<ExchangePort>(std::make_unique<InProcessPort>(
      exchange_id, num_nodes, senders_per_node, options_));
}

}  // namespace eedc::net
