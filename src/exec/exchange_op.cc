#include "exec/exchange_op.h"

#include <algorithm>
#include <chrono>

#include "net/transport.h"
#include "storage/partitioner.h"

namespace eedc::exec {

using storage::Block;
using storage::DataType;

const char* ExchangeModeToString(ExchangeMode mode) {
  switch (mode) {
    case ExchangeMode::kShuffle:
      return "shuffle";
    case ExchangeMode::kBroadcast:
      return "broadcast";
    case ExchangeMode::kGather:
      return "gather";
  }
  return "unknown";
}

StatusOr<OperatorPtr> ExchangeOp::Create(OperatorPtr child,
                                         ExchangeMode mode,
                                         std::string partition_key,
                                         int node_id,
                                         net::ExchangePort* port,
                                         std::vector<int> destinations,
                                         NodeMetrics* metrics) {
  if (port == nullptr) {
    return Status::InvalidArgument("exchange requires a transport port");
  }
  const int num_nodes = port->num_nodes();
  if (destinations.empty()) {
    for (int i = 0; i < num_nodes; ++i) destinations.push_back(i);
  }
  for (int d : destinations) {
    if (d < 0 || d >= num_nodes) {
      return Status::InvalidArgument("exchange destination out of range");
    }
  }
  int key_idx = -1;
  if (mode == ExchangeMode::kShuffle) {
    if (partition_key.empty()) {
      return Status::InvalidArgument("shuffle exchange requires a key");
    }
    const auto& schema = child->schema();
    EEDC_ASSIGN_OR_RETURN(key_idx, schema.IndexOf(partition_key));
    if (schema.field(static_cast<std::size_t>(key_idx)).type !=
        DataType::kInt64) {
      return Status::InvalidArgument("shuffle key must be int64");
    }
  }
  // Bind here, during single-threaded plan instantiation: both ends of
  // every edge agree on the frame schema before any worker sends.
  EEDC_RETURN_IF_ERROR(port->BindSchema(child->schema()));
  auto* op = new ExchangeOp(std::move(child), mode,
                            std::move(partition_key), node_id, port,
                            std::move(destinations), metrics);
  op->key_idx_ = key_idx;
  return OperatorPtr(op);
}

ExchangeOp::ExchangeOp(OperatorPtr child, ExchangeMode mode,
                       std::string partition_key, int node_id,
                       net::ExchangePort* port,
                       std::vector<int> destinations, NodeMetrics* metrics)
    : child_(std::move(child)),
      mode_(mode),
      partition_key_(std::move(partition_key)),
      node_id_(node_id),
      port_(port),
      metrics_(metrics),
      destinations_(std::move(destinations)) {}

void ExchangeOp::ShipBlock(int dest, Block&& block) {
  if (block.empty()) return;
  if (metrics_ != nullptr) {
    auto& stats = metrics_->exchange(static_cast<std::size_t>(port_->id()));
    const double bytes = block.LogicalBytes();
    if (dest == node_id_) {
      stats.sent_local_bytes += bytes;
    } else {
      stats.sent_remote_bytes += bytes;
    }
    stats.rows_routed += static_cast<double>(block.size());
    metrics_->cpu_bytes += bytes;
  }
  // The send may block while the edge is out of credit (the receiver
  // backpressuring us). That interval is a stall, not compute — account
  // it like a blocked receive.
  Duration wait = Duration::Zero();
  const auto entered = std::chrono::steady_clock::now();
  port_->Send(node_id_, dest, std::move(block), &wait);
  if (wait > Duration::Zero() && metrics_ != nullptr) {
    metrics_->credit_wait += wait;
    const double begin =
        std::chrono::duration<double>(entered.time_since_epoch()).count();
    metrics_->credit_wait_spans.emplace_back(begin, begin + wait.seconds());
  }
}

void ExchangeOp::AppendRunToPending(int dest, const Block& block,
                                    std::size_t phys, std::size_t count) {
  // Chunk the run at the staging block's remaining capacity so blocks
  // crossing the port never exceed their declared capacity.
  std::size_t appended = 0;
  while (appended < count) {
    Block& staged = pending_[static_cast<std::size_t>(dest)];
    const std::size_t room = staged.capacity() - staged.size();
    const std::size_t take = std::min(count - appended, room);
    staged.AppendPhysicalRange(block, phys + appended, take);
    appended += take;
    if (staged.full()) FlushPending(dest);
  }
}

void ExchangeOp::FlushPending(int dest) {
  Block& staged = pending_[static_cast<std::size_t>(dest)];
  if (staged.empty()) return;
  ShipBlock(dest, std::move(staged));
  staged = Block(child_->schema());
}

void ExchangeOp::RouteBlock(const Block& block) {
  switch (mode_) {
    case ExchangeMode::kShuffle: {
      const auto keys =
          block.column(static_cast<std::size_t>(key_idx_)).int64s();
      const int num_dests = static_cast<int>(destinations_.size());
      const std::uint32_t* sel = block.selection_data();
      const std::size_t n = block.size();
      // Route maximal runs of physically-consecutive rows that share a
      // destination with one column-wise range append instead of
      // row-at-a-time copies. Dense low-cardinality streams (and gather
      // below) collapse to a handful of bulk appends per block.
      std::size_t i = 0;
      while (i < n) {
        const std::size_t phys = sel != nullptr ? sel[i] : i;
        const int dest = destinations_[static_cast<std::size_t>(
            storage::PartitionOf(keys[phys], num_dests))];
        std::size_t j = i + 1;
        std::size_t run_end = phys + 1;
        while (j < n) {
          const std::size_t p = sel != nullptr ? sel[j] : j;
          if (p != run_end ||
              destinations_[static_cast<std::size_t>(storage::PartitionOf(
                  keys[p], num_dests))] != dest) {
            break;
          }
          ++run_end;
          ++j;
        }
        AppendRunToPending(dest, block, phys, j - i);
        i = j;
      }
      break;
    }
    case ExchangeMode::kBroadcast: {
      // Ship is a materialization boundary: gather the live rows once,
      // then every destination gets a contiguous copy of the dense block
      // (the last one takes it by move).
      Block dense(child_->schema(), std::max<std::size_t>(block.size(), 1));
      for (std::size_t c = 0; c < block.schema().num_fields(); ++c) {
        if (block.has_selection()) {
          dense.mutable_column(c).AppendGather(block.column(c),
                                               block.selection());
        } else {
          dense.mutable_column(c).AppendRange(block.column(c), 0,
                                              block.size());
        }
      }
      dense.FinishBulkLoad();
      const auto ship = [this](int dest, Block&& b) {
        ShipBlock(dest, std::move(b));
      };
      for (std::size_t d = 0; d + 1 < destinations_.size(); ++d) {
        Block copy(child_->schema(), std::max<std::size_t>(dense.size(), 1));
        for (std::size_t c = 0; c < dense.schema().num_fields(); ++c) {
          copy.mutable_column(c).AppendRange(dense.column(c), 0,
                                             dense.size());
        }
        copy.FinishBulkLoad();
        ship(destinations_[d], std::move(copy));
      }
      ship(destinations_.back(), std::move(dense));
      break;
    }
    case ExchangeMode::kGather: {
      const int dest = destinations_.front();
      const std::uint32_t* sel = block.selection_data();
      const std::size_t n = block.size();
      // Single destination: runs are bounded only by selection gaps, so a
      // dense block ships as one range append.
      std::size_t i = 0;
      while (i < n) {
        const std::size_t phys = sel != nullptr ? sel[i] : i;
        std::size_t j = i + 1;
        while (j < n &&
               (sel != nullptr ? sel[j] : j) == phys + (j - i)) {
          ++j;
        }
        AppendRunToPending(dest, block, phys, j - i);
        i = j;
      }
      break;
    }
  }
}

Status ExchangeOp::Open() {
  EEDC_RETURN_IF_ERROR(child_->Open());
  const int n = port_->num_nodes();
  pending_.clear();
  pending_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pending_.emplace_back(child_->schema());

  // Send phase: drain the child completely.
  while (true) {
    if (cancel_ != nullptr) EEDC_RETURN_IF_ERROR(cancel_->Check());
    EEDC_ASSIGN_OR_RETURN(std::optional<Block> block, child_->Next());
    if (!block.has_value()) break;
    RouteBlock(*block);
  }
  for (int dest = 0; dest < n; ++dest) FlushPending(dest);
  port_->SenderDone(node_id_);
  send_complete_ = true;
  return child_->Close();
}

void ExchangeOp::AbortSend() {
  if (send_complete_) return;
  port_->AbortSend(node_id_);
  send_complete_ = true;
}

StatusOr<std::optional<Block>> ExchangeOp::Next() {
  // With a cancel token the infinite wait is broken into short slices so
  // cancellation is observed within one slice even while no sender makes
  // progress; cumulative blocked time is capped at receive_timeout_.
  const Duration slice = Duration::Millis(10.0);
  Duration waited_total = Duration::Zero();
  while (true) {
    if (cancel_ != nullptr) EEDC_RETURN_IF_ERROR(cancel_->Check());
    const bool bounded =
        cancel_ != nullptr || receive_timeout_.is_finite();
    const auto entered = std::chrono::steady_clock::now();
    Duration blocked = Duration::Zero();
    bool timed_out = false;
    std::optional<net::ReceivedBlock> received = port_->Receive(
        node_id_, bounded ? slice : Duration::Infinite(), &blocked,
        &timed_out);
    if (blocked > Duration::Zero() && metrics_ != nullptr) {
      // A blocked receive is a network/straggler stall, not compute:
      // record the interval so the executor can report it to the
      // activity listener (priced at idle watts by the energy meter).
      metrics_->exchange_wait += blocked;
      const double begin =
          std::chrono::duration<double>(entered.time_since_epoch()).count();
      metrics_->exchange_wait_spans.emplace_back(begin,
                                                 begin + blocked.seconds());
    }
    if (timed_out) {
      waited_total += blocked;
      if (receive_timeout_.is_finite() && waited_total >= receive_timeout_) {
        return Status::DeadlineExceeded(
            "exchange receive exceeded deadline on node " +
            std::to_string(node_id_));
      }
      continue;  // re-check the cancel token, then wait another slice
    }
    if (!received.has_value()) {
      // Closed and drained — or poisoned by an aborting peer, in which
      // case we surface the peer's failure instead of a truncated stream.
      Status reason = port_->close_reason();
      if (!reason.ok()) return reason;
      return std::optional<Block>();
    }
    waited_total = Duration::Zero();
    Block& block = received->block;
    if (metrics_ != nullptr) {
      auto& stats = metrics_->exchange(static_cast<std::size_t>(port_->id()));
      stats.received_bytes += block.LogicalBytes();
      if (received->source_node != node_id_) {
        stats.received_remote_bytes += block.LogicalBytes();
      }
    }
    if (!block.empty()) return std::optional<Block>(std::move(block));
  }
}

void ExchangeOp::ConfigureCancellation(CancelToken* cancel,
                                       Duration receive_timeout) {
  cancel_ = cancel;
  receive_timeout_ = receive_timeout;
}

Status ExchangeOp::Close() { return Status::OK(); }

}  // namespace eedc::exec
