// Execution metrics collected by P-store operators.
//
// These counters are the bridge between the real engine and the cluster
// simulator: a query run at a small scale factor yields per-node logical
// byte counts (scanned, shuffled, joined) from which sim::QueryProfile
// scales up to the paper's table sizes.
#ifndef EEDC_EXEC_METRICS_H_
#define EEDC_EXEC_METRICS_H_

#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/op_profile.h"

namespace eedc::exec {

/// Per-exchange-instance traffic on one node. "Local" bytes loop back to the
/// same node and never cross the network.
struct ExchangeStats {
  double sent_remote_bytes = 0.0;
  double sent_local_bytes = 0.0;
  double received_bytes = 0.0;
  /// Subset of received_bytes that arrived from a different node (crossed
  /// the interconnect), attributed by the port's per-block provenance.
  double received_remote_bytes = 0.0;
  double rows_routed = 0.0;
};

/// Observes per-worker pipeline activity. The executor reports one span
/// per worker pipeline instance — the half-open interval during which that
/// worker was executing its operator tree, as offsets from the query's
/// execution start. Spans are emitted after the run completes, from the
/// calling thread, in (node, worker) order, so implementations need no
/// locking. This is the bridge into the energy-accounting runtime
/// (energy::EnergyMeter): overlapping spans become a node utilization
/// curve which a power model integrates into joules.
class WorkerActivityListener {
 public:
  virtual ~WorkerActivityListener() = default;
  virtual void OnWorkerSpan(int node, int worker, Duration begin,
                            Duration end) = 0;
  /// A sub-interval of the worker's span spent blocked in an exchange
  /// Receive() waiting on peers' data — the CPU is stalled, so energy
  /// accounting should price it at idle watts, not busy watts. Wait
  /// intervals never overlap for one worker and lie inside its span.
  /// Emitted after the spans, same thread, (node, worker) order.
  virtual void OnWorkerWait(int node, int worker, Duration begin,
                            Duration end) {
    (void)node;
    (void)worker;
    (void)begin;
    (void)end;
  }
  /// Bytes this node moved across the interconnect during the query
  /// (transmitted and received remote frame payload). Emitted once per
  /// node that moved any, after the spans and waits, same thread. Energy
  /// accounting turns these into the NIC term of the per-node energy
  /// split.
  virtual void OnNodeNetworkBytes(int node, double tx_bytes,
                                  double rx_bytes) {
    (void)node;
    (void)tx_bytes;
    (void)rx_bytes;
  }
};

/// Counters for one node's operator tree.
struct NodeMetrics {
  double scan_rows = 0.0;
  double scan_bytes = 0.0;  // logical bytes read from local storage
  double filter_rows_in = 0.0;
  double filter_rows_out = 0.0;
  double filter_bytes_out = 0.0;
  double build_rows = 0.0;  // hash-join build rows landed on this node
  double hash_table_bytes = 0.0;
  double probe_rows = 0.0;
  double join_output_rows = 0.0;
  double agg_rows_in = 0.0;
  double agg_groups = 0.0;
  /// Logical bytes pushed through every operator boundary: a proxy for CPU
  /// processing work (the model's U / C ratio).
  double cpu_bytes = 0.0;
  Duration wall = Duration::Zero();
  /// Sum of worker-pipeline execution time on this node, excluding time
  /// blocked in exchange receives. With W workers, busy / (W * wall) is
  /// the node's average executor utilization — the `c` fed to
  /// power::PowerModel::WattsAt by the energy runtime.
  Duration busy = Duration::Zero();
  /// Time blocked in exchange Receive() waiting for peers (a network /
  /// straggler stall, not compute).
  Duration exchange_wait = Duration::Zero();
  /// Time blocked in exchange Send() waiting for transport credit — the
  /// receiver backpressuring this sender. Like exchange_wait this is a
  /// stall, not compute; always zero on the legacy unbounded path.
  Duration credit_wait = Duration::Zero();
  /// Blocked receive intervals in absolute steady-clock seconds; the
  /// executor rebases them onto the query start before reporting them to
  /// the activity listener. Transient: consumed per worker, not folded
  /// into node-level metrics.
  std::vector<std::pair<double, double>> exchange_wait_spans;
  /// Credit-blocked send intervals, same convention as
  /// exchange_wait_spans. Transient, transport path only.
  std::vector<std::pair<double, double>> credit_wait_spans;

  /// Per-operator-stage time/row breakdown (filled when the executor runs
  /// with profiling or tracing enabled; all-zero otherwise). Stage seconds
  /// are operator *self* time and include blocked exchange-receive time
  /// under kExchangeReceive, so at node level
  /// op.total_seconds() ≈ busy + exchange_wait (minus root-side
  /// materialization, which no operator owns).
  obs::OpBreakdown op;

  /// Indexed by exchange id assigned during plan instantiation.
  std::vector<ExchangeStats> exchanges;

  ExchangeStats& exchange(std::size_t id) {
    if (exchanges.size() <= id) exchanges.resize(id + 1);
    return exchanges[id];
  }

  /// Accumulates one worker pipeline's counters into this node-level
  /// record: counters sum; wall takes the max (workers run concurrently).
  void MergeFrom(const NodeMetrics& w) {
    scan_rows += w.scan_rows;
    scan_bytes += w.scan_bytes;
    filter_rows_in += w.filter_rows_in;
    filter_rows_out += w.filter_rows_out;
    filter_bytes_out += w.filter_bytes_out;
    build_rows += w.build_rows;
    hash_table_bytes += w.hash_table_bytes;
    probe_rows += w.probe_rows;
    join_output_rows += w.join_output_rows;
    agg_rows_in += w.agg_rows_in;
    agg_groups += w.agg_groups;
    cpu_bytes += w.cpu_bytes;
    op.MergeFrom(w.op);
    busy += w.busy;
    exchange_wait += w.exchange_wait;
    credit_wait += w.credit_wait;
    if (w.wall > wall) wall = w.wall;
    for (std::size_t i = 0; i < w.exchanges.size(); ++i) {
      ExchangeStats& e = exchange(i);
      e.sent_remote_bytes += w.exchanges[i].sent_remote_bytes;
      e.sent_local_bytes += w.exchanges[i].sent_local_bytes;
      e.received_bytes += w.exchanges[i].received_bytes;
      e.received_remote_bytes += w.exchanges[i].received_remote_bytes;
      e.rows_routed += w.exchanges[i].rows_routed;
    }
  }

  double total_sent_remote_bytes() const {
    double t = 0.0;
    for (const auto& e : exchanges) t += e.sent_remote_bytes;
    return t;
  }
  double total_received_bytes() const {
    double t = 0.0;
    for (const auto& e : exchanges) t += e.received_bytes;
    return t;
  }
  double total_received_remote_bytes() const {
    double t = 0.0;
    for (const auto& e : exchanges) t += e.received_remote_bytes;
    return t;
  }
};

/// Whole-query metrics.
struct ExecMetrics {
  std::vector<NodeMetrics> nodes;
  Duration wall = Duration::Zero();  // max node wall time

  double TotalScanBytes() const {
    double t = 0.0;
    for (const auto& n : nodes) t += n.scan_bytes;
    return t;
  }
  double TotalRemoteBytes() const {
    double t = 0.0;
    for (const auto& n : nodes) t += n.total_sent_remote_bytes();
    return t;
  }
  double TotalJoinOutputRows() const {
    double t = 0.0;
    for (const auto& n : nodes) t += n.join_output_rows;
    return t;
  }
  double TotalCpuBytes() const {
    double t = 0.0;
    for (const auto& n : nodes) t += n.cpu_bytes;
    return t;
  }
  Duration TotalBusy() const {
    Duration t = Duration::Zero();
    for (const auto& n : nodes) t += n.busy;
    return t;
  }
};

}  // namespace eedc::exec

#endif  // EEDC_EXEC_METRICS_H_
