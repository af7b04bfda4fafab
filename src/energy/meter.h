// Energy-accounting runtime: executor activity -> utilization -> joules.
//
// The paper's thesis is that energy must be a first-class output of query
// execution, and that a node's wall power is a (non-linear, non-
// proportional) function of its CPU utilization. The EnergyMeter closes
// that loop for the real engine: it listens to the executor's per-worker
// busy spans (exec::WorkerActivityListener), folds overlapping spans into
// a piecewise-constant node utilization curve — utilization at an instant
// is busy workers / workers-per-node — and integrates the node's
// power::PowerModel over that curve into per-node and per-query joules.
// Exchange-wait intervals reported through OnWorkerWait are carved out of
// the busy spans first, so a worker stalled on the network does not count
// toward utilization and its stall is priced at idle watts when the whole
// node is waiting.
//
// One sweep (SweepNodeEnergy) does the integration for every caller: the
// meter is its one-query case plus the NIC term, and
// AttributeConcurrent (attribution.h) is its many-query case. It is a
// free function so tests can feed hand-built spans and compare against
// hand-computed joules.
#ifndef EEDC_ENERGY_METER_H_
#define EEDC_ENERGY_METER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/units.h"
#include "exec/metrics.h"
#include "power/power_model.h"

namespace eedc::energy {

/// One worker pipeline's busy interval on a node, offsets from query start.
struct WorkerSpan {
  int node = 0;
  int worker = 0;
  Duration begin = Duration::Zero();
  Duration end = Duration::Zero();
};

/// Splits each busy span around the wait intervals of the same
/// (node, worker), returning the sub-spans during which the worker was
/// actually computing. A worker fully covered by waits contributes
/// nothing. Wait time therefore drops out of the utilization curve and
/// is priced at whatever the remaining workers justify — idle watts when
/// the whole node is stalled on the network.
std::vector<WorkerSpan> SubtractWaits(std::span<const WorkerSpan> spans,
                                      std::span<const WorkerSpan> waits);

/// Joules split by what the node was doing: busy steps (utilization > 0),
/// idle steps (utilization == 0, drawing the model's idle watts — real
/// hardware is not energy proportional), and the NIC term for bytes the
/// node moved across the interconnect (zero unless a NicModel is set and
/// the transport exchange path reported traffic).
struct EnergySplit {
  Energy busy = Energy::Zero();
  Energy idle = Energy::Zero();
  Energy network = Energy::Zero();
  Energy total() const { return busy + idle + network; }
};

/// One step of a node's energy sweep: over [begin, end) `active` of its
/// workers computed (exchange waits excluded). Steps tile the horizon.
struct ActiveStep {
  Duration begin = Duration::Zero();
  Duration end = Duration::Zero();
  int active = 0;
};

/// The one energy sweep over a node's compute spans. `busy[q]` holds
/// query q's spans on the node, exchange waits already carved out by
/// SubtractWaits. Over [0, horizon) the count of computing workers is
/// piecewise constant; a step with `active` of them draws
/// WattsAt(min(1, active / workers)) and bills it as busy, a step with
/// none draws idle watts. Each busy step's joules are split across
/// queries by their active-worker counts and added to query_joules[q].
/// Steps are appended to `steps` when it is non-null. Returns the node's
/// busy and idle joules.
EnergySplit SweepNodeEnergy(std::span<const std::vector<WorkerSpan>> busy,
                            int workers, Duration horizon,
                            const power::PowerModel& model,
                            std::span<Energy> query_joules,
                            std::vector<ActiveStep>* steps = nullptr);

/// Explicit NIC energy model, replacing the old idle-watt approximation
/// of network cost: shipping `bytes` across the interconnect costs
///   joules_per_byte x bytes               (per-byte transfer energy)
/// + active_watts x bytes / bandwidth      (interface active while moving)
/// A default-constructed (all-zero) model prices the network at zero,
/// preserving pre-interconnect accounting exactly.
struct NicModel {
  double joules_per_byte = 0.0;
  Power active_watts = Power::Zero();
  double bandwidth_mbps = 0.0;  // MB/s; 0 disables the active-watts term

  Energy EnergyForBytes(double bytes) const {
    Energy e = Energy::Joules(joules_per_byte * bytes);
    if (bandwidth_mbps > 0.0) {
      e += active_watts *
           Duration::Seconds(bytes / (bandwidth_mbps * kBytesPerMB));
    }
    return e;
  }
};

/// Per-node energy accounting for one metered query.
struct NodeEnergyReport {
  int node = 0;
  Duration busy = Duration::Zero();  // worker span lengths minus waits
  /// Time workers of this node spent blocked in exchange receives
  /// (priced at the utilization the remaining workers justify).
  Duration waiting = Duration::Zero();
  Duration wall = Duration::Zero();  // query horizon on this node
  double avg_utilization = 0.0;      // busy / (W * wall)
  /// Interconnect bytes this node moved during the query (tx + rx).
  double network_bytes = 0.0;
  EnergySplit joules;
};

/// Whole-query energy accounting.
struct QueryEnergyReport {
  std::vector<NodeEnergyReport> nodes;
  Duration wall = Duration::Zero();  // max span end across nodes
  Energy total = Energy::Zero();     // = busy + idle + network
  Energy busy = Energy::Zero();
  Energy idle = Energy::Zero();
  Energy network = Energy::Zero();

  /// The paper's trade-off metric for this query.
  double edp() const { return EnergyDelayProduct(total, wall); }
};

/// How an execution attempt ended, for honest fault accounting: a clean
/// run, an attempt whose results were discarded at cancellation (its
/// joules are *wasted* — paid but serving nothing), or a successful
/// re-attempt after a crash (its joules are the *retry* overhead).
enum class AttemptKind { kClean, kWasted, kRetry };

/// Samples executor activity and integrates a utilization->watts curve
/// into joules. Attach via Executor::Options::activity_listener, run one
/// query, then call Finish() to obtain the report (which also resets the
/// meter for the next query).
class EnergyMeter : public exec::WorkerActivityListener {
 public:
  /// One power model per node (index = node id).
  explicit EnergyMeter(
      std::vector<std::shared_ptr<const power::PowerModel>> node_models,
      int workers_per_node = 1);
  /// Class-scaled fleets: one model and one pipeline count per node
  /// (node i's utilization divides by workers_per_node[i]), matching
  /// exec::Executor::Options::node_classes execution.
  EnergyMeter(
      std::vector<std::shared_ptr<const power::PowerModel>> node_models,
      std::vector<int> workers_per_node);
  /// Homogeneous cluster convenience: the same model on every node.
  EnergyMeter(int num_nodes,
              std::shared_ptr<const power::PowerModel> model,
              int workers_per_node = 1);

  void OnWorkerSpan(int node, int worker, Duration begin,
                    Duration end) override;
  void OnWorkerWait(int node, int worker, Duration begin,
                    Duration end) override;
  void OnNodeNetworkBytes(int node, double tx_bytes,
                          double rx_bytes) override;

  /// Prices interconnect traffic per node (index = node id; size must
  /// match the node count). Without this the network term stays zero
  /// even when traffic is reported.
  void SetNicModels(std::vector<NicModel> nic_models);

  /// Spans observed since the last Finish()/Reset().
  const std::vector<WorkerSpan>& spans() const { return spans_; }
  /// Exchange-wait intervals observed since the last Finish()/Reset().
  const std::vector<WorkerSpan>& waits() const { return waits_; }

  /// Integrates the collected spans into a per-node/per-query report and
  /// resets the meter. Every node is accounted over the same horizon (the
  /// query wall clock), so nodes that finished early accrue idle joules
  /// for their tail — exactly the paper's underutilized-cluster waste.
  /// `kind` routes the report's total into the meter's running clean/
  /// wasted/retry attribution (see AttemptKind); the one-argument form
  /// defaults to a clean attempt.
  QueryEnergyReport Finish() { return Finish(AttemptKind::kClean); }
  QueryEnergyReport Finish(AttemptKind kind);

  /// Running attribution totals across Finish() calls. Wasted + retry is
  /// the metered energy overhead the fault schedule imposed.
  Energy clean_joules() const { return clean_joules_; }
  Energy wasted_joules() const { return wasted_joules_; }
  Energy retry_joules() const { return retry_joules_; }
  void ResetTotals() {
    clean_joules_ = Energy::Zero();
    wasted_joules_ = Energy::Zero();
    retry_joules_ = Energy::Zero();
  }

  void Reset() {
    spans_.clear();
    waits_.clear();
    net_bytes_.assign(node_models_.size(), 0.0);
  }

 private:
  std::vector<std::shared_ptr<const power::PowerModel>> node_models_;
  std::vector<int> workers_per_node_;  // one pipeline count per node
  std::vector<NicModel> nic_models_;   // empty = network term off
  std::vector<WorkerSpan> spans_;
  std::vector<WorkerSpan> waits_;
  std::vector<double> net_bytes_;  // per-node tx + rx since last Finish
  Energy clean_joules_ = Energy::Zero();
  Energy wasted_joules_ = Energy::Zero();
  Energy retry_joules_ = Energy::Zero();
};

}  // namespace eedc::energy

#endif  // EEDC_ENERGY_METER_H_
