// Energy-aware workload driver over a (possibly heterogeneous) cluster.
//
// Replays an arrival trace (arrival.h) of concurrent TPC-H queries
// against a virtual cluster in virtual time. Every node is an instance of
// a cluster::NodeClassSpec — the homogeneous cluster of the legacy
// options is just a fleet with a single synthesized class — carrying its
// own power model, DVFS steps, wake/sleep cost, and per-query-kind
// service-rate multipliers. Dispatch follows a cluster::DispatchRule:
// earliest finish (the legacy rule) or earliest-energy-feasible-finish,
// which lands short/interactive work on wimpy nodes and heavy scans on
// beefy ones. An optional cluster::AdmissionPolicy may shed or defer
// over-deadline work before it is dispatched; deferred work drains after
// the trace, billed for energy but excluded from the SLA.
//
// Per query the driver tracks response time against a deadline; per node
// it keeps the exact busy/idle/sleep/wake timeline and integrates the
// node's class power model over it, so every policy comparison reports
// throughput, SLA violation rate, energy-per-query, and EDP from the
// same trace.
//
// Service demands come from QueryProfiles — either measured on the real
// engine (EngineFleet::MeasuredProfiles in engine.h runs each query kind
// on a placed fleet with the EnergyMeter attached) or fixed synthetic
// values for deterministic tests and CI gates. A class's per-kind rate
// divides the profile demand.
#ifndef EEDC_WORKLOAD_DRIVER_H_
#define EEDC_WORKLOAD_DRIVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/admission.h"
#include "cluster/cluster_config.h"
#include "cluster/dispatch.h"
#include "cluster/fault.h"
#include "common/statusor.h"
#include "common/units.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "workload/arrival.h"
#include "workload/power_policy.h"

namespace eedc::workload {

class EngineFleet;

/// Per-kind workload parameters.
struct QueryProfile {
  /// Service demand at full frequency on one reference-class node.
  Duration service = Duration::Seconds(0.1);
  /// Relative deadline (SLA): completion - arrival must not exceed it.
  Duration deadline = Duration::Seconds(1.0);
  /// Metered engine joules for one run (reporting only; the driver's own
  /// accounting integrates the node power model over the timeline).
  Energy engine_joules = Energy::Zero();
  /// Interconnect bytes one run of this kind ships across node boundaries
  /// (engine-measured remote exchange traffic). kEnergyFeasibleFinish adds
  /// the serving class's NIC energy for these bytes to a candidate's
  /// marginal joules, so shipping-heavy kinds are priced honestly. 0 (the
  /// default) keeps the pre-interconnect scoring.
  double shipped_bytes = 0.0;
};

struct QueryProfiles {
  std::array<QueryProfile, kNumQueryKinds> by_kind;

  QueryProfile& For(QueryKind kind) {
    return by_kind[static_cast<std::size_t>(kind)];
  }
  const QueryProfile& For(QueryKind kind) const {
    return by_kind[static_cast<std::size_t>(kind)];
  }

  /// Uniform synthetic profile (deterministic tests / CI).
  static QueryProfiles Uniform(Duration service, Duration deadline);
};

/// What happened to one offered query.
struct QueryOutcome {
  QueryKind kind = QueryKind::kQ1;
  int node = 0;  // -1 when shed
  /// Class of the serving node; points into the driver's fleet and stays
  /// valid while the driver is alive. Null when shed.
  const cluster::NodeClassSpec* node_class = nullptr;
  double frequency = 1.0;  // DVFS step it was served at
  cluster::AdmissionDecision decision = cluster::AdmissionDecision::kAdmit;
  /// True when the query was served in the post-trace drain phase
  /// (admission decision kDefer): billed for energy, excluded from SLA
  /// and response statistics.
  bool deferred = false;
  /// Failover bookkeeping (fault-injected runs). `attempts` counts
  /// dispatches including the final one; `retried` means at least one
  /// crashed attempt preceded success; `failed` means the retry budget
  /// ran out — the query was admitted but never completed (its client is
  /// still released in closed-loop mode, and `completion` holds the time
  /// the final attempt died).
  int attempts = 1;
  bool retried = false;
  bool failed = false;
  Duration arrival = Duration::Zero();
  Duration start = Duration::Zero();
  Duration completion = Duration::Zero();
  bool violated = false;
  /// Engine-measured mode (DriverOptions::engine): the real executor's
  /// wall time and metered joules for this query's kind on the mixed
  /// fleet. Zero when the driver ran purely analytically.
  Duration engine_wall = Duration::Zero();
  Energy engine_joules = Energy::Zero();

  bool served() const {
    return decision != cluster::AdmissionDecision::kShed && !failed;
  }
  Duration response() const { return completion - arrival; }
};

/// Queueing-delay distribution of one node class within a report: how
/// long queries dispatched to that class waited between arrival and
/// service start (interactive served queries only — drain-phase waits
/// are scheduling artifacts, not contention).
struct ClassQueueDelay {
  std::string class_name;
  int queries = 0;
  Duration p50 = Duration::Zero();
  Duration p95 = Duration::Zero();
};

/// Per-policy workload result.
struct PolicyReport {
  std::string policy;
  std::string admission = "admit-all";
  std::string fleet;  // "2B,6W"-style label
  /// Queries served on the cluster (including deferred ones).
  int queries = 0;
  /// Queries the admission policy dropped (never served, no energy).
  int shed = 0;
  /// Subset of `queries` served in the post-trace drain phase.
  int deferred = 0;
  /// Admitted queries that exhausted their retry budget under node
  /// failures (energy of their dead attempts is billed as wasted).
  int failed = 0;
  /// Extra dispatch attempts across all queries (failed and retried).
  int retries = 0;
  /// Batch queries pushed to the drain phase by brown-out mode (subset
  /// of `deferred`).
  int brownout_deferred = 0;
  Duration makespan = Duration::Zero();
  double throughput_qps = 0.0;
  /// Violation rate among interactive (non-deferred) served queries.
  double sla_violation_rate = 0.0;
  Duration mean_response = Duration::Zero();  // interactive served only
  Duration max_response = Duration::Zero();

  /// Cluster energy split by node activity over [0, makespan].
  Energy busy_energy = Energy::Zero();   // serving, at WattsAt(freq)
  Energy idle_energy = Energy::Zero();   // awake but idle, at IdleWatts
  Energy sleep_energy = Energy::Zero();  // powered down, at SleepWatts
  Energy wake_energy = Energy::Zero();   // spin-up, at PeakWatts

  /// Failure-cost attribution, both subsets of busy+wake above: joules
  /// burned by attempts a crash cut short (the work was discarded) and
  /// joules of successful re-attempts after a crash. Their sum is the
  /// energy overhead the fault schedule imposed on the workload.
  Energy wasted_energy = Energy::Zero();
  Energy retry_energy = Energy::Zero();

  /// Engine-measured mode only: metered joules of the real executions
  /// summed over served queries, total and split by node class. The
  /// virtual-time split above remains the report's authoritative
  /// accounting; these close the loop against the engine that ran.
  Energy engine_energy = Energy::Zero();
  std::vector<std::pair<std::string, Energy>> engine_energy_by_class;

  /// Queueing delay (start - arrival) percentiles of interactive served
  /// queries, split by serving node class in fleet group order: where a
  /// policy's contention actually queued. Empty when nothing was served.
  std::vector<ClassQueueDelay> queue_delay_by_class;

  int offered() const { return queries + shed + failed; }
  double shed_rate() const {
    return offered() > 0 ? static_cast<double>(shed) / offered() : 0.0;
  }
  /// Fraction of admitted queries that completed: the availability gate
  /// of the crash/recover bench (1.0 on a fault-free run).
  double availability() const {
    const int admitted = queries + failed;
    return admitted > 0 ? static_cast<double>(queries) / admitted : 1.0;
  }
  Energy fault_overhead_energy() const {
    return wasted_energy + retry_energy;
  }

  Energy total_energy() const {
    return busy_energy + idle_energy + sleep_energy + wake_energy;
  }
  Energy energy_per_query() const {
    return queries > 0 ? total_energy() * (1.0 / queries) : Energy::Zero();
  }
  /// Joules actually spent serving admitted work (busy + wake): the
  /// numerator of the admission trade-off curve, which excludes the
  /// provisioning cost of keeping nodes awake.
  Energy serving_energy() const { return busy_energy + wake_energy; }
  Energy serving_energy_per_query() const {
    return queries > 0 ? serving_energy() * (1.0 / queries)
                       : Energy::Zero();
  }
  /// The paper's metric, at workload granularity: cluster joules times
  /// mean response time.
  double edp() const {
    return EnergyDelayProduct(total_energy(), mean_response);
  }
};

/// Retry budget and backoff for crash failover.
struct FailoverOptions {
  /// Total dispatch attempts per query (first try included).
  int max_attempts = 3;
  /// Delay before the first retry; grows by `multiplier` per attempt.
  Duration backoff = Duration::Millis(50.0);
  double multiplier = 2.0;
};

struct DriverOptions {
  /// Legacy homogeneous cluster: `nodes` identical nodes sharing one
  /// utilization->watts curve (default: the paper's cluster-V model).
  /// Used only when `fleet` is empty.
  int nodes = 4;
  std::shared_ptr<const power::PowerModel> node_model;

  /// Mixed fleet. When non-empty it overrides nodes/node_model: each node
  /// carries its class's power model, service rates, DVFS steps and
  /// wake/sleep costs. A single-class fleet with neutral rates reproduces
  /// the homogeneous driver exactly.
  cluster::ClusterConfig fleet;

  cluster::DispatchRule dispatch = cluster::DispatchRule::kEarliestFinish;

  /// Node-contention feedback from the real engine: every query already
  /// queued on a candidate node at dispatch time stretches a newcomer's
  /// service by this fraction (service *= 1 + slowdown * queue_depth).
  /// Feed it from EngineFleet::MeasureConcurrent's measured interference
  /// (e.g. interference - 1) so kEnergyFeasibleFinish prices the energy
  /// of piling work onto a busy node, not just its queue length.
  /// 0 keeps the classic contention-free M/G-style replay.
  double contention_slowdown_per_peer = 0.0;

  /// Admission-control hook; not owned; nullptr admits everything.
  const cluster::AdmissionPolicy* admission = nullptr;

  /// Engine-measured mode: every served kind is executed for real on
  /// this mixed-fleet engine (class-scaled workers, scan/ship-only wimpy
  /// trees; memoized per kind) and the metered joules flow back into the
  /// outcomes and the report's engine_energy[_by_class]. Pair it with
  /// EngineFleet::MeasuredProfiles() to also replace the analytic
  /// service demands. Not owned; nullptr keeps the driver analytic.
  EngineFleet* engine = nullptr;

  /// Failure model (cluster/fault.h): crashes kill in-flight queries
  /// (their timeline energy is billed as wasted) and the query retries
  /// on a surviving node under `failover`; stragglers, delayed wakes and
  /// exchange stalls stretch the timeline. Not owned; nullptr runs
  /// fault-free. Retries are committed inline at crash + backoff even
  /// when later trace arrivals dispatch first — an intentional
  /// approximation that keeps the replay single-pass; queue-depth
  /// queries tolerate the out-of-order commits.
  const cluster::FaultInjector* faults = nullptr;
  FailoverOptions failover;

  /// Brown-out mode: while any node is down and the projected draw of
  /// the awake survivors would exceed this budget, queries of
  /// `batch_kinds` are deferred to the drain phase instead of violating
  /// the budget. Non-positive = unlimited (never brown out).
  Power power_budget = Power::Zero();
  std::vector<QueryKind> batch_kinds = {QueryKind::kQ21};

  /// Observability of the virtual-time replay. After each run the driver
  /// records every node's dispatch timeline into `trace` (wake / serve /
  /// wasted / retry / stall spans; shed / defer / failed instants —
  /// timestamps are *virtual trace seconds*, not wall clock) and fills
  /// `metrics` with the same counts PolicyReport carries plus the energy
  /// split as gauges (see FillPolicyMetrics). Not owned; null disables.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct ClosedLoopOptions {
  int clients = 8;
  Duration think_mean = Duration::Seconds(1.0);
  int queries = 200;  ///< total across all clients
  std::uint64_t seed = 1;
  WorkloadMix mix = DefaultMix();
};

/// Copies a report's counters and energy split into a metrics registry:
/// counters queries/shed/deferred/failed/retries/brownout_deferred, gauges
/// {busy,idle,sleep,wake,wasted,retry,engine}_energy_joules,
/// engine_joules_<class>, makespan_s, throughput_qps and
/// sla_violation_rate. The registry-vs-report equality is test-gated.
void FillPolicyMetrics(const PolicyReport& report, obs::MetricsRegistry* m);

class WorkloadDriver {
 public:
  explicit WorkloadDriver(DriverOptions options);

  // fleet_nodes_ points into options_.fleet / legacy_class_, so a
  // copied or moved driver would dispatch against the source's freed
  // class specs.
  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Replays an open-system trace (must be sorted by arrival time).
  StatusOr<PolicyReport> Run(const std::vector<QueryArrival>& trace,
                             const QueryProfiles& profiles,
                             const PowerPolicy& policy);

  /// Closed-loop: `clients` users cycling think -> submit -> wait. A shed
  /// or deferred submission releases its client immediately (the user
  /// gives up / is told to come back later).
  StatusOr<PolicyReport> RunClosedLoop(const ClosedLoopOptions& loop,
                                       const QueryProfiles& profiles,
                                       const PowerPolicy& policy);

  /// Per-query outcomes of the most recent run, in offer order (shed
  /// queries included, drain-phase completions last).
  const std::vector<QueryOutcome>& outcomes() const { return outcomes_; }

  /// The materialized fleet, one class per node.
  const std::vector<const cluster::NodeClassSpec*>& fleet_nodes() const {
    return fleet_nodes_;
  }

 private:
  DriverOptions options_;
  /// Synthesized single class backing the legacy homogeneous options.
  cluster::NodeClassSpec legacy_class_;
  std::vector<const cluster::NodeClassSpec*> fleet_nodes_;
  std::vector<QueryOutcome> outcomes_;
};

}  // namespace eedc::workload

#endif  // EEDC_WORKLOAD_DRIVER_H_
