// Real-engine execution of the scheduled TPC-H kinds on a mixed fleet.
//
// The virtual-time driver (driver.h) scores policies with analytic
// per-kind service demands; this runner closes the loop the ISSUE and
// ROADMAP call for: each query kind actually executes end-to-end on the
// morsel-parallel executor across the fleet's nodes, with
//
//   - class-scaled workers (a beefy node runs engine_workers = 8 morsel
//     pipelines, a wimpy laptop 2 — cluster/placement.h);
//   - scan/filter/ship-only plan trees on wimpy nodes and hash-table
//     builds / aggregation merges biased onto the beefies;
//   - the EnergyMeter attached with each node's *class* power model, so
//     the measured joules honestly price a watt-hungry beefy second
//     against a cheap wimpy second.
//
// Measurements are memoized per kind (the driver may dispatch thousands
// of queries of four kinds) and can be distilled into engine-measured
// QueryProfiles, replacing the analytic profile entirely. Wall times are
// real, so only use them for ordering claims with wide margins;
// everything else about a measurement (row counts, plan shape) is
// deterministic.
#ifndef EEDC_WORKLOAD_ENGINE_H_
#define EEDC_WORKLOAD_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "common/units.h"
#include "energy/meter.h"
#include "exec/executor.h"
#include "exec/profile.h"
#include "net/control.h"
#include "net/process.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "workload/driver.h"

namespace eedc::workload {

struct EngineFleetOptions {
  /// TPC-H scale factor of the generated database (small: the engine
  /// runs every kind for real, repeatedly).
  double scale_factor = 0.002;
  std::uint64_t seed = 19920101;
  /// Best-of repetitions per kind (absorbs warm-up noise).
  int repetitions = 3;
  /// SLA deadline = multiplier x measured service, floored at 10 ms.
  double deadline_multiplier = 5.0;
  /// Spawns the one-OS-process-per-node fleet eagerly at Create (it is
  /// otherwise forked lazily on the first MeasureProcess). Either way the
  /// fork happens while the parent is single-threaded — eager spawn
  /// merely moves startup cost out of the first measurement.
  bool process_fleet = false;
};

/// Adds `joules` to the class's entry in a (class name, energy) list,
/// appending in first-seen order. Shared by the per-measurement and
/// per-report accumulations.
void AddEnergyByClass(
    std::vector<std::pair<std::string, Energy>>* by_class,
    const std::string& class_name, Energy joules);

/// One engine-measured execution of a query kind on the fleet.
struct EngineMeasurement {
  QueryKind kind = QueryKind::kQ1;
  Duration wall = Duration::Zero();
  /// Metered joules across the fleet for the best run.
  Energy joules = Energy::Zero();
  /// The same joules split by node class, in fleet group order.
  std::vector<std::pair<std::string, Energy>> joules_by_class;
  /// Result cardinality (deterministic; equal across fleet shapes).
  std::size_t result_rows = 0;
  /// Remote exchange bytes the best run shipped across node boundaries
  /// (serialized frame payloads on the interconnect; deterministic).
  double shipped_bytes = 0.0;
  /// EXPLAIN ANALYZE-style per-node operator breakdown of the best run
  /// (the fleet always executes with operator profiling on).
  exec::QueryProfileReport profile;
};

/// One unmemoized end-to-end execution, keeping the result table so
/// callers can do row-level comparisons (the crash/recover gate).
struct EngineRun {
  Duration wall = Duration::Zero();
  Energy joules = Energy::Zero();
  std::shared_ptr<const storage::Table> table;
};

/// One execution on the multi-process fleet: every node ran as its own
/// OS process, plan fragments were dispatched over the control protocol
/// (net/control.h) and data crossed real sockets. Not energy-metered —
/// the meter's activity listener cannot observe worker spans in other
/// processes; energy claims stay with the in-process paths.
struct ProcessRun {
  Duration wall = Duration::Zero();  // max per-node fragment wall
  std::size_t result_rows = 0;
  /// Gathered result, concatenated in node order — row-identical (same
  /// row multiset) to the in-process executor's; row order is
  /// nondeterministic on every path.
  std::shared_ptr<const storage::Table> table;
  /// Logical bytes the fragments shipped to / received from remote
  /// nodes, summed over the fleet (the conservation gate's inputs).
  double tx_bytes = 0.0;
  double rx_bytes = 0.0;
};

/// One query's outcome inside a measured co-run.
struct ConcurrentQueryResult {
  QueryKind kind = QueryKind::kQ1;
  /// Which of the mix's repeated streams of `kind` this execution was.
  int stream = 0;
  /// Runtime-unique tag (matches TaggedWorkerSpan::query).
  int query_id = 0;
  std::size_t result_rows = 0;
  /// Row-identical (unordered, 1e-6) to the kind's serial reference.
  bool rows_match = false;
  std::string mismatch;  // first diff when !rows_match
  /// Time queued before admission (resource-group gang admission).
  Duration queue_delay = Duration::Zero();
  /// The query's own wall clock under contention.
  Duration wall = Duration::Zero();
  /// Attributed share of the co-run's metered fleet joules.
  Energy joules = Energy::Zero();
};

/// An engine-measured co-run of a query mix on one fleet.
struct ConcurrentMeasurement {
  std::vector<ConcurrentQueryResult> queries;
  /// Shared-timeline makespan of the whole mix (first submit to last
  /// worker span end).
  Duration co_makespan = Duration::Zero();
  /// Summed serial (best-of-reps) walls of the same mix back-to-back.
  Duration serial_total = Duration::Zero();
  /// serial_total / co_makespan: > 1 when co-running wins.
  double speedup = 0.0;
  /// Metered fleet joules over the co-run.
  Energy co_joules = Energy::Zero();
  /// Idle joules no query was responsible for.
  Energy unattributed_idle = Energy::Zero();
  /// |sum(per-query) + idle - total| — conservation of the attribution.
  double attribution_error_joules = 0.0;
  /// Mean (co-run wall / serial wall) across the mix's queries: the
  /// node-contention stretch the driver prices as queueing delay.
  double interference = 0.0;
  Duration queue_delay_p50 = Duration::Zero();
  Duration queue_delay_p95 = Duration::Zero();
  bool all_rows_match = true;
  /// JSON snapshot of the co-run runtime's lifecycle metrics registry
  /// (queries_{submitted,admitted,...}, queue depth, delay histogram).
  std::string runtime_metrics_json;
};

struct EngineFaultOptions {
  /// Cooperative-cancellation checks the crashed attempt survives before
  /// the fuse trips (small, so the query dies mid-scan/mid-exchange with
  /// partial state in flight — the interesting teardown path).
  std::int64_t crash_after_checks = 4;
  /// Total attempts including the crashed one (>= 2: crash + retry).
  int max_attempts = 3;
};

/// One engine-measured crash/recover episode.
struct FaultMeasurement {
  QueryKind kind = QueryKind::kQ1;
  int crash_node = 0;
  int attempts = 0;
  bool completed = false;
  /// Retry result is row-for-row identical (unordered) to the fault-free
  /// run on the full fleet.
  bool rows_match = false;
  std::string mismatch;  // first diff when !rows_match
  std::size_t result_rows = 0;
  Duration wall = Duration::Zero();  // successful attempt only
  /// Joules burned by the crashed attempt (paid, served nothing).
  Energy wasted_joules = Energy::Zero();
  /// Joules of the successful re-attempt on the survivor fleet.
  Energy retry_joules = Energy::Zero();
  /// Result table of the successful attempt, for row-level assertions.
  std::shared_ptr<const storage::Table> result;
};

/// A mixed fleet wired up for real execution: generated database placed
/// across the nodes (LINEITEM/ORDERS hash-partitioned, SUPPLIER/NATION
/// replicated), one placement per kind, and a class-aware energy meter.
class EngineFleet {
 public:
  static StatusOr<std::unique_ptr<EngineFleet>> Create(
      const cluster::ClusterConfig& fleet,
      const EngineFleetOptions& options = {});

  EngineFleet(const EngineFleet&) = delete;
  EngineFleet& operator=(const EngineFleet&) = delete;

  /// Runs `kind` end-to-end (best-of-repetitions) with class-scaled
  /// workers and placement-routed per-node plans; memoized, so the first
  /// call per kind executes and later calls return the cached pointer
  /// (valid for the fleet's lifetime).
  StatusOr<const EngineMeasurement*> Measure(QueryKind kind);

  /// Engine-measured driver profiles: service = measured wall, deadline
  /// = deadline_multiplier x service (>= 10 ms), engine_joules = metered
  /// energy. Runs every kind not yet measured.
  StatusOr<QueryProfiles> MeasuredProfiles();

  /// Co-runs `streams` interleaved streams of every kind in `kinds` on
  /// one persistent multi-query runtime (exec::ExecutorRuntime): each
  /// kind gets a resource group granted 1/|kinds| of every node's
  /// workers and its placement-estimated build bytes, queries are
  /// admitted gang-style, and per-query joules are metered from the
  /// overlapping tagged worker spans (energy::AttributeConcurrent).
  /// Every result is row-compared against the kind's serial reference;
  /// speedup is serial back-to-back total over co-run makespan, best of
  /// `repetitions` co-runs (<= 0 uses the fleet's repetition option).
  /// With `trace` set, the co-run records operator spans, lifecycle
  /// instants, per-node active-worker counters and per-query joule
  /// counters into it — and forces repetitions to 1, so the exported
  /// trace and the returned attribution describe the same run.
  StatusOr<ConcurrentMeasurement> MeasureConcurrent(
      const std::vector<QueryKind>& kinds, int streams, int repetitions = 0,
      obs::TraceRecorder* trace = nullptr);

  /// Runs `kind` once without memoization, returning the result table;
  /// the metered joules are attributed to `attr` in the fleet's meter
  /// (to kWasted if the run fails).
  StatusOr<EngineRun> RunOnce(
      QueryKind kind,
      energy::AttemptKind attr = energy::AttemptKind::kClean);

  /// The crash/recover gate, end-to-end on the real engine: runs `kind`,
  /// kills the query mid-flight via the cancellation fuse (standing in
  /// for `crash_node` dying — ports poisoned, barriers aborted,
  /// partial results dropped, never a truncated table), then fails over
  /// to the survivor sub-fleet and compares the retry's rows against a
  /// fault-free run on the full fleet. Energy is attributed honestly:
  /// the dead attempt's joules are wasted, the re-run's are retry.
  StatusOr<FaultMeasurement> MeasureWithCrash(
      QueryKind kind, int crash_node, const EngineFaultOptions& fault = {});

  /// Runs `kind` on the multi-process fleet: one coordinator (this
  /// process) dispatches serialized plan fragments to one OS process per
  /// node, data crosses real TCP/AF_UNIX sockets, and per-node results
  /// gather back over the control channel. The fleet is forked on first
  /// use. Rows are identical to the in-process paths as multisets (row
  /// order is nondeterministic everywhere).
  StatusOr<ProcessRun> MeasureProcess(QueryKind kind);

  /// The crash/recover gate with a REAL crash: dispatches `kind` to the
  /// process fleet with a start delay on `crash_node`, SIGKILLs that
  /// node's process right after the start barrier releases, observes the
  /// dead edges (peers see stream EOF, the coordinator sees control EOF
  /// — never a SIGPIPE death or a wedged receiver), then fails over to
  /// the survivor fleet's own process fleet and row-compares the retry
  /// against a fault-free in-process reference. The killed node stays
  /// dead: later MeasureProcess calls on THIS fleet fail, so run crash
  /// episodes after the healthy measurements. Energy fields of the
  /// measurement stay zero (see ProcessRun).
  StatusOr<FaultMeasurement> MeasureProcessWithCrash(
      QueryKind kind, int crash_node, const EngineFaultOptions& fault = {});

  /// Survivor sub-fleet with `crash_node` removed (lazily built and
  /// memoized per crashed node). The same dbgen seed is re-partitioned
  /// over the n-1 survivors, so the global row multiset — and therefore
  /// every query result — is unchanged; placement may promote the
  /// least-wimpy survivor to joiner when the last beefy died.
  StatusOr<EngineFleet*> Degraded(int crash_node);

  /// The fleet's meter, for running wasted/retry/clean joule totals.
  const energy::EnergyMeter& meter() const { return *meter_; }

  const cluster::ClusterConfig& fleet() const { return fleet_; }
  const cluster::EnginePlacement& placement(QueryKind kind) const {
    return placements_[static_cast<std::size_t>(kind)];
  }

 private:
  EngineFleet(cluster::ClusterConfig fleet, EngineFleetOptions options);

  /// `promote_joiner_when_no_beefy` is forwarded to PlacementOptions:
  /// Degraded sets it so a mixed fleet that lost its last beefy still
  /// hosts joins somewhere.
  Status Init(bool promote_joiner_when_no_beefy);

  /// The one in-process metered run behind Measure, RunOnce and the crash
  /// attempt of MeasureWithCrash. A fresh executor built from the stored
  /// options (operator profiling on) runs `kind` under `cancel` (may be
  /// null), and the meter bills the attempt as `attr`, or as kWasted when
  /// it fails. On success, non-null `energy` and `metrics` receive the
  /// meter's report and the run's metrics.
  StatusOr<EngineRun> RunMetered(QueryKind kind, energy::AttemptKind attr,
                                 exec::CancelToken* cancel,
                                 energy::QueryEnergyReport* energy,
                                 exec::ExecMetrics* metrics);

  /// The one crash/recover body behind MeasureWithCrash and
  /// MeasureProcessWithCrash: builds the survivor fleet for `crash_node`,
  /// runs the fault-free reference in-process, then `crash` as attempt 1
  /// and `retry` on the survivors until one completes or the budget runs
  /// out, and row-compares the result against the reference. Joules the
  /// meter bills as wasted during attempt 1 are its wasted joules. With
  /// `fork_first` both fleets' node processes are forked before the
  /// reference run starts any thread.
  StatusOr<FaultMeasurement> Failover(
      QueryKind kind, int crash_node, const EngineFaultOptions& fault,
      bool fork_first, const std::function<StatusOr<EngineRun>()>& crash,
      const std::function<StatusOr<EngineRun>(EngineFleet&)>& retry);

  /// Forks the node processes if not already running. Must be called
  /// while this process is single-threaded (between queries — every
  /// worker and reader thread joined), which all callers satisfy.
  Status EnsureProcessFleet();
  /// Child-side control loop (never returns; _exits).
  void NodeServeLoop(int node, int control_fd);
  /// Serves one kRunFragment in the child: wires the pre-connected
  /// transport, runs the local fragment, streams the result back.
  void ServeFragment(int node, int control_fd,
                     const net::ControlMessage& run, std::vector<int> fds);
  /// Coordinator-side dispatch of one query epoch. kill_node >= 0
  /// SIGKILLs that node right after the start barrier (the crash gate).
  StatusOr<ProcessRun> RunProcessQuery(QueryKind kind, int kill_node);

  cluster::ClusterConfig fleet_;  // placements point into this copy
  EngineFleetOptions options_;
  tpch::TpchDatabase db_;
  std::unique_ptr<exec::ClusterData> data_;
  std::array<cluster::EnginePlacement, kNumQueryKinds> placements_;
  std::unique_ptr<energy::EnergyMeter> meter_;
  /// Options of every metered run: class-aware widths, the meter as
  /// activity listener, operator profiling on.
  exec::Executor::Options exec_options_;
  std::array<std::optional<EngineMeasurement>, kNumQueryKinds> cache_;
  /// Index = crashed node id; built on first failover to that node.
  std::vector<std::unique_ptr<EngineFleet>> degraded_;
  /// One OS process per node (lazily forked); coordinator side.
  std::unique_ptr<net::ProcessFleet> process_fleet_;
  /// Per-dispatch query sequence number tagging control traffic.
  std::uint32_t process_epoch_ = 0;
};

}  // namespace eedc::workload

#endif  // EEDC_WORKLOAD_ENGINE_H_
