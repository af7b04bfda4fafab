// The distributed P-store executor.
//
// Executes a logical plan SPMD across N simulated nodes, each node running
// W parallel morsel-driven pipelines: the per-node plan is cloned into W
// per-worker operator trees whose scans pull borrowed block ranges from
// shared atomic morsel dispensers, whose pipeline breakers (hash-join
// build, hash aggregation) merge per-worker partials at barriers, and
// whose exchange instances are multi-producer senders into one shared
// net::ExchangePort per exchange (serialized, credit-bounded remote edges;
// see net/transport.h). Worker outputs are concatenated deterministically
// in (node, worker) order at the root; results are the same multiset of
// rows at every W. See exec/morsel.h.
//
// Heterogeneous execution (Section 5.2.2): a per-node memory budget can be
// set, plans may diverge per node through NodePlanFn — e.g. Wimpy nodes
// run scan/filter/ship-only trees while Beefy nodes build hash tables —
// and each node may carry a cluster::NodeClassSpec whose engine_workers
// scales that node's pipeline count by its class core count (see
// Options::node_classes; cluster/placement.h derives all of this from a
// ClusterConfig automatically).
#ifndef EEDC_EXEC_EXECUTOR_H_
#define EEDC_EXEC_EXECUTOR_H_

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "exec/cancel.h"
#include "exec/metrics.h"
#include "exec/plan.h"
#include "storage/table_store.h"

namespace eedc::cluster {
struct NodeClassSpec;
}  // namespace eedc::cluster

namespace eedc::net {
class Transport;
}  // namespace eedc::net

namespace eedc::obs {
class TraceRecorder;
}  // namespace eedc::obs

namespace eedc::exec {

/// The data placement of a cluster: one TableStore per node.
class ClusterData {
 public:
  explicit ClusterData(int num_nodes) : stores_(num_nodes) {}

  int num_nodes() const { return static_cast<int>(stores_.size()); }
  storage::TableStore& store(int node) {
    return stores_.at(static_cast<std::size_t>(node));
  }
  const storage::TableStore& store(int node) const {
    return stores_.at(static_cast<std::size_t>(node));
  }

  /// Hash partitions `table` on `key` and stores one shard per node.
  Status LoadHashPartitioned(const std::string& name,
                             const storage::Table& table,
                             const std::string& key);
  /// Stores the same table on every node.
  void LoadReplicated(const std::string& name, storage::TablePtr table);
  /// Round-robin placement (partition-incompatible on purpose).
  void LoadRoundRobin(const std::string& name, const storage::Table& table);

 private:
  std::vector<storage::TableStore> stores_;
};

struct QueryResult {
  storage::Table table;
  ExecMetrics metrics;
};

class Executor {
 public:
  struct Options {
    /// Per-node hash-join memory budget in bytes; index i applies to node
    /// i. Empty = unlimited everywhere.
    std::vector<double> node_memory_budget_bytes;
    /// Morsel-parallel pipelines per node. 1 (the default) degenerates to
    /// the classic one-thread-per-node execution; <= 0 uses the hardware
    /// concurrency of the host.
    int workers_per_node = 1;
    /// Heterogeneous fleets: the node class behind each node (index i =
    /// node i; empty = classless). A node whose class sets engine_workers
    /// defaults its pipeline count to it — beefy nodes run more morsel
    /// pipelines than wimpies, scaled by class core count. Pointers are
    /// not owned and must outlive the executor (they usually point into a
    /// cluster::ClusterConfig).
    std::vector<const cluster::NodeClassSpec*> node_classes;
    /// Explicit per-node pipeline counts; a positive entry overrides both
    /// the node's class default and workers_per_node for that node. Empty
    /// or non-positive entries defer.
    std::vector<int> node_workers;
    /// Rows per morsel; 0 selects the deterministic adaptive size per
    /// scan (AdaptiveMorselRows — a function of table size and static
    /// plan shape only). Explicit values force fixed granularity; small
    /// ones force fine interleaving (useful for tests).
    std::size_t morsel_rows = 0;
    /// Names this execution when many queries share one runtime: morsel
    /// dispensers carry the tag so profilers/tests can attribute scan
    /// traffic per query. -1 = untagged single-query execution.
    int query_tag = -1;
    /// Measures worker-activity spans relative to this instant instead of
    /// the query's own start. A multi-query runtime sets one shared epoch
    /// so overlapping executions land on one timeline exactly (no
    /// per-query rebasing skew in concurrent energy attribution).
    std::optional<std::chrono::steady_clock::time_point> span_epoch;
    /// Observes per-worker busy spans after each successful run (see
    /// WorkerActivityListener). Not owned; may be null.
    WorkerActivityListener* activity_listener = nullptr;
    /// Cooperative cancellation (see exec/cancel.h): checked at morsel
    /// dispense and between exchange receive slices. When the token trips
    /// mid-run the query tears down cleanly — exchanges poisoned, merge
    /// barriers aborted — and Execute returns the token's Status, never a
    /// partial result. Not owned; may be null (no cancellation).
    CancelToken* cancel = nullptr;
    /// Collects the per-operator-stage time/row breakdown into
    /// NodeMetrics::op (see obs/op_profile.h). Off by default: when both
    /// this and `trace` are unset the operator tree is built without
    /// decorators and the hot path is bit-identical to an unprofiled
    /// build.
    bool profile_operators = false;
    /// Sink for operator spans and worker pipeline spans on the query's
    /// span-epoch timeline (see obs/trace.h). Implies operator profiling.
    /// Not owned; may be null.
    obs::TraceRecorder* trace = nullptr;
    /// Upper bound on cumulative blocked time of a single exchange
    /// receive. A dead or stalled sender therefore cannot hang a
    /// pipeline: the receive fails with DeadlineExceeded and the query
    /// aborts. Infinite disables the bound.
    Duration receive_timeout = Duration::Seconds(60.0);
    /// Interconnect backing the exchanges: every exchange gets one of its
    /// ports, which ship remote blocks as serialized, credit-backpressured
    /// frames (net/transport.h). Null (the default) uses a default-option
    /// net::InProcessTransport created for each ExecutePerNode call. Not
    /// owned; must outlive every execution.
    net::Transport* transport = nullptr;
    /// -1 (the default) hosts every node's pipelines in this process.
    /// >= 0 runs ONE node's fragment of the distributed plan: only that
    /// node's worker pipelines are instantiated and only its partials
    /// land in the result table, while exchange ports are still created
    /// over the full node count — a `transport` whose ports span
    /// processes (net::CreatePreconnectedPort) is then required, since
    /// the other nodes' pipelines live elsewhere. A multi-process
    /// coordinator concatenates the per-node fragment results in node
    /// order, yielding the same row multiset as a single-process run
    /// (row order is nondeterministic on both paths).
    int local_node = -1;
  };

  /// Produces the (possibly node-specific) plan for a node. The default
  /// executes the same plan everywhere.
  using NodePlanFn = std::function<PlanPtr(int node_id)>;

  explicit Executor(const ClusterData* data) : Executor(data, Options{}) {}
  Executor(const ClusterData* data, Options options);

  /// Runs the same plan on every node.
  StatusOr<QueryResult> Execute(PlanPtr plan);

  /// Runs a per-node plan. All plans must contain the same number of
  /// exchanges with matching modes/keys in preorder position (they share
  /// exchange ports positionally) and produce identical output schemas.
  StatusOr<QueryResult> ExecutePerNode(const NodePlanFn& plan_for_node);

  /// Resolves the per-node pipeline counts `options` implies for an
  /// n-node cluster (explicit node_workers beats class engine_workers
  /// beats workers_per_node). Shared with ExecutorRuntime, which grants
  /// resource-group fractions of these full widths.
  static StatusOr<std::vector<int>> ResolveNodeWorkers(
      const Options& options, int n);

 private:
  const ClusterData* data_;
  Options options_;
};

}  // namespace eedc::exec

#endif  // EEDC_EXEC_EXECUTOR_H_
