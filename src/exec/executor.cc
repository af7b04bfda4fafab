#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "cluster/node_class.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "exec/filter_op.h"
#include "exec/hash_join_op.h"
#include "exec/morsel.h"
#include "exec/profiled_op.h"
#include "exec/project_op.h"
#include "exec/scan_op.h"
#include "net/inproc.h"
#include "obs/trace.h"
#include "storage/partitioner.h"

namespace eedc::exec {

using storage::Block;
using storage::Table;
using storage::TablePtr;

Status ClusterData::LoadHashPartitioned(const std::string& name,
                                        const Table& table,
                                        const std::string& key) {
  EEDC_ASSIGN_OR_RETURN(std::vector<Table> parts,
                        storage::HashPartition(table, key, num_nodes()));
  for (int i = 0; i < num_nodes(); ++i) {
    stores_[static_cast<std::size_t>(i)].Put(
        name, std::make_shared<Table>(std::move(
                  parts[static_cast<std::size_t>(i)])));
  }
  return Status::OK();
}

void ClusterData::LoadReplicated(const std::string& name, TablePtr table) {
  for (auto& store : stores_) store.Put(name, table);
}

void ClusterData::LoadRoundRobin(const std::string& name,
                                 const Table& table) {
  std::vector<Table> parts =
      storage::RoundRobinPartition(table, num_nodes());
  for (int i = 0; i < num_nodes(); ++i) {
    stores_[static_cast<std::size_t>(i)].Put(
        name, std::make_shared<Table>(std::move(
                  parts[static_cast<std::size_t>(i)])));
  }
}

namespace {

/// Pre-pass over a node's plan: creates the cross-worker shared state (one
/// dispenser per scan, one merge per pipeline breaker) in the exact order
/// BuildOps consumes it. The two traversals must stay mirror images.
/// `feeds_filter` is true when the subtree hangs directly under a filter —
/// its scans then pick the larger adaptive morsel size.
Status CollectPipelineShared(const PlanNode& plan,
                             const storage::TableStore& store,
                             int num_workers, std::size_t morsel_rows,
                             int query_tag, bool feeds_filter,
                             PipelineShared* out) {
  switch (plan.kind) {
    case PlanNode::Kind::kScan: {
      EEDC_ASSIGN_OR_RETURN(TablePtr table, store.Get(plan.table_name));
      const std::size_t rows =
          morsel_rows != 0
              ? morsel_rows
              : AdaptiveMorselRows(table->num_rows(), feeds_filter);
      out->scans.push_back(std::make_unique<MorselDispenser>(
          table->num_rows(), rows, query_tag));
      return Status::OK();
    }
    case PlanNode::Kind::kFilter:
      return CollectPipelineShared(*plan.children.at(0), store, num_workers,
                                   morsel_rows, query_tag,
                                   /*feeds_filter=*/true, out);
    case PlanNode::Kind::kProject:
    case PlanNode::Kind::kExchange:
      return CollectPipelineShared(*plan.children.at(0), store, num_workers,
                                   morsel_rows, query_tag,
                                   /*feeds_filter=*/false, out);
    case PlanNode::Kind::kHashJoin:
      EEDC_RETURN_IF_ERROR(CollectPipelineShared(
          *plan.children.at(0), store, num_workers, morsel_rows, query_tag,
          /*feeds_filter=*/false, out));
      EEDC_RETURN_IF_ERROR(CollectPipelineShared(
          *plan.children.at(1), store, num_workers, morsel_rows, query_tag,
          /*feeds_filter=*/false, out));
      out->joins.push_back(std::make_unique<JoinBuildShared>(num_workers));
      return Status::OK();
    case PlanNode::Kind::kHashAgg:
      EEDC_RETURN_IF_ERROR(CollectPipelineShared(
          *plan.children.at(0), store, num_workers, morsel_rows, query_tag,
          /*feeds_filter=*/false, out));
      out->aggs.push_back(std::make_unique<AggMergeShared>(num_workers));
      return Status::OK();
  }
  return Status::Internal("unknown plan node kind");
}

/// Per-pipeline-instance plan instantiation state (one worker of one node).
struct NodeBuildContext {
  const ClusterData* data = nullptr;
  int node_id = 0;
  int worker_id = 0;
  NodeMetrics* metrics = nullptr;
  /// One port per exchange, indexed by preorder position.
  std::vector<std::unique_ptr<net::ExchangePort>>* ports = nullptr;
  /// Cross-worker shared state for this node; ids below index into it.
  PipelineShared* shared = nullptr;
  int next_exchange = 0;
  int next_scan = 0;
  int next_join = 0;
  int next_agg = 0;
  double memory_budget_bytes = 0.0;
  /// Exchange instances created for this pipeline, used to unblock peers
  /// if this worker aborts before opening every exchange.
  std::vector<ExchangeOp*>* exchange_ops = nullptr;
  /// Cancellation wiring, threaded into scans and exchanges (may be null).
  CancelToken* cancel = nullptr;
  Duration receive_timeout = Duration::Infinite();
  /// When set, every operator of this pipeline is wrapped in a ProfiledOp
  /// attributing its time to stages (see exec/profiled_op.h).
  obs::OpProfiler* profiler = nullptr;
};

StatusOr<OperatorPtr> BuildOps(const PlanNode& plan, NodeBuildContext* ctx);

StatusOr<OperatorPtr> BuildOpsUnwrapped(const PlanNode& plan,
                                        NodeBuildContext* ctx) {
  switch (plan.kind) {
    case PlanNode::Kind::kScan: {
      EEDC_ASSIGN_OR_RETURN(
          TablePtr table,
          ctx->data->store(ctx->node_id).Get(plan.table_name));
      MorselDispenser* dispenser =
          ctx->shared->scans
              .at(static_cast<std::size_t>(ctx->next_scan++))
              .get();
      return OperatorPtr(new ScanOp(std::move(table), ctx->metrics,
                                    dispenser, ctx->cancel));
    }
    case PlanNode::Kind::kFilter: {
      EEDC_ASSIGN_OR_RETURN(OperatorPtr child,
                            BuildOps(*plan.children.at(0), ctx));
      return OperatorPtr(new FilterOp(std::move(child), plan.predicate,
                                      ctx->metrics));
    }
    case PlanNode::Kind::kProject: {
      EEDC_ASSIGN_OR_RETURN(OperatorPtr child,
                            BuildOps(*plan.children.at(0), ctx));
      return ProjectOp::Create(std::move(child), plan.columns,
                               plan.computed, ctx->metrics);
    }
    case PlanNode::Kind::kHashJoin: {
      EEDC_ASSIGN_OR_RETURN(OperatorPtr build,
                            BuildOps(*plan.children.at(0), ctx));
      EEDC_ASSIGN_OR_RETURN(OperatorPtr probe,
                            BuildOps(*plan.children.at(1), ctx));
      HashJoinOp::Options options;
      options.memory_budget_bytes = ctx->memory_budget_bytes;
      options.build_shared =
          ctx->shared->joins
              .at(static_cast<std::size_t>(ctx->next_join++))
              .get();
      options.worker_id = ctx->worker_id;
      return HashJoinOp::Create(std::move(build), std::move(probe),
                                plan.build_key, plan.probe_key, options,
                                ctx->metrics);
    }
    case PlanNode::Kind::kHashAgg: {
      EEDC_ASSIGN_OR_RETURN(OperatorPtr child,
                            BuildOps(*plan.children.at(0), ctx));
      AggMergeShared* shared =
          ctx->shared->aggs
              .at(static_cast<std::size_t>(ctx->next_agg++))
              .get();
      return HashAggOp::Create(std::move(child), plan.group_by, plan.aggs,
                               ctx->metrics, shared, ctx->worker_id);
    }
    case PlanNode::Kind::kExchange: {
      EEDC_ASSIGN_OR_RETURN(OperatorPtr child,
                            BuildOps(*plan.children.at(0), ctx));
      const int id = ctx->next_exchange++;
      if (id >= static_cast<int>(ctx->ports->size())) {
        return Status::Internal(
            "per-node plans disagree on exchange count");
      }
      EEDC_ASSIGN_OR_RETURN(
          OperatorPtr op,
          ExchangeOp::Create(std::move(child), plan.mode, plan.partition_key,
                             ctx->node_id,
                             (*ctx->ports)[static_cast<std::size_t>(id)].get(),
                             plan.destinations, ctx->metrics));
      auto* exchange = static_cast<ExchangeOp*>(op.get());
      exchange->ConfigureCancellation(ctx->cancel, ctx->receive_timeout);
      ctx->exchange_ops->push_back(exchange);
      return op;
    }
  }
  return Status::Internal("unknown plan node kind");
}

/// Builds the operator for `plan`, wrapping it in a stage-attributing
/// ProfiledOp when the pipeline carries a profiler. A hash join builds in
/// Open and probes in Next; an exchange sends in Open and receives in
/// Next; every other operator lives in a single stage.
StatusOr<OperatorPtr> BuildOps(const PlanNode& plan, NodeBuildContext* ctx) {
  EEDC_ASSIGN_OR_RETURN(OperatorPtr op, BuildOpsUnwrapped(plan, ctx));
  if (ctx->profiler == nullptr) return op;
  obs::OpStage open_stage;
  obs::OpStage next_stage;
  std::string label;
  switch (plan.kind) {
    case PlanNode::Kind::kScan:
      open_stage = next_stage = obs::OpStage::kScan;
      label = "scan " + plan.table_name;
      break;
    case PlanNode::Kind::kFilter:
      open_stage = next_stage = obs::OpStage::kFilter;
      label = "filter";
      break;
    case PlanNode::Kind::kProject:
      open_stage = next_stage = obs::OpStage::kProject;
      label = "project";
      break;
    case PlanNode::Kind::kHashJoin:
      open_stage = obs::OpStage::kJoinBuild;
      next_stage = obs::OpStage::kJoinProbe;
      label = "hash_join";
      break;
    case PlanNode::Kind::kHashAgg:
      open_stage = next_stage = obs::OpStage::kAgg;
      label = "hash_agg";
      break;
    case PlanNode::Kind::kExchange:
      open_stage = obs::OpStage::kExchangeSend;
      next_stage = obs::OpStage::kExchangeReceive;
      label = "exchange";
      break;
    default:
      return Status::Internal("unknown plan node kind");
  }
  return OperatorPtr(new ProfiledOp(std::move(op), ctx->profiler, open_stage,
                                    next_stage, std::move(label)));
}

int ResolveWorkers(int workers_per_node) {
  if (workers_per_node > 0) return workers_per_node;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

/// Per-node pipeline counts: an explicit node_workers entry wins, then the
/// node's class engine_workers (class-scaled parallelism), then the
/// uniform workers_per_node fallback.
StatusOr<std::vector<int>> Executor::ResolveNodeWorkers(
    const Executor::Options& options, int n) {
  if (!options.node_classes.empty() &&
      static_cast<int>(options.node_classes.size()) != n) {
    return Status::InvalidArgument(
        "node_classes must name a class per node");
  }
  if (!options.node_workers.empty() &&
      static_cast<int>(options.node_workers.size()) != n) {
    return Status::InvalidArgument(
        "node_workers must give a count per node");
  }
  const int fallback = ResolveWorkers(options.workers_per_node);
  std::vector<int> workers(static_cast<std::size_t>(n), fallback);
  for (int i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    if (!options.node_classes.empty() &&
        options.node_classes[s] != nullptr &&
        options.node_classes[s]->engine_workers > 0) {
      workers[s] = options.node_classes[s]->engine_workers;
    }
    if (!options.node_workers.empty() && options.node_workers[s] > 0) {
      workers[s] = options.node_workers[s];
    }
  }
  return workers;
}

Executor::Executor(const ClusterData* data, Options options)
    : data_(data), options_(std::move(options)) {
  EEDC_CHECK(data_ != nullptr);
}

StatusOr<QueryResult> Executor::Execute(PlanPtr plan) {
  return ExecutePerNode([plan](int) { return plan; });
}

StatusOr<QueryResult> Executor::ExecutePerNode(
    const NodePlanFn& plan_for_node) {
  const int n = data_->num_nodes();
  if (n <= 0) return Status::InvalidArgument("cluster has no nodes");
  // Fragment mode (multi-process fleets): this process instantiates only
  // `local_node`'s pipelines, but the exchange fabric still spans the
  // full node count — the missing pipelines run in sibling processes and
  // reach us through a cross-process transport.
  const int local = options_.local_node;
  if (local >= n) {
    return Status::InvalidArgument("local_node is outside the cluster");
  }
  if (local >= 0 && options_.transport == nullptr) {
    return Status::InvalidArgument(
        "a node fragment needs a cross-process transport: without one the "
        "other nodes' pipelines do not exist anywhere");
  }
  // Class-scaled parallelism: each node runs its own pipeline count.
  // Index pipelines as offset[node] + worker throughout; in fragment
  // mode non-local nodes contribute zero pipelines here while keeping
  // their full width in the fabric's sender accounting.
  EEDC_ASSIGN_OR_RETURN(std::vector<int> node_workers,
                        ResolveNodeWorkers(options_, n));
  const auto local_workers = [&node_workers, local](int node) {
    return (local < 0 || node == local)
               ? node_workers[static_cast<std::size_t>(node)]
               : 0;
  };
  std::vector<std::size_t> offset(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> idx_node;
  std::vector<int> idx_worker;
  for (int node = 0; node < n; ++node) {
    const int w = local_workers(node);
    offset[static_cast<std::size_t>(node) + 1] =
        offset[static_cast<std::size_t>(node)] +
        static_cast<std::size_t>(w);
    for (int worker = 0; worker < w; ++worker) {
      idx_node.push_back(node);
      idx_worker.push_back(worker);
    }
  }
  const std::size_t total = offset[static_cast<std::size_t>(n)];

  // The exchange fabric is shared across nodes, created from the first
  // locally-instantiated node's plan; every worker pipeline of every
  // node (local or not) is a sender. Exchange i rides port i. Without a
  // configured transport the ports come from a default in-process one
  // that lives only for this call.
  const int plan0_node = local >= 0 ? local : 0;
  PlanPtr plan0 = plan_for_node(plan0_node);
  const int num_exchanges = CountExchanges(*plan0);
  net::InProcessTransport default_transport;
  net::Transport& transport = options_.transport != nullptr
                                  ? *options_.transport
                                  : default_transport;
  std::vector<std::unique_ptr<net::ExchangePort>> ports;
  ports.reserve(static_cast<std::size_t>(num_exchanges));
  for (int i = 0; i < num_exchanges; ++i) {
    EEDC_ASSIGN_OR_RETURN(std::unique_ptr<net::ExchangePort> port,
                          transport.CreatePort(i, n, node_workers));
    ports.push_back(std::move(port));
  }

  ExecMetrics metrics;
  metrics.nodes.resize(static_cast<std::size_t>(n));
  std::vector<NodeMetrics> worker_metrics(total);

  // Span base time: the runtime-wide epoch when co-running under a
  // multi-query runtime (spans from overlapping queries then share one
  // timeline), otherwise this query's own start. Resolved before
  // instantiation so operator profilers stamp the same timeline.
  const auto query_start =
      options_.span_epoch.value_or(std::chrono::steady_clock::now());

  // Per-pipeline operator profilers, created only when profiling or
  // tracing asks for them: with both off the operator trees below carry
  // no decorators and the hot path is identical to an unprofiled build.
  const bool profiling =
      options_.profile_operators || options_.trace != nullptr;
  std::vector<obs::OpProfiler> profilers(profiling ? total : 0);
  for (obs::OpProfiler& p : profilers) p.SetEpoch(query_start);

  // Instantiate every pipeline instance up front so that schema/placement
  // errors surface before any thread starts (no partial execution). Index
  // node * num_workers + worker throughout.
  std::vector<OperatorPtr> roots(total);
  std::vector<std::vector<ExchangeOp*>> worker_exchanges(total);
  std::vector<std::unique_ptr<PipelineShared>> shared(
      static_cast<std::size_t>(n));
  for (int node = 0; node < n; ++node) {
    const int num_workers = local_workers(node);
    if (num_workers == 0) continue;  // a sibling process runs this node
    PlanPtr plan = node == plan0_node ? plan0 : plan_for_node(node);
    shared[static_cast<std::size_t>(node)] =
        std::make_unique<PipelineShared>();
    EEDC_RETURN_IF_ERROR(CollectPipelineShared(
        *plan, data_->store(node), num_workers, options_.morsel_rows,
        options_.query_tag, /*feeds_filter=*/false,
        shared[static_cast<std::size_t>(node)].get()));
    for (int worker = 0; worker < num_workers; ++worker) {
      const std::size_t idx =
          offset[static_cast<std::size_t>(node)] +
          static_cast<std::size_t>(worker);
      NodeBuildContext ctx;
      ctx.data = data_;
      ctx.node_id = node;
      ctx.worker_id = worker;
      ctx.metrics = &worker_metrics[idx];
      ctx.ports = &ports;
      ctx.shared = shared[static_cast<std::size_t>(node)].get();
      ctx.exchange_ops = &worker_exchanges[idx];
      ctx.cancel = options_.cancel;
      ctx.receive_timeout = options_.receive_timeout;
      if (profiling) ctx.profiler = &profilers[idx];
      if (static_cast<std::size_t>(node) <
          options_.node_memory_budget_bytes.size()) {
        ctx.memory_budget_bytes =
            options_
                .node_memory_budget_bytes[static_cast<std::size_t>(node)];
      }
      EEDC_ASSIGN_OR_RETURN(roots[idx], BuildOps(*plan, &ctx));
      if (ctx.next_exchange != num_exchanges) {
        return Status::InvalidArgument(
            "per-node plans disagree on exchange count");
      }
      // The positional-id handshake with CollectPipelineShared must
      // consume the shared state exactly; a mismatch means the two plan
      // traversals diverged and ids are paired with the wrong operators.
      if (ctx.next_scan != static_cast<int>(ctx.shared->scans.size()) ||
          ctx.next_join != static_cast<int>(ctx.shared->joins.size()) ||
          ctx.next_agg != static_cast<int>(ctx.shared->aggs.size())) {
        return Status::Internal(
            "pipeline-shared collection and operator build traversed the "
            "plan differently");
      }
    }
  }

  // Results and statuses, one slot per pipeline instance.
  std::vector<Status> statuses(total);
  std::vector<std::unique_ptr<Table>> partials(total);

  // Per-worker busy spans as offsets from the common query start, for the
  // activity listener (emitted after the join, in index order).
  struct WorkerSpan {
    Duration begin = Duration::Zero();
    Duration end = Duration::Zero();
  };
  std::vector<WorkerSpan> spans(total);

  auto run_pipeline = [&](std::size_t idx) {
    const int node = idx_node[idx];
    const auto start = std::chrono::steady_clock::now();
    Operator& root = *roots[idx];
    auto result = std::make_unique<Table>(root.schema());
    Status st = root.Open();
    if (st.ok()) {
      while (true) {
        if (options_.cancel != nullptr) {
          st = options_.cancel->Check();
          if (!st.ok()) break;
        }
        auto block_or = root.Next();
        if (!block_or.ok()) {
          st = block_or.status();
          break;
        }
        if (!block_or.value().has_value()) break;
        // Root output is a materialization boundary: compact any selection
        // while appending to the worker's partial result table.
        block_or.value()->AppendLiveRowsTo(result.get());
      }
      Status close_st = root.Close();
      if (st.ok()) st = close_st;
    }
    if (!st.ok()) {
      // Unblock peers: every exchange this pipeline never finished sending
      // on must release its SenderDone tokens, every merge barrier on
      // this node must stop waiting for an arrival that won't come, and
      // every port is poisoned so no receiver on any node can block on
      // data that will never arrive (they surface `st` instead of a
      // truncated stream) and no sender stays blocked on credit.
      for (ExchangeOp* ex : worker_exchanges[idx]) {
        ex->AbortSend();
      }
      shared[static_cast<std::size_t>(node)]->Abort(st);
      for (auto& port : ports) port->Close(st);
    }
    const auto end = std::chrono::steady_clock::now();
    worker_metrics[idx].wall =
        Duration::Seconds(std::chrono::duration<double>(end - start)
                              .count());
    // Busy excludes exchange-receive stalls and credit-blocked sends:
    // the worker held no work while blocked, so utilization (and busy
    // watts) must not cover either.
    Duration wait =
        worker_metrics[idx].exchange_wait + worker_metrics[idx].credit_wait;
    if (wait > worker_metrics[idx].wall) wait = worker_metrics[idx].wall;
    worker_metrics[idx].busy = worker_metrics[idx].wall - wait;
    if (profiling) worker_metrics[idx].op = profilers[idx].breakdown();
    spans[idx].begin = Duration::Seconds(
        std::chrono::duration<double>(start - query_start).count());
    spans[idx].end = Duration::Seconds(
        std::chrono::duration<double>(end - query_start).count());
    statuses[idx] = st;
    partials[idx] = std::move(result);
  };

  {
    WorkCrew crew(total, run_pipeline);
    crew.Join();
  }

  // Activity spans are emitted before the status check on purpose: a
  // cancelled query's partial work still happened and still burned
  // joules — the energy meter must see it to bill it as wasted.
  if (options_.activity_listener != nullptr) {
    const double query_start_s =
        std::chrono::duration<double>(query_start.time_since_epoch())
            .count();
    for (std::size_t idx = 0; idx < total; ++idx) {
      options_.activity_listener->OnWorkerSpan(
          idx_node[idx], idx_worker[idx], spans[idx].begin,
          spans[idx].end);
    }
    // Wait intervals after all spans, rebased onto the query start and
    // clamped inside their worker's span. Credit-blocked sends stall the
    // CPU exactly like blocked receives, so both kinds are reported.
    for (std::size_t idx = 0; idx < total; ++idx) {
      for (const auto* wait_spans : {&worker_metrics[idx].exchange_wait_spans,
                                     &worker_metrics[idx].credit_wait_spans}) {
        for (const auto& [abs_begin, abs_end] : *wait_spans) {
          const Duration begin = std::max(
              Duration::Seconds(abs_begin - query_start_s),
              spans[idx].begin);
          const Duration end = std::min(
              Duration::Seconds(abs_end - query_start_s), spans[idx].end);
          if (end > begin) {
            options_.activity_listener->OnWorkerWait(
                idx_node[idx], idx_worker[idx], begin, end);
          }
        }
      }
    }
    // Interconnect traffic last: per-node logical bytes shipped to and
    // received from other nodes, for the NIC term of the energy split.
    std::vector<double> tx(static_cast<std::size_t>(n), 0.0);
    std::vector<double> rx(static_cast<std::size_t>(n), 0.0);
    for (std::size_t idx = 0; idx < total; ++idx) {
      const std::size_t node = static_cast<std::size_t>(idx_node[idx]);
      for (const ExchangeStats& e : worker_metrics[idx].exchanges) {
        tx[node] += e.sent_remote_bytes;
        rx[node] += e.received_remote_bytes;
      }
    }
    for (int node = 0; node < n; ++node) {
      const std::size_t s = static_cast<std::size_t>(node);
      if (tx[s] > 0.0 || rx[s] > 0.0) {
        options_.activity_listener->OnNodeNetworkBytes(node, tx[s], rx[s]);
      }
    }
  }

  // Trace emission, also before the status check: a cancelled query's
  // partial spans are exactly what a failover investigation wants to see.
  if (options_.trace != nullptr) {
    const double query_start_s =
        std::chrono::duration<double>(query_start.time_since_epoch())
            .count();
    std::vector<obs::TraceSpan> trace_spans;
    for (std::size_t idx = 0; idx < total; ++idx) {
      obs::TraceSpan pipe;
      pipe.query = options_.query_tag;
      pipe.node = idx_node[idx];
      pipe.worker = idx_worker[idx];
      pipe.name = "pipeline";
      pipe.category = "pipeline";
      pipe.begin_s = spans[idx].begin.seconds();
      pipe.end_s = spans[idx].end.seconds();
      trace_spans.push_back(std::move(pipe));
      for (const obs::OpProfiler::Instance& inst :
           profilers[idx].instances()) {
        if (!inst.touched()) continue;
        obs::TraceSpan op;
        op.query = options_.query_tag;
        op.node = idx_node[idx];
        op.worker = idx_worker[idx];
        op.name = inst.label;
        op.category = obs::OpStageName(inst.stage);
        op.begin_s = inst.first_s;
        op.end_s = inst.last_s;
        trace_spans.push_back(std::move(op));
      }
      const auto add_wait_spans =
          [&](const std::vector<std::pair<double, double>>& intervals,
              const char* name) {
            for (const auto& [abs_begin, abs_end] : intervals) {
              const double b = std::max(abs_begin - query_start_s,
                                        spans[idx].begin.seconds());
              const double e = std::min(abs_end - query_start_s,
                                        spans[idx].end.seconds());
              if (e <= b) continue;
              obs::TraceSpan wait;
              wait.query = options_.query_tag;
              wait.node = idx_node[idx];
              wait.worker = idx_worker[idx];
              wait.name = name;
              wait.category = "wait";
              wait.begin_s = b;
              wait.end_s = e;
              wait.is_wait = true;
              trace_spans.push_back(std::move(wait));
            }
          };
      add_wait_spans(worker_metrics[idx].exchange_wait_spans,
                     "exchange_wait");
      add_wait_spans(worker_metrics[idx].credit_wait_spans, "credit_wait");
    }
    options_.trace->AddSpans(std::move(trace_spans));
  }

  // A cancelled token is the root cause; any pipeline status is secondary
  // noise (poisoned ports echo the same reason).
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return options_.cancel->status();
  }
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }

  // Fold worker pipelines into per-node metrics: counters sum, wall is the
  // per-node max (workers run concurrently).
  for (std::size_t idx = 0; idx < total; ++idx) {
    metrics.nodes[static_cast<std::size_t>(idx_node[idx])].MergeFrom(
        worker_metrics[idx]);
  }

  // Concatenate worker outputs deterministically in (node, worker) order.
  QueryResult out{Table(roots[0]->schema()), std::move(metrics)};
  for (std::size_t idx = 0; idx < total; ++idx) {
    const Table& part = *partials[idx];
    for (std::size_t c = 0; c < part.num_columns(); ++c) {
      out.table.mutable_column(c).AppendRange(part.column(c), 0,
                                              part.num_rows());
    }
    out.table.FinishBulkLoad();
  }
  for (const auto& nm : out.metrics.nodes) {
    if (nm.wall > out.metrics.wall) out.metrics.wall = nm.wall;
  }
  return out;
}

}  // namespace eedc::exec
