// Logical query plans.
//
// A PlanNode tree describes a distributed query; the Executor instantiates
// one physical operator tree per node (SPMD) and wires exchange instances
// together through shared exchange ports. Join children are ordered
// (build, probe).
#ifndef EEDC_EXEC_PLAN_H_
#define EEDC_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/exchange_op.h"
#include "exec/expr.h"
#include "exec/hash_agg_op.h"

namespace eedc::exec {

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

struct PlanNode {
  enum class Kind {
    kScan,
    kFilter,
    kProject,
    kHashJoin,
    kHashAgg,
    kExchange,
  };

  Kind kind = Kind::kScan;
  std::vector<PlanPtr> children;

  // kScan
  std::string table_name;

  // kFilter
  ExprPtr predicate;

  // kProject
  std::vector<std::string> columns;
  std::vector<std::pair<std::string, ExprPtr>> computed;

  // kHashJoin (children[0] = build, children[1] = probe)
  std::string build_key;
  std::string probe_key;

  // kExchange
  ExchangeMode mode = ExchangeMode::kShuffle;
  std::string partition_key;
  /// Receiver set; empty = all nodes. Heterogeneous plans restrict this to
  /// the joiner (Beefy) nodes.
  std::vector<int> destinations;

  // kHashAgg
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
};

/// Scans the node-local partition of a stored table.
PlanPtr ScanPlan(std::string table_name);
PlanPtr FilterPlan(PlanPtr child, ExprPtr predicate);
PlanPtr ProjectPlan(PlanPtr child, std::vector<std::string> columns,
                    std::vector<std::pair<std::string, ExprPtr>> computed =
                        {});
PlanPtr HashJoinPlan(PlanPtr build, PlanPtr probe, std::string build_key,
                     std::string probe_key);
PlanPtr ShufflePlan(PlanPtr child, std::string partition_key,
                    std::vector<int> destinations = {});
PlanPtr BroadcastPlan(PlanPtr child, std::vector<int> destinations = {});
PlanPtr GatherPlan(PlanPtr child);
PlanPtr HashAggPlan(PlanPtr child, std::vector<std::string> group_by,
                    std::vector<AggSpec> aggs);

/// Number of exchange nodes in the plan (ids are assigned in preorder).
int CountExchanges(const PlanNode& plan);

/// Pretty-prints the plan tree.
std::string PlanToString(const PlanNode& plan);

}  // namespace eedc::exec

#endif  // EEDC_EXEC_PLAN_H_
