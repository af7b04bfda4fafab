// Hash aggregation with optional grouping.
//
// Supports SUM / COUNT / MIN / MAX over expressions. AVG is composed
// downstream as SUM/COUNT, which also makes two-phase (partial-then-final)
// distributed aggregation exact: partials emit SUM and COUNT columns, the
// final phase SUMs them.
//
// Execution is a block at a time: each block's GROUP BY columns are packed
// into 64-bit words and found-or-inserted in one GroupTable (a group id
// per row), then every aggregate runs one typed loop over (group id,
// value) into a column-major accumulator.
//
// Morsel parallelism: with `shared` set at Create, this instance is one of
// W per-worker pipeline clones. Each aggregates its own (morsel-fed) input
// into a private AggPartial; the instances rendezvous at the shared
// MergeBarrier, whose last arriver folds the partials (in worker order,
// each partial's groups in first-seen order) into AggMergeShared::merged.
// Only worker 0 emits the merged groups, in first-seen order.
#ifndef EEDC_EXEC_HASH_AGG_OP_H_
#define EEDC_EXEC_HASH_AGG_OP_H_

#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/morsel.h"
#include "exec/operator.h"

namespace eedc::exec {

struct AggSpec {
  enum class Kind { kSum, kCount, kMin, kMax };
  Kind kind = Kind::kSum;
  /// Argument expression (null for COUNT(*)).
  ExprPtr arg;
  /// Output column name.
  std::string name;

  static AggSpec Sum(ExprPtr e, std::string name) {
    return AggSpec{Kind::kSum, std::move(e), std::move(name)};
  }
  static AggSpec Count(std::string name) {
    return AggSpec{Kind::kCount, nullptr, std::move(name)};
  }
  static AggSpec Min(ExprPtr e, std::string name) {
    return AggSpec{Kind::kMin, std::move(e), std::move(name)};
  }
  static AggSpec Max(ExprPtr e, std::string name) {
    return AggSpec{Kind::kMax, std::move(e), std::move(name)};
  }
};

class HashAggOp final : public Operator {
 public:
  /// `shared` (null = single-pipeline aggregation) is the cross-worker
  /// merge state owned by the executor's PipelineShared; `worker_id` is
  /// this pipeline instance's index in the crew.
  static StatusOr<OperatorPtr> Create(OperatorPtr child,
                                      std::vector<std::string> group_by,
                                      std::vector<AggSpec> aggs,
                                      NodeMetrics* metrics,
                                      AggMergeShared* shared = nullptr,
                                      int worker_id = 0);

  Status Open() override;
  StatusOr<std::optional<storage::Block>> Next() override;
  Status Close() override;
  const storage::Schema& schema() const override { return schema_; }

 private:
  HashAggOp(OperatorPtr child, std::vector<int> group_idx,
            std::vector<AggSpec> aggs, storage::Schema schema,
            NodeMetrics* metrics, AggMergeShared* shared, int worker_id);

  /// An empty state: no groups, one accumulator column per aggregate.
  AggPartial NewPartial() const;
  /// Opens, drains and closes the child, accumulating into local_.
  Status Drain();
  /// Barrier leader: folds every worker's partial into shared_->merged,
  /// in worker order.
  void MergePartials();

  OperatorPtr child_;
  /// GROUP BY column indices in the child's schema.
  std::vector<int> group_idx_;
  std::vector<AggSpec> aggs_;
  storage::Schema schema_;
  NodeMetrics* metrics_;
  AggMergeShared* shared_;
  int worker_id_;

  AggPartial local_;
  bool emitted_ = false;
};

}  // namespace eedc::exec

#endif  // EEDC_EXEC_HASH_AGG_OP_H_
