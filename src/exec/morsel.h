// Morsel-driven intra-node parallelism (Leis et al., "Morsel-Driven
// Parallelism", adapted to P-store's block-iterator engine).
//
// Each simulated node executes its operator tree as W parallel *pipeline
// instances* — identical per-worker clones of the plan. Workers never share
// operator state directly; they meet only at three kinds of shared objects,
// all owned by a per-node PipelineShared:
//
//   - MorselDispenser — one per scan in the plan. An atomic cursor that
//     hands out fixed-size row ranges ("morsels") of the node-local table;
//     `Block::Borrow` makes each morsel a zero-copy scan batch.
//   - JoinBuildShared — one per hash join. Workers drain disjoint morsel
//     streams into per-worker partial build tables + hash tables, then meet
//     at a MergeBarrier whose last arriver splices the partials (in worker
//     order) into the one table every worker probes.
//   - AggMergeShared — one per hash aggregation. Each worker folds its
//     blocks into a private AggPartial: a GroupTable that packs every
//     row's GROUP BY values into fixed-width 64-bit words and finds or
//     inserts a whole block at once, plus column-major accumulators. The
//     barrier leader re-keys each partial's groups into one merged table;
//     only worker 0 emits the result.
//
// Determinism: morsel *assignment* is racy, but every merge walks partials
// in worker order and each partial preserves its own processing order, so
// the result is the same multiset of rows at every worker count. In an
// aggregation the morsel assignment alone fixes the order a group's values
// are added in: a partial adds them in input-row order, the merge folds
// partials in worker order and each partial's groups in first-seen order,
// and the output keeps first-seen order. Packing keys into words changes
// which slot a group lands in, never that order, so sums of exactly
// representable values (and every sum at one worker) are bit-identical.
#ifndef EEDC_EXEC_MORSEL_H_
#define EEDC_EXEC_MORSEL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/statusor.h"
#include "exec/group_table.h"
#include "exec/hash_table.h"
#include "storage/block.h"
#include "storage/table.h"

namespace eedc::exec {

/// Hands out disjoint row ranges of one table to competing workers. The
/// fetch-add cursor is the only synchronization on the scan hot path.
class MorselDispenser {
 public:
  /// One morsel per scan block keeps granularity fine enough to balance
  /// skewed pipelines without extra per-block atomics.
  static constexpr std::size_t kDefaultMorselRows =
      storage::Block::kDefaultCapacity;

  /// `morsel_rows` == 0 selects kDefaultMorselRows. `query_tag` names the
  /// query this dispenser belongs to when many queries share one runtime
  /// (-1 = untagged single-query execution).
  explicit MorselDispenser(std::size_t total_rows,
                           std::size_t morsel_rows = kDefaultMorselRows,
                           int query_tag = -1)
      : total_rows_(total_rows),
        morsel_rows_(morsel_rows == 0 ? kDefaultMorselRows : morsel_rows),
        query_tag_(query_tag) {}

  /// Claims the next morsel as [*start, *start + *count). Returns false
  /// when the table is exhausted.
  bool Next(std::size_t* start, std::size_t* count) {
    const std::size_t s =
        cursor_.fetch_add(morsel_rows_, std::memory_order_relaxed);
    if (s >= total_rows_) return false;
    *start = s;
    *count = std::min(morsel_rows_, total_rows_ - s);
    return true;
  }

  std::size_t total_rows() const { return total_rows_; }
  std::size_t morsel_rows() const { return morsel_rows_; }
  /// The owning query under a multi-query runtime (-1 = untagged).
  int query_tag() const { return query_tag_; }

 private:
  std::atomic<std::size_t> cursor_{0};
  std::size_t total_rows_;
  std::size_t morsel_rows_;
  int query_tag_;
};

/// Deterministic adaptive morsel sizing (used when no explicit morsel size
/// is configured). The dispense fetch-add is hot once many concurrent
/// queries share a node's workers, and high-selectivity scans (a scan
/// feeding a filter) do little work per dispensed row — both amortize
/// better over larger morsels. The rule depends only on the table size and
/// the static plan shape, never on worker count or runtime feedback, so
/// results stay identical at every W and across co-running queries:
/// grow the morsel (4x base for filter-fed scans) but never below
/// kMinMorselsPerScan morsels of load-balancing granularity.
std::size_t AdaptiveMorselRows(std::size_t total_rows, bool feeds_filter);

/// Minimum number of morsels AdaptiveMorselRows keeps available for
/// balancing before it stops growing the morsel size.
inline constexpr std::size_t kMinMorselsPerScan = 64;

/// A single-use barrier where W pipeline instances rendezvous at a merge
/// point. Every worker arrives with its phase status; the last arriver runs
/// `merge` (iff every status was OK) and everyone returns the combined
/// status. Abort() releases waiters early when a worker dies before
/// reaching the barrier, so an error on one pipeline cannot strand its
/// peers.
class MergeBarrier {
 public:
  explicit MergeBarrier(int num_workers) : remaining_(num_workers) {}

  MergeBarrier(const MergeBarrier&) = delete;
  MergeBarrier& operator=(const MergeBarrier&) = delete;

  /// Blocks until all workers arrive or the barrier is aborted. `merge`
  /// runs exactly once, on the last arriver, with every peer parked —
  /// single-threaded by construction. May be null.
  Status ArriveAndMerge(Status status, const std::function<Status()>& merge);

  /// Marks the barrier failed and wakes all waiters; later arrivals return
  /// the abort status immediately. No-op once the barrier completed.
  void Abort(const Status& status);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
  bool done_ = false;
  Status status_ = Status::OK();
};

/// Per-worker partial state of one hash join's build side, merged in two
/// phases: at `barrier` the leader splices the partial *tables* (cheap
/// column appends) in worker order, then between the barriers every
/// worker inserts its owned hash partitions in parallel, meeting at
/// `insert_barrier` where the leader runs the final memory-budget check.
/// The hash-table construction — the expensive part of the old serial
/// splice — therefore scales with W instead of serializing on the leader.
struct JoinBuildShared {
  explicit JoinBuildShared(int num_workers)
      : barrier(num_workers),
        insert_barrier(num_workers),
        partial_tables(static_cast<std::size_t>(num_workers)) {}

  MergeBarrier barrier;
  MergeBarrier insert_barrier;
  std::vector<std::optional<storage::Table>> partial_tables;
  /// Merged build side; written by the barrier leader, read-only afterward.
  std::optional<storage::Table> build_table;
  /// Built concurrently between the barriers (disjoint partitions per
  /// worker); read-only once insert_barrier completes.
  PartitionedJoinHashTable hash_table;
};

/// The hash-aggregation state of one pipeline instance (or of the merged
/// result): the groups, keyed by packed GROUP BY words in one
/// open-addressing table (exec/group_table.h), and one accumulator column
/// per AggSpec, indexed by group id (COUNT counts in a double, exact up to
/// 2^53 rows).
struct AggPartial {
  GroupTable groups;
  std::vector<std::vector<double>> accum;
};

/// Per-worker partial aggregation states, merged at the barrier; worker 0
/// emits `merged`.
struct AggMergeShared {
  explicit AggMergeShared(int num_workers)
      : barrier(num_workers),
        partials(static_cast<std::size_t>(num_workers)) {}

  MergeBarrier barrier;
  std::vector<AggPartial> partials;
  AggPartial merged;
};

/// All cross-worker state of one node's W pipeline instances for one
/// execution: dispensers/merges indexed by the plan-traversal position of
/// their operator (the executor assigns ids in build order).
struct PipelineShared {
  std::vector<std::unique_ptr<MorselDispenser>> scans;
  std::vector<std::unique_ptr<JoinBuildShared>> joins;
  std::vector<std::unique_ptr<AggMergeShared>> aggs;

  /// Releases every barrier with `status`: called by a worker that fails
  /// outside any merge phase, so peers parked at a barrier unblock with the
  /// failure instead of waiting for an arrival that will never come.
  void Abort(const Status& status) {
    for (auto& j : joins) {
      j->barrier.Abort(status);
      j->insert_barrier.Abort(status);
    }
    for (auto& a : aggs) a->barrier.Abort(status);
  }
};

}  // namespace eedc::exec

#endif  // EEDC_EXEC_MORSEL_H_
