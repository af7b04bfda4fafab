// Per-operator time attribution for one worker pipeline.
//
// The executor's pull-model operator trees make "where did this worker's
// time go" ambiguous: a hash join's Next() spends most of its wall inside
// its probe child's Next(). OpProfiler resolves that with a stage-switch
// state machine: the profiler always has one *current* stage, and entering
// an operator's code flushes the elapsed time since the last switch into
// the previous stage. Each operator call therefore costs exactly two
// steady-clock reads (enter + restore), and every nanosecond of the
// pipeline between the first Enter and the last Restore is attributed to
// exactly one stage — operator *self* time, no double counting, no
// per-child subtraction bookkeeping.
//
// The profiler is strictly per-worker-pipeline private state: workers
// never share one, so the hot path takes no locks and touches no atomics.
// The executor copies the finished breakdown into the worker's NodeMetrics
// after the pipeline joins (the same post-run contract as the worker
// activity listener).
//
// In addition to stage totals, the profiler keeps one record per operator
// *instance* — its first and last activity timestamp on the trace
// timeline. By pull-model construction these [first, last] envelopes nest
// (a parent operator is entered before and left after its children), so a
// trace exporter can render them directly as a flame graph per
// (query, node, worker) track.
#ifndef EEDC_OBS_OP_PROFILE_H_
#define EEDC_OBS_OP_PROFILE_H_

#include <array>
#include <chrono>
#include <string>
#include <vector>

namespace eedc::obs {

/// The operator stages the ISSUE's trace records. Join build and probe
/// are distinct stages of one operator (build happens in Open, probe in
/// Next), as are an exchange's send (Open drains and routes the child)
/// and receive (Next waits on the port for peers) phases.
enum class OpStage : int {
  kScan = 0,
  kFilter = 1,
  kProject = 2,
  kJoinBuild = 3,
  kJoinProbe = 4,
  kAgg = 5,
  kExchangeSend = 6,
  kExchangeReceive = 7,
};

inline constexpr int kNumOpStages = 8;

/// Stable lower_snake names ("scan", "join_build", ...), used as JSON keys
/// and trace span categories.
const char* OpStageName(OpStage stage);

/// Per-stage totals of one worker pipeline (or, after MergeFrom folding,
/// of one node or one query).
struct OpStageTotals {
  double seconds = 0.0;
  double rows = 0.0;  ///< rows emitted by operators of this stage
};

/// The per-operator time/row breakdown carried inside exec::NodeMetrics.
struct OpBreakdown {
  std::array<OpStageTotals, kNumOpStages> stage{};

  const OpStageTotals& of(OpStage s) const {
    return stage[static_cast<std::size_t>(s)];
  }
  OpStageTotals& of(OpStage s) {
    return stage[static_cast<std::size_t>(s)];
  }

  /// Counters sum (workers run concurrently; like busy, stage seconds
  /// accumulate across a node's pipelines).
  void MergeFrom(const OpBreakdown& o);

  double total_seconds() const;
  bool empty() const { return total_seconds() == 0.0; }
};

/// Stage-switch profiler for one worker pipeline. Not thread-safe on
/// purpose: one instance per pipeline, owned by the executor.
class OpProfiler {
 public:
  /// Sentinel "no stage active" value returned by the first Enter.
  static constexpr int kNoStage = -1;

  /// All instance timestamps are seconds since `epoch` — the query's
  /// span epoch, so operator envelopes land on the same timeline as
  /// worker activity spans and TaggedWorkerSpans.
  void SetEpoch(std::chrono::steady_clock::time_point epoch) {
    epoch_ = epoch;
  }

  /// Registers one operator instance; returns its id for Touch/AddRows.
  int RegisterInstance(OpStage stage, std::string label);

  /// Flushes elapsed time into the current stage and switches to `stage`.
  /// Returns the previous stage for the matching Restore.
  int Enter(OpStage stage) { return Switch(static_cast<int>(stage)); }

  /// Flushes elapsed time into the current stage and switches back to
  /// `prev_stage` (the value the matching Enter returned).
  void Restore(int prev_stage) { Switch(prev_stage); }

  /// Marks instance activity at the most recent stage-switch timestamp
  /// (no extra clock read): widens the instance's [first, last] envelope.
  void Touch(int instance);

  /// Credits `rows` to the instance and its stage totals.
  void AddRows(int instance, OpStage stage, double rows);

  const OpBreakdown& breakdown() const { return breakdown_; }

  struct Instance {
    OpStage stage = OpStage::kScan;
    std::string label;
    /// Seconds since the epoch; first < 0 until the instance is touched.
    double first_s = -1.0;
    double last_s = 0.0;
    double rows = 0.0;

    bool touched() const { return first_s >= 0.0; }
  };
  const std::vector<Instance>& instances() const { return instances_; }

 private:
  int Switch(int stage);

  std::chrono::steady_clock::time_point epoch_{};
  std::chrono::steady_clock::time_point last_{};
  int current_ = kNoStage;
  OpBreakdown breakdown_;
  std::vector<Instance> instances_;
};

}  // namespace eedc::obs

#endif  // EEDC_OBS_OP_PROFILE_H_
