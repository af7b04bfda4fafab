// EXPLAIN ANALYZE-style query profile: the per-node, per-operator-stage
// time/row breakdown of one executed query, rendered as a text table
// (common/table_printer) or JSON.
//
// Built from ExecMetrics after a profiled run (Executor::Options::
// profile_operators). EngineFleet's metered runs (Measure, RunOnce and
// the crash attempt) are all profiled, and EngineFleet::Measure returns
// one of these per measurement.
#ifndef EEDC_EXEC_PROFILE_H_
#define EEDC_EXEC_PROFILE_H_

#include <string>
#include <vector>

#include "exec/metrics.h"

namespace eedc::exec {

struct QueryProfileReport {
  struct Node {
    int node = 0;
    double wall_s = 0.0;
    double busy_s = 0.0;
    double exchange_wait_s = 0.0;
    obs::OpBreakdown op;
    double scan_rows = 0.0;
    double join_output_rows = 0.0;
    double agg_groups = 0.0;
    double sent_remote_bytes = 0.0;
  };
  std::vector<Node> nodes;
  double wall_s = 0.0;

  bool empty() const { return nodes.empty(); }

  /// Query-wide stage totals (sum over nodes).
  obs::OpBreakdown TotalOp() const;

  /// Text table: one row per (node, stage) with seconds / %busy / rows,
  /// plus a per-node summary row.
  std::string RenderText() const;

  /// JSON object:
  ///   {"wall_s":..,"nodes":[{"node":..,"wall_s":..,"busy_s":..,
  ///     "exchange_wait_s":..,"stages":{"scan":{"seconds":..,"rows":..},
  ///     ...}},...]}
  /// Stages with zero time and zero rows are omitted.
  std::string ToJson() const;
};

/// Extracts the profile from a run's metrics.
QueryProfileReport BuildQueryProfile(const ExecMetrics& metrics);

}  // namespace eedc::exec

#endif  // EEDC_EXEC_PROFILE_H_
