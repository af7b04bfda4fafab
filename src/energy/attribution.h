// Per-query energy attribution for co-running query mixes.
//
// A single-query EnergyMeter bills one query for a whole node's draw; when
// a multi-query runtime (exec::ExecutorRuntime) overlaps several queries on
// one worker pool, the node's wattage at an instant is a joint function of
// every query's active workers and no query owns it outright.
// AttributeConcurrent resolves that with the meter's own sweep
// (SweepNodeEnergy, meter.h) in its many-query case: it buckets the
// runtime's tagged span log by node and query once, carves each query's
// waits out of its busy spans, prices each piecewise-constant step at the
// power model of the node's *combined* utilization, and splits the step's
// joules across queries proportionally to their active worker counts.
// Steps where no query is active accrue to `unattributed_idle` — capacity
// the co-run left on the table.
//
// Conservation holds by construction, not by reconciliation: the fleet
// total and the per-query shares come from one sweep, so
// total == sum(per-query) + unattributed_idle to float rounding.
#ifndef EEDC_ENERGY_ATTRIBUTION_H_
#define EEDC_ENERGY_ATTRIBUTION_H_

#include <memory>
#include <span>
#include <vector>

#include "common/units.h"
#include "energy/meter.h"
#include "exec/runtime.h"
#include "power/power_model.h"

namespace eedc::energy {

/// One query's slice of a co-run's metered energy.
struct QueryEnergyShare {
  int query = 0;
  Energy joules = Energy::Zero();
  /// Summed compute time of the query's workers (waits excluded).
  Duration busy = Duration::Zero();
};

/// Energy accounting for one co-running mix on a shared timeline.
struct ConcurrentEnergyReport {
  /// Fleet-wide joules over [0, wall) on every node.
  Energy total = Energy::Zero();
  /// Idle-watt joules of steps where no query had an active worker.
  Energy unattributed_idle = Energy::Zero();
  /// Shared-timeline horizon: max busy span end across all nodes.
  Duration wall = Duration::Zero();
  /// Per-query shares, ascending by query id.
  std::vector<QueryEnergyShare> queries;
  /// Per node (index = node id), the sweep's steps: how many workers
  /// computed over each stretch of [0, wall).
  std::vector<std::vector<ActiveStep>> node_steps;

  Energy QueryJoules(int query) const {
    for (const QueryEnergyShare& q : queries) {
      if (q.query == query) return q.joules;
    }
    return Energy::Zero();
  }
  /// sum(per-query) + unattributed_idle; equals `total` to rounding.
  Energy AttributedTotal() const {
    Energy t = unattributed_idle;
    for (const QueryEnergyShare& q : queries) t += q.joules;
    return t;
  }
};

/// Attributes the joules of one co-run. `spans` is the runtime's tagged
/// log (busy and wait spans on the shared timeline); `node_models` and
/// `workers_per_node` describe each node's power curve and full worker
/// width, exactly as for EnergyMeter.
ConcurrentEnergyReport AttributeConcurrent(
    std::span<const exec::TaggedWorkerSpan> spans,
    const std::vector<std::shared_ptr<const power::PowerModel>>&
        node_models,
    const std::vector<int>& workers_per_node);

}  // namespace eedc::energy

#endif  // EEDC_ENERGY_ATTRIBUTION_H_
