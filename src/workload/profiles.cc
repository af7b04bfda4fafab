#include "workload/profiles.h"

#include <algorithm>

#include "energy/meter.h"
#include "exec/executor.h"
#include "power/catalog.h"
#include "tpch/dates.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/selectivity.h"

namespace eedc::workload {

StatusOr<exec::PlanPtr> PlanForKind(QueryKind kind,
                                    const tpch::TpchDatabase& db) {
  switch (kind) {
    case QueryKind::kQ1:
      return tpch::Q1Plan(tpch::DayNumber(1998, 9, 2));
    case QueryKind::kQ3: {
      tpch::Q3Options q3;
      EEDC_ASSIGN_OR_RETURN(
          q3.custkey_threshold,
          tpch::ThresholdForSelectivity(*db.orders, "o_custkey", 0.5));
      EEDC_ASSIGN_OR_RETURN(
          q3.shipdate_threshold,
          tpch::ThresholdForSelectivity(*db.lineitem, "l_shipdate", 0.5));
      return tpch::Q3Plan(q3);
    }
    case QueryKind::kQ12: {
      tpch::Q12Options q12;
      q12.receipt_lo = tpch::DayNumber(1994, 1, 1);
      q12.receipt_hi = tpch::DayNumber(1995, 1, 1);
      return tpch::Q12Plan(q12);
    }
    case QueryKind::kQ21: {
      tpch::Q21Options q21;
      q21.orderdate_cutoff = tpch::DayNumber(1996, 1, 1);
      return tpch::Q21Plan(q21);
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

StatusOr<QueryProfiles> MeasureQueryProfiles(const ProfileOptions& opts) {
  if (opts.nodes <= 0 || opts.workers_per_node <= 0) {
    return Status::InvalidArgument(
        "profiling needs >= 1 node and >= 1 worker");
  }
  tpch::DbgenOptions dbgen;
  dbgen.scale_factor = opts.scale_factor;
  dbgen.seed = opts.seed;
  const tpch::TpchDatabase db = tpch::GenerateDatabase(dbgen);

  // The Section 3.1 Vertica layout serves all four kinds: LINEITEM local
  // on the join key, ORDERS partition-incompatible (repartitions),
  // SUPPLIER/NATION replicated.
  exec::ClusterData data(opts.nodes);
  EEDC_RETURN_IF_ERROR(
      data.LoadHashPartitioned("lineitem", *db.lineitem, "l_orderkey"));
  EEDC_RETURN_IF_ERROR(
      data.LoadHashPartitioned("orders", *db.orders, "o_custkey"));
  data.LoadReplicated("supplier", db.supplier);
  data.LoadReplicated("nation", db.nation);

  std::shared_ptr<const power::PowerModel> model = opts.power_model;
  if (model == nullptr) model = power::ClusterVPowerModel();
  energy::EnergyMeter meter(opts.nodes, model, opts.workers_per_node);

  exec::Executor::Options exec_opts;
  exec_opts.workers_per_node = opts.workers_per_node;
  exec_opts.activity_listener = &meter;
  exec::Executor executor(&data, exec_opts);

  QueryProfiles profiles;
  const QueryKind kinds[] = {QueryKind::kQ1, QueryKind::kQ3,
                             QueryKind::kQ12, QueryKind::kQ21};
  for (QueryKind kind : kinds) {
    EEDC_ASSIGN_OR_RETURN(exec::PlanPtr plan, PlanForKind(kind, db));
    Duration best_wall = Duration::Infinite();
    Energy best_joules = Energy::Zero();
    for (int rep = 0; rep < std::max(1, opts.repetitions); ++rep) {
      meter.Reset();
      EEDC_ASSIGN_OR_RETURN(exec::QueryResult result,
                            executor.Execute(plan));
      const energy::QueryEnergyReport energy = meter.Finish();
      if (result.metrics.wall < best_wall) {
        best_wall = result.metrics.wall;
        best_joules = energy.total;
      }
    }
    QueryProfile& p = profiles.For(kind);
    p.service = best_wall;
    p.deadline = std::max(best_wall * opts.deadline_multiplier,
                          Duration::Millis(10.0));
    p.engine_joules = best_joules;
  }
  return profiles;
}

}  // namespace eedc::workload
