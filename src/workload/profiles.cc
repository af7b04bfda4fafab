#include "workload/profiles.h"

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

}  // namespace eedc::workload
