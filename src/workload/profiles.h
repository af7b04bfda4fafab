// The canonical engine plan for each scheduled query kind.
//
// Engine-measured driver profiles (service demand, deadline and metered
// joules per kind) come from EngineFleet::MeasuredProfiles (engine.h),
// which runs these plans on a placed fleet with the EnergyMeter attached.
#ifndef EEDC_WORKLOAD_PROFILES_H_
#define EEDC_WORKLOAD_PROFILES_H_

#include <memory>

#include "common/statusor.h"
#include "workload/driver.h"

namespace eedc::tpch {
struct TpchDatabase;
}  // namespace eedc::tpch

namespace eedc::exec {
struct PlanNode;
}  // namespace eedc::exec

namespace eedc::workload {

/// The canonical engine plan for a scheduled query kind over a generated
/// database (thresholds are derived from the data so selectivities match
/// the paper's setup). Shared by profiling, calibration consumers, and
/// the mixed-fleet engine runner (engine.h).
StatusOr<std::shared_ptr<const exec::PlanNode>> PlanForKind(
    QueryKind kind, const tpch::TpchDatabase& db);

}  // namespace eedc::workload

#endif  // EEDC_WORKLOAD_PROFILES_H_
