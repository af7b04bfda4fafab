// Engine-measured query profiles for the workload driver.
//
// Runs each QueryKind once (best-of-N) through the real morsel-parallel
// executor over a generated TPC-H database, with the EnergyMeter attached,
// and distills the measurements into driver QueryProfiles: per-kind
// service demand (measured wall time), a deadline derived from it, and
// the metered per-query joules. This is what makes the workload scheduler
// score policies against the engine that actually runs rather than
// assumed constants.
#ifndef EEDC_WORKLOAD_PROFILES_H_
#define EEDC_WORKLOAD_PROFILES_H_

#include <cstdint>
#include <memory>

#include "common/statusor.h"
#include "power/power_model.h"
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

struct ProfileOptions {
  double scale_factor = 0.002;
  std::uint64_t seed = 19920101;
  int nodes = 2;
  int workers_per_node = 1;
  /// Best-of repetitions per kind.
  int repetitions = 3;
  /// SLA deadline = multiplier x measured service (floored at 10 ms so
  /// microsecond-scale test runs keep a meaningful slack).
  double deadline_multiplier = 5.0;
  /// Power model used to meter the profile runs (default cluster-V).
  std::shared_ptr<const power::PowerModel> power_model;
};

/// Measures all four query kinds on the real executor.
StatusOr<QueryProfiles> MeasureQueryProfiles(const ProfileOptions& opts);

}  // namespace eedc::workload

#endif  // EEDC_WORKLOAD_PROFILES_H_
