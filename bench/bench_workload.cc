// Workload-driver smoke bench: concurrent TPC-H streams under power
// policies.
//
// Two parts:
//   1. REPORT — measures per-kind service demand and per-query joules on
//      the real morsel engine (EngineFleet::MeasuredProfiles on a 2W
//      fleet). Host-dependent, so reported but not gated.
//   2. GATE — replays fixed seeded arrival traces (Poisson and bursty)
//      through the virtual-time driver with synthetic uniform profiles
//      under three power policies. Virtual time makes these metrics
//      bit-deterministic across hosts; CI gates on them via
//      bench/BASELINE_workload.json.
//
// The headline claim is the paper's: hardware is not energy proportional,
// so on a bursty trace a cluster that powers idle nodes down spends
// strictly less idle energy than one that keeps everything on.
#include <cstdio>

#include "bench_util.h"
#include "cluster/cluster_config.h"
#include "cluster/node_class.h"
#include "common/str_util.h"
#include "power/catalog.h"
#include "workload/arrival.h"
#include "workload/driver.h"
#include "workload/engine.h"
#include "workload/power_policy.h"

namespace {

using namespace eedc;           // NOLINT
using namespace eedc::workload;  // NOLINT

void ReportPolicy(const PolicyReport& r, const std::string& trace,
                  bench::BenchJson* json) {
  bench::PrintNote(StrFormat(
      "%s on %s: %d queries, %.2f q/s, SLA violations %.1f%%, "
      "%.1f J/query, EDP %.3g Js, energy busy/idle/sleep/wake = "
      "%.0f/%.0f/%.0f/%.0f J",
      r.policy.c_str(), trace.c_str(), r.queries, r.throughput_qps,
      100.0 * r.sla_violation_rate, r.energy_per_query().joules(),
      r.edp(), r.busy_energy.joules(), r.idle_energy.joules(),
      r.sleep_energy.joules(), r.wake_energy.joules()));
  const std::string prefix = trace + "_" + r.policy;
  json->Add(prefix + "_energy_per_query_j",
            r.energy_per_query().joules());
  json->Add(prefix + "_edp_js", r.edp());
  json->Add(prefix + "_sla_compliance",
            1.0 - r.sla_violation_rate);
  json->Add(prefix + "_throughput_qps", r.throughput_qps);
  json->Add(prefix + "_idle_j", r.idle_energy.joules());
}

bool RunGate(bench::BenchJson* json) {
  const WorkloadMix mix = DefaultMix();
  const QueryProfiles profiles = QueryProfiles::Uniform(
      Duration::Seconds(0.2), Duration::Seconds(2.0));

  DriverOptions opts;
  opts.nodes = 4;
  opts.node_model = power::ClusterVPowerModel();
  WorkloadDriver driver(opts);

  AllOnPolicy all_on;
  PowerDownWhenIdlePolicy power_down;
  DvfsScalePolicy dvfs;
  const PowerPolicy* policies[] = {&all_on, &power_down, &dvfs};

  PoissonOptions poisson;
  poisson.rate_qps = 4.0;
  poisson.horizon = Duration::Seconds(30.0);
  poisson.seed = 7;
  const auto poisson_trace = PoissonArrivals(mix, poisson);

  BurstyOptions bursty;
  bursty.on_rate_qps = 4.0;
  bursty.on = Duration::Seconds(5.0);
  bursty.off = Duration::Seconds(20.0);
  bursty.cycles = 4;
  bursty.seed = 7;
  const auto bursty_trace = BurstyArrivals(mix, bursty);

  bool ok = true;
  PolicyReport bursty_all_on, bursty_power_down;
  for (const PowerPolicy* policy : policies) {
    auto poisson_report = driver.Run(poisson_trace, profiles, *policy);
    auto bursty_report = driver.Run(bursty_trace, profiles, *policy);
    if (!poisson_report.ok() || !bursty_report.ok()) {
      bench::PrintNote("driver run failed for " + policy->name());
      return false;
    }
    ReportPolicy(*poisson_report, "poisson", json);
    ReportPolicy(*bursty_report, "bursty", json);
    ok = ok && poisson_report->queries ==
                   static_cast<int>(poisson_trace.size());
    if (policy == &all_on) bursty_all_on = *bursty_report;
    if (policy == &power_down) bursty_power_down = *bursty_report;
  }

  // The acceptance claim: powering idle nodes down beats all-on on idle
  // joules (strictly) on a bursty trace, and on total non-serving joules
  // once sleep + wake costs are charged.
  const double allon_idle = bursty_all_on.idle_energy.joules();
  const double pd_idle = bursty_power_down.idle_energy.joules();
  const double pd_nonserving = pd_idle +
                               bursty_power_down.sleep_energy.joules() +
                               bursty_power_down.wake_energy.joules();
  const bool idle_lower = pd_idle < allon_idle;
  const bool nonserving_lower = pd_nonserving < allon_idle;
  bench::PrintClaim(
      "power-down-when-idle spends strictly less idle energy than all-on "
      "on a bursty trace",
      "lower",
      StrFormat("%.0f J vs %.0f J idle (%.0f J incl. sleep+wake)",
                pd_idle, allon_idle, pd_nonserving),
      idle_lower && nonserving_lower);
  json->Add("bursty_powerdown_idle_strictly_lower",
            idle_lower ? 1.0 : 0.0);
  json->Add("bursty_idle_savings_ratio",
            pd_nonserving > 0.0 ? allon_idle / pd_nonserving : 0.0);
  json->Add("policies_run", 3.0);
  return ok && idle_lower && nonserving_lower;
}

void RunEngineProfileReport(bench::BenchJson* json) {
  // Two wimpy nodes of two pipelines each, metered with the wimpy class's
  // power model.
  auto fleet = cluster::ClusterConfig::FromRegistry(
      cluster::NodeClassRegistry::PaperDefault(), {{"wimpy", 2}});
  if (!fleet.ok()) {
    bench::PrintNote("engine fleet construction failed: " +
                     fleet.status().ToString());
    return;
  }
  EngineFleetOptions options;
  options.scale_factor = 0.002;
  options.repetitions = 2;
  auto engine = EngineFleet::Create(*fleet, options);
  if (!engine.ok()) {
    bench::PrintNote("engine fleet setup failed: " +
                     engine.status().ToString());
    return;
  }
  auto profiles = (*engine)->MeasuredProfiles();
  if (!profiles.ok()) {
    bench::PrintNote("engine profiling failed: " +
                     profiles.status().ToString());
    return;
  }
  const QueryKind kinds[] = {QueryKind::kQ1, QueryKind::kQ3,
                             QueryKind::kQ12, QueryKind::kQ21};
  for (QueryKind kind : kinds) {
    const QueryProfile& p = profiles->For(kind);
    bench::PrintNote(StrFormat(
        "engine profile %s: service %.3f ms, %.2f J metered",
        QueryKindName(kind), p.service.millis(),
        p.engine_joules.joules()));
    json->Add(StrFormat("engine_%s_service_ms", QueryKindName(kind)),
              p.service.millis());
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Workload", "Energy-aware scheduling of concurrent TPC-H streams");
  bench::BenchJson json("workload");
  RunEngineProfileReport(&json);
  const bool ok = RunGate(&json);
  json.WriteFile();
  return ok ? 0 : 1;
}
