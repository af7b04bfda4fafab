#include "energy/meter.h"

#include <gtest/gtest.h>

#include <memory>

#include "exec/executor.h"
#include "exec/plan.h"
#include "tpch/dbgen.h"
#include "tpch/dates.h"
#include "tpch/queries.h"

namespace eedc::energy {
namespace {

using power::ConstantPowerModel;
using power::LinearPowerModel;

TEST(EnergyMeterTest, MatchesHandComputedJoules) {
  // Node 0 of a W = 2 fleet under a linear 100 W idle / 200 W peak model:
  // worker 0 busy [0, 10), worker 1 busy [2, 6). Node 1's span ends at
  // 12 s and sets the query horizon, so node 0 idles over [10, 12).
  //   [0,2)  u=0.5 -> 150 W * 2 s  = 300 J  (busy)
  //   [2,6)  u=1.0 -> 200 W * 4 s  = 800 J  (busy)
  //   [6,10) u=0.5 -> 150 W * 4 s  = 600 J  (busy)
  //   [10,12) idle -> 101 W * 2 s  = 202 J  (idle; clamp floor is 1%)
  auto model = std::make_shared<LinearPowerModel>(Power::Watts(100.0),
                                                  Power::Watts(200.0));
  EnergyMeter meter(2, model, 2);
  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(10.0));
  meter.OnWorkerSpan(0, 1, Duration::Seconds(2.0), Duration::Seconds(6.0));
  meter.OnWorkerSpan(1, 0, Duration::Zero(), Duration::Seconds(12.0));
  const QueryEnergyReport report = meter.Finish();
  ASSERT_EQ(report.nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(report.wall.seconds(), 12.0);
  const EnergySplit& split = report.nodes[0].joules;
  const double want_busy = 300.0 + 800.0 + 600.0;
  const double want_idle = 202.0;
  // The acceptance bar is 1%; the integral over exact steps should in
  // fact be exact to floating point.
  EXPECT_NEAR(split.busy.joules(), want_busy, want_busy * 0.01);
  EXPECT_NEAR(split.idle.joules(), want_idle, want_idle * 0.01);
  EXPECT_NEAR(split.total().joules(), want_busy + want_idle, 1e-9);
}

TEST(EnergyMeterTest, PerNodeReportAccountsEarlyFinishersAsIdle) {
  // Node 0 busy the whole horizon, node 1 done halfway: node 1 accrues
  // idle joules for its tail — the underutilized-node waste.
  auto model =
      std::make_shared<ConstantPowerModel>(Power::Watts(100.0));
  EnergyMeter meter(2, model, 1);
  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(8.0));
  meter.OnWorkerSpan(1, 0, Duration::Zero(), Duration::Seconds(4.0));
  const QueryEnergyReport report = meter.Finish();
  EXPECT_DOUBLE_EQ(report.wall.seconds(), 8.0);
  ASSERT_EQ(report.nodes.size(), 2u);
  EXPECT_NEAR(report.nodes[0].joules.busy.joules(), 800.0, 1e-9);
  EXPECT_NEAR(report.nodes[0].joules.idle.joules(), 0.0, 1e-9);
  EXPECT_NEAR(report.nodes[1].joules.busy.joules(), 400.0, 1e-9);
  EXPECT_NEAR(report.nodes[1].joules.idle.joules(), 400.0, 1e-9);
  EXPECT_NEAR(report.total.joules(), 1600.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.nodes[0].avg_utilization, 1.0);
  EXPECT_DOUBLE_EQ(report.nodes[1].avg_utilization, 0.5);
  EXPECT_GT(report.edp(), 0.0);
  // Finish() resets: a second report is empty.
  EXPECT_EQ(meter.Finish().total.joules(), 0.0);
}

TEST(SubtractWaitsTest, CarvesWaitIntervalsOutOfSpans) {
  const WorkerSpan spans[] = {
      {0, 0, Duration::Zero(), Duration::Seconds(10.0)},
      {0, 1, Duration::Zero(), Duration::Seconds(6.0)},
  };
  const WorkerSpan waits[] = {
      // Two waits inside worker 0's span.
      {0, 0, Duration::Seconds(2.0), Duration::Seconds(3.0)},
      {0, 0, Duration::Seconds(5.0), Duration::Seconds(7.0)},
      // Worker 1's wait overhangs its span end: clipped to [5, 6).
      {0, 1, Duration::Seconds(5.0), Duration::Seconds(9.0)},
      // Different worker id: must not affect worker 0.
      {0, 2, Duration::Zero(), Duration::Seconds(10.0)},
  };
  const std::vector<WorkerSpan> busy = SubtractWaits(spans, waits);
  ASSERT_EQ(busy.size(), 4u);
  EXPECT_DOUBLE_EQ(busy[0].begin.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(busy[0].end.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(busy[1].begin.seconds(), 3.0);
  EXPECT_DOUBLE_EQ(busy[1].end.seconds(), 5.0);
  EXPECT_DOUBLE_EQ(busy[2].begin.seconds(), 7.0);
  EXPECT_DOUBLE_EQ(busy[2].end.seconds(), 10.0);
  EXPECT_EQ(busy[3].worker, 1);
  EXPECT_DOUBLE_EQ(busy[3].begin.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(busy[3].end.seconds(), 5.0);
}

TEST(EnergyMeterTest, ExchangeWaitsArePricedAtIdleWatts) {
  // One worker busy [0, 10) but blocked on an exchange for [4, 8): with
  // a linear 100/200 W model the stall must be billed at the 101 W idle
  // floor, not the 200 W busy rate.
  auto model = std::make_shared<LinearPowerModel>(Power::Watts(100.0),
                                                  Power::Watts(200.0));
  EnergyMeter meter(1, model, 1);
  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(10.0));
  meter.OnWorkerWait(0, 0, Duration::Seconds(4.0), Duration::Seconds(8.0));
  const QueryEnergyReport report = meter.Finish();
  ASSERT_EQ(report.nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(report.nodes[0].busy.seconds(), 6.0);
  EXPECT_DOUBLE_EQ(report.nodes[0].waiting.seconds(), 4.0);
  // 6 s busy at 200 W + 4 s stalled at the 1%-floor idle watts (101 W).
  EXPECT_NEAR(report.busy.joules(), 1200.0, 1e-9);
  EXPECT_NEAR(report.idle.joules(), 404.0, 1e-9);
  EXPECT_NEAR(report.total.joules(), 1604.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.nodes[0].avg_utilization, 0.6);

  // Without the wait the same span bills the full 2000 J busy.
  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(10.0));
  const QueryEnergyReport no_wait = meter.Finish();
  EXPECT_NEAR(no_wait.busy.joules(), 2000.0, 1e-9);
  EXPECT_GT(no_wait.total.joules(), report.total.joules());
}

TEST(EnergyMeterTest, NodeWideStallDropsToIdleOnlyWhenAllWorkersWait) {
  // Two workers; only one stalls over [2, 4): utilization falls to 0.5
  // there (the other worker still runs), so the node is not idle.
  auto model = std::make_shared<ConstantPowerModel>(Power::Watts(100.0));
  EnergyMeter meter(1, model, 2);
  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(4.0));
  meter.OnWorkerSpan(0, 1, Duration::Zero(), Duration::Seconds(4.0));
  meter.OnWorkerWait(0, 0, Duration::Seconds(2.0), Duration::Seconds(4.0));
  const QueryEnergyReport report = meter.Finish();
  // Constant model: every busy step is 100 W; only a full-node stall
  // would flip a step to idle. Busy time [0,4) for both minus one
  // worker's 2 s wait = 6 s of worker-busy over a 4 s wall.
  EXPECT_DOUBLE_EQ(report.nodes[0].busy.seconds(), 6.0);
  EXPECT_DOUBLE_EQ(report.nodes[0].waiting.seconds(), 2.0);
  EXPECT_NEAR(report.busy.joules(), 400.0, 1e-9);
  EXPECT_NEAR(report.idle.joules(), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.nodes[0].avg_utilization, 0.75);
}

TEST(EnergyMeterTest, MetersARealExecutorRun) {
  tpch::DbgenOptions dbgen;
  dbgen.scale_factor = 0.001;
  const tpch::TpchDatabase db = tpch::GenerateDatabase(dbgen);
  exec::ClusterData data(2);
  ASSERT_TRUE(
      data.LoadHashPartitioned("lineitem", *db.lineitem, "l_orderkey")
          .ok());

  auto model =
      std::make_shared<ConstantPowerModel>(Power::Watts(100.0));
  EnergyMeter meter(2, model, 2);

  exec::Executor::Options options;
  options.workers_per_node = 2;
  options.activity_listener = &meter;
  exec::Executor executor(&data, options);
  auto result =
      executor.Execute(tpch::Q1Plan(tpch::DayNumber(1998, 9, 2)));
  ASSERT_TRUE(result.ok()) << result.status();

  // 2 nodes x 2 workers emitted one span each.
  EXPECT_EQ(meter.spans().size(), 4u);
  const QueryEnergyReport report = meter.Finish();
  EXPECT_GT(report.wall.seconds(), 0.0);
  EXPECT_GT(report.total.joules(), 0.0);
  EXPECT_GT(report.busy.joules(), 0.0);
  // Executor metrics agree: per-node busy is the sum of worker walls and
  // can exceed the node wall only through concurrency, never 2x wall.
  for (const auto& node : result->metrics.nodes) {
    EXPECT_GT(node.busy.seconds(), 0.0);
    EXPECT_LE(node.busy.seconds(), 2.0 * node.wall.seconds() + 1e-9);
  }
}

// Fault accounting: Finish(kind) routes each attempt's joules into the
// meter's running clean/wasted/retry totals.
TEST(EnergyMeterTest, AttemptKindAttributionAccumulates) {
  auto model = std::make_shared<ConstantPowerModel>(Power::Watts(100.0));
  EnergyMeter meter(1, model, 1);

  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(2.0));
  const QueryEnergyReport wasted = meter.Finish(AttemptKind::kWasted);
  EXPECT_NEAR(meter.wasted_joules().joules(), wasted.total.joules(), 1e-9);
  EXPECT_DOUBLE_EQ(meter.clean_joules().joules(), 0.0);
  EXPECT_DOUBLE_EQ(meter.retry_joules().joules(), 0.0);

  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(3.0));
  const QueryEnergyReport retry = meter.Finish(AttemptKind::kRetry);
  EXPECT_NEAR(meter.retry_joules().joules(), retry.total.joules(), 1e-9);

  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(1.0));
  const QueryEnergyReport clean = meter.Finish();  // defaults to clean
  EXPECT_NEAR(meter.clean_joules().joules(), clean.total.joules(), 1e-9);
  // Totals survive Finish's per-query reset and accumulate across runs.
  meter.OnWorkerSpan(0, 0, Duration::Zero(), Duration::Seconds(2.0));
  meter.Finish(AttemptKind::kWasted);
  EXPECT_NEAR(meter.wasted_joules().joules(),
              2.0 * wasted.total.joules(), 1e-9);

  meter.ResetTotals();
  EXPECT_DOUBLE_EQ(meter.wasted_joules().joules(), 0.0);
  EXPECT_DOUBLE_EQ(meter.retry_joules().joules(), 0.0);
  EXPECT_DOUBLE_EQ(meter.clean_joules().joules(), 0.0);
}

}  // namespace
}  // namespace eedc::energy
