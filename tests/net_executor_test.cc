// End-to-end interconnect gates: a 3-node run over the transport must be
// row-identical to a one-node, one-worker reference (whose edges are all
// loopback, so nothing serializes) across worker counts and query kinds,
// with Q1 also checked against the naive reference aggregation; the
// metered network traffic must conserve in the energy meter's split; and
// the workload driver must price shipped bytes in energy-aware dispatch.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node_class.h"
#include "energy/meter.h"
#include "exec/executor.h"
#include "exec/reference.h"
#include "net/inproc.h"
#include "net/transport.h"
#include "power/power_model.h"
#include "tpch/dates.h"
#include "tpch/dbgen.h"
#include "workload/driver.h"
#include "workload/power_policy.h"
#include "workload/profiles.h"

namespace eedc {
namespace {

using cluster::ClusterConfig;
using cluster::NodeClassSpec;
using exec::ClusterData;
using exec::Executor;
using exec::QueryResult;
using workload::QueryKind;

const tpch::TpchDatabase& Db() {
  static const tpch::TpchDatabase db = [] {
    tpch::DbgenOptions opts;
    opts.scale_factor = 0.002;
    opts.seed = 99;
    return tpch::GenerateDatabase(opts);
  }();
  return db;
}

/// The Section 3.1 Vertica layout that serves all four kinds.
void LoadVerticaLayout(ClusterData* data) {
  const auto& db = Db();
  ASSERT_TRUE(
      data->LoadHashPartitioned("lineitem", *db.lineitem, "l_orderkey")
          .ok());
  ASSERT_TRUE(
      data->LoadHashPartitioned("orders", *db.orders, "o_custkey").ok());
  data->LoadReplicated("supplier", db.supplier);
  data->LoadReplicated("nation", db.nation);
}

QueryResult RunQuery(ClusterData* data, exec::PlanPtr plan, int workers,
                net::Transport* transport) {
  Executor::Options options;
  options.workers_per_node = workers;
  options.transport = transport;
  Executor executor(data, std::move(options));
  auto result = executor.Execute(std::move(plan));
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

/// The independent reference: one node, one worker, over the
/// unpartitioned tables.
QueryResult RunReference(exec::PlanPtr plan) {
  ClusterData data(1);
  LoadVerticaLayout(&data);
  return RunQuery(&data, std::move(plan), /*workers=*/1, nullptr);
}

/// Checks Q1's group keys, sum_qty and count_order against the naive
/// reference aggregation, which shares no code with the engine.
void ExpectQ1MatchesReferenceSumBy(const storage::Table& got) {
  const std::int64_t cutoff = tpch::DayNumber(1998, 9, 2);
  const storage::Table filtered = exec::ReferenceFilter(
      *Db().lineitem, [&](const storage::Table& t, std::size_t row) {
        return t.ColumnByName("l_shipdate").value()->Int64At(row) <=
               cutoff;
      });
  auto want = exec::ReferenceSumBy(
      filtered, {"l_returnflag", "l_linestatus"}, "l_quantity");
  ASSERT_TRUE(want.ok()) << want.status();
  storage::Table projected(want->schema());
  for (std::size_t i = 0; i < got.num_rows(); ++i) {
    const double count_order = got.column(6).DoubleAt(i);
    projected.AppendRow({got.column(0).StringAt(i), got.column(1).StringAt(i),
                         got.column(2).DoubleAt(i),
                         static_cast<std::int64_t>(std::llround(count_order))});
  }
  std::string diff;
  EXPECT_TRUE(exec::TablesEqualUnordered(*want, projected, 1e-9, &diff))
      << diff;
}

TEST(NetExecutorTest, InProcessTransportMatchesSingleNodeReference) {
  // Row-identical multisets between the one-node reference and the
  // serialized credit-backpressured transport on 3 nodes, at W = 1/2/8
  // on all four query kinds.
  ClusterData data(3);
  LoadVerticaLayout(&data);
  net::InProcessTransport transport;

  for (const QueryKind kind : {QueryKind::kQ1, QueryKind::kQ3,
                               QueryKind::kQ12, QueryKind::kQ21}) {
    auto plan_or = workload::PlanForKind(kind, Db());
    ASSERT_TRUE(plan_or.ok()) << plan_or.status();
    const exec::PlanPtr plan = std::move(plan_or).value();
    const QueryResult reference = RunReference(plan);
    for (const int workers : {1, 2, 8}) {
      SCOPED_TRACE(std::string(workload::QueryKindName(kind)) + " W=" +
                   std::to_string(workers));
      QueryResult framed = RunQuery(&data, plan, workers, &transport);
      std::string diff;
      EXPECT_TRUE(exec::TablesEqualUnordered(reference.table, framed.table,
                                             1e-6, &diff))
          << diff;
      if (kind == QueryKind::kQ1) {
        ExpectQ1MatchesReferenceSumBy(framed.table);
      }
      // The transport path really went over the wire: a 3-node shuffle /
      // broadcast / gather ships remote bytes.
      EXPECT_GT(framed.metrics.TotalRemoteBytes(), 0.0);
    }
  }
}

TEST(NetExecutorTest, TightCreditWindowStillMatches) {
  // Tiny window + no coalescing maximizes backpressure and frame count;
  // results must not care.
  ClusterData data(3);
  LoadVerticaLayout(&data);
  net::TransportOptions topts;
  topts.credit_window_frames = 1;
  topts.coalesce_bytes = 0;
  net::InProcessTransport transport(topts);

  auto plan_or = workload::PlanForKind(QueryKind::kQ3, Db());
  ASSERT_TRUE(plan_or.ok()) << plan_or.status();
  QueryResult reference = RunReference(plan_or.value());
  QueryResult framed = RunQuery(&data, plan_or.value(), 2, &transport);
  std::string diff;
  EXPECT_TRUE(exec::TablesEqualUnordered(reference.table, framed.table,
                                         1e-6, &diff))
      << diff;
}

TEST(NetExecutorTest, NetworkJoulesConserveInMeterSplit) {
  ClusterData data(3);
  LoadVerticaLayout(&data);
  net::InProcessTransport transport;

  auto model = std::make_shared<power::LinearPowerModel>(
      Power::Watts(100.0), Power::Watts(200.0));
  energy::EnergyMeter meter(3, model, /*workers_per_node=*/2);
  const energy::NicModel nic{2.0e-8, Power::Watts(1.5), 95.0};
  meter.SetNicModels({nic, nic, nic});

  Executor::Options options;
  options.workers_per_node = 2;
  options.transport = &transport;
  options.activity_listener = &meter;
  Executor executor(&data, std::move(options));
  auto plan_or = workload::PlanForKind(QueryKind::kQ3, Db());
  ASSERT_TRUE(plan_or.ok()) << plan_or.status();
  auto result = executor.Execute(plan_or.value());
  ASSERT_TRUE(result.ok()) << result.status();

  const energy::QueryEnergyReport report = meter.Finish();
  // A 3-node dual-shuffle join moved real bytes, and the NIC term priced
  // them: network joules are positive and conserved to 1e-6 — the
  // report's total is exactly busy + idle + network, per node and
  // overall.
  EXPECT_GT(report.network.joules(), 0.0);
  EXPECT_NEAR(report.total.joules(),
              report.busy.joules() + report.idle.joules() +
                  report.network.joules(),
              1e-6);
  Energy node_total = Energy::Zero();
  Energy node_network = Energy::Zero();
  double traffic_bytes = 0.0;
  for (const energy::NodeEnergyReport& nr : report.nodes) {
    EXPECT_NEAR(nr.joules.total().joules(),
                nr.joules.busy.joules() + nr.joules.idle.joules() +
                    nr.joules.network.joules(),
                1e-6);
    // Per-node network joules are exactly the NIC model priced at the
    // node's reported traffic.
    EXPECT_NEAR(nr.joules.network.joules(),
                nic.EnergyForBytes(nr.network_bytes).joules(), 1e-9);
    node_total += nr.joules.total();
    node_network += nr.joules.network;
    traffic_bytes += nr.network_bytes;
  }
  EXPECT_NEAR(node_total.joules(), report.total.joules(), 1e-6);
  EXPECT_NEAR(node_network.joules(), report.network.joules(), 1e-9);
  // The meter's traffic is the executor's: tx + rx across the fleet.
  EXPECT_NEAR(traffic_bytes,
              result->metrics.TotalRemoteBytes() +
                  [&] {
                    double rx = 0.0;
                    for (const auto& n : result->metrics.nodes) {
                      rx += n.total_received_remote_bytes();
                    }
                    return rx;
                  }(),
              1e-6);

  // A second Finish sees a reset meter: no stale traffic leaks forward.
  const energy::QueryEnergyReport empty = meter.Finish();
  EXPECT_DOUBLE_EQ(empty.network.joules(), 0.0);
}

TEST(NetExecutorTest, NodeClassNicTermPricesBytes) {
  NodeClassSpec cls;
  cls.nic_joules_per_byte = 2.0e-8;
  cls.nic_active_watts = Power::Watts(1.5);
  cls.nic_bandwidth_mbps = 95.0;
  // 95 MB at 95 MB/s: 1.9 J transfer energy + 1.5 W x 1 s active.
  EXPECT_NEAR(cls.NetworkEnergyFor(95.0e6).joules(), 1.9 + 1.5, 1e-9);
  // Unset NIC prices the network free (pre-interconnect behavior).
  NodeClassSpec free;
  EXPECT_DOUBLE_EQ(free.NetworkEnergyFor(1.0e9).joules(), 0.0);
}

TEST(NetExecutorTest, DriverPricesShippedBytesInEnergyDispatch) {
  // Two classes identical in power and speed; the first pays dearly per
  // shipped byte, the second ships free. With shipped_bytes = 0 the
  // marginals tie and dispatch keeps node 0; once the profile reports
  // shipped bytes, kEnergyFeasibleFinish must route to the free-NIC
  // class — the interconnect is now part of the energy price.
  auto make_class = [](const char* name, char label, double jpb) {
    NodeClassSpec cls;
    cls.name = name;
    cls.label = label;
    cls.power_model =
        std::make_shared<power::ConstantPowerModel>(Power::Watts(100.0));
    cls.nic_joules_per_byte = jpb;
    return cls;
  };
  workload::DriverOptions options;
  options.fleet =
      ClusterConfig::BeefyWimpy(make_class("paynet", 'P', 1.0e-6), 1,
                                make_class("freenet", 'F', 0.0), 1);
  options.dispatch = cluster::DispatchRule::kEnergyFeasibleFinish;

  std::vector<workload::QueryArrival> trace;
  for (int i = 0; i < 8; ++i) {
    trace.push_back(workload::QueryArrival{Duration::Seconds(i * 10.0),
                                           QueryKind::kQ3});
  }
  const workload::AllOnPolicy policy;

  for (const double shipped : {0.0, 50.0e6}) {
    workload::QueryProfiles profiles = workload::QueryProfiles::Uniform(
        Duration::Seconds(0.5), Duration::Seconds(5.0));
    profiles.For(QueryKind::kQ3).shipped_bytes = shipped;
    workload::WorkloadDriver driver(options);
    auto report = driver.Run(trace, profiles, policy);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const workload::QueryOutcome& outcome : driver.outcomes()) {
      if (shipped > 0.0) {
        EXPECT_EQ(outcome.node_class->name, "freenet")
            << "shipping 50 MB at 1e-6 J/B must steer dispatch away";
      } else {
        EXPECT_EQ(outcome.node_class->name, "paynet")
            << "tied marginals keep the first node";
      }
    }
  }
}

}  // namespace
}  // namespace eedc
