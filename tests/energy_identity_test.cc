// The single-query meter and the co-run attribution bill one real run
// identically: a lone query is the attribution's one-query case, and the
// meter adds only the NIC term for the bytes the run shipped.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node_class.h"
#include "cluster/placement.h"
#include "energy/attribution.h"
#include "energy/meter.h"
#include "exec/executor.h"
#include "exec/runtime.h"
#include "tpch/dbgen.h"
#include "workload/profiles.h"

namespace eedc::energy {
namespace {

using cluster::ClusterConfig;
using cluster::NodeClassRegistry;
using cluster::NodeClassSpec;
using workload::QueryKind;

NodeClassSpec PaperClass(const char* name, int engine_workers) {
  const NodeClassRegistry registry = NodeClassRegistry::PaperDefault();
  auto found = registry.Find(name);
  EEDC_CHECK(found.ok());
  NodeClassSpec cls = **found;
  cls.engine_workers = engine_workers;
  return cls;
}

/// Feeds one run's activity to the meter and records the same spans as
/// a runtime-style tagged log of query 0.
class TeeListener : public exec::WorkerActivityListener {
 public:
  explicit TeeListener(EnergyMeter* meter) : meter_(meter) {}

  void OnWorkerSpan(int node, int worker, Duration begin,
                    Duration end) override {
    meter_->OnWorkerSpan(node, worker, begin, end);
    spans_.push_back(exec::TaggedWorkerSpan{0, node, worker, begin, end,
                                            /*is_wait=*/false});
  }
  void OnWorkerWait(int node, int worker, Duration begin,
                    Duration end) override {
    meter_->OnWorkerWait(node, worker, begin, end);
    spans_.push_back(exec::TaggedWorkerSpan{0, node, worker, begin, end,
                                            /*is_wait=*/true});
  }
  void OnNodeNetworkBytes(int node, double tx_bytes,
                          double rx_bytes) override {
    meter_->OnNodeNetworkBytes(node, tx_bytes, rx_bytes);
  }

  std::vector<exec::TaggedWorkerSpan> TakeSpans() {
    return std::move(spans_);
  }

 private:
  EnergyMeter* meter_;
  std::vector<exec::TaggedWorkerSpan> spans_;
};

TEST(MeterAttributionIdentityTest, OneQueryAttributionEqualsTheMeter) {
  tpch::DbgenOptions dbgen;
  dbgen.scale_factor = 0.002;
  const tpch::TpchDatabase db = tpch::GenerateDatabase(dbgen);
  exec::ClusterData data(3);
  ASSERT_TRUE(
      data.LoadHashPartitioned("lineitem", *db.lineitem, "l_orderkey")
          .ok());
  ASSERT_TRUE(
      data.LoadHashPartitioned("orders", *db.orders, "o_custkey").ok());
  data.LoadReplicated("supplier", db.supplier);
  data.LoadReplicated("nation", db.nation);
  cluster::PlacementOptions placement_options;
  placement_options.replicated_tables = {"supplier", "nation"};
  const cluster::PlacementPolicy policy(placement_options);

  double network_joules = 0.0;
  for (const int width : {1, 2, 8}) {
    // 1B,2W with every node running `width` pipelines.
    const ClusterConfig fleet = ClusterConfig::BeefyWimpy(
        PaperClass("beefy", width), 1, PaperClass("wimpy", width), 2);
    for (const QueryKind kind : {QueryKind::kQ1, QueryKind::kQ3,
                                 QueryKind::kQ12, QueryKind::kQ21}) {
      SCOPED_TRACE(::testing::Message()
                   << workload::QueryKindName(kind) << " W=" << width);
      auto plan = workload::PlanForKind(kind, db);
      ASSERT_TRUE(plan.ok()) << plan.status();
      auto placement = policy.Place(*plan, fleet);
      ASSERT_TRUE(placement.ok()) << placement.status();

      std::vector<std::shared_ptr<const power::PowerModel>> models;
      std::vector<NicModel> nics;
      for (const cluster::NodeClassSpec* cls : placement->node_classes) {
        models.push_back(cls->power_model);
        nics.push_back(cls->nic_model());
      }
      const std::vector<int> workers = placement->node_workers;
      EnergyMeter meter(models, workers);
      meter.SetNicModels(nics);
      TeeListener tee(&meter);

      exec::Executor::Options options = placement->MakeExecutorOptions();
      options.activity_listener = &tee;
      exec::Executor executor(&data, options);
      auto result = executor.ExecutePerNode(placement->plan_for_node);
      ASSERT_TRUE(result.ok()) << result.status();

      const QueryEnergyReport metered = meter.Finish();
      const std::vector<exec::TaggedWorkerSpan> spans = tee.TakeSpans();
      const ConcurrentEnergyReport attributed =
          AttributeConcurrent(spans, models, workers);

      EXPECT_NEAR(metered.busy.joules(), attributed.QueryJoules(0).joules(),
                  1e-9);
      EXPECT_NEAR(metered.idle.joules(),
                  attributed.unattributed_idle.joules(), 1e-9);
      EXPECT_NEAR(metered.total.joules(),
                  attributed.AttributedTotal().joules() +
                      metered.network.joules(),
                  1e-9);
      EXPECT_NEAR(metered.wall.seconds(), attributed.wall.seconds(), 1e-9);
      EXPECT_GT(metered.busy.joules(), 0.0);
      network_joules += metered.network.joules();
    }
  }
  // The class NICs priced real traffic somewhere in the sweep.
  EXPECT_GT(network_joules, 0.0);
}

}  // namespace
}  // namespace eedc::energy
