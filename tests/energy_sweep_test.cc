// Differential test of the energy sweep (SweepNodeEnergy, and
// AttributeConcurrent over it) against a brute-force integrator that
// shares no code with it: time is cut at every span endpoint, and a
// worker computes in a piece when its busy span contains the piece's
// midpoint and none of its waits does. Seeds are logged so a failure
// replays from the trace message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "energy/attribution.h"
#include "energy/meter.h"
#include "exec/runtime.h"
#include "power/power_model.h"

namespace eedc::energy {
namespace {

using exec::TaggedWorkerSpan;

/// One generated co-run on a shared timeline.
struct Scenario {
  std::vector<std::shared_ptr<const power::PowerModel>> models;
  std::vector<int> widths;
  int num_queries = 0;
  /// Busy spans and their waits, tagged by query (waits carry is_wait).
  std::vector<TaggedWorkerSpan> log;
  double horizon = 0.0;
};

/// Ground truth per node and per query.
struct Reference {
  std::vector<double> node_busy;
  std::vector<double> node_idle;
  std::vector<double> query_joules;
  std::vector<double> query_busy_seconds;
};

std::shared_ptr<const power::PowerModel> PickModel(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return std::make_shared<power::LinearPowerModel>(Power::Watts(100.0),
                                                       Power::Watts(200.0));
    case 1:
      return std::make_shared<power::ConstantPowerModel>(Power::Watts(80.0));
    default:
      // The paper's cluster-V server curve.
      return std::make_shared<power::PowerLawModel>(130.03, 0.2369);
  }
}

Scenario Generate(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  // Half the scenarios snap times to a quarter-second grid so endpoints
  // coincide across workers, queries and waits.
  const bool grid = rng() % 2 == 0;
  const auto snap = [grid](double t) {
    return grid ? std::round(t * 4.0) / 4.0 : t;
  };
  Scenario sc;
  const int nodes = 1 + static_cast<int>(rng() % 3);
  sc.num_queries = 1 + static_cast<int>(rng() % 4);
  for (int n = 0; n < nodes; ++n) {
    sc.models.push_back(PickModel(rng));
    sc.widths.push_back(1 + static_cast<int>(rng() % 8));
  }
  for (int q = 0; q < sc.num_queries; ++q) {
    for (int n = 0; n < nodes; ++n) {
      for (int w = 0; w < sc.widths[static_cast<std::size_t>(n)]; ++w) {
        const double begin = snap(uniform(0.0, 10.0));
        const double end = begin + std::max(0.25, snap(uniform(0.0, 10.0)));
        sc.log.push_back(TaggedWorkerSpan{q, n, w, Duration::Seconds(begin),
                                          Duration::Seconds(end), false});
        sc.horizon = std::max(sc.horizon, end);
        const int num_waits = static_cast<int>(rng() % 4);
        for (int k = 0; k < num_waits; ++k) {
          // Some waits start before or end after their span.
          const double wb = snap(uniform(begin - 2.0, end));
          const double we = wb + std::max(0.25, snap(uniform(0.0, 3.0)));
          sc.log.push_back(TaggedWorkerSpan{q, n, w, Duration::Seconds(wb),
                                            Duration::Seconds(we), true});
        }
      }
    }
  }
  return sc;
}

Reference BruteForce(const Scenario& sc) {
  const std::size_t nodes = sc.models.size();
  const auto queries = static_cast<std::size_t>(sc.num_queries);
  Reference ref;
  ref.node_busy.assign(nodes, 0.0);
  ref.node_idle.assign(nodes, 0.0);
  ref.query_joules.assign(queries, 0.0);
  ref.query_busy_seconds.assign(queries, 0.0);
  for (std::size_t n = 0; n < nodes; ++n) {
    std::vector<double> cuts = {0.0, sc.horizon};
    for (const TaggedWorkerSpan& s : sc.log) {
      if (static_cast<std::size_t>(s.node) != n) continue;
      cuts.push_back(std::clamp(s.begin.seconds(), 0.0, sc.horizon));
      cuts.push_back(std::clamp(s.end.seconds(), 0.0, sc.horizon));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    const power::PowerModel& model = *sc.models[n];
    const double width = sc.widths[n];
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const double dt = cuts[i + 1] - cuts[i];
      const double mid = 0.5 * (cuts[i] + cuts[i + 1]);
      std::vector<int> computing(queries, 0);
      int total = 0;
      for (const TaggedWorkerSpan& s : sc.log) {
        if (s.is_wait || static_cast<std::size_t>(s.node) != n) continue;
        if (!(s.begin.seconds() <= mid && mid < s.end.seconds())) continue;
        bool waiting = false;
        for (const TaggedWorkerSpan& w : sc.log) {
          if (w.is_wait && w.query == s.query && w.node == s.node &&
              w.worker == s.worker && w.begin.seconds() <= mid &&
              mid < w.end.seconds()) {
            waiting = true;
          }
        }
        if (waiting) continue;
        ++computing[static_cast<std::size_t>(s.query)];
        ++total;
      }
      if (total == 0) {
        ref.node_idle[n] += model.IdleWatts().watts() * dt;
        continue;
      }
      const double joules =
          model.WattsAt(std::min(1.0, total / width)).watts() * dt;
      ref.node_busy[n] += joules;
      for (std::size_t q = 0; q < queries; ++q) {
        ref.query_joules[q] += joules * computing[q] / total;
        ref.query_busy_seconds[q] += computing[q] * dt;
      }
    }
  }
  return ref;
}

TEST(EnergySweepDifferentialTest, MatchesBruteForceIntegration) {
  constexpr double kTol = 1e-9;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const Scenario sc = Generate(seed);
    const Reference ref = BruteForce(sc);
    const std::size_t nodes = sc.models.size();
    const auto queries = static_cast<std::size_t>(sc.num_queries);

    // The sweep, node by node, on waits carved out per (query, worker).
    std::vector<Energy> swept(queries, Energy::Zero());
    double idle_total = 0.0;
    for (std::size_t n = 0; n < nodes; ++n) {
      std::vector<std::vector<WorkerSpan>> busy(queries);
      for (std::size_t q = 0; q < queries; ++q) {
        std::vector<WorkerSpan> spans;
        std::vector<WorkerSpan> waits;
        for (const TaggedWorkerSpan& s : sc.log) {
          if (static_cast<std::size_t>(s.node) != n ||
              static_cast<std::size_t>(s.query) != q) {
            continue;
          }
          (s.is_wait ? waits : spans)
              .push_back(WorkerSpan{s.node, s.worker, s.begin, s.end});
        }
        busy[q] = SubtractWaits(spans, waits);
      }
      std::vector<ActiveStep> steps;
      const EnergySplit split = SweepNodeEnergy(
          busy, sc.widths[n], Duration::Seconds(sc.horizon), *sc.models[n],
          swept, &steps);
      EXPECT_NEAR(split.busy.joules(), ref.node_busy[n], kTol)
          << "node " << n;
      EXPECT_NEAR(split.idle.joules(), ref.node_idle[n], kTol)
          << "node " << n;
      idle_total += ref.node_idle[n];
      // The steps tile [0, horizon).
      ASSERT_FALSE(steps.empty());
      EXPECT_DOUBLE_EQ(steps.front().begin.seconds(), 0.0);
      EXPECT_DOUBLE_EQ(steps.back().end.seconds(), sc.horizon);
      for (std::size_t i = 1; i < steps.size(); ++i) {
        EXPECT_DOUBLE_EQ(steps[i].begin.seconds(),
                         steps[i - 1].end.seconds());
      }
    }
    for (std::size_t q = 0; q < queries; ++q) {
      EXPECT_NEAR(swept[q].joules(), ref.query_joules[q], kTol)
          << "query " << q;
    }

    // The attribution over the same tagged log.
    const ConcurrentEnergyReport report =
        AttributeConcurrent(sc.log, sc.models, sc.widths);
    EXPECT_DOUBLE_EQ(report.wall.seconds(), sc.horizon);
    ASSERT_EQ(report.queries.size(), queries);
    for (std::size_t q = 0; q < queries; ++q) {
      EXPECT_NEAR(report.QueryJoules(static_cast<int>(q)).joules(),
                  ref.query_joules[q], kTol)
          << "query " << q;
      EXPECT_NEAR(report.queries[q].busy.seconds(),
                  ref.query_busy_seconds[q], kTol)
          << "query " << q;
    }
    EXPECT_NEAR(report.unattributed_idle.joules(), idle_total, kTol);
    EXPECT_NEAR(report.AttributedTotal().joules(), report.total.joules(),
                kTol);

    // A lone query is the meter's case: its per-node report agrees too.
    if (queries != 1) continue;
    EnergyMeter meter(sc.models, sc.widths);
    for (const TaggedWorkerSpan& s : sc.log) {
      if (s.is_wait) {
        meter.OnWorkerWait(s.node, s.worker, s.begin, s.end);
      } else {
        meter.OnWorkerSpan(s.node, s.worker, s.begin, s.end);
      }
    }
    const QueryEnergyReport metered = meter.Finish();
    ASSERT_EQ(metered.nodes.size(), nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
      EXPECT_NEAR(metered.nodes[n].joules.busy.joules(), ref.node_busy[n],
                  kTol)
          << "node " << n;
      EXPECT_NEAR(metered.nodes[n].joules.idle.joules(), ref.node_idle[n],
                  kTol)
          << "node " << n;
    }
  }
}

}  // namespace
}  // namespace eedc::energy
