#include "energy/attribution.h"

#include <map>
#include <vector>

#include "common/check.h"

namespace eedc::energy {

ConcurrentEnergyReport AttributeConcurrent(
    std::span<const exec::TaggedWorkerSpan> spans,
    const std::vector<std::shared_ptr<const power::PowerModel>>&
        node_models,
    const std::vector<int>& workers_per_node) {
  EEDC_CHECK(node_models.size() == workers_per_node.size());
  ConcurrentEnergyReport report;

  // Dense slot per query id, ascending so the report is id-sorted.
  std::map<int, std::size_t> slot_of;
  for (const exec::TaggedWorkerSpan& s : spans) {
    slot_of.emplace(s.query, 0);
    if (!s.is_wait && s.end > report.wall) report.wall = s.end;
  }
  report.queries.reserve(slot_of.size());
  for (auto& [query, slot] : slot_of) {
    slot = report.queries.size();
    report.queries.push_back(QueryEnergyShare{query});
  }
  const std::size_t num_queries = report.queries.size();
  const std::size_t num_nodes = node_models.size();

  // Bucket the log by (node, query) once. Worker ids collide across
  // co-running queries, so a wait pairs with busy spans of its own query
  // only.
  std::vector<std::vector<WorkerSpan>> busy(num_nodes * num_queries);
  std::vector<std::vector<WorkerSpan>> waits(num_nodes * num_queries);
  for (const exec::TaggedWorkerSpan& s : spans) {
    if (s.node < 0 || static_cast<std::size_t>(s.node) >= num_nodes) {
      continue;
    }
    const std::size_t bucket =
        static_cast<std::size_t>(s.node) * num_queries + slot_of.at(s.query);
    (s.is_wait ? waits : busy)[bucket].push_back(
        WorkerSpan{s.node, s.worker, s.begin, s.end});
  }

  std::vector<Energy> joules(num_queries, Energy::Zero());
  std::vector<std::vector<WorkerSpan>> computing(num_queries);
  report.node_steps.resize(num_nodes);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      const std::size_t bucket = node * num_queries + q;
      computing[q] = SubtractWaits(busy[bucket], waits[bucket]);
      for (const WorkerSpan& s : computing[q]) {
        if (s.end > s.begin) report.queries[q].busy += s.end - s.begin;
      }
    }
    const EnergySplit split = SweepNodeEnergy(
        computing, workers_per_node[node], report.wall, *node_models[node],
        joules, &report.node_steps[node]);
    report.unattributed_idle += split.idle;
    report.total += split.busy + split.idle;
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    report.queries[q].joules = joules[q];
  }
  return report;
}

}  // namespace eedc::energy
