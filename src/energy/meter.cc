#include "energy/meter.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace eedc::energy {

std::vector<WorkerSpan> SubtractWaits(std::span<const WorkerSpan> spans,
                                      std::span<const WorkerSpan> waits) {
  std::vector<WorkerSpan> out;
  out.reserve(spans.size());
  for (const WorkerSpan& s : spans) {
    // Clip this worker's waits to the span, then walk the gaps.
    std::vector<std::pair<double, double>> cuts;
    for (const WorkerSpan& w : waits) {
      if (w.node != s.node || w.worker != s.worker) continue;
      const double b = std::max(w.begin.seconds(), s.begin.seconds());
      const double e = std::min(w.end.seconds(), s.end.seconds());
      if (e > b) cuts.emplace_back(b, e);
    }
    if (cuts.empty()) {
      out.push_back(s);
      continue;
    }
    std::sort(cuts.begin(), cuts.end());
    double t = s.begin.seconds();
    for (const auto& [b, e] : cuts) {
      if (b > t) {
        out.push_back(WorkerSpan{s.node, s.worker, Duration::Seconds(t),
                                 Duration::Seconds(b)});
      }
      t = std::max(t, e);
    }
    if (s.end.seconds() > t) {
      out.push_back(
          WorkerSpan{s.node, s.worker, Duration::Seconds(t), s.end});
    }
  }
  return out;
}

EnergySplit SweepNodeEnergy(std::span<const std::vector<WorkerSpan>> busy,
                            int workers, Duration horizon,
                            const power::PowerModel& model,
                            std::span<Energy> query_joules,
                            std::vector<ActiveStep>* steps) {
  EEDC_CHECK(workers > 0);
  EEDC_CHECK(query_joules.size() == busy.size());
  // At `at`, query `slot` gains (+1) or loses (-1) a computing worker.
  struct Event {
    double at;
    int slot;
    int delta;
  };
  std::size_t num_spans = 0;
  for (const std::vector<WorkerSpan>& spans : busy) num_spans += spans.size();
  std::vector<Event> events;
  events.reserve(2 * num_spans);
  for (std::size_t q = 0; q < busy.size(); ++q) {
    for (const WorkerSpan& s : busy[q]) {
      const double b = std::clamp(s.begin.seconds(), 0.0, horizon.seconds());
      const double e = std::clamp(s.end.seconds(), 0.0, horizon.seconds());
      if (e <= b) continue;
      events.push_back(Event{b, static_cast<int>(q), +1});
      events.push_back(Event{e, static_cast<int>(q), -1});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.at < y.at; });

  EnergySplit split;
  std::vector<int> active(busy.size(), 0);
  std::vector<int> live;  // slots with active > 0, in no particular order
  int active_total = 0;
  double t = 0.0;
  const auto emit = [&](double until) {
    if (until <= t) return;
    const Duration dt = Duration::Seconds(until - t);
    if (active_total > 0) {
      const Energy step =
          model.WattsAt(std::min(
              1.0, static_cast<double>(active_total) / workers)) *
          dt;
      split.busy += step;
      for (const int q : live) {
        const auto slot = static_cast<std::size_t>(q);
        query_joules[slot] += step * (static_cast<double>(active[slot]) /
                                      static_cast<double>(active_total));
      }
    } else {
      split.idle += model.IdleWatts() * dt;
    }
    if (steps != nullptr) {
      steps->push_back(ActiveStep{Duration::Seconds(t),
                                  Duration::Seconds(until), active_total});
    }
    t = until;
  };
  for (std::size_t i = 0; i < events.size();) {
    const double at = events[i].at;
    emit(at);
    // Apply every event at this instant before pricing the next step.
    for (; i < events.size() && events[i].at == at; ++i) {
      const int q = events[i].slot;
      int& count = active[static_cast<std::size_t>(q)];
      if (count == 0) live.push_back(q);
      count += events[i].delta;
      active_total += events[i].delta;
      if (count == 0) {
        *std::find(live.begin(), live.end(), q) = live.back();
        live.pop_back();
      }
    }
  }
  emit(horizon.seconds());
  return split;
}

EnergyMeter::EnergyMeter(
    std::vector<std::shared_ptr<const power::PowerModel>> node_models,
    int workers_per_node)
    : EnergyMeter(std::move(node_models),
                  std::vector<int>()) {
  EEDC_CHECK(workers_per_node > 0);
  workers_per_node_.assign(node_models_.size(), workers_per_node);
}

EnergyMeter::EnergyMeter(
    std::vector<std::shared_ptr<const power::PowerModel>> node_models,
    std::vector<int> workers_per_node)
    : node_models_(std::move(node_models)),
      workers_per_node_(std::move(workers_per_node)) {
  EEDC_CHECK(!node_models_.empty());
  if (workers_per_node_.empty()) {
    workers_per_node_.assign(node_models_.size(), 1);
  }
  EEDC_CHECK(workers_per_node_.size() == node_models_.size());
  for (int w : workers_per_node_) EEDC_CHECK(w > 0);
  for (const auto& m : node_models_) EEDC_CHECK(m != nullptr);
  net_bytes_.assign(node_models_.size(), 0.0);
}

EnergyMeter::EnergyMeter(int num_nodes,
                         std::shared_ptr<const power::PowerModel> model,
                         int workers_per_node)
    : EnergyMeter(
          std::vector<std::shared_ptr<const power::PowerModel>>(
              static_cast<std::size_t>(num_nodes), std::move(model)),
          workers_per_node) {}

void EnergyMeter::OnWorkerSpan(int node, int worker, Duration begin,
                               Duration end) {
  EEDC_CHECK(node >= 0 &&
             node < static_cast<int>(node_models_.size()));
  spans_.push_back(WorkerSpan{node, worker, begin, end});
}

void EnergyMeter::OnWorkerWait(int node, int worker, Duration begin,
                               Duration end) {
  EEDC_CHECK(node >= 0 &&
             node < static_cast<int>(node_models_.size()));
  waits_.push_back(WorkerSpan{node, worker, begin, end});
}

void EnergyMeter::OnNodeNetworkBytes(int node, double tx_bytes,
                                     double rx_bytes) {
  EEDC_CHECK(node >= 0 &&
             node < static_cast<int>(node_models_.size()));
  net_bytes_[static_cast<std::size_t>(node)] += tx_bytes + rx_bytes;
}

void EnergyMeter::SetNicModels(std::vector<NicModel> nic_models) {
  EEDC_CHECK(nic_models.size() == node_models_.size());
  nic_models_ = std::move(nic_models);
}

QueryEnergyReport EnergyMeter::Finish(AttemptKind kind) {
  QueryEnergyReport report;
  const std::size_t num_nodes = node_models_.size();
  std::vector<std::vector<WorkerSpan>> node_spans(num_nodes);
  std::vector<std::vector<WorkerSpan>> node_waits(num_nodes);
  for (const WorkerSpan& s : spans_) {
    if (s.end > report.wall) report.wall = s.end;
    node_spans[static_cast<std::size_t>(s.node)].push_back(s);
  }
  for (const WorkerSpan& w : waits_) {
    node_waits[static_cast<std::size_t>(w.node)].push_back(w);
  }
  report.nodes.reserve(num_nodes);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    Duration raw = Duration::Zero();
    for (const WorkerSpan& s : node_spans[node]) raw += s.end - s.begin;
    // Exchange waits are not compute: carve them out before the sweep so
    // stalls are priced at the remaining workers' utilization (idle
    // watts when the whole node blocks).
    const std::vector<WorkerSpan> busy_spans =
        SubtractWaits(node_spans[node], node_waits[node]);
    Duration busy = Duration::Zero();
    for (const WorkerSpan& s : busy_spans) busy += s.end - s.begin;
    const int node_workers = workers_per_node_[node];
    NodeEnergyReport nr;
    nr.node = static_cast<int>(node);
    nr.busy = busy;
    nr.waiting = raw - busy;
    nr.wall = report.wall;
    if (report.wall.seconds() > 0.0) {
      nr.avg_utilization = std::min(
          1.0, busy.seconds() /
                   (node_workers * report.wall.seconds()));
    }
    // The sweep's one-query case: the lone query's share of every busy
    // step is the whole step, so the node's busy joules are its bill.
    Energy share = Energy::Zero();
    nr.joules = SweepNodeEnergy({&busy_spans, 1}, node_workers, report.wall,
                                *node_models_[node], {&share, 1});
    nr.network_bytes = net_bytes_[node];
    if (!nic_models_.empty()) {
      nr.joules.network = nic_models_[node].EnergyForBytes(nr.network_bytes);
    }
    report.total += nr.joules.total();
    report.busy += nr.joules.busy;
    report.idle += nr.joules.idle;
    report.network += nr.joules.network;
    report.nodes.push_back(std::move(nr));
  }
  spans_.clear();
  waits_.clear();
  net_bytes_.assign(node_models_.size(), 0.0);
  switch (kind) {
    case AttemptKind::kClean:
      clean_joules_ += report.total;
      break;
    case AttemptKind::kWasted:
      wasted_joules_ += report.total;
      break;
    case AttemptKind::kRetry:
      retry_joules_ += report.total;
      break;
  }
  return report;
}

}  // namespace eedc::energy
