#include "workload/engine.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "common/stats.h"
#include "common/str_util.h"
#include "energy/attribution.h"
#include "exec/cancel.h"
#include "exec/reference.h"
#include "exec/runtime.h"
#include "net/socket.h"
#include "workload/profiles.h"

namespace eedc::workload {

namespace {

/// Canonical data-plane fd order of one node's fragment (documented in
/// net/control.h): for each exchange, edges in (source-major, dest)
/// order, keeping those that touch `node`. Coordinator and node walk
/// this identical order, so a flat SCM_RIGHTS fd list needs no per-fd
/// labeling.
template <typename Fn>
void ForEachLocalEdge(int num_exchanges, int n, int node, Fn&& fn) {
  for (int e = 0; e < num_exchanges; ++e) {
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        if (s == d || (s != node && d != node)) continue;
        fn(e, s, d);
      }
    }
  }
}

/// Full write on the control channel with SIGPIPE suppressed (result
/// data frames ride it outside SendControl).
bool WriteAll(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    done += static_cast<std::size_t>(w);
  }
  return true;
}

/// Node-process transport: hands each exchange the pre-connected stream
/// fds the coordinator shipped with kRunFragment. Owns every fd until
/// CreatePort consumes its exchange (the port takes over from there);
/// unconsumed fds close with the transport, so an aborted dispatch
/// leaks nothing and its peers see stream EOF.
class FragmentTransport final : public net::Transport {
 public:
  FragmentTransport(int num_nodes, int local_node,
                    std::vector<std::vector<int>> per_exchange_fds,
                    net::TransportOptions options)
      : num_nodes_(num_nodes),
        local_node_(local_node),
        per_exchange_fds_(std::move(per_exchange_fds)),
        consumed_(per_exchange_fds_.size(), false),
        options_(options) {}

  ~FragmentTransport() override {
    for (std::size_t e = 0; e < per_exchange_fds_.size(); ++e) {
      if (consumed_[e]) continue;
      for (int fd : per_exchange_fds_[e]) {
        if (fd >= 0) ::close(fd);
      }
    }
  }

  StatusOr<std::unique_ptr<net::ExchangePort>> CreatePort(
      int exchange_id, int num_nodes,
      const std::vector<int>& senders_per_node) override {
    if (num_nodes != num_nodes_) {
      return Status::InvalidArgument(
          "fragment transport was wired for a different node count");
    }
    if (exchange_id < 0 ||
        exchange_id >= static_cast<int>(per_exchange_fds_.size())) {
      return Status::InvalidArgument(
          "plan has more exchanges than the fragment was wired for");
    }
    const std::size_t e = static_cast<std::size_t>(exchange_id);
    if (consumed_[e]) {
      return Status::InvalidArgument(
          "exchange wired twice in one fragment");
    }
    consumed_[e] = true;
    return net::CreatePreconnectedPort(exchange_id, num_nodes_,
                                       senders_per_node, local_node_,
                                       std::move(per_exchange_fds_[e]),
                                       options_);
  }

  std::string name() const override { return "process"; }
  const net::TransportOptions& options() const override { return options_; }

 private:
  const int num_nodes_;
  const int local_node_;
  std::vector<std::vector<int>> per_exchange_fds_;
  std::vector<bool> consumed_;
  net::TransportOptions options_;
};

/// A process-fleet run as a failover attempt. Energy stays unmetered on
/// that path (see ProcessRun).
StatusOr<EngineRun> Unmetered(StatusOr<ProcessRun> run) {
  if (!run.ok()) return run.status();
  EngineRun out;
  out.wall = run->wall;
  out.table = std::move(run->table);
  return out;
}

}  // namespace

void AddEnergyByClass(
    std::vector<std::pair<std::string, Energy>>* by_class,
    const std::string& class_name, Energy joules) {
  auto it = std::find_if(by_class->begin(), by_class->end(),
                         [&class_name](const auto& entry) {
                           return entry.first == class_name;
                         });
  if (it == by_class->end()) {
    by_class->emplace_back(class_name, joules);
  } else {
    it->second += joules;
  }
}

EngineFleet::EngineFleet(cluster::ClusterConfig fleet,
                         EngineFleetOptions options)
    : fleet_(std::move(fleet)), options_(std::move(options)) {}

StatusOr<std::unique_ptr<EngineFleet>> EngineFleet::Create(
    const cluster::ClusterConfig& fleet, const EngineFleetOptions& options) {
  EEDC_RETURN_IF_ERROR(fleet.Validate());
  if (options.repetitions <= 0) {
    return Status::InvalidArgument("engine fleet needs >= 1 repetition");
  }
  // Not make_unique: the constructor is private.
  std::unique_ptr<EngineFleet> engine(new EngineFleet(fleet, options));
  EEDC_RETURN_IF_ERROR(engine->Init(/*promote_joiner_when_no_beefy=*/false));
  return engine;
}

Status EngineFleet::Init(bool promote_joiner_when_no_beefy) {
  tpch::DbgenOptions dbgen;
  dbgen.scale_factor = options_.scale_factor;
  dbgen.seed = options_.seed;
  db_ = tpch::GenerateDatabase(dbgen);

  // The Section 3.1 Vertica layout, stretched over the mixed fleet:
  // every node — wimpy or beefy — holds its share of the partitioned
  // facts (wimpies scan and ship them), dimensions are replicated.
  const int n = fleet_.total_nodes();
  data_ = std::make_unique<exec::ClusterData>(n);
  EEDC_RETURN_IF_ERROR(
      data_->LoadHashPartitioned("lineitem", *db_.lineitem, "l_orderkey"));
  EEDC_RETURN_IF_ERROR(
      data_->LoadHashPartitioned("orders", *db_.orders, "o_custkey"));
  data_->LoadReplicated("supplier", db_.supplier);
  data_->LoadReplicated("nation", db_.nation);

  cluster::PlacementOptions placement_options;
  placement_options.replicated_tables = {"supplier", "nation"};
  placement_options.promote_joiner_when_no_beefy =
      promote_joiner_when_no_beefy;
  const cluster::PlacementPolicy policy(placement_options);
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const QueryKind kind = static_cast<QueryKind>(k);
    EEDC_ASSIGN_OR_RETURN(exec::PlanPtr plan, PlanForKind(kind, db_));
    EEDC_ASSIGN_OR_RETURN(placements_[static_cast<std::size_t>(k)],
                          policy.Place(std::move(plan), fleet_));
  }

  // Class-aware metering: each node integrates its own class's
  // utilization->watts curve over its class-scaled worker count. A 0
  // (deferring) count resolves to 1 — the executor options below leave
  // workers_per_node at its default of 1.
  const cluster::EnginePlacement& p0 = placements_[0];
  std::vector<std::shared_ptr<const power::PowerModel>> models;
  models.reserve(p0.node_classes.size());
  for (const cluster::NodeClassSpec* cls : p0.node_classes) {
    models.push_back(cls->power_model);
  }
  std::vector<int> meter_workers = p0.node_workers;
  for (int& w : meter_workers) w = std::max(1, w);
  meter_ = std::make_unique<energy::EnergyMeter>(std::move(models),
                                                 std::move(meter_workers));
  // Each node's class NIC prices the interconnect traffic the transport
  // reports, closing the meter's network term.
  std::vector<energy::NicModel> nics;
  nics.reserve(p0.node_classes.size());
  for (const cluster::NodeClassSpec* cls : p0.node_classes) {
    nics.push_back(cls->nic_model());
  }
  meter_->SetNicModels(std::move(nics));

  exec_options_ = p0.MakeExecutorOptions();
  exec_options_.activity_listener = meter_.get();
  // Per-operator profiling costs two clock reads per operator call —
  // noise next to a morsel — and turns every Measure into an
  // EXPLAIN ANALYZE (EngineMeasurement::profile).
  exec_options_.profile_operators = true;

  // Fork the node processes before any query spawns worker threads (a
  // multi-threaded fork is where the trouble lives).
  if (options_.process_fleet) EEDC_RETURN_IF_ERROR(EnsureProcessFleet());
  return Status::OK();
}

StatusOr<EngineRun> EngineFleet::RunMetered(
    QueryKind kind, energy::AttemptKind attr, exec::CancelToken* cancel,
    energy::QueryEnergyReport* energy, exec::ExecMetrics* metrics) {
  exec::Executor::Options options = exec_options_;
  options.cancel = cancel;
  exec::Executor executor(data_.get(), std::move(options));
  meter_->Reset();
  StatusOr<exec::QueryResult> result = executor.ExecutePerNode(
      placements_[static_cast<std::size_t>(kind)].plan_for_node);
  // A failed attempt still burned its joules; they served nothing.
  energy::QueryEnergyReport report =
      meter_->Finish(result.ok() ? attr : energy::AttemptKind::kWasted);
  if (!result.ok()) return result.status();
  EngineRun run;
  run.wall = result->metrics.wall;
  run.joules = report.total;
  run.table = std::make_shared<storage::Table>(std::move(result->table));
  if (energy != nullptr) *energy = std::move(report);
  if (metrics != nullptr) *metrics = std::move(result->metrics);
  return run;
}

StatusOr<const EngineMeasurement*> EngineFleet::Measure(QueryKind kind) {
  std::optional<EngineMeasurement>& slot =
      cache_[static_cast<std::size_t>(kind)];
  if (slot.has_value()) return &*slot;

  const cluster::EnginePlacement& placement =
      placements_[static_cast<std::size_t>(kind)];
  EngineMeasurement best;
  best.kind = kind;
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    energy::QueryEnergyReport energy;
    exec::ExecMetrics metrics;
    EEDC_ASSIGN_OR_RETURN(EngineRun run,
                          RunMetered(kind, energy::AttemptKind::kClean,
                                     /*cancel=*/nullptr, &energy, &metrics));
    if (run.wall.seconds() <= 0.0) continue;
    if (best.wall.seconds() > 0.0 && run.wall >= best.wall) continue;
    best.wall = run.wall;
    best.joules = run.joules;
    best.result_rows = run.table->num_rows();
    best.shipped_bytes = metrics.TotalRemoteBytes();
    best.profile = exec::BuildQueryProfile(metrics);
    best.joules_by_class.clear();
    for (const energy::NodeEnergyReport& nr : energy.nodes) {
      AddEnergyByClass(
          &best.joules_by_class,
          placement.node_classes[static_cast<std::size_t>(nr.node)]->name,
          nr.joules.total());
    }
  }
  if (best.wall.seconds() <= 0.0) {
    return Status::Internal("engine run measured zero wall time");
  }
  slot = std::move(best);
  return &*slot;
}

StatusOr<EngineRun> EngineFleet::RunOnce(QueryKind kind,
                                         energy::AttemptKind attr) {
  return RunMetered(kind, attr, /*cancel=*/nullptr, /*energy=*/nullptr,
                    /*metrics=*/nullptr);
}

StatusOr<EngineFleet*> EngineFleet::Degraded(int crash_node) {
  const int n = fleet_.total_nodes();
  if (crash_node < 0 || crash_node >= n) {
    return Status::InvalidArgument("crash node out of range");
  }
  if (n < 2) {
    return Status::InvalidArgument(
        "crash/recover needs a surviving node (fleet has 1)");
  }
  if (degraded_.empty()) degraded_.resize(static_cast<std::size_t>(n));
  std::unique_ptr<EngineFleet>& slot =
      degraded_[static_cast<std::size_t>(crash_node)];
  if (slot == nullptr) {
    cluster::ClusterConfig survivors;
    int base = 0;
    for (const cluster::ClusterConfig::ClassGroup& group : fleet_.groups()) {
      int count = group.count;
      if (crash_node >= base && crash_node < base + group.count) --count;
      if (count > 0) survivors.Add(group.spec, count);
      base += group.count;
    }
    // Same dbgen seed over n-1 nodes: re-partitioning preserves the
    // global row multiset, so the survivors compute identical results.
    // The survivors of a validated fleet are a valid fleet.
    std::unique_ptr<EngineFleet> degraded(
        new EngineFleet(std::move(survivors), options_));
    EEDC_RETURN_IF_ERROR(
        degraded->Init(/*promote_joiner_when_no_beefy=*/true));
    slot = std::move(degraded);
  }
  return slot.get();
}

StatusOr<FaultMeasurement> EngineFleet::Failover(
    QueryKind kind, int crash_node, const EngineFaultOptions& fault,
    bool fork_first, const std::function<StatusOr<EngineRun>()>& crash,
    const std::function<StatusOr<EngineRun>(EngineFleet&)>& retry) {
  if (fault.max_attempts < 2) {
    return Status::InvalidArgument("crash/recover needs >= 2 attempts");
  }
  EEDC_ASSIGN_OR_RETURN(EngineFleet* degraded, Degraded(crash_node));
  if (fork_first) {
    // Fork both fleets while this process is still single-threaded: the
    // survivor fleet first (its Init runs no queries), then our own,
    // both before the threaded reference run below.
    EEDC_RETURN_IF_ERROR(degraded->EnsureProcessFleet());
    EEDC_RETURN_IF_ERROR(EnsureProcessFleet());
  }

  FaultMeasurement m;
  m.kind = kind;
  m.crash_node = crash_node;

  // Fault-free ground truth, in-process on the full, healthy fleet.
  EEDC_ASSIGN_OR_RETURN(EngineRun reference, RunOnce(kind));
  const auto complete = [&](const EngineRun& run) {
    m.completed = true;
    m.wall = run.wall;
    m.result = run.table;
    m.result_rows = m.result->num_rows();
    m.rows_match = exec::TablesEqualUnordered(*reference.table, *m.result,
                                              1e-6, &m.mismatch);
  };

  // Attempt 1 crashes mid-query, tearing it down exactly as a dead node
  // would: no truncated table, only an error.
  const Energy wasted_before = meter_->wasted_joules();
  StatusOr<EngineRun> run = crash();
  m.attempts = 1;
  if (run.ok()) {
    // The query outran the crash: nothing to recover from.
    complete(*run);
    return m;
  }
  m.wasted_joules = meter_->wasted_joules() - wasted_before;

  // Failover: re-run on the survivor sub-fleet until the retry budget
  // runs out. A failed gate surfaces the last error loudly rather than
  // reporting a half-measured episode.
  Status last = run.status();
  for (int attempt = 2; attempt <= fault.max_attempts; ++attempt) {
    m.attempts = attempt;
    run = retry(*degraded);
    if (!run.ok()) {
      last = run.status();
      continue;
    }
    m.retry_joules = run->joules;
    complete(*run);
    return m;
  }
  return last;
}

StatusOr<FaultMeasurement> EngineFleet::MeasureWithCrash(
    QueryKind kind, int crash_node, const EngineFaultOptions& fault) {
  return Failover(
      kind, crash_node, fault, /*fork_first=*/false,
      [&]() {
        // A deterministic fuse trips after a handful of cooperative
        // cancellation checks: ports poisoned, barriers aborted, partial
        // results dropped.
        exec::CancelToken token;
        token.CancelAfter(
            fault.crash_after_checks,
            Status::Unavailable("node " + std::to_string(crash_node) +
                                " crashed mid-query"));
        return RunMetered(kind, energy::AttemptKind::kClean, &token,
                          /*energy=*/nullptr, /*metrics=*/nullptr);
      },
      [kind](EngineFleet& survivors) {
        return survivors.RunOnce(kind, energy::AttemptKind::kRetry);
      });
}

Status EngineFleet::EnsureProcessFleet() {
  if (process_fleet_ != nullptr) return Status::OK();
  EEDC_ASSIGN_OR_RETURN(
      process_fleet_,
      net::ProcessFleet::Spawn(
          fleet_.total_nodes(),
          [this](int node, int fd) { NodeServeLoop(node, fd); }));
  return Status::OK();
}

void EngineFleet::NodeServeLoop(int node, int control_fd) {
  net::ControlMessage hello;
  hello.type = net::ControlType::kHello;
  hello.node = node;
  if (!net::SendControl(control_fd, hello).ok()) _exit(1);
  for (;;) {
    std::vector<int> fds;
    StatusOr<net::ControlMessage> msg = net::ReceiveControl(
        control_fd, Duration::Infinite(), &fds);
    if (!msg.ok()) {
      // An idle hour merely re-arms the receive; anything else means the
      // coordinator is gone and this node has nobody to serve.
      if (msg.status().code() == StatusCode::kDeadlineExceeded) continue;
      _exit(0);
    }
    switch (msg->type) {
      case net::ControlType::kShutdown:
        _exit(0);
      case net::ControlType::kRunFragment:
        ServeFragment(node, control_fd, *msg, std::move(fds));
        break;
      default:
        // Protocol noise: drop it (and any fds it smuggled in).
        for (int fd : fds) ::close(fd);
        break;
    }
  }
}

void EngineFleet::ServeFragment(int node, int control_fd,
                                const net::ControlMessage& run,
                                std::vector<int> fds) {
  const auto report_error = [&](const Status& st) {
    net::ControlMessage done;
    done.type = net::ControlType::kFragmentDone;
    done.epoch = run.epoch;
    done.node = node;
    done.status_code = static_cast<std::int32_t>(st.code());
    done.detail = std::string(st.message());
    (void)net::SendControl(control_fd, done);
  };
  const auto close_fds = [&fds] {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
    fds.clear();
  };
  if (run.kind < 0 || run.kind >= kNumQueryKinds) {
    close_fds();
    report_error(Status::InvalidArgument("unknown query kind ordinal"));
    return;
  }
  const cluster::EnginePlacement& placement =
      placements_[static_cast<std::size_t>(run.kind)];
  const int n = fleet_.total_nodes();
  const int num_exchanges =
      exec::CountExchanges(*placement.plan_for_node(node));
  const std::size_t expected =
      static_cast<std::size_t>(num_exchanges) * 2 *
      static_cast<std::size_t>(n - 1);
  if (fds.size() != expected) {
    close_fds();
    report_error(Status::InvalidArgument(
        "fragment fd count mismatch: got " + std::to_string(fds.size()) +
        ", expected " + std::to_string(expected)));
    return;
  }
  // Unpack the flat SCM_RIGHTS list along the canonical edge order into
  // per-exchange n x n grids (s*n+d), -1 where this node has no end.
  std::vector<std::vector<int>> per_exchange(
      static_cast<std::size_t>(num_exchanges),
      std::vector<int>(static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(n),
                       -1));
  std::size_t next = 0;
  ForEachLocalEdge(num_exchanges, n, node, [&](int e, int s, int d) {
    per_exchange[static_cast<std::size_t>(e)]
                [static_cast<std::size_t>(s * n + d)] =
        fds[next++];
  });
  fds.clear();  // the transport owns them now
  net::TransportOptions transport_options;
  FragmentTransport transport(n, node, std::move(per_exchange),
                              transport_options);

  net::ControlMessage started;
  started.type = net::ControlType::kStarted;
  started.epoch = run.epoch;
  started.node = node;
  if (!net::SendControl(control_fd, started).ok()) return;
  StatusOr<net::ControlMessage> go =
      net::ReceiveControl(control_fd, Duration::Seconds(60.0));
  if (!go.ok() || go->type != net::ControlType::kGo) {
    report_error(go.ok()
                     ? Status::Internal("expected kGo after kStarted")
                     : go.status());
    return;
  }
  if (run.start_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(run.start_delay_ms));
  }

  exec::Executor::Options exec_options = placement.MakeExecutorOptions();
  exec_options.local_node = node;
  exec_options.transport = &transport;
  // A SIGKILLed peer must fail this fragment, not hang it.
  exec_options.receive_timeout = Duration::Seconds(30.0);
  exec::Executor fragment_executor(data_.get(), std::move(exec_options));
  StatusOr<exec::QueryResult> result =
      fragment_executor.ExecutePerNode(placement.plan_for_node);
  if (!result.ok()) {
    report_error(result.status());
    return;
  }

  // Stream the local partials home: schema first, then data frames on
  // the control channel tagged with this dispatch's epoch.
  const auto table = std::make_shared<const storage::Table>(
      std::move(result->table));
  net::ControlMessage header;
  header.type = net::ControlType::kResultHeader;
  header.epoch = run.epoch;
  header.node = node;
  header.detail = net::EncodeSchema(table->schema());
  if (!net::SendControl(control_fd, header).ok()) return;
  constexpr std::size_t kChunkRows = 4096;
  for (std::size_t start = 0; start < table->num_rows();
       start += kChunkRows) {
    const std::size_t count =
        std::min(kChunkRows, table->num_rows() - start);
    const storage::Block block = storage::Block::Borrow(table, start, count);
    std::vector<net::EncodedFrame> frames;
    const Status encoded = net::EncodeBlockFrames(
        block, static_cast<int>(run.epoch), node, /*dest_node=*/0,
        net::kMaxFramePayloadBytes, &frames);
    if (!encoded.ok()) {
      report_error(encoded);
      return;
    }
    for (const net::EncodedFrame& frame : frames) {
      if (!WriteAll(control_fd, frame.bytes)) return;  // coordinator gone
    }
  }
  net::ControlMessage done;
  done.type = net::ControlType::kFragmentDone;
  done.epoch = run.epoch;
  done.node = node;
  done.status_code = 0;
  done.rows = static_cast<std::int64_t>(table->num_rows());
  done.wall_seconds = result->metrics.wall.seconds();
  const exec::NodeMetrics& local_metrics =
      result->metrics.nodes[static_cast<std::size_t>(node)];
  done.tx_bytes = local_metrics.total_sent_remote_bytes();
  done.rx_bytes = local_metrics.total_received_remote_bytes();
  (void)net::SendControl(control_fd, done);
}

StatusOr<ProcessRun> EngineFleet::RunProcessQuery(QueryKind kind,
                                                  int kill_node) {
  EEDC_RETURN_IF_ERROR(EnsureProcessFleet());
  const int n = fleet_.total_nodes();
  if (kill_node >= n) {
    return Status::InvalidArgument("kill node out of range");
  }
  for (int i = 0; i < n; ++i) {
    if (!process_fleet_->alive(i)) {
      return Status::Unavailable(
          "node " + std::to_string(i) +
          " process is dead (killed in an earlier episode)");
    }
  }
  const std::uint32_t epoch = ++process_epoch_;
  const cluster::EnginePlacement& placement =
      placements_[static_cast<std::size_t>(kind)];
  const int num_exchanges =
      exec::CountExchanges(*placement.plan_for_node(0));

  // Prefer real TCP loopback streams; fall back to AF_UNIX pairs when
  // the environment has no loopback (sandboxes).
  static const bool use_tcp = [] {
    int probe[2];
    const bool ok = net::MakeSocketStreamPair(/*use_tcp=*/true, probe);
    if (ok) {
      ::close(probe[0]);
      ::close(probe[1]);
    }
    return ok;
  }();

  // One pre-connected stream per exchange edge; the coordinator owns
  // both ends until they are shipped, then closes its copies so a dead
  // node process is the only remaining owner of its ends.
  std::vector<std::array<int, 2>> pairs(
      static_cast<std::size_t>(num_exchanges) *
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
      {-1, -1});
  const auto pair_index = [n](int e, int s, int d) {
    return (static_cast<std::size_t>(e) * static_cast<std::size_t>(n) +
            static_cast<std::size_t>(s)) *
               static_cast<std::size_t>(n) +
           static_cast<std::size_t>(d);
  };
  const auto close_pairs = [&pairs] {
    for (std::array<int, 2>& p : pairs) {
      for (int& fd : p) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
  };
  for (int e = 0; e < num_exchanges; ++e) {
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        int ends[2];
        if (!net::MakeSocketStreamPair(use_tcp, ends)) {
          close_pairs();
          return Status::Unavailable(
              "could not wire a data-plane stream pair");
        }
        pairs[pair_index(e, s, d)] = {ends[0], ends[1]};
      }
    }
  }

  // Dispatch: each node's fds in the canonical order it will unpack.
  for (int k = 0; k < n; ++k) {
    std::vector<int> node_fds;
    ForEachLocalEdge(num_exchanges, n, k, [&](int e, int s, int d) {
      const std::array<int, 2>& p = pairs[pair_index(e, s, d)];
      node_fds.push_back(s == k ? p[0] : p[1]);
    });
    net::ControlMessage run;
    run.type = net::ControlType::kRunFragment;
    run.epoch = epoch;
    run.node = k;
    run.kind = static_cast<std::int32_t>(kind);
    // The crash victim sleeps past the kill window so the SIGKILL lands
    // mid-query deterministically, not in a startup race.
    run.start_delay_ms = (k == kill_node) ? 60 : 0;
    const Status sent =
        net::SendControl(process_fleet_->control_fd(k), run, node_fds);
    if (!sent.ok()) {
      close_pairs();
      return sent;
    }
  }
  close_pairs();  // node processes hold the only remaining ends

  // Start barrier: every fragment has wired its transport before any
  // executes, so a kill right after kGo hits all of them mid-query.
  for (int k = 0; k < n; ++k) {
    StatusOr<net::ControlMessage> started = net::ReceiveControl(
        process_fleet_->control_fd(k), Duration::Seconds(30.0));
    if (!started.ok()) {
      return Status::Unavailable(
          "node " + std::to_string(k) + " never reached the start barrier: " +
          started.status().message());
    }
    if (started->type != net::ControlType::kStarted ||
        started->epoch != epoch) {
      return Status::Internal("start-barrier protocol violation");
    }
  }
  for (int k = 0; k < n; ++k) {
    net::ControlMessage go;
    go.type = net::ControlType::kGo;
    go.epoch = epoch;
    const Status sent = net::SendControl(process_fleet_->control_fd(k), go);
    if (!sent.ok()) return sent;
  }
  if (kill_node >= 0) process_fleet_->Kill(kill_node);

  // Gather. Every live node is drained to its kFragmentDone even after
  // another node failed — a survivor blocked writing results must not be
  // left wedged against a full socket for the next dispatch to trip on.
  ProcessRun out;
  Status failure = Status::OK();
  const auto note_failure = [&failure](Status st) {
    if (failure.ok()) failure = std::move(st);
  };
  std::optional<storage::Schema> schema;
  std::vector<std::shared_ptr<storage::Table>> node_tables(
      static_cast<std::size_t>(n));
  double wall_max = 0.0;
  for (int k = 0; k < n; ++k) {
    if (k == kill_node) {
      note_failure(Status::Unavailable(
          "node " + std::to_string(k) + " process died mid-query"));
      continue;
    }
    std::shared_ptr<storage::Table> table;
    for (;;) {
      std::string frame;
      StatusOr<net::FrameHeader> header =
          net::ReceiveFrame(process_fleet_->control_fd(k),
                            Duration::Seconds(60.0), &frame, nullptr);
      if (!header.ok()) {
        note_failure(Status::Unavailable(
            "node " + std::to_string(k) + " fragment lost: " +
            header.status().message()));
        break;
      }
      if ((header->flags & net::kFrameControl) != 0) {
        StatusOr<net::ControlMessage> msg =
            net::ParseControl(*header, frame);
        if (!msg.ok()) {
          note_failure(msg.status());
          break;
        }
        if (msg->type == net::ControlType::kResultHeader) {
          StatusOr<storage::Schema> decoded =
              net::DecodeSchema(msg->detail);
          if (!decoded.ok()) {
            note_failure(decoded.status());
            break;
          }
          if (!schema.has_value()) schema = decoded.value();
          table = std::make_shared<storage::Table>(
              storage::Schema(decoded.value()));
        } else if (msg->type == net::ControlType::kFragmentDone) {
          if (msg->status_code != 0) {
            note_failure(Status(
                static_cast<StatusCode>(msg->status_code),
                "node " + std::to_string(k) + ": " + msg->detail));
          } else {
            wall_max = std::max(wall_max, msg->wall_seconds);
            out.tx_bytes += msg->tx_bytes;
            out.rx_bytes += msg->rx_bytes;
          }
          break;
        }
        // Other control types mid-gather are stale noise; keep reading.
      } else {
        if (table == nullptr) {
          note_failure(Status::Internal(
              "node " + std::to_string(k) +
              " sent result rows before its schema header"));
          break;
        }
        StatusOr<net::DecodedFrame> decoded =
            net::DecodeFrame(table->schema(), frame);
        if (!decoded.ok()) {
          note_failure(decoded.status());
          break;
        }
        decoded->block.AppendLiveRowsTo(table.get());
      }
    }
    node_tables[static_cast<std::size_t>(k)] = std::move(table);
  }
  if (!failure.ok()) return failure;
  if (!schema.has_value()) {
    return Status::Internal("no node reported a result schema");
  }

  // Node-order concatenation. Same row multiset as the in-process
  // executor; row ORDER is nondeterministic on every path (exchange
  // arrival interleaving), so identity gates compare unordered.
  auto result = std::make_shared<storage::Table>(
      storage::Schema(schema.value()));
  for (int k = 0; k < n; ++k) {
    const std::shared_ptr<storage::Table>& part =
        node_tables[static_cast<std::size_t>(k)];
    if (part == nullptr || part->num_rows() == 0) continue;
    const storage::Block whole =
        storage::Block::Borrow(part, 0, part->num_rows());
    whole.AppendLiveRowsTo(result.get());
  }
  out.result_rows = result->num_rows();
  out.table = std::move(result);
  out.wall = Duration::Seconds(wall_max);
  return out;
}

StatusOr<ProcessRun> EngineFleet::MeasureProcess(QueryKind kind) {
  return RunProcessQuery(kind, /*kill_node=*/-1);
}

StatusOr<FaultMeasurement> EngineFleet::MeasureProcessWithCrash(
    QueryKind kind, int crash_node, const EngineFaultOptions& fault) {
  // Attempt 1 delays the victim and SIGKILLs it right after the start
  // barrier: the coordinator sees its control stream end, the survivors
  // see their data edges die (Unavailable, not SIGPIPE). The survivor
  // sub-fleet's own process fleet then re-runs the query.
  return Failover(
      kind, crash_node, fault, /*fork_first=*/true,
      [&]() { return Unmetered(RunProcessQuery(kind, crash_node)); },
      [kind](EngineFleet& survivors) {
        return Unmetered(survivors.MeasureProcess(kind));
      });
}

StatusOr<ConcurrentMeasurement> EngineFleet::MeasureConcurrent(
    const std::vector<QueryKind>& kinds, int streams, int repetitions,
    obs::TraceRecorder* trace) {
  if (kinds.empty()) {
    return Status::InvalidArgument("concurrent mix needs >= 1 kind");
  }
  if (streams <= 0) {
    return Status::InvalidArgument("concurrent mix needs >= 1 stream");
  }
  if (repetitions <= 0) repetitions = options_.repetitions;
  // A trace must describe the run whose attribution we return; with the
  // best-of-N loop each rep has its own runtime and epoch, so tracing
  // pins the measurement to a single co-run.
  if (trace != nullptr) repetitions = 1;

  // Serial ground truth per distinct kind: a reference result table for
  // the row-identity checks, and the memoized best-of-reps wall that
  // prices the back-to-back serial baseline.
  std::array<std::shared_ptr<const storage::Table>, kNumQueryKinds>
      reference;
  std::array<Duration, kNumQueryKinds> serial_wall;
  std::array<double, kNumQueryKinds> build_estimate{};
  serial_wall.fill(Duration::Zero());
  Duration serial_total = Duration::Zero();
  for (const QueryKind kind : kinds) {
    const auto k = static_cast<std::size_t>(kind);
    if (reference[k] == nullptr) {
      EEDC_ASSIGN_OR_RETURN(EngineRun run, RunOnce(kind));
      reference[k] = run.table;
      EEDC_ASSIGN_OR_RETURN(const EngineMeasurement* m, Measure(kind));
      serial_wall[k] = m->wall;
      // Admission prices the query at its placement-estimated build
      // footprint (what a joiner node must hold in memory).
      const cluster::EnginePlacement& placement = placements_[k];
      const int joiner =
          placement.joiners.empty() ? 0 : placement.joiners.front();
      build_estimate[k] = cluster::EstimateBuildBytes(
          *placement.plan_for_node(joiner), *data_);
    }
    serial_total += serial_wall[k];
  }
  // The co-run executes `streams` copies of the whole mix.
  serial_total = serial_total * static_cast<double>(streams);

  const cluster::EnginePlacement& p0 = placements_[0];
  std::vector<std::shared_ptr<const power::PowerModel>> models;
  models.reserve(p0.node_classes.size());
  for (const cluster::NodeClassSpec* cls : p0.node_classes) {
    models.push_back(cls->power_model);
  }
  const double share = 1.0 / static_cast<double>(kinds.size());

  ConcurrentMeasurement best;
  for (int rep = 0; rep < repetitions; ++rep) {
    exec::ExecutorRuntime runtime(data_.get(), p0.MakeExecutorOptions());
    if (trace != nullptr) runtime.AttachTrace(trace);
    std::array<bool, kNumQueryKinds> grouped{};
    for (const QueryKind kind : kinds) {
      const auto k = static_cast<std::size_t>(kind);
      if (grouped[k]) continue;
      grouped[k] = true;
      EEDC_RETURN_IF_ERROR(runtime.AddGroup(
          exec::ResourceGroup{QueryKindName(kind), share, 0, 0.0}));
    }

    // Stream-major submission interleaves the kinds, so the runtime sees
    // a genuinely mixed queue rather than per-kind batches.
    struct Submission {
      QueryKind kind;
      int stream;
      exec::ExecutorRuntime::TicketPtr ticket;
    };
    std::vector<Submission> subs;
    subs.reserve(kinds.size() * static_cast<std::size_t>(streams));
    for (int s = 0; s < streams; ++s) {
      for (const QueryKind kind : kinds) {
        const auto k = static_cast<std::size_t>(kind);
        exec::RuntimeQueryOptions qopts;
        qopts.group = QueryKindName(kind);
        qopts.estimated_build_bytes = build_estimate[k];
        EEDC_ASSIGN_OR_RETURN(
            exec::ExecutorRuntime::TicketPtr ticket,
            runtime.Submit(placements_[k].plan_for_node, qopts));
        subs.push_back(Submission{kind, s, std::move(ticket)});
      }
    }

    ConcurrentMeasurement m;
    std::vector<double> delays;
    std::vector<double> stretch;
    for (Submission& sub : subs) {
      EEDC_ASSIGN_OR_RETURN(exec::QueryResult result, sub.ticket->Wait());
      const auto k = static_cast<std::size_t>(sub.kind);
      ConcurrentQueryResult qr;
      qr.kind = sub.kind;
      qr.stream = sub.stream;
      qr.query_id = sub.ticket->query_id();
      qr.result_rows = result.table.num_rows();
      qr.rows_match = exec::TablesEqualUnordered(*reference[k],
                                                 result.table, 1e-6,
                                                 &qr.mismatch);
      qr.queue_delay = sub.ticket->queue_delay();
      qr.wall = result.metrics.wall;
      m.all_rows_match = m.all_rows_match && qr.rows_match;
      delays.push_back(qr.queue_delay.seconds());
      if (serial_wall[k].seconds() > 0.0) {
        stretch.push_back(qr.wall / serial_wall[k]);
      }
      m.queries.push_back(std::move(qr));
    }

    const std::vector<exec::TaggedWorkerSpan> spans = runtime.TaggedSpans();
    const energy::ConcurrentEnergyReport report =
        energy::AttributeConcurrent(spans, models, runtime.node_workers());
    m.co_makespan = report.wall;
    m.co_joules = report.total;
    m.unattributed_idle = report.unattributed_idle;
    m.attribution_error_joules = std::abs(
        report.AttributedTotal().joules() - report.total.joules());
    for (ConcurrentQueryResult& qr : m.queries) {
      qr.joules = report.QueryJoules(qr.query_id);
    }
    m.serial_total = serial_total;
    if (m.co_makespan.seconds() > 0.0) {
      m.speedup = serial_total / m.co_makespan;
    }
    m.interference = Mean(stretch);
    // delays is non-empty (>= 1 kind x >= 1 stream), but Percentile of an
    // empty vector is NaN by contract — keep the guard visible.
    m.queue_delay_p50 = Duration::Seconds(
        delays.empty() ? 0.0 : Percentile(delays, 0.50));
    m.queue_delay_p95 = Duration::Seconds(
        delays.empty() ? 0.0 : Percentile(delays, 0.95));
    m.runtime_metrics_json = runtime.metrics().SnapshotJson();

    if (trace != nullptr) {
      // Per-node active-worker counter tracks: the computing-worker
      // counts the attribution priced, one value per sweep step.
      for (std::size_t node = 0; node < report.node_steps.size(); ++node) {
        const int id = static_cast<int>(node);
        for (const energy::ActiveStep& step : report.node_steps[node]) {
          trace->AddCounter(obs::TraceCounter{
              "active_workers", id, step.begin.seconds(),
              static_cast<double>(step.active)});
        }
        trace->AddCounter(obs::TraceCounter{"active_workers", id,
                                            report.wall.seconds(), 0.0});
      }
      // Per-query joule annotations: one counter track per query ramping
      // from 0 at its first span to its attributed total at its last.
      for (const ConcurrentQueryResult& qr : m.queries) {
        double first = report.wall.seconds();
        double last = 0.0;
        for (const exec::TaggedWorkerSpan& s : spans) {
          if (s.query != qr.query_id || s.is_wait) continue;
          first = std::min(first, s.begin.seconds());
          last = std::max(last, s.end.seconds());
        }
        if (last <= first) continue;
        const std::string name =
            StrFormat("joules q%d (%s)", qr.query_id, QueryKindName(qr.kind));
        trace->AddCounter(obs::TraceCounter{name, -1, first, 0.0});
        trace->AddCounter(
            obs::TraceCounter{name, -1, last, qr.joules.joules()});
      }
    }

    if (best.queries.empty() ||
        (m.co_makespan.seconds() > 0.0 &&
         m.co_makespan < best.co_makespan)) {
      best = std::move(m);
    }
  }
  return best;
}

StatusOr<QueryProfiles> EngineFleet::MeasuredProfiles() {
  QueryProfiles profiles;
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const QueryKind kind = static_cast<QueryKind>(k);
    EEDC_ASSIGN_OR_RETURN(const EngineMeasurement* m, Measure(kind));
    QueryProfile& p = profiles.For(kind);
    p.service = m->wall;
    p.deadline = std::max(m->wall * options_.deadline_multiplier,
                          Duration::Millis(10.0));
    p.engine_joules = m->joules;
    p.shipped_bytes = m->shipped_bytes;
  }
  return profiles;
}

}  // namespace eedc::workload
