// eebench: end-to-end and per-layer benchmark of the engine on the
// paper's mixed 1B,2W fleet.
//
//   eebench --workload <scan_q1|shuffle_q3> --seed <n> --seconds <s>
//           --trace <0|1> [--trace_out <path>]
//
// Both workloads run on NodeClassRegistry::PaperDefault()'s beefy and
// wimpy classes with engine_workers pinned to 2 (beefy) and 1 (each
// wimpy): 4 morsel pipelines, one per CPU of a 4-CPU host, because
// oversubscribed pipelines were the largest run-to-run noise source.
// Each is a closed loop with one client over the in-process path
// EngineFleet::RunOnce takes (ExecutePerNode over an InProcessTransport,
// an EnergyMeter listening), built here from the public calls:
//
//   scan_q1     Q1 at SF 0.1: scan/filter/partial aggregation.
//   shuffle_q3  Q3 at SF 0.05: exchange, credits, join build/probe.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics with profiling off.
// --trace 1 measures an untraced and then a traced (operator-profiled)
// half-window and reports the per-layer metrics, 0 where a layer does no
// work; spans around every layer call go to one Chrome trace. The traced
// run also reaches the layers the closed loops do not: shuffle_q3 drives
// the same plan on the one-OS-process-per-node fleet (net socket and
// control), and scan_q1 serves a seeded Poisson mix through one
// ExecutorRuntime at SF 0.002 (the exec runtime). Those two had their own
// workloads, but on a 4-vCPU VM the open loop's latency spread 44% (p50)
// and 74% (p95) across runs, and the process fleet reports no joules.
//
// Layers are timed from outside, around the public calls the tests use.
// Every timed result is compared with a per-kind reference computed
// before the window; exact per-query counts (rows, shipped bytes) must
// repeat within a run, since a change means the plan changed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node_class.h"
#include "cluster/placement.h"
#include "common/stats.h"
#include "common/statusor.h"
#include "energy/attribution.h"
#include "energy/meter.h"
#include "exec/executor.h"
#include "exec/reference.h"
#include "exec/runtime.h"
#include "net/inproc.h"
#include "net/socket.h"
#include "obs/chrome_trace.h"
#include "obs/op_profile.h"
#include "obs/trace.h"
#include "tpch/dates.h"
#include "tpch/dbgen.h"
#include "workload/arrival.h"
#include "workload/engine.h"
#include "workload/profiles.h"

namespace eedc::bench {
namespace {

using Clock = std::chrono::steady_clock;
using workload::QueryKind;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : Percentile(xs, p);
}

double MeanOf(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : Mean(xs);
}

// ---------------------------------------------------------------------------
// Workload definitions.

struct WorkloadSpec {
  std::string name;
  double scale_factor = 0.0;
  std::vector<QueryKind> kinds;
  /// Fresh fleet builds timed per run; setup_s is their median. One
  /// build is a single noisy sample (the first pays fresh page faults).
  int setup_builds = 0;
};

/// Warm-up before every window. On the 4-vCPU VM this was tuned on,
/// pipelines started after an idle spell ran at one CPU's throughput
/// for about a second, and first passes over fresh memory ran ~3.5x
/// slower, so closed loops warm up for at least kClosedWarmupSeconds
/// and the runtime phase pushes a fixed count (~2 s of serial queries)
/// through its runtime, keeping the runtime's served count fixed.
constexpr int kClosedWarmup = 8;
constexpr double kClosedWarmupSeconds = 2.0;
constexpr int kServeWarmupPerKind = 150;
/// The runtime phase of scan_q1's traced run: Poisson arrivals over
/// DefaultMix at this rate, 3-10 ms queries at SF 0.002.
constexpr double kServeRateQps = 80.0;
/// Threads collecting runtime-phase results. Each takes the next ticket
/// in submission order, so a slow query delays only its own collector.
constexpr int kServeCollectors = 4;
/// Process-fleet queries in shuffle_q3's traced run.
constexpr int kProcessWarmup = 3;
constexpr int kProcessQueries = 30;

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "scan_q1") {
    return WorkloadSpec{name, 0.1, {QueryKind::kQ1}, 7};
  }
  if (name == "shuffle_q3") {
    return WorkloadSpec{name, 0.05, {QueryKind::kQ3}, 7};
  }
  return std::nullopt;
}

const WorkloadSpec& ServePhaseSpec() {
  static const WorkloadSpec spec{
      "serve_phase",
      0.002,
      {QueryKind::kQ1, QueryKind::kQ3, QueryKind::kQ12, QueryKind::kQ21},
      1};
  return spec;
}

/// The paper's mixed fleet with the benchmark's pinned widths.
StatusOr<cluster::ClusterConfig> BenchFleet() {
  const cluster::NodeClassRegistry registry =
      cluster::NodeClassRegistry::PaperDefault();
  EEDC_ASSIGN_OR_RETURN(const cluster::NodeClassSpec* beefy,
                        registry.Find("beefy"));
  EEDC_ASSIGN_OR_RETURN(const cluster::NodeClassSpec* wimpy,
                        registry.Find("wimpy"));
  cluster::NodeClassSpec b = *beefy;
  cluster::NodeClassSpec w = *wimpy;
  b.engine_workers = 2;
  w.engine_workers = 1;
  return cluster::ClusterConfig::BeefyWimpy(b, 1, w, 2);
}

// ---------------------------------------------------------------------------
// Host counters.

double CpuSeconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

struct HostSample {
  double cpu_s = 0.0;
  long minflt = 0;
  long ctx_switches = 0;
};

HostSample SampleHost() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return HostSample{CpuSeconds(ru), ru.ru_minflt, ru.ru_nvcsw + ru.ru_nivcsw};
}

double ThreadCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return CpuSeconds(ru);
}

/// "VmRSS:" / "VmHWM:"-style field of /proc/<pid>/status, in KiB.
double ProcStatusKb(const std::string& pid, const std::string& field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr);
    }
  }
  return 0.0;
}

/// Hands freed heap pages back to the kernel and restarts the process's
/// resident high-water mark (VmHWM), so the next peak reflects live data.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

long MapsCount() {
  std::ifstream in("/proc/self/maps");
  long n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

/// Pids whose parent is this process (the forked node processes).
std::vector<std::string> ChildPids() {
  std::vector<std::string> out;
  const std::string self = std::to_string(getpid());
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid = entry.path().filename().string();
    if (pid.empty() || pid.find_first_not_of("0123456789") !=
                           std::string::npos) {
      continue;
    }
    std::ifstream in("/proc/" + pid + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Field 4 (ppid) follows the ")" that closes the command name.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    std::string ppid;
    rest >> state >> ppid;
    if (ppid == self) out.push_back(pid);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans around layer calls (traced run only).

class SpanLog {
 public:
  struct Span {
    int parent = -1;
    int query = -1;
    int lane = -1;  // trace track; -1 = the main thread
    std::string name;
    Clock::time_point begin;
    Clock::time_point end;
  };

  /// RAII span; a no-op when the log is null or disabled.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, int parent = -1, int query = -1,
          int lane = -1)
        : log_(log != nullptr && log->enabled() ? log : nullptr) {
      if (log_ != nullptr) {
        id_ = log_->Open(std::move(name), parent, query, lane);
      }
    }
    ~Scope() {
      if (log_ != nullptr) log_->Close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog* log_;
    int id_ = -1;
  };

  bool enabled() const { return enabled_.load(); }
  void set_enabled(bool on) { enabled_.store(on); }

  int Open(std::string name, int parent, int query, int lane) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{parent, query, lane, std::move(name), now, now});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }

  /// Adds every span to `rec` (category names the parent span) on the
  /// recorder's timeline.
  void ExportTo(obs::TraceRecorder* rec) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Clock::time_point epoch = rec->epoch();
    for (const Span& s : spans_) {
      obs::TraceSpan t;
      t.query = s.query;
      t.node = -1;
      t.worker = s.lane;
      t.name = s.name;
      t.category =
          s.parent < 0
              ? std::string("root")
              : "parent:" + spans_[static_cast<std::size_t>(s.parent)].name;
      t.begin_s = SecondsBetween(epoch, s.begin);
      t.end_s = SecondsBetween(epoch, s.end);
      rec->AddSpan(std::move(t));
    }
  }

  /// Per span name: count, total and self milliseconds, where self time
  /// is the span minus the part of it its child spans cover.
  void PrintSelfTimes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(
            static_cast<int>(i));
      }
    }
    struct Row {
      int count = 0;
      double total_ms = 0.0;
      double self_ms = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
      for (int c : children[i]) {
        const Span& k = spans_[static_cast<std::size_t>(c)];
        const Clock::time_point b = std::max(k.begin, s.begin);
        const Clock::time_point e = std::min(k.end, s.end);
        if (b < e) cover.emplace_back(b, e);
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0;
      Clock::time_point reach = s.begin;
      for (const auto& [b, e] : cover) {
        const Clock::time_point from = std::max(b, reach);
        if (e > from) {
          covered += SecondsBetween(from, e);
          reach = e;
        }
      }
      const double total = SecondsBetween(s.begin, s.end);
      Row& row = rows[s.name];
      row.count += 1;
      row.total_ms += total * 1e3;
      row.self_ms += (total - covered) * 1e3;
    }
    std::printf("# %-34s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, row] : rows) {
      std::printf("# %-34s %8d %12.3f %12.3f\n", name.c_str(), row.count,
                  row.total_ms, row.self_ms);
    }
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Set-up: database, data placement, plans.

struct Fleet {
  cluster::ClusterConfig config;  // placements point into this
  tpch::TpchDatabase db;
  std::unique_ptr<exec::ClusterData> data;
  std::array<std::optional<cluster::EnginePlacement>,
             workload::kNumQueryKinds>
      placements;

  const cluster::EnginePlacement& placement(QueryKind kind) const {
    return *placements[static_cast<std::size_t>(kind)];
  }
};

struct SetupTimes {
  double dbgen_s = 0.0;
  double load_s = 0.0;
  double plan_s = 0.0;
  double place_s = 0.0;
  double minflt = 0.0;
  double total_s() const { return dbgen_s + load_s + plan_s + place_s; }
};

/// One fresh build, mirroring EngineFleet::Init's layout: LINEITEM and
/// ORDERS hash-partitioned, SUPPLIER and NATION replicated.
StatusOr<std::unique_ptr<Fleet>> BuildFleet(const WorkloadSpec& spec,
                                            std::uint64_t seed,
                                            SpanLog* log, SetupTimes* t) {
  SpanLog::Scope root(log, "setup.build");
  // Times one set-up call into `*seconds` (and a span in the traced run).
  const auto phase = [&](const char* name, double* seconds,
                         const std::function<Status()>& call) {
    SpanLog::Scope span(log, name, root.id());
    const Clock::time_point t0 = Clock::now();
    Status st = call();
    *seconds += SecondsBetween(t0, Clock::now());
    return st;
  };
  const HostSample h0 = SampleHost();
  auto fleet = std::make_unique<Fleet>();
  EEDC_ASSIGN_OR_RETURN(fleet->config, BenchFleet());
  EEDC_RETURN_IF_ERROR(phase("tpch.GenerateDatabase", &t->dbgen_s, [&] {
    tpch::DbgenOptions dbgen;
    dbgen.scale_factor = spec.scale_factor;
    dbgen.seed = seed;
    fleet->db = tpch::GenerateDatabase(dbgen);
    return Status::OK();
  }));
  EEDC_RETURN_IF_ERROR(
      phase("storage.ClusterData.Load", &t->load_s, [&]() -> Status {
        fleet->data =
            std::make_unique<exec::ClusterData>(fleet->config.total_nodes());
        EEDC_RETURN_IF_ERROR(fleet->data->LoadHashPartitioned(
            "lineitem", *fleet->db.lineitem, "l_orderkey"));
        EEDC_RETURN_IF_ERROR(fleet->data->LoadHashPartitioned(
            "orders", *fleet->db.orders, "o_custkey"));
        fleet->data->LoadReplicated("supplier", fleet->db.supplier);
        fleet->data->LoadReplicated("nation", fleet->db.nation);
        return Status::OK();
      }));
  cluster::PlacementOptions options;
  options.replicated_tables = {"supplier", "nation"};
  const cluster::PlacementPolicy policy(options);
  for (const QueryKind kind : spec.kinds) {
    exec::PlanPtr plan;
    EEDC_RETURN_IF_ERROR(phase("tpch.PlanForKind", &t->plan_s, [&]() -> Status {
      EEDC_ASSIGN_OR_RETURN(plan, workload::PlanForKind(kind, fleet->db));
      return Status::OK();
    }));
    EEDC_RETURN_IF_ERROR(
        phase("cluster.PlacementPolicy.Place", &t->place_s, [&]() -> Status {
          EEDC_ASSIGN_OR_RETURN(
              fleet->placements[static_cast<std::size_t>(kind)],
              policy.Place(std::move(plan), fleet->config));
          return Status::OK();
        }));
  }
  t->minflt = static_cast<double>(SampleHost().minflt - h0.minflt);
  return fleet;
}

// ---------------------------------------------------------------------------
// References: computed once per kind before the timed window.

/// Q1 from the naive operators of exec/reference.cc (the check
/// tests/tpch_queries_test.cc makes), extended to every output column.
StatusOr<storage::Table> NaiveQ1(const tpch::TpchDatabase& db) {
  using storage::DataType;
  using storage::Field;
  const storage::Table& li = *db.lineitem;
  const std::int64_t cutoff = tpch::DayNumber(1998, 9, 2);
  EEDC_ASSIGN_OR_RETURN(const storage::Column* shipdate,
                        li.ColumnByName("l_shipdate"));
  const storage::Table kept = exec::ReferenceFilter(
      li, [shipdate, cutoff](const storage::Table&, std::size_t row) {
        return shipdate->Int64At(row) <= cutoff;
      });

  EEDC_ASSIGN_OR_RETURN(const storage::Column* flag,
                        kept.ColumnByName("l_returnflag"));
  EEDC_ASSIGN_OR_RETURN(const storage::Column* status,
                        kept.ColumnByName("l_linestatus"));
  EEDC_ASSIGN_OR_RETURN(const storage::Column* qty,
                        kept.ColumnByName("l_quantity"));
  EEDC_ASSIGN_OR_RETURN(const storage::Column* price,
                        kept.ColumnByName("l_extendedprice"));
  EEDC_ASSIGN_OR_RETURN(const storage::Column* disc,
                        kept.ColumnByName("l_discount"));
  EEDC_ASSIGN_OR_RETURN(const storage::Column* tax,
                        kept.ColumnByName("l_tax"));
  storage::Table derived(storage::Schema(
      {Field{"l_returnflag", DataType::kString, 1},
       Field{"l_linestatus", DataType::kString, 1},
       Field{"qty", DataType::kDouble, 8},
       Field{"price", DataType::kDouble, 8},
       Field{"disc_price", DataType::kDouble, 8},
       Field{"charge", DataType::kDouble, 8}}));
  for (std::size_t r = 0; r < kept.num_rows(); ++r) {
    const double p = price->DoubleAt(r);
    const double dp = p * (1.0 - disc->DoubleAt(r));
    derived.AppendRow({storage::Value(flag->StringAt(r)),
                       storage::Value(status->StringAt(r)),
                       storage::Value(qty->DoubleAt(r)),
                       storage::Value(p), storage::Value(dp),
                       storage::Value(dp * (1.0 + tax->DoubleAt(r)))});
  }

  // One ReferenceSumBy per aggregate, joined on the group key.
  const std::vector<std::string> groups = {"l_returnflag", "l_linestatus"};
  struct Acc {
    std::array<double, 4> sums{};
    double count = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Acc> acc;
  const std::array<const char*, 4> values = {"qty", "price", "disc_price",
                                             "charge"};
  for (std::size_t v = 0; v < values.size(); ++v) {
    EEDC_ASSIGN_OR_RETURN(storage::Table sums,
                          exec::ReferenceSumBy(derived, groups, values[v]));
    for (std::size_t r = 0; r < sums.num_rows(); ++r) {
      Acc& a = acc[{sums.column(0).StringAt(r), sums.column(1).StringAt(r)}];
      a.sums[v] = sums.column(2).DoubleAt(r);
      a.count = static_cast<double>(sums.column(3).Int64At(r));
    }
  }
  storage::Table out(storage::Schema(
      {Field{"l_returnflag", DataType::kString, 1},
       Field{"l_linestatus", DataType::kString, 1},
       Field{"sum_qty", DataType::kDouble, 8},
       Field{"sum_base_price", DataType::kDouble, 8},
       Field{"sum_disc_price", DataType::kDouble, 8},
       Field{"sum_charge", DataType::kDouble, 8},
       Field{"count_order", DataType::kDouble, 8},
       Field{"avg_qty", DataType::kDouble, 8},
       Field{"avg_price", DataType::kDouble, 8}}));
  for (const auto& [key, a] : acc) {
    out.AppendRow({storage::Value(key.first), storage::Value(key.second),
                   storage::Value(a.sums[0]), storage::Value(a.sums[1]),
                   storage::Value(a.sums[2]), storage::Value(a.sums[3]),
                   storage::Value(a.count),
                   storage::Value(a.sums[0] / a.count),
                   storage::Value(a.sums[1] / a.count)});
  }
  return out;
}

using References =
    std::array<std::shared_ptr<const storage::Table>,
               workload::kNumQueryKinds>;

/// Q1 from the naive operators; the other kinds from the single-node
/// one-worker executor over the unpartitioned tables (the reference
/// tests/cluster_placement_test.cc uses).
StatusOr<References> BuildReferences(const Fleet& fleet,
                                     const std::vector<QueryKind>& kinds,
                                     SpanLog* log) {
  SpanLog::Scope root(log, "check.reference");
  References refs;
  exec::ClusterData single(1);
  single.LoadReplicated("lineitem", fleet.db.lineitem);
  single.LoadReplicated("orders", fleet.db.orders);
  single.LoadReplicated("supplier", fleet.db.supplier);
  single.LoadReplicated("nation", fleet.db.nation);
  exec::Executor executor(&single);
  for (const QueryKind kind : kinds) {
    const auto k = static_cast<std::size_t>(kind);
    if (kind == QueryKind::kQ1) {
      SpanLog::Scope s(log, "exec.reference.naive_q1", root.id());
      EEDC_ASSIGN_OR_RETURN(storage::Table t, NaiveQ1(fleet.db));
      refs[k] = std::make_shared<const storage::Table>(std::move(t));
      continue;
    }
    SpanLog::Scope s(log, "exec.reference.single_node", root.id());
    EEDC_ASSIGN_OR_RETURN(exec::PlanPtr plan,
                          workload::PlanForKind(kind, fleet.db));
    EEDC_ASSIGN_OR_RETURN(exec::QueryResult r, executor.Execute(plan));
    refs[k] = std::make_shared<const storage::Table>(std::move(r.table));
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Per-query observations and the exact-count cross-check.

struct QuerySample {
  QueryKind kind = QueryKind::kQ1;
  /// Client-timed: the ExecutePerNode call in the closed loops, from
  /// the scheduled send time in the runtime phase.
  double latency_ms = 0.0;
  double pipeline_ms = 0.0;  // ExecMetrics::wall
  double skew = 0.0;         // max / min node busy
  obs::OpBreakdown op;       // summed over nodes
  double exchange_wait_ms = 0.0;
  double credit_wait_ms = 0.0;
  double finish_us = 0.0;
  double busy_j = 0.0;
  double idle_j = 0.0;
  double network_j = 0.0;
  double joules = 0.0;
  // Runtime phase only.
  double submit_us = 0.0;
  double queue_delay_ms = 0.0;
  double lag_ms = 0.0;
};

/// Counts that must repeat exactly for every query of a kind.
struct ExactCounts {
  double scan_rows = 0.0;
  double build_rows = 0.0;
  double probe_rows = 0.0;
  double shipped_bytes = 0.0;

  bool operator==(const ExactCounts&) const = default;
};

ExactCounts CountsOf(const exec::ExecMetrics& m) {
  ExactCounts c;
  for (const exec::NodeMetrics& n : m.nodes) {
    c.scan_rows += n.scan_rows;
    c.build_rows += n.build_rows;
    c.probe_rows += n.probe_rows;
  }
  c.shipped_bytes = m.TotalRemoteBytes();
  return c;
}

class CountCheck {
 public:
  /// Records `c` for `kind`; false (and one printed flag) when it
  /// differs from the kind's first query.
  bool Observe(QueryKind kind, const ExactCounts& c) {
    std::lock_guard<std::mutex> lock(mu_);
    std::optional<ExactCounts>& first = first_[static_cast<std::size_t>(kind)];
    if (!first.has_value()) {
      first = c;
      return true;
    }
    if (*first == c) return true;
    if (mismatches_++ == 0) {
      std::printf(
          "# FLAG %s exact counts changed within the run: scan_rows %.0f -> "
          "%.0f, build_rows %.0f -> %.0f, probe_rows %.0f -> %.0f, "
          "shipped_bytes %.0f -> %.0f\n",
          workload::QueryKindName(kind), first->scan_rows, c.scan_rows,
          first->build_rows, c.build_rows, first->probe_rows, c.probe_rows,
          first->shipped_bytes, c.shipped_bytes);
    }
    return false;
  }
  int mismatches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mismatches_;
  }
  std::optional<ExactCounts> first(QueryKind kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_[static_cast<std::size_t>(kind)];
  }

 private:
  mutable std::mutex mu_;
  std::array<std::optional<ExactCounts>, workload::kNumQueryKinds> first_;
  int mismatches_ = 0;
};

void FillExecSample(const exec::ExecMetrics& m, QuerySample* s) {
  s->pipeline_ms = m.wall.millis();
  double max_busy = 0.0;
  double min_busy = 0.0;
  bool first = true;
  for (const exec::NodeMetrics& n : m.nodes) {
    s->op.MergeFrom(n.op);
    s->exchange_wait_ms += n.exchange_wait.millis();
    s->credit_wait_ms += n.credit_wait.millis();
    const double b = n.busy.seconds();
    max_busy = first ? b : std::max(max_busy, b);
    min_busy = first ? b : std::min(min_busy, b);
    first = false;
  }
  s->skew = min_busy > 0.0 ? max_busy / min_busy : 0.0;
}

/// Everything one timed window observed.
struct WindowResult {
  int attempted = 0;
  int failed = 0;
  std::string first_failure;
  std::vector<QuerySample> samples;  // completed, correct queries
  double window_s = 0.0;  // wall of the window minus result checks
  double cpu_s = 0.0;     // process CPU in the window minus result checks
  double ctx_switches = 0.0;
  double minflt = 0.0;
  // Runtime phase only.
  double attribution_ms = 0.0;
  double maps_delta = 0.0;
  double rss_kb_delta = 0.0;

  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
  int completed() const { return static_cast<int>(samples.size()); }
};

/// Each node's class power model, in node order.
std::vector<std::shared_ptr<const power::PowerModel>> PowerModels(
    const cluster::EnginePlacement& p) {
  std::vector<std::shared_ptr<const power::PowerModel>> models;
  for (const cluster::NodeClassSpec* cls : p.node_classes) {
    models.push_back(cls->power_model);
  }
  return models;
}

// ---------------------------------------------------------------------------
// Closed loop (scan_q1, shuffle_q3): the in-process path
// EngineFleet::RunOnce takes, built from the public calls.

class MeteredExecutor {
 public:
  MeteredExecutor(const Fleet& fleet, QueryKind kind, bool profile)
      : placement_(fleet.placement(kind)) {
    std::vector<energy::NicModel> nics;
    for (const cluster::NodeClassSpec* cls : placement_.node_classes) {
      nics.push_back(cls->nic_model());
    }
    std::vector<int> workers = placement_.node_workers;
    for (int& w : workers) w = std::max(1, w);
    meter_ = std::make_unique<energy::EnergyMeter>(PowerModels(placement_),
                                                   std::move(workers));
    meter_->SetNicModels(std::move(nics));
    exec::Executor::Options options = placement_.MakeExecutorOptions();
    options.activity_listener = meter_.get();
    options.transport = &transport_;
    options.profile_operators = profile;
    executor_ =
        std::make_unique<exec::Executor>(fleet.data.get(), std::move(options));
  }

  /// One metered query; fills the sample's exec and energy fields.
  StatusOr<exec::QueryResult> Run(SpanLog* log, int parent, int query,
                                  QuerySample* s) {
    meter_->Reset();
    const Clock::time_point t0 = Clock::now();
    StatusOr<exec::QueryResult> result = [&] {
      SpanLog::Scope span(log, "exec.ExecutePerNode", parent, query);
      return executor_->ExecutePerNode(placement_.plan_for_node);
    }();
    const Clock::time_point t1 = Clock::now();
    energy::QueryEnergyReport energy;
    {
      SpanLog::Scope span(log, "energy.EnergyMeter.Finish", parent, query);
      energy = meter_->Finish();
    }
    const Clock::time_point t2 = Clock::now();
    if (!result.ok()) return result;
    s->latency_ms = SecondsBetween(t0, t1) * 1e3;
    s->finish_us = SecondsBetween(t1, t2) * 1e6;
    s->busy_j = energy.busy.joules();
    s->idle_j = energy.idle.joules();
    s->network_j = energy.network.joules();
    s->joules = energy.total.joules();
    FillExecSample(result->metrics, s);
    return result;
  }

 private:
  const cluster::EnginePlacement& placement_;
  net::InProcessTransport transport_;
  std::unique_ptr<energy::EnergyMeter> meter_;
  std::unique_ptr<exec::Executor> executor_;
};

/// Compares `got` with the kind's reference after its latency is
/// recorded; returns false and records the first diff on a mismatch.
bool CheckResult(const storage::Table& want, const storage::Table& got,
                 QueryKind kind, SpanLog* log, int parent, int query,
                 WindowResult* w) {
  SpanLog::Scope span(log, "check.TablesEqualUnordered", parent, query);
  std::string diff;
  if (exec::TablesEqualUnordered(want, got, 1e-6, &diff)) return true;
  w->Fail(std::string(workload::QueryKindName(kind)) +
          " differs from the reference: " + diff);
  return false;
}

WindowResult RunClosedLoop(const Fleet& fleet, QueryKind kind,
                           const storage::Table& reference, double seconds,
                           bool profile, SpanLog* log, CountCheck* counts) {
  MeteredExecutor metered(fleet, kind, profile);
  WindowResult w;
  double check_wall = 0.0;
  double check_cpu = 0.0;
  const HostSample h0 = SampleHost();
  const Clock::time_point start = Clock::now();
  for (int q = 0; SecondsBetween(start, Clock::now()) - check_wall < seconds;
       ++q) {
    SpanLog::Scope root(log, "query", -1, q);
    ++w.attempted;
    QuerySample s;
    s.kind = kind;
    StatusOr<exec::QueryResult> result = metered.Run(log, root.id(), q, &s);
    if (!result.ok()) {
      w.Fail(result.status().ToString());
      continue;
    }
    const Clock::time_point c0 = Clock::now();
    const double cpu0 = ThreadCpuSeconds();
    const bool same_rows =
        CheckResult(reference, result->table, kind, log, root.id(), q, &w);
    const bool same_counts = counts->Observe(kind, CountsOf(result->metrics));
    if (same_rows && !same_counts) w.Fail("exact counts changed");
    check_cpu += ThreadCpuSeconds() - cpu0;
    check_wall += SecondsBetween(c0, Clock::now());
    if (same_rows && same_counts) w.samples.push_back(std::move(s));
  }
  const Clock::time_point end = Clock::now();
  const HostSample h1 = SampleHost();
  w.window_s = SecondsBetween(start, end) - check_wall;
  w.cpu_s = h1.cpu_s - h0.cpu_s - check_cpu;
  w.ctx_switches = static_cast<double>(h1.ctx_switches - h0.ctx_switches);
  w.minflt = static_cast<double>(h1.minflt - h0.minflt);
  return w;
}

Status WarmClosedLoop(const Fleet& fleet, QueryKind kind,
                      const storage::Table& reference, bool profile) {
  MeteredExecutor metered(fleet, kind, profile);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kClosedWarmup ||
                  SecondsBetween(start, Clock::now()) < kClosedWarmupSeconds;
       ++i) {
    QuerySample s;
    EEDC_ASSIGN_OR_RETURN(exec::QueryResult r,
                          metered.Run(nullptr, -1, -1, &s));
    std::string diff;
    if (!exec::TablesEqualUnordered(reference, r.table, 1e-6, &diff)) {
      return Status::Internal("warm-up result differs from the reference: " +
                              diff);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Runtime phase (scan_q1's traced run): one thread submits a seeded
// Poisson schedule to one ExecutorRuntime; collectors wait tickets in
// submission order.

struct Arrival {
  double at_s = 0.0;
  QueryKind kind = QueryKind::kQ1;
};

/// Exactly round(rate x seconds) arrivals of a Poisson process
/// conditioned on that count in [0, seconds): the first N+1 arrivals of
/// an unconditioned stream, rescaled so arrival N+1 lands at `seconds`.
/// The served count is then the same on every run and every seed.
std::vector<Arrival> ServeSchedule(std::uint64_t seed, double seconds) {
  const std::size_t n =
      static_cast<std::size_t>(std::lround(kServeRateQps * seconds));
  workload::PoissonOptions options;
  options.rate_qps = kServeRateQps;
  options.horizon = Duration::Seconds(2.0 * seconds + 10.0);
  options.seed = seed;
  std::vector<workload::QueryArrival> raw =
      workload::PoissonArrivals(workload::DefaultMix(), options);
  // 2x the expected span plus 10 s holds N+1 arrivals with overwhelming
  // probability; fall back to the stream's own span if it does not.
  const std::size_t have = std::min(raw.size(), n + 1);
  const double scale =
      have > 0 ? seconds / raw[have - 1].at.seconds() : 1.0;
  std::vector<Arrival> out;
  for (std::size_t i = 0; i < std::min(raw.size(), n); ++i) {
    out.push_back(Arrival{raw[i].at.seconds() * scale, raw[i].kind});
  }
  return out;
}

Status WarmRuntime(exec::ExecutorRuntime* runtime, const Fleet& fleet,
                   const std::vector<QueryKind>& kinds,
                   const References& refs) {
  for (int i = 0; i < kServeWarmupPerKind; ++i) {
    for (const QueryKind kind : kinds) {
      EEDC_ASSIGN_OR_RETURN(
          exec::ExecutorRuntime::TicketPtr ticket,
          runtime->Submit(fleet.placement(kind).plan_for_node, {}));
      EEDC_ASSIGN_OR_RETURN(exec::QueryResult r, ticket->Wait());
      std::string diff;
      if (!exec::TablesEqualUnordered(*refs[static_cast<std::size_t>(kind)],
                                      r.table, 1e-6, &diff)) {
        return Status::Internal("warm-up result differs from the reference: " +
                                diff);
      }
    }
  }
  return Status::OK();
}

WindowResult RunServeWindow(const Fleet& fleet, const WorkloadSpec& spec,
                            const References& refs, std::uint64_t seed,
                            double seconds, SpanLog* log,
                            CountCheck* counts) {
  WindowResult w;
  const cluster::EnginePlacement& p0 = fleet.placement(QueryKind::kQ1);
  // The default group and the placement's options: the fabric
  // EngineFleet::MeasureConcurrent uses. One runtime, never recycled, so
  // the per-query thread and span growth stays visible.
  exec::ExecutorRuntime runtime(fleet.data.get(), p0.MakeExecutorOptions());
  const Status warm = WarmRuntime(&runtime, fleet, spec.kinds, refs);
  if (!warm.ok()) {
    w.attempted = 1;
    w.Fail(warm.ToString());
    return w;
  }

  const std::vector<Arrival> schedule = ServeSchedule(seed + 7919, seconds);
  const std::size_t n = schedule.size();
  struct Slot {
    bool ok = false;
    std::string failure;
    QuerySample sample;
  };
  std::vector<Slot> slots(n);
  struct Pending {
    std::size_t idx = 0;
    exec::ExecutorRuntime::TicketPtr ticket;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool submitting_done = false;
  std::vector<double> check_cpu(kServeCollectors, 0.0);
  std::vector<Clock::time_point> last_done(kServeCollectors);

  const long maps0 = MapsCount();
  const double rss0 = ProcStatusKb("self", "VmRSS:");
  const HostSample h0 = SampleHost();
  const Clock::time_point start = Clock::now();
  for (Clock::time_point& t : last_done) t = start;

  std::vector<std::thread> collectors;
  for (int c = 0; c < kServeCollectors; ++c) {
    collectors.emplace_back([&, c] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || submitting_done; });
          if (pending.empty()) return;
          p = std::move(pending.front());
          pending.pop_front();
        }
        Slot& slot = slots[p.idx];
        const int q = static_cast<int>(p.idx);
        SpanLog::Scope root(log, "serve.collect", -1, q, c);
        StatusOr<exec::QueryResult> result = [&] {
          SpanLog::Scope s(log, "runtime.Ticket.Wait", root.id(), q, c);
          return p.ticket->Wait();
        }();
        const Clock::time_point done = Clock::now();
        last_done[static_cast<std::size_t>(c)] = done;
        if (!result.ok()) {
          slot.failure = result.status().ToString();
          continue;
        }
        QuerySample& s = slot.sample;
        const double sched = schedule[p.idx].at_s;
        s.latency_ms = (SecondsBetween(start, done) - sched) * 1e3;
        s.queue_delay_ms = p.ticket->queue_delay().millis();
        const double cpu0 = ThreadCpuSeconds();
        {
          SpanLog::Scope span(log, "check.TablesEqualUnordered", root.id(), q,
                              c);
          std::string diff;
          const QueryKind kind = s.kind;
          if (!exec::TablesEqualUnordered(
                  *refs[static_cast<std::size_t>(kind)], result->table, 1e-6,
                  &diff)) {
            slot.failure = std::string(workload::QueryKindName(kind)) +
                           " differs from the reference: " + diff;
          } else if (!counts->Observe(kind, CountsOf(result->metrics))) {
            slot.failure = "exact counts changed";
          } else {
            slot.ok = true;
          }
        }
        check_cpu[static_cast<std::size_t>(c)] += ThreadCpuSeconds() - cpu0;
      }
    });
  }

  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = schedule[i];
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.at_s)));
    Slot& slot = slots[i];
    slot.sample.kind = a.kind;
    const Clock::time_point s0 = Clock::now();
    StatusOr<exec::ExecutorRuntime::TicketPtr> ticket = [&] {
      SpanLog::Scope span(log, "runtime.Submit", -1, static_cast<int>(i));
      return runtime.Submit(fleet.placement(a.kind).plan_for_node, {});
    }();
    const Clock::time_point s1 = Clock::now();
    slot.sample.lag_ms = (SecondsBetween(start, s0) - a.at_s) * 1e3;
    slot.sample.submit_us = SecondsBetween(s0, s1) * 1e6;
    if (!ticket.ok()) {
      slot.failure = ticket.status().ToString();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(Pending{i, std::move(ticket).value()});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitting_done = true;
  }
  cv.notify_all();
  for (std::thread& t : collectors) t.join();
  const Clock::time_point end =
      *std::max_element(last_done.begin(), last_done.end());
  const HostSample h1 = SampleHost();
  w.maps_delta = static_cast<double>(MapsCount() - maps0);
  w.rss_kb_delta = ProcStatusKb("self", "VmRSS:") - rss0;

  double cpu_checks = 0.0;
  for (double c : check_cpu) cpu_checks += c;
  w.window_s = SecondsBetween(start, end);
  w.cpu_s = h1.cpu_s - h0.cpu_s - cpu_checks;
  w.ctx_switches = static_cast<double>(h1.ctx_switches - h0.ctx_switches);
  w.minflt = static_cast<double>(h1.minflt - h0.minflt);
  for (Slot& slot : slots) {
    ++w.attempted;
    if (slot.ok) {
      w.samples.push_back(std::move(slot.sample));
    } else {
      w.Fail(slot.failure.empty() ? "query not served" : slot.failure);
    }
  }

  // Joules of the timed queries: their tagged spans rebased onto the
  // window start, so idle gaps between them are billed as well.
  const double offset = SecondsBetween(runtime.epoch(), start);
  const int first_timed = kServeWarmupPerKind *
                          static_cast<int>(spec.kinds.size());
  std::vector<exec::TaggedWorkerSpan> spans;
  for (exec::TaggedWorkerSpan s : runtime.TaggedSpans()) {
    if (s.query < first_timed) continue;
    s.begin = s.begin - Duration::Seconds(offset);
    s.end = s.end - Duration::Seconds(offset);
    spans.push_back(s);
  }
  SpanLog::Scope span(log, "energy.AttributeConcurrent");
  const Clock::time_point a0 = Clock::now();
  const energy::ConcurrentEnergyReport report = energy::AttributeConcurrent(
      spans, PowerModels(p0), runtime.node_workers());
  w.attribution_ms = SecondsBetween(a0, Clock::now()) * 1e3;
  std::printf("# runtime_phase joules_per_query=%.6f (%zu tagged spans)\n",
              report.total.joules() / std::max(1, w.completed()),
              spans.size());
  return w;
}

/// The runtime phase of scan_q1's traced run: a fresh SF 0.002 fleet
/// serving seeded Poisson arrivals through one ExecutorRuntime.
WindowResult RunServePhase(std::uint64_t seed, double seconds, SpanLog* log,
                           CountCheck* counts) {
  const WorkloadSpec& spec = ServePhaseSpec();
  WindowResult w;
  SetupTimes t;
  StatusOr<std::unique_ptr<Fleet>> fleet = BuildFleet(spec, seed, log, &t);
  if (!fleet.ok()) {
    w.attempted = 1;
    w.Fail(fleet.status().ToString());
    return w;
  }
  StatusOr<References> refs = BuildReferences(**fleet, spec.kinds, log);
  if (!refs.ok()) {
    w.attempted = 1;
    w.Fail(refs.status().ToString());
    return w;
  }
  return RunServeWindow(**fleet, spec, *refs, seed, seconds, log, counts);
}

// ---------------------------------------------------------------------------
// Process fleet (shuffle_q3's traced run): the same Q3 plan, data and
// widths with every node its own OS process.

struct ProcessLayer {
  std::vector<double> dispatch_gather_ms;
  std::vector<double> fragment_ms;
  double tx_bytes = 0.0;
  double rx_bytes = 0.0;
  double node_peak_rss_mb = 0.0;
  int attempted = 0;
  int failed = 0;
  std::string first_failure;
};

ProcessLayer RunProcessFleet(const WorkloadSpec& spec, std::uint64_t seed,
                             const storage::Table& reference, SpanLog* log) {
  ProcessLayer out;
  const auto fail = [&out](const std::string& why) {
    ++out.failed;
    if (out.first_failure.empty()) out.first_failure = why;
  };
  StatusOr<cluster::ClusterConfig> config = BenchFleet();
  if (!config.ok()) {
    out.attempted = 1;
    fail(config.status().ToString());
    return out;
  }
  workload::EngineFleetOptions options;
  options.scale_factor = spec.scale_factor;
  options.seed = seed;
  options.repetitions = 1;
  options.process_fleet = true;  // fork now, while single-threaded
  StatusOr<std::unique_ptr<workload::EngineFleet>> fleet = [&] {
    SpanLog::Scope s(log, "workload.EngineFleet.Create");
    return workload::EngineFleet::Create(*config, options);
  }();
  if (!fleet.ok()) {
    out.attempted = 1;
    fail(fleet.status().ToString());
    return out;
  }
  for (int i = 0; i < kProcessWarmup + kProcessQueries; ++i) {
    const bool timed = i >= kProcessWarmup;
    SpanLog::Scope root(log, "process.query", -1, i);
    const Clock::time_point t0 = Clock::now();
    StatusOr<workload::ProcessRun> run = [&] {
      SpanLog::Scope s(log, "workload.EngineFleet.MeasureProcess", root.id(),
                       i);
      return (*fleet)->MeasureProcess(QueryKind::kQ3);
    }();
    const double call_ms = SecondsBetween(t0, Clock::now()) * 1e3;
    if (timed) ++out.attempted;
    if (!run.ok()) {
      fail(run.status().ToString());
      continue;
    }
    SpanLog::Scope s(log, "check.TablesEqualUnordered", root.id(), i);
    std::string diff;
    if (!exec::TablesEqualUnordered(reference, *run->table, 1e-6, &diff)) {
      fail("process-fleet Q3 differs from the reference: " + diff);
      continue;
    }
    if (!timed) continue;
    out.fragment_ms.push_back(run->wall.millis());
    out.dispatch_gather_ms.push_back(call_ms - run->wall.millis());
    out.tx_bytes = run->tx_bytes;
    out.rx_bytes = run->rx_bytes;
  }
  for (const std::string& pid : ChildPids()) {
    out.node_peak_rss_mb = std::max(out.node_peak_rss_mb,
                                    ProcStatusKb(pid, "VmHWM:") / 1024.0);
  }
  return out;  // the fleet's destructor shuts the node processes down
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-32s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Median(const std::vector<double>& xs) { return Pct(xs, 0.5); }

template <typename Fn>
std::vector<double> Collect(const std::vector<QuerySample>& samples, Fn fn) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const QuerySample& s : samples) out.push_back(fn(s));
  return out;
}

std::vector<Metric> EndToEndMetrics(const std::vector<SetupTimes>& setups,
                                    const WindowResult& w) {
  std::vector<double> setup;
  for (const SetupTimes& t : setups) setup.push_back(t.total_s());
  const std::vector<double> lat =
      Collect(w.samples, [](const QuerySample& s) { return s.latency_ms; });
  const double completed = std::max(1, w.completed());
  double joules = 0.0;
  for (const QuerySample& s : w.samples) joules += s.joules;
  return {
      {"setup_s", Median(setup), "s"},
      {"throughput_qps", w.completed() / w.window_s, "1/s"},
      {"latency_p50_ms", Pct(lat, 0.50), "ms"},
      {"latency_p95_ms", Pct(lat, 0.95), "ms"},
      {"joules_per_query", joules / completed, "J"},
      {"cpu_ms_per_query", w.cpu_s * 1e3 / completed, "ms"},
      {"peak_rss_mb", ProcStatusKb("self", "VmHWM:") / 1024.0, "MB"},
  };
}

/// Per-layer metrics of a traced run: the workload's traced window `w`
/// (operator profiling on), its untraced twin for the tracing overhead,
/// and the extra phases (process fleet, runtime) where the workload has
/// one. A layer that does no work on the workload reports 0.
std::vector<Metric> PerLayerMetrics(const std::vector<SetupTimes>& setups,
                                    const WindowResult& untraced,
                                    const WindowResult& w,
                                    const ExactCounts& counts,
                                    const ProcessLayer& proc,
                                    const WindowResult& serve) {
  std::vector<double> dbgen, load, plan, place, faults;
  for (const SetupTimes& t : setups) {
    dbgen.push_back(t.dbgen_s);
    load.push_back(t.load_s);
    plan.push_back(t.plan_s);
    place.push_back(t.place_s);
    faults.push_back(t.minflt);
  }
  const double completed = std::max(1, w.completed());
  const double served = std::max(1, serve.completed());
  const auto mean = [&w](auto fn) { return MeanOf(Collect(w.samples, fn)); };
  const auto p50 = [&w](auto fn) { return Pct(Collect(w.samples, fn), 0.5); };
  const auto serve_pct = [&serve](auto fn, double p) {
    return Pct(Collect(serve.samples, fn), p);
  };
  const auto stage_ms = [&](obs::OpStage st) {
    return mean(
        [st](const QuerySample& s) { return s.op.of(st).seconds * 1e3; });
  };
  const auto latency = [](const QuerySample& s) { return s.latency_ms; };
  const double lat_untraced = Pct(Collect(untraced.samples, latency), 0.5);
  const double lat_traced = p50(latency);
  const auto proc_p50 = [](const std::vector<double>& xs) {
    return Pct(xs, 0.5);
  };
  return {
      {"tpch.dbgen_s", Median(dbgen), "s"},
      {"tpch.plan_s", Median(plan), "s"},
      {"storage.load_s", Median(load), "s"},
      {"host.setup_minor_faults", Median(faults), "count"},
      {"cluster.place_s", Median(place), "s"},
      {"exec.call_ms_p50", lat_traced, "ms"},
      {"exec.pipeline_ms_p50",
       p50([](const QuerySample& s) { return s.pipeline_ms; }), "ms"},
      {"exec.outside_ms_p50",
       p50([](const QuerySample& s) {
         return s.latency_ms - s.pipeline_ms;
       }),
       "ms"},
      {"exec.node_skew", p50([](const QuerySample& s) { return s.skew; }),
       "ratio"},
      {"host.ctx_switches_per_query", w.ctx_switches / completed, "count"},
      {"exec.op.scan_ms", stage_ms(obs::OpStage::kScan), "ms"},
      {"exec.op.filter_ms", stage_ms(obs::OpStage::kFilter), "ms"},
      {"exec.op.project_ms", stage_ms(obs::OpStage::kProject), "ms"},
      {"exec.op.agg_ms", stage_ms(obs::OpStage::kAgg), "ms"},
      {"exec.scan_rows_per_query", counts.scan_rows, "count"},
      {"exec.op.join_build_ms", stage_ms(obs::OpStage::kJoinBuild), "ms"},
      {"exec.op.join_probe_ms", stage_ms(obs::OpStage::kJoinProbe), "ms"},
      {"exec.build_rows_per_query", counts.build_rows, "count"},
      {"exec.probe_rows_per_query", counts.probe_rows, "count"},
      {"host.minor_faults_per_query", w.minflt / completed, "count"},
      {"exec.op.exchange_send_ms", stage_ms(obs::OpStage::kExchangeSend),
       "ms"},
      {"exec.op.exchange_receive_ms",
       stage_ms(obs::OpStage::kExchangeReceive), "ms"},
      {"exec.exchange_wait_ms",
       mean([](const QuerySample& s) { return s.exchange_wait_ms; }), "ms"},
      {"exec.credit_wait_ms",
       mean([](const QuerySample& s) { return s.credit_wait_ms; }), "ms"},
      {"net.shipped_bytes_per_query", counts.shipped_bytes, "B"},
      {"net.dispatch_gather_ms_p50", proc_p50(proc.dispatch_gather_ms), "ms"},
      {"net.fragment_ms_p50", proc_p50(proc.fragment_ms), "ms"},
      {"net.tx_bytes_per_query", proc.tx_bytes, "B"},
      {"net.rx_bytes_per_query", proc.rx_bytes, "B"},
      {"net.node_peak_rss_mb", proc.node_peak_rss_mb, "MB"},
      {"runtime.submit_us_p50",
       serve_pct([](const QuerySample& s) { return s.submit_us; }, 0.5),
       "us"},
      {"runtime.queue_delay_p50_ms",
       serve_pct([](const QuerySample& s) { return s.queue_delay_ms; }, 0.5),
       "ms"},
      {"runtime.queue_delay_p95_ms",
       serve_pct([](const QuerySample& s) { return s.queue_delay_ms; }, 0.95),
       "ms"},
      {"runtime.maps_per_query", serve.maps_delta / served, "count"},
      {"runtime.rss_kb_per_query", serve.rss_kb_delta / served, "KB"},
      {"energy.finish_us_p50",
       p50([](const QuerySample& s) { return s.finish_us; }), "us"},
      {"energy.attribute_ms", serve.attribution_ms, "ms"},
      {"energy.busy_j_per_query",
       mean([](const QuerySample& s) { return s.busy_j; }), "J"},
      {"energy.idle_j_per_query",
       mean([](const QuerySample& s) { return s.idle_j; }), "J"},
      {"energy.network_j_per_query",
       mean([](const QuerySample& s) { return s.network_j; }), "J"},
      {"gen.lag_p95_ms",
       serve_pct([](const QuerySample& s) { return s.lag_ms; }, 0.95), "ms"},
      {"obs.trace_overhead_pct",
       lat_untraced > 0.0 ? (lat_traced / lat_untraced - 1.0) * 100.0 : 0.0,
       "%"},
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out = "eebench-trace.json";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && a.seconds > 0.0 &&
                     a.seconds <= 120.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else if (flag == "--trace_out") {
      a.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return std::nullopt;
  }
  return a;
}

void PrintHeader(const Args& args, const WorkloadSpec& spec,
                 const Fleet& fleet, const std::vector<SetupTimes>& setups) {
  const cluster::EnginePlacement& p = fleet.placement(spec.kinds.front());
  std::string widths;
  for (std::size_t i = 0; i < p.node_workers.size(); ++i) {
    if (i > 0) widths += "+";
    widths += std::to_string(p.node_workers[i]);
  }
  int probe[2];
  const bool tcp = net::MakeSocketStreamPair(/*use_tcp=*/true, probe);
  if (tcp) {
    ::close(probe[0]);
    ::close(probe[1]);
  }
  std::printf("# eebench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%u fleet=%s widths=%s build=%s\n",
              std::thread::hardware_concurrency(),
              fleet.config.Label().c_str(), widths.c_str(),
              EEBENCH_BUILD_TYPE);
  std::printf("# sf=%g lineitem=%zu orders=%zu supplier=%zu nation=%zu\n",
              spec.scale_factor, fleet.db.lineitem->num_rows(),
              fleet.db.orders->num_rows(), fleet.db.supplier->num_rows(),
              fleet.db.nation->num_rows());
  std::printf(
      "# process_fleet_backend=%s warmup_queries>=%d warmup_s>=%g\n",
      tcp ? "tcp" : "af_unix", kClosedWarmup, kClosedWarmupSeconds);
  std::printf("# setup_builds=%zu setup_s:", setups.size());
  for (const SetupTimes& t : setups) std::printf(" %.4f", t.total_s());
  std::printf("\n");
  std::fflush(stdout);
}

void PrintWindowSummary(const char* label, const WindowResult& w) {
  std::printf(
      "# window=%s attempted=%d completed=%d failed=%d failed_share=%g "
      "latency_samples=%d window_s=%.3f\n",
      label, w.attempted, w.completed(), w.failed,
      w.attempted > 0 ? static_cast<double>(w.failed) / w.attempted : 0.0,
      w.completed(), w.window_s);
  if (!w.first_failure.empty()) {
    std::printf("# first failure: %s\n", w.first_failure.c_str());
  }
}

int Main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: eebench --workload <scan_q1|shuffle_q3> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace_out <path>]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> spec = FindWorkload(args->workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "eebench: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }

  SpanLog log;
  log.set_enabled(args->trace);

  // Set-up: several fresh builds, keeping the last.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Fleet> fleet;
  for (int b = 0; b < spec->setup_builds; ++b) {
    fleet.reset();
    SetupTimes t;
    StatusOr<std::unique_ptr<Fleet>> built =
        BuildFleet(*spec, args->seed, &log, &t);
    if (!built.ok()) {
      std::fprintf(stderr, "eebench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    fleet = std::move(built).value();
    setups.push_back(t);
  }
  PrintHeader(*args, *spec, *fleet, setups);

  const QueryKind kind = spec->kinds.front();
  StatusOr<References> refs = BuildReferences(*fleet, spec->kinds, &log);
  if (!refs.ok()) {
    std::fprintf(stderr, "eebench: reference failed: %s\n",
                 refs.status().ToString().c_str());
    return 1;
  }
  const storage::Table& reference = *(*refs)[static_cast<std::size_t>(kind)];

  CountCheck counts;
  // The traced run splits --seconds into an untraced and a traced half.
  const double window = args->trace ? args->seconds / 2.0 : args->seconds;
  const auto run_window = [&](bool traced) {
    const Status warm = WarmClosedLoop(*fleet, kind, reference, traced);
    if (!warm.ok()) {
      WindowResult w;
      w.attempted = 1;
      w.Fail(warm.ToString());
      return w;
    }
    return RunClosedLoop(*fleet, kind, reference, window, traced, &log,
                         &counts);
  };

  log.set_enabled(false);
  // peak_rss_mb covers warm-up and the timed window: the set-up builds'
  // allocator churn and the reference check are not the serving footprint.
  ResetPeakRss();
  const WindowResult untraced = run_window(false);
  PrintWindowSummary(args->trace ? "untraced" : "timed", untraced);
  int attempted = untraced.attempted;
  int failed = untraced.failed;

  if (!args->trace) {
    const bool correct = failed == 0 && counts.mismatches() == 0;
    PrintResult(correct, attempted, failed,
                EndToEndMetrics(setups, untraced));
    return 0;
  }

  log.set_enabled(true);
  const WindowResult traced = run_window(true);
  PrintWindowSummary("traced", traced);
  attempted += traced.attempted;
  failed += traced.failed;
  const ExactCounts exact = counts.first(kind).value_or(ExactCounts{});
  fleet.reset();

  // Layers the closed loop does not reach: the process fleet runs the
  // same Q3 plan (shuffle_q3), the runtime serves a Poisson mix (scan_q1).
  ProcessLayer proc;
  WindowResult serve;
  CountCheck serve_counts;
  if (kind == QueryKind::kQ3) {
    proc = RunProcessFleet(*spec, args->seed, reference, &log);
    std::printf("# process_fleet attempted=%d failed=%d\n", proc.attempted,
                proc.failed);
    if (!proc.first_failure.empty()) {
      std::printf("# first failure: %s\n", proc.first_failure.c_str());
    }
    attempted += proc.attempted;
    failed += proc.failed;
  } else {
    std::printf("# runtime_phase sf=%g rate_qps=%g warmup_queries=%d\n",
                ServePhaseSpec().scale_factor, kServeRateQps,
                kServeWarmupPerKind *
                    static_cast<int>(ServePhaseSpec().kinds.size()));
    serve = RunServePhase(args->seed, window, &log, &serve_counts);
    PrintWindowSummary("runtime_phase", serve);
    attempted += serve.attempted;
    failed += serve.failed;
  }

  obs::TraceRecorder recorder;
  log.ExportTo(&recorder);
  const Status written = obs::WriteChromeTrace(recorder, args->trace_out);
  if (!written.ok()) {
    std::fprintf(stderr, "eebench: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("# trace=%s\n", args->trace_out.c_str());
  log.PrintSelfTimes();
  const bool correct = failed == 0 && counts.mismatches() == 0 &&
                       serve_counts.mismatches() == 0;
  PrintResult(correct, attempted, failed,
              PerLayerMetrics(setups, untraced, traced, exact, proc, serve));
  return 0;
}

}  // namespace
}  // namespace eedc::bench

int main(int argc, char** argv) { return eedc::bench::Main(argc, argv); }
