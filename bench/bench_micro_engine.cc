// Microbenchmarks of the P-store engine building blocks (google-benchmark):
// data generation, scans, filters, hash table build/probe, hash
// aggregation, exchange routing, and the full distributed dual-shuffle
// join.
//
// In addition to the registered benchmarks, main() runs two end-to-end
// studies and emits BENCH_micro_engine.json:
//   1. A before/after comparison of the low-selectivity filter→join
//      pipeline: the seed engine's row-at-a-time semantics against the
//      zero-copy vectorized path, asserting bit-identical results.
//   2. A morsel-parallelism worker sweep (W in {1, 2, 4, hw}) of the same
//      pipeline through the executor, asserting bit-identical result
//      tables at every worker count and reporting the W=4 speedup.
// Correctness gates the process exit; the speed ratios are reported but
// non-gating (shared CI runners are too noisy for hard perf thresholds —
// the checked-in rows/sec baseline guards the trajectory instead).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "exec/filter_op.h"
#include "exec/hash_agg_op.h"
#include "exec/hash_join_op.h"
#include "exec/hash_table.h"
#include "exec/reference.h"
#include "exec/scan_op.h"
#include "tpch/dbgen.h"
#include "tpch/selectivity.h"

namespace {

using namespace eedc;

void BM_Dbgen(benchmark::State& state) {
  tpch::DbgenOptions opts;
  opts.scale_factor = 0.001 * state.range(0);
  std::size_t rows = 0;
  for (auto _ : state) {
    auto db = tpch::GenerateDatabase(opts);
    rows = db.lineitem->num_rows();
    benchmark::DoNotOptimize(db.lineitem);
  }
  state.counters["lineitem_rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<std::int64_t>(rows) *
                          state.iterations());
}
BENCHMARK(BM_Dbgen)->Arg(1)->Arg(5);

void BM_HashTableBuild(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    exec::JoinHashTable table;
    table.Reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      table.Insert(i, static_cast<std::uint32_t>(i));
    }
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(n * state.iterations());
}
BENCHMARK(BM_HashTableBuild)->Arg(1 << 14)->Arg(1 << 18);

void BM_HashTableProbe(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  exec::JoinHashTable table;
  table.Reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    table.Insert(i, static_cast<std::uint32_t>(i));
  }
  std::int64_t probe = 0;
  std::uint64_t matches = 0;
  for (auto _ : state) {
    table.ForEachMatch(probe, [&matches](std::uint32_t) { ++matches; });
    probe = (probe + 2654435761) % (2 * n);
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableProbe)->Arg(1 << 14)->Arg(1 << 18);

void BM_HashTableProbeBatch(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  exec::JoinHashTable table;
  table.Reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    table.Insert(i, static_cast<std::uint32_t>(i));
  }
  std::vector<std::int64_t> keys;
  keys.reserve(4096);
  std::int64_t probe = 0;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back(probe);
    probe = (probe + 2654435761) % (2 * n);
  }
  std::vector<exec::JoinHashTable::Match> matches;
  for (auto _ : state) {
    matches.clear();
    table.ProbeBatch(keys, nullptr, keys.size(), &matches);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_HashTableProbeBatch)->Arg(1 << 14)->Arg(1 << 18);

// ---------------------------------------------------------------------------
// Hash aggregation on two TPC-H shapes: Q1 (two 1-byte string keys, 4
// groups, 4 SUMs and a COUNT) and Q3 (three int64 keys, ~20k groups, one
// SUM). main() copies the rows/s into BENCH_micro_engine.json, ungated.
// ---------------------------------------------------------------------------

constexpr std::size_t kHashAggRows = 1 << 18;

storage::TablePtr HashAggInput(bool q3_shape) {
  using storage::DataType;
  using storage::Field;
  auto t = std::make_shared<storage::Table>(
      q3_shape ? storage::Schema({Field{"orderkey", DataType::kInt64, 8},
                                  Field{"orderdate", DataType::kInt64, 8},
                                  Field{"shippriority", DataType::kInt64, 8},
                                  Field{"revenue", DataType::kDouble, 8}})
               : storage::Schema({Field{"returnflag", DataType::kString, 1},
                                  Field{"linestatus", DataType::kString, 1},
                                  Field{"quantity", DataType::kDouble, 8},
                                  Field{"price", DataType::kDouble, 8},
                                  Field{"disc_price", DataType::kDouble, 8},
                                  Field{"charge", DataType::kDouble, 8}}));
  t->Reserve(kHashAggRows);
  for (std::size_t i = 0; i < kHashAggRows; ++i) {
    const double v = static_cast<double>(i % 1000) * 1.5;
    if (q3_shape) {
      // ~13 lines per order over 20k orders, in scattered order.
      const auto order = static_cast<std::int64_t>((i * 7919) % 20000);
      t->AppendRow({order + 1, 700 + order % 2400, std::int64_t{0}, v});
    } else {
      const char* flags[] = {"A", "N", "N", "R"};
      const char* status[] = {"F", "F", "O", "F"};
      const std::size_t g = (i * 2654435761u >> 7) % 4;
      t->AppendRow({std::string(flags[g]), std::string(status[g]), v,
                    v * 2.0, v * 0.9, v * 0.95});
    }
  }
  return t;
}

/// Drains a single-pipeline HashAggOp of the given shape over `input`.
std::size_t RunHashAgg(const storage::TablePtr& input, bool q3_shape) {
  using exec::AggSpec;
  using exec::Col;
  auto agg =
      q3_shape
          ? exec::HashAggOp::Create(
                std::make_unique<exec::ScanOp>(input, nullptr),
                {"orderkey", "orderdate", "shippriority"},
                {AggSpec::Sum(Col("revenue"), "revenue")}, nullptr)
          : exec::HashAggOp::Create(
                std::make_unique<exec::ScanOp>(input, nullptr),
                {"returnflag", "linestatus"},
                {AggSpec::Sum(Col("quantity"), "sum_qty"),
                 AggSpec::Sum(Col("price"), "sum_base_price"),
                 AggSpec::Sum(Col("disc_price"), "sum_disc_price"),
                 AggSpec::Sum(Col("charge"), "sum_charge"),
                 AggSpec::Count("count_order")},
                nullptr);
  EEDC_CHECK(agg.ok()) << agg.status();
  EEDC_CHECK((*agg)->Open().ok());
  auto block = (*agg)->Next();
  EEDC_CHECK(block.ok() && block->has_value());
  EEDC_CHECK((*agg)->Close().ok());
  return (*block)->size();
}

/// Arg 0: the Q1 shape; arg 1: the Q3 shape.
void BM_HashAgg(benchmark::State& state) {
  const bool q3_shape = state.range(0) == 1;
  const storage::TablePtr input = HashAggInput(q3_shape);
  std::size_t groups = 0;
  for (auto _ : state) {
    groups = RunHashAgg(input, q3_shape);
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(static_cast<std::int64_t>(kHashAggRows) *
                          state.iterations());
}
BENCHMARK(BM_HashAgg)->Arg(0)->Arg(1);

/// Forwards every run to the display reporter --benchmark_format picked
/// and keeps BM_HashAgg's rows/s for BENCH_micro_engine.json.
class HashAggCapture : public benchmark::BenchmarkReporter {
 public:
  HashAggCapture(benchmark::BenchmarkReporter* display,
                 bench::BenchJson* json)
      : display_(display), json_(json) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const std::string name = run.benchmark_name();
      const auto rate = run.counters.find("items_per_second");
      if (!name.starts_with("BM_HashAgg/") || rate == run.counters.end()) {
        continue;
      }
      json_->Add(name == "BM_HashAgg/1" ? "hash_agg_q3_rows_per_sec"
                                        : "hash_agg_q1_rows_per_sec",
                 rate->second.value);
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

 private:
  benchmark::BenchmarkReporter* display_;
  bench::BenchJson* json_;
};

tpch::TpchDatabase& SharedDb() {
  static tpch::TpchDatabase db = [] {
    tpch::DbgenOptions opts;
    opts.scale_factor = 0.01;
    return tpch::GenerateDatabase(opts);
  }();
  return db;
}

void BM_ScanFilter(benchmark::State& state) {
  const auto& db = SharedDb();
  exec::ClusterData data(1);
  data.LoadReplicated("lineitem", db.lineitem);
  exec::Executor executor(&data);
  exec::PlanPtr plan = exec::FilterPlan(
      exec::ScanPlan("lineitem"),
      exec::Lt(exec::Col("l_shipdate"), exec::I64(1200)));
  for (auto _ : state) {
    auto result = executor.Execute(plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(db.lineitem->num_rows()) *
      state.iterations());
}
BENCHMARK(BM_ScanFilter);

void BM_DistributedDualShuffleJoin(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const auto& db = SharedDb();
  exec::ClusterData data(nodes);
  benchmark::DoNotOptimize(
      data.LoadHashPartitioned("lineitem", *db.lineitem, "l_shipdate"));
  benchmark::DoNotOptimize(
      data.LoadHashPartitioned("orders", *db.orders, "o_custkey"));
  exec::Executor executor(&data);
  exec::PlanPtr plan = exec::HashJoinPlan(
      exec::ShufflePlan(exec::ScanPlan("orders"), "o_orderkey"),
      exec::ShufflePlan(exec::ScanPlan("lineitem"), "l_orderkey"),
      "o_orderkey", "l_orderkey");
  for (auto _ : state) {
    auto result = executor.Execute(plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(db.lineitem->num_rows()) *
      state.iterations());
}
BENCHMARK(BM_DistributedDualShuffleJoin)->Arg(1)->Arg(2)->Arg(4);

void BM_ReferenceJoin(benchmark::State& state) {
  const auto& db = SharedDb();
  for (auto _ : state) {
    auto result = exec::ReferenceHashJoin(*db.orders, *db.lineitem,
                                          "o_orderkey", "l_orderkey");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(db.lineitem->num_rows()) *
      state.iterations());
}
BENCHMARK(BM_ReferenceJoin);

// ---------------------------------------------------------------------------
// Before/after: low-selectivity filter→join, row-at-a-time vs vectorized.
// ---------------------------------------------------------------------------

using storage::Block;
using storage::Column;
using storage::DataType;
using storage::Table;

/// The seed engine's pipeline, reproduced operation-for-operation: the
/// filter materializes both predicate operand columns and copies each
/// surviving row; the probe walks the chain per row and appends matches
/// row-at-a-time. Kept as the "before" side of the comparison.
Table RowAtATimeFilterJoin(const tpch::TpchDatabase& db,
                           std::int64_t shipdate_cutoff) {
  // Build phase (seed HashJoinOp::Open).
  exec::ScanOp build_scan(db.orders, nullptr);
  Table build_table(db.orders->schema());
  exec::JoinHashTable ht;
  const int bkey = db.orders->schema().IndexOf("o_orderkey").value();
  EEDC_CHECK(build_scan.Open().ok());
  while (true) {
    auto block = build_scan.Next();
    EEDC_CHECK(block.ok());
    if (!block.value().has_value()) break;
    // The seed scan copied each range into a dense block; reproduce that
    // copy by compacting the borrowed scan view.
    block.value()->Compact();
    const Block& b = *block.value();
    const auto keys = b.column(static_cast<std::size_t>(bkey)).int64s();
    const std::size_t base = build_table.num_rows();
    for (std::size_t c = 0; c < b.schema().num_fields(); ++c) {
      build_table.mutable_column(c).AppendRange(b.column(c), 0, b.size());
    }
    build_table.FinishBulkLoad();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ht.Insert(keys[i], static_cast<std::uint32_t>(base + i));
    }
  }
  EEDC_CHECK(build_scan.Close().ok());

  // Probe phase: filter then per-row probe.
  std::vector<storage::Field> out_fields;
  for (const auto& f : db.lineitem->schema().fields()) {
    out_fields.push_back(f);
  }
  for (const auto& f : db.orders->schema().fields()) {
    out_fields.push_back(f);
  }
  Table result((storage::Schema(out_fields)));
  const std::size_t probe_width = db.lineitem->schema().num_fields();
  const int pkey = db.lineitem->schema().IndexOf("l_orderkey").value();
  const int pdate = db.lineitem->schema().IndexOf("l_shipdate").value();
  exec::ScanOp probe_scan(db.lineitem, nullptr);
  EEDC_CHECK(probe_scan.Open().ok());
  while (true) {
    auto block = probe_scan.Next();
    EEDC_CHECK(block.ok());
    if (!block.value().has_value()) break;
    block.value()->Compact();  // seed scans emitted dense copies
    const Block& in = *block.value();
    const std::size_t n = in.size();
    // Seed expression evaluation: materialize the column reference, the
    // constant, and the 0/1 result as fresh columns every block.
    Column lc(DataType::kInt64);
    for (std::size_t i = 0; i < n; ++i) {
      lc.AppendFrom(in.column(static_cast<std::size_t>(pdate)), i);
    }
    Column rc(DataType::kInt64);
    for (std::size_t i = 0; i < n; ++i) rc.AppendInt64(shipdate_cutoff);
    Column sel(DataType::kInt64);
    for (std::size_t i = 0; i < n; ++i) {
      sel.AppendInt64(lc.Int64At(i) < rc.Int64At(i) ? 1 : 0);
    }
    // Seed FilterOp: copy survivors one row at a time.
    Block filtered(in.schema());
    for (std::size_t i = 0; i < n; ++i) {
      if (sel.Int64At(i) != 0) filtered.AppendRowFromBlock(in, i);
    }
    // Seed HashJoinOp::Next: per-row chain walk, per-match row append.
    const auto keys =
        filtered.column(static_cast<std::size_t>(pkey)).int64s();
    Block out(result.schema());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ht.ForEachMatch(keys[i], [&](std::uint32_t build_row) {
        for (std::size_t c = 0; c < probe_width; ++c) {
          out.mutable_column(c).AppendFrom(filtered.column(c), i);
        }
        for (std::size_t c = 0; c < build_table.num_columns(); ++c) {
          out.mutable_column(probe_width + c)
              .AppendFrom(build_table.column(c), build_row);
        }
      });
    }
    out.FinishBulkLoad();
    // Seed root materialization.
    for (std::size_t c = 0; c < out.schema().num_fields(); ++c) {
      result.mutable_column(c).AppendRange(out.column(c), 0, out.size());
    }
    result.FinishBulkLoad();
  }
  EEDC_CHECK(probe_scan.Close().ok());
  return result;
}

/// The current engine: ScanOp→FilterOp (selection vector)→HashJoinOp
/// (batched probe), drained through the root materialization boundary.
Table VectorizedFilterJoin(const tpch::TpchDatabase& db,
                           std::int64_t shipdate_cutoff) {
  auto join = exec::HashJoinOp::Create(
      std::make_unique<exec::ScanOp>(db.orders, nullptr),
      std::make_unique<exec::FilterOp>(
          std::make_unique<exec::ScanOp>(db.lineitem, nullptr),
          exec::Lt(exec::Col("l_shipdate"), exec::I64(shipdate_cutoff)),
          nullptr),
      "o_orderkey", "l_orderkey", exec::HashJoinOp::Options{}, nullptr);
  EEDC_CHECK(join.ok());
  exec::Operator& op = **join;
  EEDC_CHECK(op.Open().ok());
  Table result(op.schema());
  while (true) {
    auto block = op.Next();
    EEDC_CHECK(block.ok());
    if (!block.value().has_value()) break;
    block.value()->AppendLiveRowsTo(&result);
  }
  EEDC_CHECK(op.Close().ok());
  return result;
}

template <typename Fn>
double BestRowsPerSec(Fn&& run, std::size_t rows, int iterations) {
  double best = 0.0;
  for (int it = 0; it < iterations; ++it) {
    const auto start = std::chrono::steady_clock::now();
    Table result = run();
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(result);
    const double secs =
        std::chrono::duration<double>(end - start).count();
    if (secs > 0.0) {
      best = std::max(best, static_cast<double>(rows) / secs);
    }
  }
  return best;
}

/// Returns false when the vectorized result diverges from the
/// row-at-a-time path, so the process (and any CI step running it) fails
/// on a correctness regression. The speedup claim is reported but not
/// gating: shared CI runners are too noisy for a hard perf threshold.
bool RunPipelineComparison(bench::BenchJson* json) {
  const auto& db = SharedDb();
  const double selectivity = 0.05;
  const std::int64_t cutoff =
      tpch::ThresholdForSelectivity(*db.lineitem, "l_shipdate", selectivity)
          .value();
  const std::size_t rows = db.lineitem->num_rows();

  bench::PrintHeader("micro_engine",
                     "zero-copy vectorized filter->join vs the seed "
                     "row-at-a-time pipeline");
  bench::PrintNote(eedc::StrFormat(
      "lineitem rows=%zu, filter selectivity=%.2f (low), join vs full "
      "orders",
      rows, selectivity));

  // Correctness gate first: results must be bit-identical.
  const Table before = RowAtATimeFilterJoin(db, cutoff);
  const Table after = VectorizedFilterJoin(db, cutoff);
  std::string diff;
  const bool identical = exec::TablesEqualUnordered(before, after,
                                                    /*eps=*/0.0, &diff);
  bench::PrintClaim("vectorized results are bit-identical to the "
                    "row-at-a-time path",
                    "identical", identical ? "identical" : diff,
                    identical);

  constexpr int kIterations = 7;
  const double before_rps = BestRowsPerSec(
      [&] { return RowAtATimeFilterJoin(db, cutoff); }, rows, kIterations);
  const double after_rps = BestRowsPerSec(
      [&] { return VectorizedFilterJoin(db, cutoff); }, rows, kIterations);
  const double speedup = before_rps > 0.0 ? after_rps / before_rps : 0.0;
  bench::PrintClaim(
      "selection vectors + batched probes speed up the pipeline >= 1.5x",
      ">= 1.50x",
      eedc::StrFormat("%.2fx (%.3g -> %.3g rows/sec)", speedup, before_rps,
                      after_rps),
      speedup >= 1.5);

  json->Add("lineitem_rows", static_cast<double>(rows));
  json->Add("filter_selectivity", selectivity);
  json->Add("join_output_rows", static_cast<double>(after.num_rows()));
  json->Add("rows_per_sec_row_at_a_time", before_rps);
  json->Add("rows_per_sec_vectorized", after_rps);
  json->Add("speedup", speedup);
  json->Add("results_identical", identical ? 1.0 : 0.0);
  return identical;
}

// ---------------------------------------------------------------------------
// Morsel-parallelism worker sweep: the same low-selectivity filter→join
// pipeline through the executor at W = 1, 2, 4 and hardware concurrency.
// ---------------------------------------------------------------------------

/// A larger instance than SharedDb so the per-morsel work dwarfs the crew
/// startup/merge overhead being measured.
tpch::TpchDatabase& SweepDb() {
  static tpch::TpchDatabase db = [] {
    tpch::DbgenOptions opts;
    opts.scale_factor = 0.05;
    return tpch::GenerateDatabase(opts);
  }();
  return db;
}

Table MorselFilterJoin(exec::Executor& executor, exec::PlanPtr plan) {
  auto result = executor.Execute(std::move(plan));
  EEDC_CHECK(result.ok()) << result.status();
  return std::move(result->table);
}

bool RunWorkerSweep(bench::BenchJson* json) {
  const auto& db = SweepDb();
  const double selectivity = 0.05;
  const std::int64_t cutoff =
      tpch::ThresholdForSelectivity(*db.lineitem, "l_shipdate", selectivity)
          .value();
  const std::size_t rows = db.lineitem->num_rows();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  bench::PrintHeader("micro_engine (worker sweep)",
                     "morsel-driven intra-node parallelism on the "
                     "low-selectivity filter->join pipeline");
  bench::PrintNote(eedc::StrFormat(
      "lineitem rows=%zu, filter selectivity=%.2f, 1 node, hardware "
      "threads=%u",
      rows, selectivity, hw));

  exec::ClusterData data(1);
  data.LoadReplicated("lineitem", db.lineitem);
  data.LoadReplicated("orders", db.orders);
  exec::PlanPtr plan = exec::HashJoinPlan(
      exec::ScanPlan("orders"),
      exec::FilterPlan(exec::ScanPlan("lineitem"),
                       exec::Lt(exec::Col("l_shipdate"), exec::I64(cutoff))),
      "o_orderkey", "l_orderkey");

  std::vector<int> worker_counts = {1, 2, 4};
  if (hw > 4) worker_counts.push_back(static_cast<int>(hw));

  constexpr int kIterations = 5;
  bool all_identical = true;
  double w1_rps = 0.0, w4_rps = 0.0;
  Table w1_result(db.lineitem->schema());  // placeholder; replaced below
  bool have_w1 = false;
  for (const int workers : worker_counts) {
    exec::Executor::Options options;
    options.workers_per_node = workers;
    exec::Executor executor(&data, options);
    Table result = MorselFilterJoin(executor, plan);
    bool identical = true;
    std::string diff;
    if (!have_w1) {
      w1_result = std::move(result);
      have_w1 = true;
    } else {
      identical = exec::TablesEqualUnordered(w1_result, result,
                                             /*eps=*/0.0, &diff);
      bench::PrintClaim(
          eedc::StrFormat("W=%d results are bit-identical to W=1",
                          workers),
          "identical", identical ? "identical" : diff, identical);
      all_identical = all_identical && identical;
    }
    const double rps = BestRowsPerSec(
        [&] { return MorselFilterJoin(executor, plan); }, rows,
        kIterations);
    if (workers == 1) w1_rps = rps;
    if (workers == 4) w4_rps = rps;
    json->Add(eedc::StrFormat("worker_sweep_w%d_rows_per_sec", workers),
              rps);
    bench::PrintNote(eedc::StrFormat("W=%d: %.3g rows/sec", workers, rps));
  }
  const double speedup_w4 = w1_rps > 0.0 ? w4_rps / w1_rps : 0.0;
  // The acceptance target needs >= 4 hardware threads; on smaller hosts
  // the ratio is reported for the record but cannot hold.
  bench::PrintClaim(
      "morsel pipelines reach >= 2x rows/sec at W=4 vs W=1",
      ">= 2.00x",
      eedc::StrFormat(
          "%.2fx (%.3g -> %.3g rows/sec)%s", speedup_w4, w1_rps, w4_rps,
          hw < 4 ? " [fewer than 4 hardware threads; target needs 4]" : ""),
      speedup_w4 >= 2.0 || hw < 4);
  json->Add("worker_sweep_speedup_w4", speedup_w4);
  json->Add("worker_sweep_identical", all_identical ? 1.0 : 0.0);
  json->Add("hardware_threads", static_cast<double>(hw));
  return all_identical;
}

// ---------------------------------------------------------------------------
// Tracing overhead: the instrumentation must be free when disabled.
// ---------------------------------------------------------------------------

/// One executor run of the filter→join pipeline, timed, as rows/sec.
double TimedRun(exec::Executor& executor, const exec::PlanPtr& plan,
                std::size_t rows) {
  const auto start = std::chrono::steady_clock::now();
  auto result = executor.Execute(plan);
  const auto end = std::chrono::steady_clock::now();
  EEDC_CHECK(result.ok()) << result.status();
  benchmark::DoNotOptimize(result);
  const double secs = std::chrono::duration<double>(end - start).count();
  return secs > 0.0 ? static_cast<double>(rows) / secs : 0.0;
}

/// With profiling and tracing disabled the executor builds the exact
/// operator tree an uninstrumented engine would (ProfiledOp is never
/// constructed), so the disabled path is free by construction. CI still
/// measures it: two interleaved tracing-disabled series must agree —
/// a spread above the baseline ceiling means the instrumentation became
/// unconditional, or the pipeline got too small to time. The spread and
/// the profiling-enabled cost are recorded in the JSON; the <2% claim is
/// gated by BASELINE_micro_engine.json (max_metrics), not the exit code,
/// like every other perf number here. When `trace_out` is non-empty a
/// final traced run exports a Chrome trace there.
bool RunTracingOverheadStudy(bench::BenchJson* json,
                             const std::string& trace_out) {
  const auto& db = SweepDb();
  const std::int64_t cutoff =
      tpch::ThresholdForSelectivity(*db.lineitem, "l_shipdate", 0.05)
          .value();
  const std::size_t rows = db.lineitem->num_rows();

  exec::ClusterData data(1);
  data.LoadReplicated("lineitem", db.lineitem);
  data.LoadReplicated("orders", db.orders);
  exec::PlanPtr plan = exec::HashJoinPlan(
      exec::ScanPlan("orders"),
      exec::FilterPlan(exec::ScanPlan("lineitem"),
                       exec::Lt(exec::Col("l_shipdate"), exec::I64(cutoff))),
      "o_orderkey", "l_orderkey");

  bench::PrintHeader("micro_engine (tracing overhead)",
                     "operator profiling and tracing must cost nothing "
                     "when disabled");

  exec::Executor disabled_a(&data);
  exec::Executor disabled_b(&data);
  exec::Executor::Options on_options;
  on_options.profile_operators = true;
  exec::Executor enabled(&data, on_options);

  constexpr int kIterations = 9;
  double best_a = 0.0, best_b = 0.0, best_on = 0.0;
  for (int it = 0; it < kIterations; ++it) {
    best_a = std::max(best_a, TimedRun(disabled_a, plan, rows));
    best_b = std::max(best_b, TimedRun(disabled_b, plan, rows));
    best_on = std::max(best_on, TimedRun(enabled, plan, rows));
  }
  const double disabled_spread_pct =
      best_a > 0.0 ? std::abs(1.0 - best_b / best_a) * 100.0 : 100.0;
  const double enabled_overhead_pct =
      best_a > 0.0 ? (1.0 - best_on / best_a) * 100.0 : 100.0;
  bench::PrintClaim(
      "tracing disabled costs < 2% rows/sec (interleaved best-of-9 "
      "disabled series agree)",
      "< 2%",
      eedc::StrFormat("%.2f%% spread (%.3g vs %.3g rows/sec); profiling "
                      "enabled costs %.1f%% (%.3g rows/sec)",
                      disabled_spread_pct, best_a, best_b,
                      enabled_overhead_pct, best_on),
      disabled_spread_pct < 2.0);
  json->Add("rows_per_sec_tracing_off", best_a);
  json->Add("rows_per_sec_tracing_on", best_on);
  json->Add("tracing_disabled_overhead_pct", disabled_spread_pct);
  json->Add("tracing_enabled_overhead_pct", enabled_overhead_pct);

  if (trace_out.empty()) return true;
  obs::TraceRecorder recorder;
  exec::Executor::Options trace_options;
  trace_options.trace = &recorder;
  exec::Executor traced(&data, trace_options);
  auto result = traced.Execute(plan);
  EEDC_CHECK(result.ok()) << result.status();
  const Status status = obs::WriteChromeTrace(recorder, trace_out);
  if (!status.ok()) {
    bench::PrintNote("trace export failed: " + status.ToString());
    return false;
  }
  bench::PrintNote("wrote " + trace_out +
                   " (load in chrome://tracing or ui.perfetto.dev)");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // When stdout carries a machine-readable report (--benchmark_format=json
  // or csv), keep it parseable by moving the comparison prose to stderr.
  bool machine_stdout = false;
  std::string trace_out;
  int kept_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--trace_out=")) {
      // Ours, not google-benchmark's: strip it before Initialize, which
      // fails the process on flags it does not recognize.
      trace_out = std::string(arg.substr(12));
      continue;
    }
    if (arg.starts_with("--benchmark_format=") &&
        arg != "--benchmark_format=console") {
      machine_stdout = true;
    }
    argv[kept_argc++] = argv[i];
  }
  argc = kept_argc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchJson json("micro_engine");
  {
    std::unique_ptr<benchmark::BenchmarkReporter> display(
        benchmark::CreateDefaultDisplayReporter());
    HashAggCapture capture(display.get(), &json);
    benchmark::RunSpecifiedBenchmarks(&capture);
  }
  benchmark::Shutdown();
  std::streambuf* saved = nullptr;
  if (machine_stdout) saved = std::cout.rdbuf(std::cerr.rdbuf());
  bool ok = RunPipelineComparison(&json);
  ok = RunWorkerSweep(&json) && ok;
  ok = RunTracingOverheadStudy(&json, trace_out) && ok;
  json.WriteFile();
  if (saved != nullptr) std::cout.rdbuf(saved);
  return ok ? 0 : 1;
}
