#include "exec/hash_agg_op.h"

#include <algorithm>
#include <cstdint>

namespace eedc::exec {

using storage::Block;
using storage::Column;
using storage::DataType;
using storage::Field;
using storage::Schema;

namespace {

using Kind = AggSpec::Kind;

/// Folds value(i) into acc[ids[i]] for every row i of a batch, in row
/// order (COUNT passes 1 for every row). Groups the batch created (ids
/// first_new..groups-1, first seen in that order) start at 0 for SUM and
/// COUNT and at their first row's value for MIN and MAX.
template <typename ValueFn>
void Accumulate(Kind kind, const std::vector<std::uint32_t>& ids,
                std::size_t first_new, std::vector<double>* accum,
                ValueFn value) {
  double* acc = accum->data();
  const std::size_t n = ids.size();
  switch (kind) {
    case Kind::kSum:
    case Kind::kCount:
      for (std::size_t i = 0; i < n; ++i) acc[ids[i]] += value(i);
      return;
    case Kind::kMin:
    case Kind::kMax:
      for (std::size_t i = 0, g = first_new; g < accum->size(); ++i) {
        if (ids[i] == g) acc[g++] = value(i);
      }
      if (kind == Kind::kMin) {
        for (std::size_t i = 0; i < n; ++i) {
          acc[ids[i]] = std::min(acc[ids[i]], value(i));
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          acc[ids[i]] = std::max(acc[ids[i]], value(i));
        }
      }
      return;
  }
}

/// Accumulate over an argument column: row i's value is col[sel[i]]
/// (sel == nullptr: col[i]), int64s converted to double.
void AccumulateColumn(Kind kind, const std::vector<std::uint32_t>& ids,
                      std::size_t first_new, std::vector<double>* accum,
                      const Column& col, const std::uint32_t* sel) {
  const auto run = [&](auto value_at) {
    if (sel == nullptr) {
      Accumulate(kind, ids, first_new, accum, value_at);
    } else {
      Accumulate(kind, ids, first_new, accum,
                 [&](std::size_t i) { return value_at(sel[i]); });
    }
  };
  if (col.type() == DataType::kDouble) {
    const double* v = col.doubles().data();
    run([v](std::size_t r) { return v[r]; });
  } else {
    const std::int64_t* v = col.int64s().data();
    run([v](std::size_t r) { return static_cast<double>(v[r]); });
  }
}

/// Folds a partial's accumulator column `src` (its group j is merged group
/// ids[j]) into `accum`. A group the partial created (id >= first_new)
/// takes src's value as is; others combine with it.
void Combine(Kind kind, const std::vector<std::uint32_t>& ids,
             std::size_t first_new, const std::vector<double>& src,
             std::vector<double>* accum) {
  double* acc = accum->data();
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const std::uint32_t g = ids[j];
    const double v = src[j];
    if (g >= first_new) {
      acc[g] = v;
      continue;
    }
    switch (kind) {
      case Kind::kSum:
      case Kind::kCount:
        acc[g] += v;
        break;
      case Kind::kMin:
        acc[g] = std::min(acc[g], v);
        break;
      case Kind::kMax:
        acc[g] = std::max(acc[g], v);
        break;
    }
  }
}

}  // namespace

StatusOr<OperatorPtr> HashAggOp::Create(OperatorPtr child,
                                        std::vector<std::string> group_by,
                                        std::vector<AggSpec> aggs,
                                        NodeMetrics* metrics,
                                        AggMergeShared* shared,
                                        int worker_id) {
  const Schema& in = child->schema();
  std::vector<int> group_idx;
  std::vector<Field> fields;
  for (const auto& g : group_by) {
    EEDC_ASSIGN_OR_RETURN(int idx, in.IndexOf(g));
    group_idx.push_back(idx);
    fields.push_back(in.field(static_cast<std::size_t>(idx)));
  }
  for (const auto& a : aggs) {
    if (a.kind == AggSpec::Kind::kCount) {
      fields.push_back(Field{a.name, DataType::kInt64, 0.0});
      continue;
    }
    if (a.arg == nullptr) {
      return Status::InvalidArgument("aggregate requires an argument");
    }
    EEDC_ASSIGN_OR_RETURN(DataType t, a.arg->ResultType(in));
    if (t == DataType::kString) {
      return Status::InvalidArgument("cannot aggregate string expression");
    }
    fields.push_back(Field{a.name, DataType::kDouble, 0.0});
  }
  Schema schema{std::move(fields)};
  return OperatorPtr(new HashAggOp(std::move(child), std::move(group_idx),
                                   std::move(aggs), std::move(schema),
                                   metrics, shared, worker_id));
}

HashAggOp::HashAggOp(OperatorPtr child, std::vector<int> group_idx,
                     std::vector<AggSpec> aggs, Schema schema,
                     NodeMetrics* metrics, AggMergeShared* shared,
                     int worker_id)
    : child_(std::move(child)),
      group_idx_(std::move(group_idx)),
      aggs_(std::move(aggs)),
      schema_(std::move(schema)),
      metrics_(metrics),
      shared_(shared),
      worker_id_(worker_id) {}

AggPartial HashAggOp::NewPartial() const {
  std::vector<DataType> key_types;
  for (std::size_t k = 0; k < group_idx_.size(); ++k) {
    key_types.push_back(schema_.field(k).type);
  }
  return AggPartial{GroupTable(std::move(key_types)),
                    std::vector<std::vector<double>>(aggs_.size())};
}

Status HashAggOp::Drain() {
  local_ = NewPartial();
  EEDC_RETURN_IF_ERROR(child_->Open());
  const Schema& in = child_->schema();
  // Scratch columns for arguments that are not plain column references,
  // reused across blocks (COUNT and direct columns leave theirs empty).
  std::vector<Column> args;
  args.reserve(aggs_.size());
  for (const auto& a : aggs_) {
    if (a.arg == nullptr) {
      args.emplace_back(DataType::kInt64);
    } else {
      EEDC_ASSIGN_OR_RETURN(DataType t, a.arg->ResultType(in));
      args.emplace_back(t);
    }
  }
  std::vector<const Column*> keys(group_idx_.size());
  std::vector<std::uint32_t> ids;
  while (true) {
    EEDC_ASSIGN_OR_RETURN(std::optional<Block> block, child_->Next());
    if (!block.has_value()) break;
    const std::size_t n = block->size();
    const std::uint32_t* sel = block->selection_data();
    for (std::size_t k = 0; k < keys.size(); ++k) {
      keys[k] = &block->column(static_cast<std::size_t>(group_idx_[k]));
    }
    const std::size_t first_new = local_.groups.size();
    local_.groups.FindOrInsert(keys, sel, n, &ids);
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      std::vector<double>& acc = local_.accum[a];
      acc.resize(local_.groups.size(), 0.0);
      if (spec.kind == AggSpec::Kind::kCount) {
        Accumulate(spec.kind, ids, first_new, &acc,
                   [](std::size_t) { return 1.0; });
        continue;
      }
      // A plain column reference is read in place through the selection;
      // any other argument is evaluated densely over the live rows.
      if (const Column* direct = spec.arg->DirectColumn(block->AsTable())) {
        AccumulateColumn(spec.kind, ids, first_new, &acc, *direct, sel);
        continue;
      }
      args[a].Clear();
      args[a].Reserve(n);
      EEDC_RETURN_IF_ERROR(
          spec.arg->Eval(block->AsTable(), sel, n, &args[a]));
      AccumulateColumn(spec.kind, ids, first_new, &acc, args[a], nullptr);
    }
    if (metrics_ != nullptr) {
      metrics_->agg_rows_in += static_cast<double>(n);
      metrics_->cpu_bytes += block->LogicalBytes();
    }
  }
  if (metrics_ != nullptr && shared_ == nullptr) {
    // In shared mode the merged count is recorded by the barrier leader.
    metrics_->agg_groups += static_cast<double>(local_.groups.size());
  }
  return child_->Close();
}

void HashAggOp::MergePartials() {
  AggPartial& merged = shared_->merged;
  merged = NewPartial();
  std::vector<const Column*> keys(group_idx_.size());
  std::vector<std::uint32_t> ids;
  for (AggPartial& partial : shared_->partials) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      keys[k] = &partial.groups.values()[k];
    }
    const std::size_t first_new = merged.groups.size();
    merged.groups.FindOrInsert(keys, nullptr, partial.groups.size(), &ids);
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      merged.accum[a].resize(merged.groups.size());
      Combine(aggs_[a].kind, ids, first_new, partial.accum[a],
              &merged.accum[a]);
    }
    partial = AggPartial{};  // release; the merged copy supersedes it
  }
  if (metrics_ != nullptr) {
    metrics_->agg_groups += static_cast<double>(merged.groups.size());
  }
}

Status HashAggOp::Open() {
  Status st = Drain();
  if (shared_ == nullptr) {
    emitted_ = false;
    return st;
  }
  if (st.ok()) {
    shared_->partials[static_cast<std::size_t>(worker_id_)] =
        std::move(local_);
    local_ = AggPartial{};
  }
  // Rendezvous with the peer pipeline instances — arrive even on failure
  // so peers unblock with the error instead of waiting forever.
  EEDC_RETURN_IF_ERROR(shared_->barrier.ArriveAndMerge(
      std::move(st), [this] {
        MergePartials();
        return Status::OK();
      }));
  emitted_ = false;
  return Status::OK();
}

StatusOr<std::optional<Block>> HashAggOp::Next() {
  if (emitted_) return std::optional<Block>();
  emitted_ = true;
  // In shared mode the merged result is emitted once, by worker 0.
  if (shared_ != nullptr && worker_id_ != 0) return std::optional<Block>();
  AggPartial& src = shared_ != nullptr ? shared_->merged : local_;
  // For a global aggregate (no GROUP BY) with no input rows, SQL semantics
  // still produce one row (SUM = 0 here, COUNT = 0).
  const std::size_t rows =
      src.groups.size() == 0 && group_idx_.empty() ? 1 : src.groups.size();
  Block out(schema_, std::max<std::size_t>(rows, 1));
  std::vector<Column> keys = src.groups.TakeValues();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    out.mutable_column(k) = std::move(keys[k]);
  }
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    Column& col = out.mutable_column(keys.size() + a);
    std::vector<double>& acc = src.accum[a];
    acc.resize(rows, 0.0);
    if (aggs_[a].kind == AggSpec::Kind::kCount) {
      for (const double v : acc) {
        col.AppendInt64(static_cast<std::int64_t>(v));
      }
    } else {
      for (const double v : acc) col.AppendDouble(v);
    }
  }
  out.FinishBulkLoad();
  src = AggPartial{};
  return std::optional<Block>(std::move(out));
}

Status HashAggOp::Close() { return Status::OK(); }

}  // namespace eedc::exec
