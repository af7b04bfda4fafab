#include "exec/reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "common/str_util.h"

namespace eedc::exec {

using storage::Column;
using storage::DataType;
using storage::Field;
using storage::Schema;
using storage::Table;

Table ReferenceFilter(const Table& input, const RowPredicate& keep) {
  Table out(input.schema());
  for (std::size_t i = 0; i < input.num_rows(); ++i) {
    if (keep(input, i)) out.AppendRowFrom(input, i);
  }
  return out;
}

StatusOr<Table> ReferenceHashJoin(const Table& build, const Table& probe,
                                  const std::string& build_key,
                                  const std::string& probe_key) {
  EEDC_ASSIGN_OR_RETURN(const Column* bkey, build.ColumnByName(build_key));
  EEDC_ASSIGN_OR_RETURN(const Column* pkey, probe.ColumnByName(probe_key));
  if (bkey->type() != DataType::kInt64 ||
      pkey->type() != DataType::kInt64) {
    return Status::InvalidArgument("reference join keys must be int64");
  }
  std::vector<Field> fields;
  for (const auto& f : probe.schema().fields()) fields.push_back(f);
  for (const auto& f : build.schema().fields()) fields.push_back(f);
  Table out{Schema(std::move(fields))};

  std::unordered_multimap<std::int64_t, std::size_t> index;
  index.reserve(build.num_rows());
  for (std::size_t i = 0; i < build.num_rows(); ++i) {
    index.emplace(bkey->Int64At(i), i);
  }
  for (std::size_t p = 0; p < probe.num_rows(); ++p) {
    auto [lo, hi] = index.equal_range(pkey->Int64At(p));
    for (auto it = lo; it != hi; ++it) {
      const std::size_t b = it->second;
      std::size_t c = 0;
      for (std::size_t pc = 0; pc < probe.num_columns(); ++pc, ++c) {
        out.mutable_column(c).AppendFrom(probe.column(pc), p);
      }
      for (std::size_t bc = 0; bc < build.num_columns(); ++bc, ++c) {
        out.mutable_column(c).AppendFrom(build.column(bc), b);
      }
    }
  }
  out.FinishBulkLoad();
  return out;
}

StatusOr<Table> ReferenceSumBy(const Table& input,
                               const std::vector<std::string>& group_cols,
                               const std::string& value_col) {
  EEDC_ASSIGN_OR_RETURN(const Column* val, input.ColumnByName(value_col));
  std::vector<const Column*> groups;
  std::vector<Field> fields;
  for (const auto& g : group_cols) {
    EEDC_ASSIGN_OR_RETURN(const Column* c, input.ColumnByName(g));
    groups.push_back(c);
    EEDC_ASSIGN_OR_RETURN(int idx, input.schema().IndexOf(g));
    fields.push_back(input.schema().field(static_cast<std::size_t>(idx)));
  }
  fields.push_back(Field{"sum", DataType::kDouble, 0.0});
  fields.push_back(Field{"count", DataType::kInt64, 0.0});

  // std::map keyed by the serialized group => deterministic output order.
  std::map<std::string, std::pair<double, std::int64_t>> accum;
  std::map<std::string, std::size_t> first_row;
  for (std::size_t i = 0; i < input.num_rows(); ++i) {
    std::string key;
    for (const Column* g : groups) {
      switch (g->type()) {
        case DataType::kInt64:
          key += StrFormat("i%lld|",
                           static_cast<long long>(g->Int64At(i)));
          break;
        case DataType::kDouble:
          key += StrFormat("d%.17g|", g->DoubleAt(i));
          break;
        case DataType::kString:
          key += "s" + g->StringAt(i) + "|";
          break;
      }
    }
    const double v = val->type() == DataType::kInt64
                         ? static_cast<double>(val->Int64At(i))
                         : val->DoubleAt(i);
    auto [it, inserted] = accum.emplace(key, std::make_pair(0.0, 0));
    if (inserted) first_row.emplace(key, i);
    it->second.first += v;
    it->second.second += 1;
  }

  Table out{Schema(std::move(fields))};
  for (const auto& [key, sums] : accum) {
    const std::size_t row = first_row[key];
    std::size_t c = 0;
    for (const Column* g : groups) {
      out.mutable_column(c++).AppendFrom(*g, row);
    }
    out.mutable_column(c++).AppendDouble(sums.first);
    out.mutable_column(c++).AppendInt64(sums.second);
  }
  out.FinishBulkLoad();
  return out;
}

namespace {

/// Three-way compare of rows x and y of one column: int64s and strings
/// exactly, doubles by value with every NaN after every number.
int CompareCells(const Column& col, std::size_t x, std::size_t y) {
  switch (col.type()) {
    case DataType::kInt64: {
      const std::int64_t a = col.Int64At(x), b = col.Int64At(y);
      return (a > b) - (a < b);
    }
    case DataType::kDouble: {
      const double a = col.DoubleAt(x), b = col.DoubleAt(y);
      if (std::isnan(a) || std::isnan(b)) {
        return static_cast<int>(std::isnan(a)) -
               static_cast<int>(std::isnan(b));
      }
      return (a > b) - (a < b);
    }
    case DataType::kString: {
      const int r = col.StringAt(x).compare(col.StringAt(y));
      return (r > 0) - (r < 0);
    }
  }
  return 0;
}

/// Row ids of `t` sorted lexicographically by CompareCells, column by
/// column.
std::vector<std::size_t> SortedRows(const Table& t) {
  std::vector<const Column*> columns;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    columns.push_back(&t.column(c));
  }
  std::vector<std::size_t> rows(t.num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::sort(rows.begin(), rows.end(),
            [&columns](std::size_t x, std::size_t y) {
              for (const Column* col : columns) {
                const int r = CompareCells(*col, x, y);
                if (r != 0) return r < 0;
              }
              return false;
            });
  return rows;
}

}  // namespace

bool TablesEqualUnordered(const Table& a, const Table& b, double eps,
                          std::string* diff) {
  if (a.num_columns() != b.num_columns()) {
    if (diff) {
      *diff = StrFormat("column count %zu vs %zu", a.num_columns(),
                        b.num_columns());
    }
    return false;
  }
  if (a.num_rows() != b.num_rows()) {
    if (diff) {
      *diff = StrFormat("row count %zu vs %zu", a.num_rows(), b.num_rows());
    }
    return false;
  }
  for (std::size_t c = 0; c < a.num_columns(); ++c) {
    if (a.column(c).type() != b.column(c).type()) {
      if (diff) *diff = StrFormat("column %zu type mismatch", c);
      return false;
    }
  }

  // Sort both tables' rows with a typed comparator, then compare pairwise
  // with numeric tolerance for doubles.
  const std::vector<std::size_t> ia = SortedRows(a);
  const std::vector<std::size_t> ib = SortedRows(b);

  for (std::size_t i = 0; i < ia.size(); ++i) {
    const std::size_t ra = ia[i], rb = ib[i];
    for (std::size_t c = 0; c < a.num_columns(); ++c) {
      const Column& ca = a.column(c);
      const Column& cb = b.column(c);
      bool equal = true;
      switch (ca.type()) {
        case DataType::kInt64:
          equal = ca.Int64At(ra) == cb.Int64At(rb);
          break;
        case DataType::kDouble: {
          const double x = ca.DoubleAt(ra), y = cb.DoubleAt(rb);
          const double scale = std::max({std::abs(x), std::abs(y), 1.0});
          equal = std::abs(x - y) <= eps * scale;
          break;
        }
        case DataType::kString:
          equal = ca.StringAt(ra) == cb.StringAt(rb);
          break;
      }
      if (!equal) {
        if (diff) {
          *diff = StrFormat(
              "sorted row %zu column %zu differs (a-row %zu vs b-row %zu)",
              i, c, ra, rb);
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace eedc::exec
