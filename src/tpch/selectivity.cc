#include "tpch/selectivity.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace eedc::tpch {

using storage::Column;
using storage::DataType;
using storage::Table;

StatusOr<std::int64_t> ThresholdForSelectivity(const Table& table,
                                               const std::string& column,
                                               double fraction) {
  if (fraction < 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("selectivity fraction must be in [0,1]");
  }
  EEDC_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column));
  if (col->type() != DataType::kInt64) {
    return Status::InvalidArgument("selectivity column must be int64");
  }
  if (col->empty()) {
    return Status::FailedPrecondition("selectivity on empty table");
  }
  const auto values = col->int64s();
  if (fraction >= 1.0) {
    return *std::max_element(values.begin(), values.end()) + 1;
  }
  const auto idx = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(values.size())));
  if (idx == 0) {  // nothing (or nearly nothing) passes
    return *std::min_element(values.begin(), values.end());
  }
  // `idx` rows should satisfy `value < threshold`: pick the idx-th order
  // statistic as the threshold (ties may admit a few extra rows; the tests
  // bound the error). nth_element finds it in linear time.
  std::vector<std::int64_t> scratch(values.begin(), values.end());
  const auto nth = scratch.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(idx, scratch.size() - 1));
  std::nth_element(scratch.begin(), nth, scratch.end());
  return *nth;
}

StatusOr<double> AchievedSelectivity(const Table& table,
                                     const std::string& column,
                                     std::int64_t threshold) {
  EEDC_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column));
  if (col->type() != DataType::kInt64) {
    return Status::InvalidArgument("selectivity column must be int64");
  }
  if (col->empty()) return 0.0;
  std::size_t hits = 0;
  for (std::int64_t v : col->int64s()) {
    if (v < threshold) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(col->size());
}

}  // namespace eedc::tpch
