// Naive single-threaded reference implementations and table-comparison
// helpers, used by the test suite to validate the distributed engine. The
// implementations here deliberately share no code with the operators: joins
// use std::unordered_multimap, filters take row-wise callbacks.
#ifndef EEDC_EXEC_REFERENCE_H_
#define EEDC_EXEC_REFERENCE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "storage/table.h"

namespace eedc::exec {

/// Row-wise predicate: true keeps the row.
using RowPredicate =
    std::function<bool(const storage::Table&, std::size_t row)>;

/// Filters with a row-wise callback.
storage::Table ReferenceFilter(const storage::Table& input,
                               const RowPredicate& keep);

/// Inner equi-join on int64 keys; output = probe columns ++ build columns
/// (matching HashJoinOp's output layout).
StatusOr<storage::Table> ReferenceHashJoin(const storage::Table& build,
                                           const storage::Table& probe,
                                           const std::string& build_key,
                                           const std::string& probe_key);

/// SUM(value_col) grouped by group_cols; output = group cols ++ sum (double)
/// ++ count (int64).
StatusOr<storage::Table> ReferenceSumBy(
    const storage::Table& input, const std::vector<std::string>& group_cols,
    const std::string& value_col);

/// Compares tables as unordered multisets of rows. Both sides are sorted
/// with a typed comparator (int64s and strings exactly, doubles by value)
/// and compared row by row, doubles with relative tolerance `eps`. On
/// mismatch returns false and, if `diff` is non-null, a human-readable
/// reason.
bool TablesEqualUnordered(const storage::Table& a, const storage::Table& b,
                          double eps, std::string* diff);

}  // namespace eedc::exec

#endif  // EEDC_EXEC_REFERENCE_H_
