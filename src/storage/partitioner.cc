#include "storage/partitioner.h"

#include <limits>

namespace eedc::storage {

std::uint64_t HashKey(std::int64_t key) {
  // SplitMix64 finalizer: strong avalanche so sequential TPC-H keys spread
  // evenly (dbgen keys are dense integers).
  std::uint64_t z = static_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

StatusOr<std::vector<Table>> HashPartition(const Table& table,
                                           const std::string& key_column,
                                           int n) {
  if (n <= 0) return Status::InvalidArgument("HashPartition: n must be > 0");
  EEDC_ASSIGN_OR_RETURN(const Column* key, table.ColumnByName(key_column));
  if (key->type() != DataType::kInt64) {
    return Status::InvalidArgument(
        "HashPartition: key column must be int64");
  }
  if (table.num_rows() > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("HashPartition: too many rows");
  }
  // Each part's row ids in input order, sized exactly by a counting pass,
  // then one gather per column.
  const auto keys = key->int64s();
  std::vector<std::uint32_t> part_of(keys.size());
  std::vector<std::size_t> counts(static_cast<std::size_t>(n), 0);
  for (std::size_t row = 0; row < keys.size(); ++row) {
    part_of[row] = static_cast<std::uint32_t>(PartitionOf(keys[row], n));
    ++counts[part_of[row]];
  }
  std::vector<std::vector<std::uint32_t>> rows(static_cast<std::size_t>(n));
  for (std::size_t p = 0; p < rows.size(); ++p) rows[p].reserve(counts[p]);
  for (std::size_t row = 0; row < keys.size(); ++row) {
    rows[part_of[row]].push_back(static_cast<std::uint32_t>(row));
  }
  std::vector<Table> parts;
  parts.reserve(static_cast<std::size_t>(n));
  for (const std::vector<std::uint32_t>& ids : rows) {
    Table& part = parts.emplace_back(table.schema());
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      part.mutable_column(c).AppendGather(table.column(c), ids);
    }
    part.FinishBulkLoad();
  }
  return parts;
}

std::vector<TablePtr> Replicate(TablePtr table, int n) {
  return std::vector<TablePtr>(static_cast<std::size_t>(n), table);
}

std::vector<Table> RoundRobinPartition(const Table& table, int n) {
  std::vector<Table> parts;
  parts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) parts.emplace_back(table.schema());
  for (auto& p : parts) p.Reserve(table.num_rows() / n + 16);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    parts[row % static_cast<std::size_t>(n)].AppendRowFrom(table, row);
  }
  return parts;
}

}  // namespace eedc::storage
