// Group table of hash aggregation: group key -> dense group id.
//
// Keys are packed column by column into fixed-width 64-bit words, one word
// per GROUP BY column:
//
//   - int64: the value as is;
//   - double: its bit pattern, so +0.0 and -0.0 stay apart and every NaN
//     folds onto one canonical NaN of its sign;
//   - string: up to 7 bytes inline with the length in the top byte; longer
//     strings become an id into a table-local dictionary (top byte 0xFF).
//
// A whole batch is found-or-inserted in one open-addressing directory
// (linear probing over (hash tag, id) slots), giving a group id per row.
// Ids are handed out in first-seen order, and each group's GROUP BY values
// are kept once, in typed columns indexed by id.
#ifndef EEDC_EXEC_GROUP_TABLE_H_
#define EEDC_EXEC_GROUP_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/column.h"

namespace eedc::exec {

class GroupTable {
 public:
  /// A table over no key columns: every row falls into one group (the
  /// global aggregate).
  GroupTable() : GroupTable(std::vector<storage::DataType>{}) {}
  explicit GroupTable(std::vector<storage::DataType> key_types);

  /// Maps `n` rows of `columns` (one per key column, types as constructed)
  /// to group ids: (*ids)[i] is the group of the row `sel[i]` (nullptr =
  /// row i). A row whose key is new creates the next id and copies its
  /// key values; so new ids appear in row order.
  void FindOrInsert(std::span<const storage::Column* const> columns,
                    const std::uint32_t* sel, std::size_t n,
                    std::vector<std::uint32_t>* ids);

  std::size_t size() const { return size_; }

  /// GROUP BY values: one column per key column, row g = group g.
  const std::vector<storage::Column>& values() const { return values_; }
  /// Moves the values out; the table is spent afterwards.
  std::vector<storage::Column> TakeValues() { return std::move(values_); }

 private:
  /// Packs column `c` of the batch into words_ and folds it into hashes_.
  void PackColumn(std::size_t c, const storage::Column& column,
                  const std::uint32_t* sel, std::size_t n);
  /// Creates the group of `key` in the empty directory slot `slot`.
  std::uint32_t Insert(std::size_t slot, std::uint64_t hash,
                       const std::uint64_t* key,
                       std::span<const storage::Column* const> columns,
                       std::size_t row);
  /// Packs a string longer than 7 bytes: its id in the dictionary,
  /// interned on first sight.
  std::uint64_t LongStringWord(const std::string& s);
  std::uint64_t KeyHash(const std::uint64_t* key) const;
  void Grow();

  std::size_t width_;  // words per key = number of key columns
  std::size_t size_ = 0;
  /// Packed keys, width_ words per group, in id order.
  std::vector<std::uint64_t> keys_;
  /// Directory: (hash >> 32) << 32 | (id + 1); 0 marks an empty slot.
  std::vector<std::uint64_t> slots_;
  std::uint64_t mask_ = 0;
  std::vector<storage::Column> values_;

  /// Strings longer than 7 bytes, one per dictionary id, plus their own
  /// open-addressing directory of id + 1 (0 = empty).
  storage::Column long_strings_{storage::DataType::kString};
  std::vector<std::uint32_t> long_slots_;

  /// Per-batch scratch: packed keys (width_ words per row) and hashes.
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> hashes_;
};

}  // namespace eedc::exec

#endif  // EEDC_EXEC_GROUP_TABLE_H_
