// Golden cell hashes of the generated database and of its hash partitions.
//
// The constants below were recorded from the row-at-a-time generator and
// partitioner (one std::vector<Value> per appended row), so any rewrite of
// dbgen or HashPartition that changes a single cell, the row order or the
// RNG call order fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "storage/partitioner.h"
#include "tpch/dbgen.h"

namespace eedc::tpch {
namespace {

using storage::Column;
using storage::DataType;
using storage::Table;

/// SplitMix64 finalizer, local to this file so the golden values do not
/// depend on any engine hash.
std::uint64_t Avalanche(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  return Avalanche(h ^ Avalanche(v + 0x9e3779b97f4a7c15ULL));
}

/// 64-bit hash over the shape and every cell of `t`, column by column:
/// int64s as they are, doubles by bit pattern, strings by length and bytes.
std::uint64_t CellHash(const Table& t) {
  std::uint64_t h = Mix(t.num_rows(), t.num_columns());
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    h = Mix(h, static_cast<std::uint64_t>(col.type()));
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      switch (col.type()) {
        case DataType::kInt64:
          h = Mix(h, static_cast<std::uint64_t>(col.Int64At(r)));
          break;
        case DataType::kDouble:
          h = Mix(h, std::bit_cast<std::uint64_t>(col.DoubleAt(r)));
          break;
        case DataType::kString: {
          const std::string& s = col.StringAt(r);
          h = Mix(h, s.size());
          for (std::size_t i = 0; i < s.size(); i += 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, s.data() + i,
                        std::min<std::size_t>(8, s.size() - i));
            h = Mix(h, word);
          }
          break;
        }
      }
    }
  }
  return h;
}

TpchDatabase Generate(std::uint64_t seed) {
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  opts.seed = seed;
  return GenerateDatabase(opts);
}

std::uint64_t DatabaseHash(const TpchDatabase& db) {
  std::uint64_t h = 0;
  for (const std::string& name : db.TableNames()) {
    h = Mix(h, CellHash(*db.ByName(name).value()));
  }
  return h;
}

/// The 3-way partitions eebench and EngineFleet load: LINEITEM on
/// l_orderkey and ORDERS on o_custkey.
std::uint64_t PartitionHash(const TpchDatabase& db) {
  std::uint64_t h = 0;
  for (const auto& [table, key] :
       {std::pair{db.lineitem, "l_orderkey"},
        std::pair{db.orders, "o_custkey"}}) {
    auto parts = storage::HashPartition(*table, key, 3);
    EXPECT_TRUE(parts.ok()) << parts.status();
    if (!parts.ok()) return 0;
    for (const Table& part : *parts) h = Mix(h, CellHash(part));
  }
  return h;
}

TEST(DbgenGoldenTest, CellHashesMatchRecordedValues) {
  EXPECT_EQ(DatabaseHash(Generate(1)), 0x310a13855ec64c7fULL);
  EXPECT_EQ(DatabaseHash(Generate(19920101)), 0x101911be11f3315dULL);
}

TEST(DbgenGoldenTest, HashPartitionsMatchRecordedValues) {
  EXPECT_EQ(PartitionHash(Generate(1)), 0xbb952e002d4da0acULL);
  EXPECT_EQ(PartitionHash(Generate(19920101)), 0x14e452ab1ee45f89ULL);
}

}  // namespace
}  // namespace eedc::tpch
