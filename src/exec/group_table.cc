#include "exec/group_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <string_view>

#include "common/check.h"

namespace eedc::exec {

using storage::Column;
using storage::DataType;

namespace {

constexpr std::size_t kMinSlots = 16;
constexpr std::uint64_t kTagMask = 0xFFFFFFFF00000000ULL;
/// Top byte of a packed string word that holds a dictionary id, not bytes.
constexpr std::uint64_t kLongStringTag = 0xFFULL << 56;
constexpr std::size_t kMaxInlineString = 7;
constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

/// SplitMix64 finalizer over (h ^ w): one strong round per key word, so
/// dense int64 keys spread over the low (slot) and high (tag) bits alike.
inline std::uint64_t MixWord(std::uint64_t h, std::uint64_t w) {
  std::uint64_t z = (h ^ w) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The bit pattern, with every NaN folded onto the quiet NaN of its sign.
inline std::uint64_t DoubleWord(double d) {
  constexpr std::uint64_t kSign = 1ULL << 63;
  constexpr std::uint64_t kQuietNaN = 0x7FF8000000000000ULL;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
  return std::isnan(d) ? (bits & kSign) | kQuietNaN : bits;
}

/// Up to 7 bytes, little-endian, under the length in the top byte.
inline std::uint64_t InlineStringWord(const std::string& s) {
  std::uint64_t w = static_cast<std::uint64_t>(s.size()) << 56;
  for (std::size_t b = 0; b < s.size(); ++b) {
    w |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[b]))
         << (8 * b);
  }
  return w;
}

/// Calls fn(i, row) for the n rows of a batch (sel == nullptr: row = i).
template <typename Fn>
inline void ForEachRow(const std::uint32_t* sel, std::size_t n, Fn&& fn) {
  if (sel == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i, i);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i, sel[i]);
  }
}

}  // namespace

GroupTable::GroupTable(std::vector<DataType> key_types)
    : width_(key_types.size()),
      slots_(kMinSlots, 0),
      mask_(kMinSlots - 1) {
  values_.reserve(key_types.size());
  for (const DataType t : key_types) values_.emplace_back(t);
}

void GroupTable::FindOrInsert(std::span<const Column* const> columns,
                              const std::uint32_t* sel, std::size_t n,
                              std::vector<std::uint32_t>* ids) {
  EEDC_DCHECK(columns.size() == width_);
  words_.resize(n * width_);
  hashes_.assign(n, 0);
  for (std::size_t c = 0; c < width_; ++c) {
    PackColumn(c, *columns[c], sel, n);
  }
  ids->resize(n);
  // Row i + k's directory slot is prefetched while row i probes, hiding
  // the cache miss once the directory outgrows L1.
  constexpr std::size_t kPrefetchDistance = 16;
  for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kPrefetchDistance < n) {
      __builtin_prefetch(&slots_[hashes_[i + kPrefetchDistance] & mask_]);
    }
#endif
    const std::uint64_t* key = words_.data() + i * width_;
    const std::uint64_t h = hashes_[i];
    std::size_t s = h & mask_;
    std::uint32_t id = kNoGroup;
    for (std::uint64_t slot; (slot = slots_[s]) != 0; s = (s + 1) & mask_) {
      const auto candidate = static_cast<std::uint32_t>(slot) - 1;
      if ((slot & kTagMask) == (h & kTagMask) &&
          std::equal(key, key + width_, keys_.data() + candidate * width_)) {
        id = candidate;
        break;
      }
    }
    if (id == kNoGroup) {
      id = Insert(s, h, key, columns, sel != nullptr ? sel[i] : i);
    }
    (*ids)[i] = id;
  }
}

std::uint32_t GroupTable::Insert(std::size_t slot, std::uint64_t hash,
                                 const std::uint64_t* key,
                                 std::span<const Column* const> columns,
                                 std::size_t row) {
  const auto id = static_cast<std::uint32_t>(size_++);
  slots_[slot] = (hash & kTagMask) | (id + 1);
  keys_.insert(keys_.end(), key, key + width_);
  for (std::size_t c = 0; c < width_; ++c) {
    values_[c].AppendFrom(*columns[c], row);
  }
  if (size_ * 2 > slots_.size()) Grow();
  return id;
}

void GroupTable::PackColumn(std::size_t c, const Column& column,
                            const std::uint32_t* sel, std::size_t n) {
  std::uint64_t* words = words_.data() + c;
  std::uint64_t* hashes = hashes_.data();
  const std::size_t stride = width_;
  const auto put = [words, hashes, stride](std::size_t i, std::uint64_t w) {
    words[i * stride] = w;
    hashes[i] = MixWord(hashes[i], w);
  };
  switch (column.type()) {
    case DataType::kInt64: {
      const std::int64_t* v = column.int64s().data();
      ForEachRow(sel, n, [&](std::size_t i, std::size_t row) {
        put(i, static_cast<std::uint64_t>(v[row]));
      });
      break;
    }
    case DataType::kDouble: {
      const double* v = column.doubles().data();
      ForEachRow(sel, n, [&](std::size_t i, std::size_t row) {
        put(i, DoubleWord(v[row]));
      });
      break;
    }
    case DataType::kString: {
      const std::string* v = column.strings().data();
      ForEachRow(sel, n, [&](std::size_t i, std::size_t row) {
        const std::string& str = v[row];
        put(i, str.size() <= kMaxInlineString ? InlineStringWord(str)
                                               : LongStringWord(str));
      });
      break;
    }
  }
}

std::uint64_t GroupTable::LongStringWord(const std::string& s) {
  if (long_slots_.empty()) long_slots_.assign(kMinSlots, 0);
  std::size_t mask = long_slots_.size() - 1;
  std::size_t p = std::hash<std::string_view>{}(s) & mask;
  while (long_slots_[p] != 0) {
    const std::uint32_t id = long_slots_[p] - 1;
    if (long_strings_.StringAt(id) == s) return kLongStringTag | id;
    p = (p + 1) & mask;
  }
  const auto id = static_cast<std::uint32_t>(long_strings_.size());
  long_strings_.AppendString(s);
  long_slots_[p] = id + 1;
  if (long_strings_.size() * 2 > long_slots_.size()) {
    long_slots_.assign(long_slots_.size() * 2, 0);
    mask = long_slots_.size() - 1;
    const auto strings = long_strings_.strings();
    for (std::uint32_t j = 0; j < strings.size(); ++j) {
      std::size_t q = std::hash<std::string_view>{}(strings[j]) & mask;
      while (long_slots_[q] != 0) q = (q + 1) & mask;
      long_slots_[q] = j + 1;
    }
  }
  return kLongStringTag | id;
}

std::uint64_t GroupTable::KeyHash(const std::uint64_t* key) const {
  std::uint64_t h = 0;
  for (std::size_t c = 0; c < width_; ++c) h = MixWord(h, key[c]);
  return h;
}

void GroupTable::Grow() {
  slots_.assign(slots_.size() * 2, 0);
  mask_ = slots_.size() - 1;
  for (std::uint32_t id = 0; id < size_; ++id) {
    const std::uint64_t h = KeyHash(keys_.data() + id * width_);
    std::size_t s = h & mask_;
    while (slots_[s] != 0) s = (s + 1) & mask_;
    slots_[s] = (h & kTagMask) | (id + 1);
  }
}

}  // namespace eedc::exec
