#ifndef PGIVM_GRAPH_PROPERTY_COLUMNS_H_
#define PGIVM_GRAPH_PROPERTY_COLUMNS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/symbol_table.h"
#include "value/value.h"

namespace pgivm {

/// One property key's values across all elements of one kind (vertices or
/// edges), stored columnar: a packed typed lane (Int64, Double, or packed
/// Bool) indexed by element id with a presence bitmap, plus a sparse
/// `Value` overflow map for values the lane cannot hold.
///
/// Lane typing is adaptive: the column is untyped until the first scalar
/// Int/Double/Bool arrives, then the lane adopts that type for good.
/// Values of any other type (a Double landing in an Int lane, strings,
/// lists, maps) go to the overflow map — so storage never coerces: a value
/// reads back as the exact Value that was written, which the bit-identity
/// harness requires (Value::Compare treats Int(1) == Double(1.0), so a
/// lossy int↔double conversion would be invisible to comparisons but
/// change downstream arithmetic).
///
/// Element ids index the lane directly (ids are dense and never reused);
/// deletions clear the presence bit and leave the slot garbage.
class PropertyColumn {
 public:
  /// The stored value for `id`, or null if absent.
  Value Get(int64_t id) const;

  bool Has(int64_t id) const {
    return PresentTyped(id) || (!overflow_.empty() && overflow_.count(id));
  }

  /// Stores a non-null value, routing to the typed lane when it fits and
  /// the overflow map otherwise.
  void Set(int64_t id, const Value& value);

  /// Removes `id`'s value (no-op if absent).
  void Erase(int64_t id);

  bool empty() const { return typed_count_ == 0 && overflow_.empty(); }

  size_t ApproxMemoryBytes() const;

 private:
  enum class Tag : uint8_t { kUnset, kInt64, kDouble, kBool };

  bool PresentTyped(int64_t id) const {
    size_t word = static_cast<size_t>(id) >> 6;
    return word < present_.size() &&
           (present_[word] >> (static_cast<size_t>(id) & 63)) & 1u;
  }
  void SetPresent(int64_t id);
  void ClearPresent(int64_t id);
  /// Whether `value` can live in the typed lane, adopting a tag for the
  /// first scalar if the column is still untyped.
  bool FitsLane(const Value& value);

  Tag tag_ = Tag::kUnset;
  std::vector<uint64_t> present_;  // bit i set: lane holds id i's value
  std::vector<int64_t> ints_;      // lane when tag_ == kInt64
  std::vector<double> doubles_;    // lane when tag_ == kDouble
  std::vector<uint64_t> bools_;    // packed lane when tag_ == kBool
  std::unordered_map<int64_t, Value> overflow_;
  size_t typed_count_ = 0;
};

/// All properties of one element kind: one PropertyColumn per key symbol,
/// so reads are O(1) array probes and scans touch contiguous lanes. Get
/// returns the exact Value last Set.
class PropertyStore {
 public:
  explicit PropertyStore(const SymbolTable* symbols) : symbols_(symbols) {}

  PropertyStore(const PropertyStore&) = delete;
  PropertyStore& operator=(const PropertyStore&) = delete;

  /// The stored value, or null if absent.
  Value Get(int64_t id, SymbolId key) const;

  bool Has(int64_t id, SymbolId key) const;

  /// Sets `key` for element `id`; a null value erases.
  void Set(int64_t id, SymbolId key, const Value& value);

  /// Drops every property of `id` (element removal).
  void ClearElement(int64_t id);

  /// Materializes `id`'s properties as a name-sorted ValueMap.
  ValueMap Collect(int64_t id) const;

  size_t ApproxMemoryBytes() const;

 private:
  const SymbolTable* symbols_;
  std::vector<PropertyColumn> columns_;  // indexed by SymbolId
};

}  // namespace pgivm

#endif  // PGIVM_GRAPH_PROPERTY_COLUMNS_H_
