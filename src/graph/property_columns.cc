#include "graph/property_columns.h"

#include <cassert>

namespace pgivm {

namespace {

/// Shallow per-value heap estimate for overflow entries (matches the
/// accounting the memory experiments have always used).
size_t ValueShallowBytes(const Value& v) {
  size_t b = sizeof(Value);
  if (v.is_string()) b += v.AsString().size();
  if (v.is_list()) b += v.AsList().size() * sizeof(Value);
  if (v.is_map()) b += v.AsMap().size() * (sizeof(Value) + 16);
  return b;
}

}  // namespace

// ---- PropertyColumn --------------------------------------------------------

Value PropertyColumn::Get(int64_t id) const {
  if (PresentTyped(id)) {
    size_t i = static_cast<size_t>(id);
    switch (tag_) {
      case Tag::kInt64:
        return Value::Int(ints_[i]);
      case Tag::kDouble:
        return Value::Double(doubles_[i]);
      case Tag::kBool:
        return Value::Bool((bools_[i >> 6] >> (i & 63)) & 1u);
      case Tag::kUnset:
        break;  // unreachable: presence implies a tag
    }
  }
  if (!overflow_.empty()) {
    auto it = overflow_.find(id);
    if (it != overflow_.end()) return it->second;
  }
  return Value::Null();
}

void PropertyColumn::SetPresent(int64_t id) {
  size_t word = static_cast<size_t>(id) >> 6;
  if (word >= present_.size()) present_.resize(word + 1, 0);
  uint64_t bit = uint64_t{1} << (static_cast<size_t>(id) & 63);
  if (!(present_[word] & bit)) {
    present_[word] |= bit;
    ++typed_count_;
  }
}

void PropertyColumn::ClearPresent(int64_t id) {
  size_t word = static_cast<size_t>(id) >> 6;
  if (word >= present_.size()) return;
  uint64_t bit = uint64_t{1} << (static_cast<size_t>(id) & 63);
  if (present_[word] & bit) {
    present_[word] &= ~bit;
    --typed_count_;
  }
}

bool PropertyColumn::FitsLane(const Value& value) {
  if (tag_ == Tag::kUnset) {
    if (value.is_int()) {
      tag_ = Tag::kInt64;
    } else if (value.is_double()) {
      tag_ = Tag::kDouble;
    } else if (value.is_bool()) {
      tag_ = Tag::kBool;
    } else {
      return false;
    }
    return true;
  }
  switch (tag_) {
    case Tag::kInt64:
      return value.is_int();
    case Tag::kDouble:
      return value.is_double();
    case Tag::kBool:
      return value.is_bool();
    case Tag::kUnset:
      return false;
  }
  return false;
}

void PropertyColumn::Set(int64_t id, const Value& value) {
  assert(!value.is_null() && "null writes are erases; handled by the store");
  size_t i = static_cast<size_t>(id);
  if (FitsLane(value)) {
    switch (tag_) {
      case Tag::kInt64:
        if (i >= ints_.size()) ints_.resize(i + 1, 0);
        ints_[i] = value.AsInt();
        break;
      case Tag::kDouble:
        if (i >= doubles_.size()) doubles_.resize(i + 1, 0.0);
        doubles_[i] = value.AsDouble();
        break;
      case Tag::kBool: {
        size_t word = i >> 6;
        if (word >= bools_.size()) bools_.resize(word + 1, 0);
        uint64_t bit = uint64_t{1} << (i & 63);
        if (value.AsBool()) {
          bools_[word] |= bit;
        } else {
          bools_[word] &= ~bit;
        }
        break;
      }
      case Tag::kUnset:
        break;  // unreachable: FitsLane adopted a tag
    }
    SetPresent(id);
    if (!overflow_.empty()) overflow_.erase(id);  // value moved into the lane
    return;
  }
  ClearPresent(id);
  overflow_[id] = value;
}

void PropertyColumn::Erase(int64_t id) {
  ClearPresent(id);
  if (!overflow_.empty()) overflow_.erase(id);
}

size_t PropertyColumn::ApproxMemoryBytes() const {
  size_t bytes = present_.capacity() * sizeof(uint64_t) +
                 ints_.capacity() * sizeof(int64_t) +
                 doubles_.capacity() * sizeof(double) +
                 bools_.capacity() * sizeof(uint64_t);
  for (const auto& [id, v] : overflow_) {
    bytes += sizeof(id) + ValueShallowBytes(v) + 16;  // node overhead
  }
  return bytes;
}

// ---- PropertyStore ---------------------------------------------------------

Value PropertyStore::Get(int64_t id, SymbolId key) const {
  if (key >= columns_.size()) return Value::Null();
  return columns_[key].Get(id);
}

bool PropertyStore::Has(int64_t id, SymbolId key) const {
  return key < columns_.size() && columns_[key].Has(id);
}

void PropertyStore::Set(int64_t id, SymbolId key, const Value& value) {
  if (value.is_null()) {
    if (key < columns_.size()) columns_[key].Erase(id);
    return;
  }
  if (key >= columns_.size()) columns_.resize(key + 1);
  columns_[key].Set(id, value);
}

void PropertyStore::ClearElement(int64_t id) {
  for (PropertyColumn& column : columns_) column.Erase(id);
}

ValueMap PropertyStore::Collect(int64_t id) const {
  ValueMap out;
  for (SymbolId key = 0; key < columns_.size(); ++key) {
    if (!columns_[key].Has(id)) continue;
    out.emplace(symbols_->Name(key), columns_[key].Get(id));
  }
  return out;
}

size_t PropertyStore::ApproxMemoryBytes() const {
  size_t bytes = columns_.capacity() * sizeof(PropertyColumn);
  for (const PropertyColumn& column : columns_) {
    bytes += column.ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace pgivm
