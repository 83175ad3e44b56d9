#ifndef PGIVM_RETE_TUPLE_MAP_H_
#define PGIVM_RETE_TUPLE_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "rete/tuple.h"

namespace pgivm {

/// Tuple-keyed open-addressing hash table: the one memory structure of the
/// stateful Rete nodes — bags, join / semi-join / anti-join memories and
/// aggregate groups.
///
/// Layout: the entries sit in one dense vector of (key, value) pairs. Past
/// kLinearMax entries a power-of-two index of uint32 slots (dense position
/// + 1; 0 = empty) is added, probed linearly from the key's cached hash.
/// Up to kLinearMax entries there is no index and a lookup scans the dense
/// vector — most per-key bags hold one or two rows. Erasing swaps the last
/// entry into the erased position and frees the slot by backward shift (no
/// tombstones); the storage is released when the table empties.
///
/// Entries move: an insert may reallocate the dense vector and an erase
/// moves the last entry into the hole, so positions, pointers and
/// references into the table are valid only until the next insert or erase.
///
/// Iteration is in dense order, which depends on the operation history.
/// Keys compare with Tuple ==, so equal-but-distinct representations
/// (Int(1), Double(1.0)) are one key and the first inserted one is kept.
template <typename V>
class TupleMap {
 public:
  struct Entry {
    Tuple key;
    V value;
  };

  static constexpr size_t npos = std::numeric_limits<size_t>::max();
  /// Largest size kept without an index.
  static constexpr size_t kLinearMax = 8;

  TupleMap() = default;
  TupleMap(const TupleMap& other) : entries_(other.entries_) {
    if (other.index_ != nullptr) Reindex(other.mask_ + 1);
  }
  TupleMap& operator=(const TupleMap& other) {
    if (this != &other) *this = TupleMap(other);
    return *this;
  }
  TupleMap(TupleMap&& other) noexcept = default;
  TupleMap& operator=(TupleMap&& other) noexcept = default;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + entries_.size(); }
  const Entry& operator[](size_t pos) const { return entries_[pos]; }
  /// Mutable value at `pos` (the key stays fixed).
  V& value(size_t pos) { return entries_[pos].value; }

  /// Position of `key`, or npos.
  size_t Find(const Tuple& key) const {
    if (index_ == nullptr) {
      for (size_t pos = 0; pos < entries_.size(); ++pos) {
        if (entries_[pos].key == key) return pos;
      }
      return npos;
    }
    for (size_t slot = Home(key.Hash());; slot = (slot + 1) & mask_) {
      const uint32_t held = index_[slot];
      if (held == 0) return npos;
      if (entries_[held - 1].key == key) return held - 1;
    }
  }

  /// The value of `key`, or null.
  const V* Get(const Tuple& key) const {
    const size_t pos = Find(key);
    return pos == npos ? nullptr : &entries_[pos].value;
  }

  /// Position of `key`, appending it with a value-initialized V when
  /// absent (one probe either way); the flag says whether it was appended.
  std::pair<size_t, bool> Insert(const Tuple& key) {
    if (index_ == nullptr) {
      const size_t pos = Find(key);
      if (pos != npos) return {pos, false};
      entries_.push_back(Entry{key, V()});
      if (entries_.size() > kLinearMax) Reindex(MinCapacity(entries_.size()));
      return {entries_.size() - 1, true};
    }
    size_t slot = Home(key.Hash());
    for (;; slot = (slot + 1) & mask_) {
      const uint32_t held = index_[slot];
      if (held == 0) break;
      if (entries_[held - 1].key == key) return {held - 1, false};
    }
    assert(entries_.size() < std::numeric_limits<uint32_t>::max());
    entries_.push_back(Entry{key, V()});
    index_[slot] = static_cast<uint32_t>(entries_.size());
    if (entries_.size() * 2 > mask_ + 1) Reindex((mask_ + 1) * 2);
    return {entries_.size() - 1, true};
  }

  /// Erases the entry at `pos`; the last entry moves into its place.
  void EraseAt(size_t pos) {
    assert(pos < entries_.size());
    const size_t last = entries_.size() - 1;
    if (index_ != nullptr) {
      // Backward shift: pull every later entry of the probe run whose home
      // does not lie cyclically in (hole, slot] back into the hole.
      size_t hole = SlotOf(pos);
      for (size_t slot = (hole + 1) & mask_;; slot = (slot + 1) & mask_) {
        const uint32_t held = index_[slot];
        if (held == 0) break;
        const size_t home = Home(entries_[held - 1].key.Hash());
        if (((slot - home) & mask_) >= ((slot - hole) & mask_)) {
          index_[hole] = held;
          hole = slot;
        }
      }
      index_[hole] = 0;
      if (pos != last) index_[SlotOf(last)] = static_cast<uint32_t>(pos + 1);
    }
    if (pos != last) entries_[pos] = std::move(entries_[last]);
    entries_.pop_back();
    if (entries_.empty()) *this = TupleMap();  // release the storage
  }

  /// Heap bytes the table owns: entry and index capacity, plus each key's
  /// tuple block. Never 0 for a non-empty table. Heap payloads of the
  /// values are the caller's to add.
  size_t ApproxMemoryBytes() const {
    size_t bytes = entries_.capacity() * sizeof(Entry);
    if (index_ != nullptr) bytes += (mask_ + 1) * sizeof(uint32_t);
    for (const Entry& entry : entries_) {
      bytes += entry.key.ApproxMemoryBytes() - sizeof(Tuple);
    }
    return bytes;
  }

  /// Slots in the index; 0 while there is none.
  size_t index_capacity() const { return index_ != nullptr ? mask_ + 1 : 0; }

  /// The slot a probe for `hash` starts at in an index of `capacity` slots
  /// (a power of two): Fibonacci scrambling, top bits — the tuple hash fold
  /// leaves its low bits close to the column values.
  static size_t HomeSlot(size_t hash, size_t capacity) {
    return capacity == 1 ? 0 : Scramble(hash) >> (64 - Log2(capacity));
  }

  /// Same keys with equal values, whatever the order.
  friend bool operator==(const TupleMap& a, const TupleMap& b) {
    if (a.size() != b.size()) return false;
    for (const Entry& entry : a) {
      const V* other = b.Get(entry.key);
      if (other == nullptr || !(*other == entry.value)) return false;
    }
    return true;
  }

 private:
  /// Smallest power-of-two index that keeps `size` entries at most half
  /// full.
  static size_t MinCapacity(size_t size) {
    size_t capacity = 16;
    while (capacity < size * 2) capacity *= 2;
    return capacity;
  }

  static uint64_t Scramble(size_t hash) {
    return static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL;
  }
  static int Log2(size_t capacity) {
    int bits = 0;
    while ((size_t{1} << bits) < capacity) ++bits;
    return bits;
  }

  /// HomeSlot in this table's index.
  size_t Home(size_t hash) const {
    return static_cast<size_t>(Scramble(hash) >> shift_);
  }

  /// The slot holding dense position `pos`.
  size_t SlotOf(size_t pos) const {
    const uint32_t wanted = static_cast<uint32_t>(pos + 1);
    size_t slot = Home(entries_[pos].key.Hash());
    while (index_[slot] != wanted) slot = (slot + 1) & mask_;
    return slot;
  }

  /// Rebuilds the index at `capacity` slots (a power of two).
  void Reindex(size_t capacity) {
    index_.reset(new uint32_t[capacity]());
    mask_ = static_cast<uint32_t>(capacity - 1);
    shift_ = static_cast<uint8_t>(64 - Log2(capacity));
    for (size_t pos = 0; pos < entries_.size(); ++pos) {
      size_t slot = Home(entries_[pos].key.Hash());
      while (index_[slot] != 0) slot = (slot + 1) & mask_;
      index_[slot] = static_cast<uint32_t>(pos + 1);
    }
  }

  std::vector<Entry> entries_;
  /// Null while size() <= kLinearMax (and after the table empties).
  std::unique_ptr<uint32_t[]> index_;
  uint32_t mask_ = 0;
  uint8_t shift_ = 0;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_TUPLE_MAP_H_
