#ifndef PGIVM_RETE_TUPLE_H_
#define PGIVM_RETE_TUPLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "value/value.h"

namespace pgivm {

/// Immutable row of Values with a cached hash — node memories hold
/// millions of them in large networks, so the layout is kept compact.
///
/// A non-empty tuple is one refcounted heap block: an atomic refcount and
/// a 32-bit width (an 8-byte header), then the Values inline. The handle is
/// the block pointer plus the cached hash, 16 bytes; the empty tuple has no
/// block. Copying a tuple bumps the refcount (atomically, so published
/// epochs may be copied on reader threads) and the last release destroys
/// the Values and frees the block. Every derivation below allocates its
/// block once, at the exact width.
///
/// A moved-from tuple may only be assigned or destroyed.
class Tuple {
 public:
  /// Empty tuple (the Unit relation's single row). Allocates nothing.
  Tuple() = default;

  explicit Tuple(std::vector<Value> values);

  Tuple(const Tuple& other) : block_(other.block_), hash_(other.hash_) {
    Retain(block_);
  }
  Tuple(Tuple&& other) noexcept : block_(other.block_), hash_(other.hash_) {
    other.block_ = nullptr;
  }
  Tuple& operator=(const Tuple& other) {
    Retain(other.block_);  // first, so self-assignment never frees
    Release(block_);
    block_ = other.block_;
    hash_ = other.hash_;
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release(block_);
      block_ = other.block_;
      hash_ = other.hash_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~Tuple() { Release(block_); }

  size_t size() const { return block_ != nullptr ? block_->size : 0; }
  const Value& at(size_t i) const { return block_->values()[i]; }
  const Value* begin() const {
    return block_ != nullptr ? block_->values() : nullptr;
  }
  const Value* end() const {
    return block_ != nullptr ? block_->values() + block_->size : nullptr;
  }

  /// New tuple holding the columns at `indices`, in that order. The result
  /// hash is folded while the columns are gathered — one pass, one
  /// allocation.
  Tuple Project(const std::vector<int>& indices) const;

  /// Hash that Project(indices) would cache, without materializing the
  /// projected tuple — the morsel partition maps call this once per delta
  /// entry, so it must not allocate.
  size_t HashProjected(const std::vector<int>& indices) const;

  /// New tuple: this tuple's columns followed by `suffix`'s. The hash
  /// continues incrementally from this tuple's cached hash (the tuple hash
  /// is a left fold over the column hashes), so this side is not re-hashed.
  Tuple Concat(const Tuple& suffix) const;

  /// New tuple: this tuple's columns followed by `suffix`'s columns at
  /// `indices`, in that order — the join-delivery combination (left row +
  /// right-only columns) as one allocation with an incremental hash,
  /// instead of Concat(suffix.Project(indices))'s two.
  Tuple ConcatProjected(const Tuple& suffix,
                        const std::vector<int>& indices) const;

  /// New tuple with one extra column appended (incremental hash).
  Tuple Append(Value v) const;

  /// New tuple with column `i` replaced.
  Tuple WithColumn(size_t i, Value v) const;

  size_t Hash() const { return hash_; }

  /// Heap-usage estimate of one held copy: the handle, the block header
  /// and every inline Value with its heap payloads. A block shared by
  /// several holders is counted at each of them — an upper bound.
  size_t ApproxMemoryBytes() const;

  std::string ToString() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    if (a.hash_ != b.hash_) return false;
    if (a.block_ == b.block_) return true;
    size_t n = a.size();
    if (n != b.size()) return false;
    for (size_t i = 0; i < n; ++i) {
      if (a.at(i) != b.at(i)) return false;
    }
    return true;
  }

  /// Lexicographic total order (for deterministic snapshots).
  static int Compare(const Tuple& a, const Tuple& b);

 private:
  /// Seed of the tuple hash fold: the hash of a tuple is
  /// fold(kHashSeed, column hashes, HashCombine) — a *left fold*, which is
  /// what lets Concat/Append continue from the prefix's cached hash
  /// instead of re-hashing every column. The empty tuple hashes to it.
  static constexpr size_t kHashSeed = 0x74757065;  // "tupe"

  /// Header of the heap block; `size` Values follow it inline.
  struct Block {
    std::atomic<uint32_t> refs;
    uint32_t size;

    Value* values() { return reinterpret_cast<Value*>(this + 1); }
    const Value* values() const {
      return reinterpret_cast<const Value*>(this + 1);
    }
  };
  static_assert(sizeof(Block) <= 16 && sizeof(Block) % alignof(Value) == 0,
                "Values must follow the block header without padding");

  /// Fills one block of a known width in place (defined in tuple.cc).
  class Builder;

  static void Retain(Block* block) {
    if (block != nullptr) block->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Release(Block* block) {
    if (block != nullptr &&
        block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Destroy(block);
    }
  }
  static void Destroy(Block* block);

  /// Adopts `block` (already holding its one reference). `hash` must be
  /// exactly what hashing its Values from scratch would produce.
  Tuple(Block* block, size_t hash) : block_(block), hash_(hash) {}

  Block* block_ = nullptr;
  size_t hash_ = kHashSeed;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace pgivm

#endif  // PGIVM_RETE_TUPLE_H_
