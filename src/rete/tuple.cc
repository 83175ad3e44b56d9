#include "rete/tuple.h"

#include <cassert>
#include <limits>
#include <new>
#include <sstream>
#include <utility>

#include "support/string_util.h"

namespace pgivm {

/// Allocates one block of `width` Values and constructs them in place,
/// in order. Only the Values added so far are destroyed if the block is
/// abandoned before Finish.
class Tuple::Builder {
 public:
  explicit Builder(size_t width) {
    assert(width <= std::numeric_limits<uint32_t>::max());
    void* raw = ::operator new(sizeof(Block) + width * sizeof(Value));
    block_ = new (raw) Block;
    block_->refs.store(1, std::memory_order_relaxed);
    block_->size = 0;
  }
  Builder(const Builder&) = delete;
  Builder& operator=(const Builder&) = delete;
  ~Builder() {
    if (block_ != nullptr) Destroy(block_);
  }

  template <typename V>
  void Add(V&& v) {
    new (block_->values() + block_->size) Value(std::forward<V>(v));
    ++block_->size;
  }
  void AddAll(const Tuple& t) {
    for (const Value& v : t) Add(v);
  }
  const Value& back() const { return block_->values()[block_->size - 1]; }

  /// Hands the block to a Tuple; `hash` must be what hashing the added
  /// Values from scratch would produce.
  Tuple Finish(size_t hash) {
    Block* block = block_;
    block_ = nullptr;
    return Tuple(block, hash);
  }

 private:
  Block* block_;
};

void Tuple::Destroy(Block* block) {
  Value* values = block->values();
  for (uint32_t i = 0; i < block->size; ++i) values[i].~Value();
  block->~Block();
  ::operator delete(block);
}

Tuple::Tuple(std::vector<Value> values) {
  if (values.empty()) return;
  Builder out(values.size());
  size_t hash = kHashSeed;
  for (Value& v : values) {
    HashCombine(hash, v.Hash());
    out.Add(std::move(v));
  }
  *this = out.Finish(hash);
}

Tuple Tuple::Project(const std::vector<int>& indices) const {
  if (indices.empty()) return Tuple();
  Builder out(indices.size());
  size_t hash = kHashSeed;
  for (int i : indices) {
    const Value& v = at(static_cast<size_t>(i));
    HashCombine(hash, v.Hash());
    out.Add(v);
  }
  return out.Finish(hash);
}

size_t Tuple::HashProjected(const std::vector<int>& indices) const {
  size_t hash = kHashSeed;
  for (int i : indices) HashCombine(hash, at(static_cast<size_t>(i)).Hash());
  return hash;
}

Tuple Tuple::Concat(const Tuple& suffix) const {
  if (suffix.size() == 0) return *this;
  Builder out(size() + suffix.size());
  out.AddAll(*this);
  size_t hash = hash_;
  for (const Value& v : suffix) {
    HashCombine(hash, v.Hash());
    out.Add(v);
  }
  return out.Finish(hash);
}

Tuple Tuple::ConcatProjected(const Tuple& suffix,
                             const std::vector<int>& indices) const {
  if (indices.empty()) return *this;
  Builder out(size() + indices.size());
  out.AddAll(*this);
  size_t hash = hash_;
  for (int i : indices) {
    const Value& v = suffix.at(static_cast<size_t>(i));
    HashCombine(hash, v.Hash());
    out.Add(v);
  }
  return out.Finish(hash);
}

Tuple Tuple::Append(Value v) const {
  Builder out(size() + 1);
  out.AddAll(*this);
  size_t hash = hash_;
  HashCombine(hash, v.Hash());
  out.Add(std::move(v));
  return out.Finish(hash);
}

Tuple Tuple::WithColumn(size_t i, Value v) const {
  assert(i < size());
  Builder out(size());
  size_t hash = kHashSeed;
  for (size_t c = 0; c < size(); ++c) {
    if (c == i) {
      out.Add(std::move(v));
    } else {
      out.Add(at(c));
    }
    HashCombine(hash, out.back().Hash());
  }
  return out.Finish(hash);
}

size_t Tuple::ApproxMemoryBytes() const {
  size_t bytes = sizeof(Tuple);
  if (block_ == nullptr) return bytes;
  bytes += sizeof(Block);
  for (const Value& v : *this) bytes += v.ApproxMemoryBytes();
  return bytes;
}

std::string Tuple::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) os << ", ";
    os << at(i).ToString();
  }
  os << ")";
  return os.str();
}

int Tuple::Compare(const Tuple& a, const Tuple& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = Value::Compare(a.at(i), b.at(i));
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

}  // namespace pgivm
