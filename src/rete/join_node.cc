#include "rete/join_node.h"

#include "support/string_util.h"

namespace pgivm {

JoinLayout JoinLayout::Make(const Schema& left, const Schema& right) {
  JoinLayout layout;
  for (size_t i = 0; i < left.size(); ++i) {
    int r = right.IndexOf(left.at(i).name);
    if (r >= 0) {
      layout.left_key.push_back(static_cast<int>(i));
      layout.right_key.push_back(r);
    }
  }
  for (size_t i = 0; i < right.size(); ++i) {
    if (!left.Contains(right.at(i).name)) {
      layout.right_rest.push_back(static_cast<int>(i));
    }
  }
  return layout;
}

void ApplyToKeyedMemory(KeyedMemory& memory, const Tuple& key,
                        const Tuple& tuple, int64_t multiplicity) {
  const size_t pos = memory.Insert(key).first;
  Bag& bag = memory.value(pos);
  bag.Apply(tuple, multiplicity);
  if (bag.total_count() == 0) memory.EraseAt(pos);
}

size_t KeyedMemoryBytes(const KeyedMemory& memory) {
  size_t bytes = memory.ApproxMemoryBytes();
  for (const auto& [key, bag] : memory) bytes += bag.ApproxMemoryBytes();
  return bytes;
}

JoinNode::JoinNode(Schema schema, const Schema& left, const Schema& right)
    : ReteNode(std::move(schema)), layout_(JoinLayout::Make(left, right)) {}

Tuple JoinNode::Combine(const Tuple& left, const Tuple& right) const {
  return left.ConcatProjected(right, layout_.right_rest);
}

void JoinNode::OnDelta(int port, const Delta& delta, Delta& out) {
  for (const DeltaEntry& entry : delta) {
    if (port == 0) {
      Tuple key = entry.tuple.Project(layout_.left_key);
      ApplyToKeyedMemory(left_memory_, key, entry.tuple, entry.multiplicity);
      const Bag* matches = right_memory_.Get(key);
      if (matches == nullptr) continue;
      for (const auto& [right_tuple, right_count] : matches->counts()) {
        out.push_back({Combine(entry.tuple, right_tuple),
                       entry.multiplicity * right_count});
      }
    } else {
      Tuple key = entry.tuple.Project(layout_.right_key);
      ApplyToKeyedMemory(right_memory_, key, entry.tuple, entry.multiplicity);
      const Bag* matches = left_memory_.Get(key);
      if (matches == nullptr) continue;
      for (const auto& [left_tuple, left_count] : matches->counts()) {
        out.push_back({Combine(left_tuple, entry.tuple),
                       entry.multiplicity * left_count});
      }
    }
  }
}

bool JoinNode::ReplayOutput(Delta& out) const {
  for (const auto& [key, left_bag] : left_memory_) {
    const Bag* right_bag = right_memory_.Get(key);
    if (right_bag == nullptr) continue;
    for (const auto& [left_tuple, left_count] : left_bag.counts()) {
      for (const auto& [right_tuple, right_count] : right_bag->counts()) {
        out.push_back(
            {Combine(left_tuple, right_tuple), left_count * right_count});
      }
    }
  }
  return true;
}

size_t JoinNode::ApproxMemoryBytes() const {
  return KeyedMemoryBytes(left_memory_) + KeyedMemoryBytes(right_memory_);
}

std::string JoinNode::DebugString() const {
  return StrCat("Join[", layout_.left_key.size(), " keys]");
}

}  // namespace pgivm
