#include "rete/antijoin_node.h"

namespace pgivm {

AntiJoinNode::AntiJoinNode(Schema schema, const Schema& left,
                           const Schema& right)
    : ReteNode(std::move(schema)), layout_(JoinLayout::Make(left, right)) {}

void AntiJoinNode::OnDelta(int port, const Delta& delta, Delta& out) {
  for (const DeltaEntry& entry : delta) {
    if (port == 0) {
      Tuple key = entry.tuple.Project(layout_.left_key);
      ApplyToKeyedMemory(left_memory_, key, entry.tuple, entry.multiplicity);
      if (right_support_.Count(key) == 0) out.push_back(entry);
    } else {
      Tuple key = entry.tuple.Project(layout_.right_key);
      auto [old_support, new_support] =
          right_support_.Apply(key, entry.multiplicity);
      bool was_absent = old_support == 0;
      bool is_absent = new_support == 0;
      if (was_absent == is_absent) continue;
      const Bag* lefts = left_memory_.Get(key);
      if (lefts == nullptr) continue;
      // Key gained its first partner: retract the lefts; lost its last
      // partner: re-assert them.
      int64_t sign = was_absent ? -1 : 1;
      for (const auto& [left_tuple, count] : lefts->counts()) {
        out.push_back({left_tuple, sign * count});
      }
    }
  }
}

bool AntiJoinNode::ReplayOutput(Delta& out) const {
  for (const auto& [key, bag] : left_memory_) {
    if (right_support_.Count(key) > 0) continue;
    for (const auto& [left_tuple, count] : bag.counts()) {
      out.push_back({left_tuple, count});
    }
  }
  return true;
}

size_t AntiJoinNode::ApproxMemoryBytes() const {
  return KeyedMemoryBytes(left_memory_) + right_support_.ApproxMemoryBytes();
}

}  // namespace pgivm
