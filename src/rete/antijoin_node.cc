#include "rete/antijoin_node.h"

#include <cassert>

namespace pgivm {

AntiJoinNode::AntiJoinNode(Schema schema, const Schema& left,
                           const Schema& right)
    : ReteNode(std::move(schema)), layout_(JoinLayout::Make(left, right)) {}

void AntiJoinNode::OnDelta(int port, const Delta& delta, Delta& out) {
  for (const DeltaEntry& entry : delta) {
    if (port == 0) {
      Tuple key = entry.tuple.Project(layout_.left_key);
      Bag& bag = left_memory_[key];
      bag.Apply(entry.tuple, entry.multiplicity);
      if (bag.total_count() == 0) left_memory_.erase(key);
      auto support = right_support_.find(key);
      if (support == right_support_.end() || support->second == 0) {
        out.push_back(entry);
      }
    } else {
      Tuple key = entry.tuple.Project(layout_.right_key);
      int64_t& support = right_support_[key];
      int64_t old_support = support;
      support += entry.multiplicity;
      assert(support >= 0 && "anti-join right support went negative");
      if (support == 0) right_support_.erase(key);
      bool was_absent = old_support == 0;
      bool is_absent = old_support + entry.multiplicity == 0;
      if (was_absent == is_absent) continue;
      auto lefts = left_memory_.find(key);
      if (lefts == left_memory_.end()) continue;
      // Key gained its first partner: retract the lefts; lost its last
      // partner: re-assert them.
      int64_t sign = was_absent ? -1 : 1;
      for (const auto& [left_tuple, count] : lefts->second.counts()) {
        out.push_back({left_tuple, sign * count});
      }
    }
  }
}

bool AntiJoinNode::ReplayOutput(Delta& out) const {
  for (const auto& [key, bag] : left_memory_) {
    auto support = right_support_.find(key);
    if (support != right_support_.end() && support->second > 0) continue;
    for (const auto& [left_tuple, count] : bag.counts()) {
      out.push_back({left_tuple, count});
    }
  }
  return true;
}

size_t AntiJoinNode::ApproxMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [key, bag] : left_memory_) {
    bytes += key.ApproxMemoryBytes() + bag.ApproxMemoryBytes();
  }
  for (const auto& [key, support] : right_support_) {
    bytes += key.ApproxMemoryBytes() + sizeof(support);
  }
  return bytes;
}

}  // namespace pgivm
