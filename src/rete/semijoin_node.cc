#include "rete/semijoin_node.h"

#include <cassert>

namespace pgivm {

SemiJoinNode::SemiJoinNode(Schema schema, const Schema& left,
                           const Schema& right)
    : ReteNode(std::move(schema)), layout_(JoinLayout::Make(left, right)) {}

void SemiJoinNode::OnDelta(int port, const Delta& delta, Delta& out) {
  for (const DeltaEntry& entry : delta) {
    if (port == 0) {
      Tuple key = entry.tuple.Project(layout_.left_key);
      Bag& bag = left_memory_[key];
      bag.Apply(entry.tuple, entry.multiplicity);
      if (bag.total_count() == 0) left_memory_.erase(key);
      auto support = right_support_.find(key);
      if (support != right_support_.end() && support->second > 0) {
        out.push_back(entry);
      }
    } else {
      Tuple key = entry.tuple.Project(layout_.right_key);
      int64_t& support = right_support_[key];
      int64_t old_support = support;
      support += entry.multiplicity;
      assert(support >= 0 && "semi-join right support went negative");
      if (support == 0) right_support_.erase(key);
      bool had_partner = old_support > 0;
      bool has_partner = old_support + entry.multiplicity > 0;
      if (had_partner == has_partner) continue;
      auto lefts = left_memory_.find(key);
      if (lefts == left_memory_.end()) continue;
      // First partner arrived: assert the lefts; last partner left:
      // retract them.
      int64_t sign = has_partner ? 1 : -1;
      for (const auto& [left_tuple, count] : lefts->second.counts()) {
        out.push_back({left_tuple, sign * count});
      }
    }
  }
}

bool SemiJoinNode::ReplayOutput(Delta& out) const {
  for (const auto& [key, bag] : left_memory_) {
    auto support = right_support_.find(key);
    if (support == right_support_.end() || support->second <= 0) continue;
    for (const auto& [left_tuple, count] : bag.counts()) {
      out.push_back({left_tuple, count});
    }
  }
  return true;
}

size_t SemiJoinNode::ApproxMemoryBytes() const {
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
