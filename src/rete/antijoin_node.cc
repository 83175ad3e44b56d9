#include "rete/antijoin_node.h"

#include <cassert>

namespace pgivm {

AntiJoinNode::AntiJoinNode(Schema schema, const Schema& left,
                           const Schema& right)
    : ReteNode(std::move(schema)), layout_(JoinLayout::Make(left, right)) {}

void AntiJoinNode::OnDelta(int port, const Delta& delta,
                           const DeltaShare& share, Delta& out) {
  for (size_t i = 0; i < delta.size(); ++i) {
    if (!share.Owns(i)) continue;
    const DeltaEntry& entry = delta[i];
    if (port == 0) {
      Tuple key = entry.tuple.Project(layout_.left_key);
      auto& shard = left_memory_.shard(key);
      Bag& bag = shard[key];
      bag.Apply(entry.tuple, entry.multiplicity);
      if (bag.total_count() == 0) shard.erase(key);
      const int64_t* support = right_support_.Find(key);
      if (support == nullptr || *support == 0) {
        out.push_back(entry);
      }
    } else {
      Tuple key = entry.tuple.Project(layout_.right_key);
      auto& shard = right_support_.shard(key);
      int64_t& support = shard[key];
      int64_t old_support = support;
      support += entry.multiplicity;
      assert(support >= 0 && "anti-join right support went negative");
      if (support == 0) shard.erase(key);
      bool was_absent = old_support == 0;
      bool is_absent = old_support + entry.multiplicity == 0;
      if (was_absent == is_absent) continue;
      const Bag* lefts = left_memory_.Find(key);
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

void AntiJoinNode::MorselPartitionMap(int port, const Delta& delta,
                                      uint32_t partitions, size_t begin,
                                      size_t end, uint32_t* map) const {
  const std::vector<int>& key =
      port == 0 ? layout_.left_key : layout_.right_key;
  for (size_t i = begin; i < end; ++i) {
    map[i] = MorselPartitionOfHash(delta[i].tuple.HashProjected(key),
                                   partitions);
  }
}

bool AntiJoinNode::ReplayOutput(Delta& out) const {
  left_memory_.ForEach([&](const Tuple& key, const Bag& bag) {
    const int64_t* support = right_support_.Find(key);
    if (support != nullptr && *support > 0) return;
    for (const auto& [left_tuple, count] : bag.counts()) {
      out.push_back({left_tuple, count});
    }
  });
  return true;
}

size_t AntiJoinNode::ApproxMemoryBytes() const {
  size_t bytes = 0;
  left_memory_.ForEach([&](const Tuple& key, const Bag& bag) {
    bytes += key.ApproxMemoryBytes() + bag.ApproxMemoryBytes();
  });
  right_support_.ForEach([&](const Tuple& key, int64_t support) {
    bytes += key.ApproxMemoryBytes() + sizeof(support);
  });
  return bytes;
}

}  // namespace pgivm
