#include "rete/distinct_node.h"

namespace pgivm {

void DistinctNode::OnDelta(int /*port*/, const Delta& delta,
                           const DeltaShare& share, Delta& out) {
  for (size_t i = 0; i < delta.size(); ++i) {
    if (!share.Owns(i)) continue;
    const DeltaEntry& entry = delta[i];
    auto [old_count, new_count] =
        support_.shard(entry.tuple).Apply(entry.tuple, entry.multiplicity);
    if (old_count == 0 && new_count > 0) {
      out.push_back({entry.tuple, 1});
    } else if (old_count > 0 && new_count == 0) {
      out.push_back({entry.tuple, -1});
    }
  }
}

void DistinctNode::MorselPartitionMap(int port, const Delta& delta,
                                      uint32_t partitions, size_t begin,
                                      size_t end, uint32_t* map) const {
  (void)port;
  for (size_t i = begin; i < end; ++i) {
    map[i] = MorselPartitionOfHash(delta[i].tuple.Hash(), partitions);
  }
}

}  // namespace pgivm
