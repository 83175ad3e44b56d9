#ifndef PGIVM_RETE_SEMIJOIN_NODE_H_
#define PGIVM_RETE_SEMIJOIN_NODE_H_

#include "rete/join_node.h"
#include "rete/node.h"
#include "rete/sharded_map.h"

namespace pgivm {

/// ⋉ — incremental semi-join: emits the left tuples that have at least one
/// partner in the right input (matching on shared column names), each with
/// its own multiplicity (no fan-out). Realizes positive `exists(pattern)`
/// predicates; the dual of AntiJoinNode.
///
/// Both memories are keyed (and sharded) by the same join-key tuple, so a
/// morsel partition's updates to the left memory and support lookups on
/// the right stay within the shards it owns.
class SemiJoinNode : public ReteNode {
 public:
  SemiJoinNode(Schema schema, const Schema& left, const Schema& right);

  void OnDelta(int port, const Delta& delta, const DeltaShare& share,
               Delta& out) override;

  MorselKind morsel_kind() const override { return MorselKind::kKeyed; }
  void MorselPartitionMap(int port, const Delta& delta, uint32_t partitions,
                          size_t begin, size_t end,
                          uint32_t* map) const override;

  /// Replays the currently matched left tuples (keys with positive right
  /// support), each with its own multiplicity.
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;

  std::string DebugString() const override { return "SemiJoin"; }
  const char* KindName() const override { return "SemiJoin"; }

 private:
  JoinLayout layout_;
  ShardedTupleMap<Bag> left_memory_;
  ShardedTupleMap<int64_t> right_support_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_SEMIJOIN_NODE_H_
