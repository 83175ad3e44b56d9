#ifndef PGIVM_RETE_ANTIJOIN_NODE_H_
#define PGIVM_RETE_ANTIJOIN_NODE_H_

#include "rete/join_node.h"
#include "rete/node.h"
#include "rete/sharded_map.h"

namespace pgivm {

/// ▷ — incremental anti semi-join: emits the left tuples that have *no*
/// partner in the right input (matching on shared column names). Used
/// directly for negative conditions and as a building block of the
/// OPTIONAL MATCH outer join.
///
/// State: the left memory (key → counted tuples) plus a per-key support
/// count of right rows; left tuples toggle in/out of the output when their
/// key's right support transitions 0 ↔ positive. Both maps are keyed (and
/// sharded) by the same join-key tuple, so a morsel partition's writes stay
/// within the shards it owns.
class AntiJoinNode : public ReteNode {
 public:
  AntiJoinNode(Schema schema, const Schema& left, const Schema& right);

  void OnDelta(int port, const Delta& delta, const DeltaShare& share,
               Delta& out) override;

  MorselKind morsel_kind() const override { return MorselKind::kKeyed; }
  void MorselPartitionMap(int port, const Delta& delta, uint32_t partitions,
                          size_t begin, size_t end,
                          uint32_t* map) const override;

  /// Replays the currently unmatched left tuples (keys with zero right
  /// support).
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;

  std::string DebugString() const override { return "AntiJoin"; }
  const char* KindName() const override { return "AntiJoin"; }

 private:
  JoinLayout layout_;
  ShardedTupleMap<Bag> left_memory_;
  ShardedTupleMap<int64_t> right_support_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_ANTIJOIN_NODE_H_
