#ifndef PGIVM_RETE_SEMIJOIN_NODE_H_
#define PGIVM_RETE_SEMIJOIN_NODE_H_

#include "rete/join_node.h"
#include "rete/node.h"

namespace pgivm {

/// ⋉ — incremental semi-join: emits the left tuples that have at least one
/// partner in the right input (matching on shared column names), each with
/// its own multiplicity (no fan-out). Realizes positive `exists(pattern)`
/// predicates; the dual of AntiJoinNode.
class SemiJoinNode : public ReteNode {
 public:
  SemiJoinNode(Schema schema, const Schema& left, const Schema& right);

  void OnDelta(int port, const Delta& delta, Delta& out) override;

  /// Replays the currently matched left tuples (keys with positive right
  /// support), each with its own multiplicity.
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;

  std::string DebugString() const override { return "SemiJoin"; }
  const char* KindName() const override { return "SemiJoin"; }

 private:
  JoinLayout layout_;
  KeyedMemory left_memory_;
  /// Join key -> number of right rows with that key.
  Bag right_support_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_SEMIJOIN_NODE_H_
