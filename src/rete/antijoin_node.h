#ifndef PGIVM_RETE_ANTIJOIN_NODE_H_
#define PGIVM_RETE_ANTIJOIN_NODE_H_

#include <unordered_map>

#include "rete/join_node.h"
#include "rete/node.h"

namespace pgivm {

/// ▷ — incremental anti semi-join: emits the left tuples that have *no*
/// partner in the right input (matching on shared column names). Used
/// directly for negative conditions and as a building block of the
/// OPTIONAL MATCH outer join.
///
/// State: the left memory (key → counted tuples) plus a per-key support
/// count of right rows; left tuples toggle in/out of the output when their
/// key's right support transitions 0 ↔ positive. Both maps are keyed by
/// the same join-key tuple.
class AntiJoinNode : public ReteNode {
 public:
  AntiJoinNode(Schema schema, const Schema& left, const Schema& right);

  void OnDelta(int port, const Delta& delta, Delta& out) override;

  /// Replays the currently unmatched left tuples (keys with zero right
  /// support).
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;

  std::string DebugString() const override { return "AntiJoin"; }
  const char* KindName() const override { return "AntiJoin"; }

 private:
  JoinLayout layout_;
  std::unordered_map<Tuple, Bag, TupleHash> left_memory_;
  std::unordered_map<Tuple, int64_t, TupleHash> right_support_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_ANTIJOIN_NODE_H_
