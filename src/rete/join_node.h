#ifndef PGIVM_RETE_JOIN_NODE_H_
#define PGIVM_RETE_JOIN_NODE_H_

#include <unordered_map>
#include <vector>

#include "rete/node.h"

namespace pgivm {

/// Key extraction / tuple combination plan shared by the binary nodes.
/// Computed once from the two input schemas: natural join on the columns
/// whose names match; output = left columns + right-only columns.
struct JoinLayout {
  std::vector<int> left_key;    // key column indices in the left schema
  std::vector<int> right_key;   // matching indices in the right schema
  std::vector<int> right_rest;  // right columns appended to the output

  static JoinLayout Make(const Schema& left, const Schema& right);
};

/// ⋈ — incremental natural join with bag semantics. Both sides keep a
/// key-indexed counted memory; Δ(L⋈R) = ΔL⋈R ∪ L'⋈ΔR is realized by
/// updating the arriving side's memory first and probing the opposite
/// memory, so each delta entry joins against the correct snapshot.
class JoinNode : public ReteNode {
 public:
  JoinNode(Schema schema, const Schema& left, const Schema& right);

  void OnDelta(int port, const Delta& delta, Delta& out) override;

  /// Replays L ⋈ R by probing the two memories — one output entry per
  /// matching (left, right) pair, so replay work is proportional to the
  /// join's current result size, not to its input sizes.
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;

  std::string DebugString() const override;
  const char* KindName() const override { return "Join"; }

 private:
  /// key tuple -> (full tuple -> count).
  using Memory = std::unordered_map<Tuple, Bag, TupleHash>;

  static void Apply(Memory& memory, const Tuple& key, const Tuple& tuple,
                    int64_t multiplicity);

  Tuple Combine(const Tuple& left, const Tuple& right) const;

  JoinLayout layout_;
  Memory left_memory_;
  Memory right_memory_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_JOIN_NODE_H_
