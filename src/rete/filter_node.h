#ifndef PGIVM_RETE_FILTER_NODE_H_
#define PGIVM_RETE_FILTER_NODE_H_

#include "rete/expression_eval.h"
#include "rete/node.h"

namespace pgivm {

/// σ — stateless selection: forwards entries whose predicate evaluates to
/// exactly true. A tuple's verdict is deterministic, so assertions and
/// retractions of the same tuple always take the same branch.
class FilterNode : public ReteNode {
 public:
  FilterNode(Schema schema, BoundExpression predicate)
      : ReteNode(std::move(schema)), predicate_(std::move(predicate)) {}

  void OnDelta(int port, const Delta& delta, const DeltaShare& share,
               Delta& out) override;

  /// Stateless per-entry: any contiguous chunking reproduces the serial
  /// output exactly when chunks are concatenated in partition order.
  MorselKind morsel_kind() const override { return MorselKind::kChunked; }

  std::string DebugString() const override;
  const char* KindName() const override { return "Filter"; }

 private:
  BoundExpression predicate_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_FILTER_NODE_H_
