#ifndef PGIVM_RETE_UNION_NODE_H_
#define PGIVM_RETE_UNION_NODE_H_

#include "rete/node.h"

namespace pgivm {

/// ∪ — stateless bag union: deltas from either port pass through. Inputs
/// must already share the output column order (the network builder inserts
/// reordering projections when needed).
class UnionNode : public ReteNode {
 public:
  explicit UnionNode(Schema schema) : ReteNode(std::move(schema)) {}

  void OnDelta(int /*port*/, const Delta& delta, Delta& out) override {
    out.insert(out.end(), delta.begin(), delta.end());
  }

  std::string DebugString() const override { return "Union"; }
  const char* KindName() const override { return "Union"; }
};

}  // namespace pgivm

#endif  // PGIVM_RETE_UNION_NODE_H_
