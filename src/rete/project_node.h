#ifndef PGIVM_RETE_PROJECT_NODE_H_
#define PGIVM_RETE_PROJECT_NODE_H_

#include <vector>

#include "rete/expression_eval.h"
#include "rete/node.h"

namespace pgivm {

/// π — stateless bag projection: maps each entry through the column
/// expressions, preserving multiplicities. Distinctness, if requested by the
/// query, is a separate DistinctNode downstream.
class ProjectNode : public ReteNode {
 public:
  ProjectNode(Schema schema, std::vector<BoundExpression> columns)
      : ReteNode(std::move(schema)), columns_(std::move(columns)) {}

  void OnDelta(int port, const Delta& delta, Delta& out) override;

  std::string DebugString() const override { return "Project"; }
  const char* KindName() const override { return "Project"; }

 private:
  std::vector<BoundExpression> columns_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_PROJECT_NODE_H_
