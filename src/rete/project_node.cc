#include "rete/project_node.h"

namespace pgivm {

void ProjectNode::OnDelta(int /*port*/, const Delta& delta, Delta& out) {
  out.reserve(out.size() + delta.size());
  for (const DeltaEntry& entry : delta) {
    std::vector<Value> values;
    values.reserve(columns_.size());
    for (const BoundExpression& column : columns_) {
      values.push_back(column.Eval(entry.tuple));
    }
    out.push_back({Tuple(std::move(values)), entry.multiplicity});
  }
}

}  // namespace pgivm
