#include "rete/project_node.h"

namespace pgivm {

void ProjectNode::OnDelta(int /*port*/, const Delta& delta,
                          const DeltaShare& share, Delta& out) {
  const size_t begin = share.Begin(delta.size());
  const size_t end = share.End(delta.size());
  out.reserve(out.size() + (end - begin));
  for (size_t i = begin; i < end; ++i) {
    const DeltaEntry& entry = delta[i];
    std::vector<Value> values;
    values.reserve(columns_.size());
    for (const BoundExpression& column : columns_) {
      values.push_back(column.Eval(entry.tuple));
    }
    out.push_back({Tuple(std::move(values)), entry.multiplicity});
  }
}

}  // namespace pgivm
