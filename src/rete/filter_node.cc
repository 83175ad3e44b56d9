#include "rete/filter_node.h"

#include "support/string_util.h"

namespace pgivm {

void FilterNode::OnDelta(int /*port*/, const Delta& delta, Delta& out) {
  for (const DeltaEntry& entry : delta) {
    if (IsTrue(predicate_.Eval(entry.tuple))) out.push_back(entry);
  }
}

std::string FilterNode::DebugString() const {
  return StrCat("Filter[", predicate_.expr()->ToString(), "]");
}

}  // namespace pgivm
