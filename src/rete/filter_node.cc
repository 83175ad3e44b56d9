#include "rete/filter_node.h"

#include "support/string_util.h"

namespace pgivm {

void FilterNode::OnDelta(int /*port*/, const Delta& delta,
                         const DeltaShare& share, Delta& out) {
  const size_t begin = share.Begin(delta.size());
  const size_t end = share.End(delta.size());
  for (size_t i = begin; i < end; ++i) {
    const DeltaEntry& entry = delta[i];
    if (IsTrue(predicate_.Eval(entry.tuple))) out.push_back(entry);
  }
}

std::string FilterNode::DebugString() const {
  return StrCat("Filter[", predicate_.expr()->ToString(), "]");
}

}  // namespace pgivm
