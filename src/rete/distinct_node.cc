#include "rete/distinct_node.h"

namespace pgivm {

void DistinctNode::OnDelta(int /*port*/, const Delta& delta, Delta& out) {
  for (const DeltaEntry& entry : delta) {
    auto [old_count, new_count] =
        support_.Apply(entry.tuple, entry.multiplicity);
    if (old_count == 0 && new_count > 0) {
      out.push_back({entry.tuple, 1});
    } else if (old_count > 0 && new_count == 0) {
      out.push_back({entry.tuple, -1});
    }
  }
}

}  // namespace pgivm
