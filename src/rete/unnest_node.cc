#include "rete/unnest_node.h"

#include <map>
#include <unordered_map>

#include "rete/sharded_map.h"
#include "support/string_util.h"

namespace pgivm {

void UnnestNode::ExpandInto(
    const Tuple& tuple, int64_t multiplicity,
    std::vector<std::pair<Value, int64_t>>& out) const {
  Value collection = collection_.Eval(tuple);
  if (collection.is_null()) return;  // UNWIND null produces no rows.
  if (collection.is_list()) {
    for (const Value& element : collection.AsList()) {
      out.emplace_back(element, multiplicity);
    }
    return;
  }
  out.emplace_back(std::move(collection), multiplicity);  // Scalar singleton.
}

void UnnestNode::ProcessNaive(const Delta& delta, size_t begin, size_t end,
                              Delta& out) {
  for (size_t i = begin; i < end; ++i) {
    const DeltaEntry& entry = delta[i];
    Tuple kept = entry.tuple.Project(kept_columns_);
    std::vector<std::pair<Value, int64_t>> elements;
    ExpandInto(entry.tuple, entry.multiplicity, elements);
    for (auto& [element, m] : elements) {
      out.push_back({kept.Append(std::move(element)), m});
    }
  }
}

// Fine-grained: fold the batch per kept projection, then emit only the
// net per-element changes. Retract/assert pairs from a collection update
// cancel except for the touched elements. Under morsel delivery the
// partition map routes every entry of one kept projection to the same
// partition, so each fold group is processed whole.
void UnnestNode::ProcessFolded(const Delta& delta, const DeltaShare& share,
                               Delta& out) {
  std::unordered_map<Tuple, std::map<Value, int64_t>, TupleHash> folded;
  std::vector<Tuple> order;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (!share.Owns(i)) continue;
    const DeltaEntry& entry = delta[i];
    Tuple kept = entry.tuple.Project(kept_columns_);
    auto [it, inserted] = folded.emplace(kept, std::map<Value, int64_t>{});
    if (inserted) order.push_back(kept);
    std::vector<std::pair<Value, int64_t>> elements;
    ExpandInto(entry.tuple, entry.multiplicity, elements);
    for (auto& [element, m] : elements) it->second[element] += m;
  }
  for (const Tuple& kept : order) {
    for (const auto& [element, m] : folded[kept]) {
      if (m != 0) out.push_back({kept.Append(element), m});
    }
  }
}

void UnnestNode::OnDelta(int /*port*/, const Delta& delta,
                         const DeltaShare& share, Delta& out) {
  if (fine_grained_) {
    ProcessFolded(delta, share, out);
  } else {
    ProcessNaive(delta, share.Begin(delta.size()), share.End(delta.size()),
                 out);
  }
}

void UnnestNode::MorselPartitionMap(int port, const Delta& delta,
                                    uint32_t partitions, size_t begin,
                                    size_t end, uint32_t* map) const {
  (void)port;
  for (size_t i = begin; i < end; ++i) {
    map[i] = MorselPartitionOfHash(
        delta[i].tuple.HashProjected(kept_columns_), partitions);
  }
}

std::string UnnestNode::DebugString() const {
  return StrCat("Unnest[", collection_.expr()->ToString(), "]",
                fine_grained_ ? " (fine-grained)" : "");
}

}  // namespace pgivm
