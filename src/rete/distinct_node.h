#ifndef PGIVM_RETE_DISTINCT_NODE_H_
#define PGIVM_RETE_DISTINCT_NODE_H_

#include "rete/node.h"

namespace pgivm {

/// δ — bag-to-set conversion with counting (Griffin–Libkin style): a tuple
/// is asserted downstream when its support count rises 0→positive and
/// retracted when it falls back to 0, regardless of the multiplicities in
/// between.
class DistinctNode : public ReteNode {
 public:
  explicit DistinctNode(Schema schema) : ReteNode(std::move(schema)) {}

  void OnDelta(int port, const Delta& delta, Delta& out) override;

  /// Replays each supported tuple exactly once (set semantics).
  bool ReplayOutput(Delta& out) const override {
    out.reserve(out.size() + support_.distinct_size());
    for (const auto& [tuple, count] : support_.counts()) {
      (void)count;
      out.push_back({tuple, 1});
    }
    return true;
  }

  size_t ApproxMemoryBytes() const override {
    return support_.ApproxMemoryBytes();
  }

  std::string DebugString() const override { return "Distinct"; }
  const char* KindName() const override { return "Distinct"; }

 private:
  Bag support_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_DISTINCT_NODE_H_
