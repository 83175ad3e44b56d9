#ifndef PGIVM_RETE_UNNEST_NODE_H_
#define PGIVM_RETE_UNNEST_NODE_H_

#include <vector>

#include "rete/expression_eval.h"
#include "rete/node.h"

namespace pgivm {

/// μ — unnest (Cypher UNWIND): one output row per element of the collection
/// expression. Output = the kept input columns + the element column; columns
/// used only by the collection expression can be dropped from the output
/// (see kUnnest's drop list), which enables fine-grained maintenance.
///
/// FGN (the paper's fine-granularity property): with `fine_grained` set, a
/// delta batch is first folded per kept-column projection — the retract/
/// assert pair produced by an element-level collection update meets here,
/// and only the *multiset difference* of the elements is emitted. A one-
/// element append to a 512-element list then costs one output entry instead
/// of 1024. With `fine_grained` false the node expands every entry naively
/// (the E4 ablation baseline).
class UnnestNode : public ReteNode {
 public:
  UnnestNode(Schema schema, BoundExpression collection,
             std::vector<int> kept_columns, bool fine_grained)
      : ReteNode(std::move(schema)),
        collection_(std::move(collection)),
        kept_columns_(std::move(kept_columns)),
        fine_grained_(fine_grained) {}

  void OnDelta(int port, const Delta& delta, Delta& out) override;

  std::string DebugString() const override;
  const char* KindName() const override { return "Unnest"; }

 private:
  void ProcessNaive(const Delta& delta, Delta& out);
  void ProcessFolded(const Delta& delta, Delta& out);

  /// Appends the elements of `tuple`'s collection (list → elements, null →
  /// nothing, scalar → itself) to `out` with the given multiplicity.
  void ExpandInto(const Tuple& tuple, int64_t multiplicity,
                  std::vector<std::pair<Value, int64_t>>& out) const;

  BoundExpression collection_;
  std::vector<int> kept_columns_;
  bool fine_grained_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_UNNEST_NODE_H_
