#ifndef PGIVM_BASELINE_BASELINE_EVALUATOR_H_
#define PGIVM_BASELINE_BASELINE_EVALUATOR_H_

#include <vector>

#include "algebra/operator.h"
#include "graph/property_graph.h"
#include "rete/delta.h"
#include "support/status.h"

namespace pgivm {

/// Pull-based, from-scratch interpreter of FRA plans — the "re-evaluate on
/// every change" strategy that incremental view maintenance replaces.
///
/// It is an *independent* implementation of the same plan semantics as the
/// Rete network (hash joins, DFS trail enumeration for transitive joins,
/// grouped aggregation), used as:
///  * the comparator in every IVM-vs-reevaluation experiment (E2/E3), and
///  * the oracle in differential tests (random update streams must leave
///    the Rete view equal to a fresh evaluation).
class BaselineEvaluator {
 public:
  explicit BaselineEvaluator(const PropertyGraph* graph) : graph_(graph) {}

  /// Evaluates `plan` against the current graph; returns the result bag.
  Result<Bag> Evaluate(const OpPtr& plan) const;

 private:
  Result<Bag> Eval(const OpPtr& op) const;
  Result<Bag> EvalGetVertices(const OpPtr& op) const;
  Result<Bag> EvalGetEdges(const OpPtr& op) const;
  Result<Bag> EvalGetPaths(const OpPtr& op) const;
  Result<Bag> EvalJoinLike(const OpPtr& op) const;
  Result<Bag> EvalAggregate(const OpPtr& op) const;
  Result<Bag> EvalUnnest(const OpPtr& op) const;

  // `key` is the extract's property key resolved to a symbol once per
  // operator evaluation (kNoSymbol for non-property extracts or names the
  // graph has never seen — both read as null/ignored).
  Value VertexExtract(const PropertyExtract& extract, SymbolId key,
                      VertexId v) const;
  Value EdgeExtract(const PropertyExtract& extract, SymbolId key, VertexId a,
                    VertexId b,
                    EdgeId e) const;

  const PropertyGraph* graph_;
};

}  // namespace pgivm

#endif  // PGIVM_BASELINE_BASELINE_EVALUATOR_H_
