#ifndef PGIVM_RETE_AGGREGATE_NODE_H_
#define PGIVM_RETE_AGGREGATE_NODE_H_

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "rete/expression_eval.h"
#include "rete/node.h"

namespace pgivm {

/// One aggregate function instance of a γ operator.
struct AggregateSpec {
  enum class Kind { kCountStar, kCount, kSum, kMin, kMax, kAvg, kCollect };

  Kind kind = Kind::kCountStar;
  bool distinct = false;
  /// Argument expression; unset for kCountStar.
  std::optional<BoundExpression> arg;

  /// Parses a bound aggregate call ("count", "sum", ...) into a spec.
  static Result<AggregateSpec> Make(const ExprPtr& call, const Schema& input,
                                    const PropertyGraph* graph);
};

/// γ — incremental grouping aggregation. Maintains per-group state that
/// supports retraction (running sums/counts plus a value multiset for
/// min/max/collect and DISTINCT variants) and emits −old/+new output rows
/// for groups whose rendered row changed.
///
/// Cypher semantics: a key-less aggregation always has exactly one output
/// row, even over empty input (count = 0, sum = 0, min/max/avg = null,
/// collect = []); EmitInitial() publishes that row when the network starts.
/// Null aggregate arguments are skipped.
class AggregateNode : public ReteNode {
 public:
  AggregateNode(Schema schema, std::vector<BoundExpression> keys,
                std::vector<AggregateSpec> aggregates);

  void OnDelta(int port, const Delta& delta, Delta& out) override;

  /// Appends the empty-input row of a key-less aggregation. Called once by
  /// the network before any input delta.
  void EmitInitial(Delta& out) override;

  /// Replays the rendered row of every live group (a key-less aggregation
  /// always has exactly one, even over empty input).
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;

  std::string DebugString() const override { return "Aggregate"; }
  const char* KindName() const override { return "Aggregate"; }

 private:
  /// Retractable state of one aggregate function within one group.
  struct AggState {
    std::map<Value, int64_t> values;  // multiset of non-null arguments
    int64_t non_null_count = 0;
    int64_t int_sum = 0;
    double double_sum = 0.0;
    int64_t double_count = 0;

    void Apply(const Value& v, int64_t multiplicity);
    Value Render(const AggregateSpec& spec, int64_t group_rows) const;
  };

  struct GroupState {
    int64_t total_rows = 0;
    std::vector<AggState> aggs;
  };

  Tuple KeyOf(const Tuple& input) const;
  Tuple RenderRow(const Tuple& key, const GroupState& group) const;

  std::vector<BoundExpression> keys_;
  std::vector<AggregateSpec> aggregates_;
  /// Group key -> state.
  std::unordered_map<Tuple, GroupState, TupleHash> groups_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_AGGREGATE_NODE_H_
