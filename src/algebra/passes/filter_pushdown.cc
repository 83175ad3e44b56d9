#include "algebra/passes/pass_manager.h"

namespace pgivm {

namespace {

bool AllBound(const ExprPtr& expr, const Schema& schema) {
  std::vector<std::string> vars;
  expr->CollectVariables(vars);
  for (const std::string& var : vars) {
    if (!schema.Contains(var)) return false;
  }
  return true;
}

OpPtr Rewrite(const OpPtr& op);

/// Pushes one conjunct into `op` as deep as its variables allow; returns the
/// (possibly rewrapped) operator.
OpPtr PushConjunct(OpPtr op, const ExprPtr& pred) {
  switch (op->kind) {
    case OpKind::kJoin: {
      if (AllBound(pred, op->children[0]->schema)) {
        op->children[0] = PushConjunct(op->children[0], pred);
        return op;
      }
      if (AllBound(pred, op->children[1]->schema)) {
        op->children[1] = PushConjunct(op->children[1], pred);
        return op;
      }
      break;
    }
    case OpKind::kSelection:
      // Merge into the existing selection's child; keeps one σ per site.
      op->children[0] = PushConjunct(op->children[0], pred);
      return op;
    case OpKind::kDistinct:
      // σ(δ(r)) == δ(σ(r)) for deterministic predicates.
      op->children[0] = PushConjunct(op->children[0], pred);
      return op;
    case OpKind::kUnnest:
      if (AllBound(pred, op->children[0]->schema)) {
        op->children[0] = PushConjunct(op->children[0], pred);
        return op;
      }
      break;
    default:
      // Projections/aggregates rename columns; outer-join variants change
      // semantics under filtering. Stop above them.
      break;
  }
  OpPtr sel = MakeOp(OpKind::kSelection, {op});
  sel->predicate = pred;
  sel->schema = op->schema;
  return sel;
}

OpPtr Rewrite(const OpPtr& op) {
  auto copy = std::make_shared<LogicalOp>(*op);
  for (OpPtr& child : copy->children) child = Rewrite(child);

  if (copy->kind != OpKind::kSelection) return copy;

  OpPtr body = copy->children[0];
  for (const ExprPtr& conjunct : SplitConjuncts(copy->predicate)) {
    body = PushConjunct(body, conjunct);
  }
  return body;
}

}  // namespace

OpPtr PushDownFilters(const OpPtr& root) { return Rewrite(root); }

}  // namespace pgivm
