#include <unordered_set>

#include "algebra/passes/pass_manager.h"

namespace pgivm {

namespace {

void CollectReferenced(const OpPtr& op,
                       std::unordered_set<std::string>& referenced) {
  auto collect = [&referenced](const ExprPtr& expr) {
    if (!expr) return;
    std::vector<std::string> vars;
    expr->CollectVariables(vars);
    referenced.insert(vars.begin(), vars.end());
  };
  collect(op->predicate);
  collect(op->unnest_expr);
  for (const auto& [name, expr] : op->projections) collect(expr);
  for (const auto& [name, expr] : op->group_by) collect(expr);
  for (const auto& [name, expr] : op->aggregates) collect(expr);
  for (const OpPtr& child : op->children) CollectReferenced(child, referenced);
}

void Prune(const OpPtr& op,
           const std::unordered_set<std::string>& referenced) {
  if (IsGraphLeaf(op->kind)) {
    auto& extracts = op->extracts;
    extracts.erase(
        std::remove_if(extracts.begin(), extracts.end(),
                       [&referenced](const PropertyExtract& extract) {
                         return referenced.count(extract.column_name) == 0;
                       }),
        extracts.end());
  }
  for (const OpPtr& child : op->children) Prune(child, referenced);
}

/// Collects natural-join key names of every binary operator (they never
/// appear in expressions, so the referenced-name scan misses them).
void CollectJoinKeys(const OpPtr& op,
                     std::unordered_set<std::string>& keys) {
  if (op->kind == OpKind::kJoin || op->kind == OpKind::kLeftOuterJoin ||
      op->kind == OpKind::kAntiJoin || op->kind == OpKind::kSemiJoin) {
    for (const std::string& name : Schema::CommonNames(
             op->children[0]->schema, op->children[1]->schema)) {
      keys.insert(name);
    }
  }
  for (const OpPtr& child : op->children) CollectJoinKeys(child, keys);
}

/// Collects variables referenced by every expression except `skip_expr`.
void CollectReferencedExcept(const OpPtr& op, const Expression* skip_expr,
                             std::unordered_set<std::string>& referenced) {
  auto collect = [&referenced, skip_expr](const ExprPtr& expr) {
    if (!expr || expr.get() == skip_expr) return;
    std::vector<std::string> vars;
    expr->CollectVariables(vars);
    referenced.insert(vars.begin(), vars.end());
  };
  collect(op->predicate);
  collect(op->unnest_expr);
  for (const auto& [name, expr] : op->projections) collect(expr);
  for (const auto& [name, expr] : op->group_by) collect(expr);
  for (const auto& [name, expr] : op->aggregates) collect(expr);
  for (const OpPtr& child : op->children) {
    CollectReferencedExcept(child, skip_expr, referenced);
  }
}

/// Finds the element variable whose leaf extract produces column `name`
/// somewhere under `op` (empty if `name` is not an extracted column).
std::string ExtractElementVar(const OpPtr& op, const std::string& name) {
  if (IsGraphLeaf(op->kind)) {
    for (const PropertyExtract& extract : op->extracts) {
      if (extract.column_name == name) return extract.element_var;
    }
  }
  for (const OpPtr& child : op->children) {
    std::string found = ExtractElementVar(child, name);
    if (!found.empty()) return found;
  }
  return "";
}

void NarrowRec(const OpPtr& root, const OpPtr& op, bool unsafe_above,
               const std::unordered_set<std::string>& join_keys) {
  bool child_unsafe = unsafe_above || op->kind == OpKind::kDistinct ||
                      op->kind == OpKind::kAggregate;
  for (const OpPtr& child : op->children) {
    NarrowRec(root, child, child_unsafe, join_keys);
  }
  if (op->kind != OpKind::kUnnest) return;

  std::unordered_set<std::string> referenced;
  CollectReferencedExcept(root, op->unnest_expr.get(), referenced);

  std::vector<std::string> expr_vars;
  op->unnest_expr->CollectVariables(expr_vars);
  for (const std::string& var : expr_vars) {
    if (referenced.count(var) > 0 || join_keys.count(var) > 0) continue;
    const Schema& child_schema = op->children[0]->schema;
    if (!child_schema.Contains(var)) continue;
    if (unsafe_above) {
      // Under DISTINCT/aggregation, dropping a column may merge rows, which
      // changes those operators' results — unless the column is
      // functionally dependent on a column that stays: extracted property
      // columns are determined by their element variable. Require that.
      std::string element = ExtractElementVar(op->children[0], var);
      if (element.empty() || element == var ||
          !child_schema.Contains(element)) {
        continue;
      }
      bool element_dropped = false;
      for (const std::string& dropped : op->unnest_drop_columns) {
        if (dropped == element) element_dropped = true;
      }
      if (element_dropped) continue;
    }
    op->unnest_drop_columns.push_back(var);
  }
}

}  // namespace

void NarrowUnnestOutputs(const OpPtr& root) {
  std::unordered_set<std::string> join_keys;
  CollectJoinKeys(root, join_keys);
  NarrowRec(root, root, /*unsafe_above=*/false, join_keys);
}

void PruneUnusedExtracts(const OpPtr& root) {
  // A name dropped here is dropped from *every* leaf that extracts it, so
  // natural-join key sets stay symmetric; extracts are functionally
  // dependent columns, so bag multiplicities are unaffected.
  std::unordered_set<std::string> referenced;
  CollectReferenced(root, referenced);
  Prune(root, referenced);
}

}  // namespace pgivm
