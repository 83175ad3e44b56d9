#include "algebra/compiler.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "support/string_util.h"

namespace pgivm {

namespace {

/// Pattern-derived facts about a (directed) relationship variable, used to
/// rewrite startNode()/endNode() calls.
struct EdgeEndpoints {
  std::string source;  // graph-direction source variable
  std::string target;
  bool directed = true;
  std::vector<std::string> types;  // empty = any type
};

bool ContainsPatternPredicate(const ExprPtr& expr) {
  if (expr->kind == ExprKind::kPatternPredicate) return true;
  for (const ExprPtr& child : expr->children) {
    if (ContainsPatternPredicate(child)) return true;
  }
  return false;
}

class Compiler {
 public:
  Result<OpPtr> Run(const Query& query) {
    PGIVM_ASSIGN_OR_RETURN(OpPtr plan, RunSingle(query));
    if (query.unions.empty()) {
      PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));
      return plan;
    }

    // UNION [ALL] continuation: parts compile independently (fresh variable
    // scopes) and must agree on column names; plain UNION deduplicates.
    PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));
    bool first_all = query.unions[0].first;
    for (const auto& [all, part] : query.unions) {
      if (all != first_all) {
        return Status::InvalidArgument(
            "cannot mix UNION and UNION ALL in one query");
      }
      PGIVM_ASSIGN_OR_RETURN(OpPtr part_plan, Compiler().RunSingle(*part));
      PGIVM_RETURN_IF_ERROR(ComputeSchemas(part_plan));
      for (const Attribute& attr : plan->schema.attributes()) {
        if (!part_plan->schema.Contains(attr.name)) {
          return Status::InvalidArgument(
              StrCat("UNION parts must return the same columns; '",
                     attr.name, "' is missing from a part"));
        }
      }
      plan = MakeOp(OpKind::kUnion, {std::move(plan), std::move(part_plan)});
    }
    if (!first_all) plan = MakeOp(OpKind::kDistinct, {std::move(plan)});

    PGIVM_RETURN_IF_ERROR(ComputeSchemas(plan));
    OpPtr produce = MakeOp(OpKind::kProduce, {plan});
    for (const Attribute& attr : plan->schema.attributes()) {
      produce->projections.emplace_back(attr.name, MakeVariable(attr.name));
    }
    PGIVM_RETURN_IF_ERROR(ComputeSchemas(produce));
    return produce;
  }

 private:
  Result<OpPtr> RunSingle(const Query& query) {
    OpPtr plan;  // null until the first clause produces one
    for (const Clause& clause : query.clauses) {
      if (const auto* match = std::get_if<MatchClause>(&clause)) {
        PGIVM_ASSIGN_OR_RETURN(plan, CompileMatch(*match, plan));
      } else if (const auto* unwind = std::get_if<UnwindClause>(&clause)) {
        PGIVM_ASSIGN_OR_RETURN(plan, CompileUnwind(*unwind, plan));
      } else if (const auto* with = std::get_if<WithClause>(&clause)) {
        PGIVM_ASSIGN_OR_RETURN(plan,
                               CompileProjectionLike(with->items, plan,
                                                     with->distinct,
                                                     with->where,
                                                     /*is_return=*/false));
      }
    }
    return CompileProjectionLike(query.return_clause.items, plan,
                                 query.return_clause.distinct,
                                 /*where=*/nullptr, /*is_return=*/true);
  }
  std::string Fresh(const std::string& base) {
    return StrCat(base, "#", ++fresh_counter_);
  }

  /// Rewrites startNode()/endNode() into the pattern variables they denote.
  Result<ExprPtr> RewriteEndpointFunctions(const ExprPtr& expr) {
    Status failure = Status::Ok();
    ExprPtr out = RewriteExpression(expr, [&](const ExprPtr& e) -> ExprPtr {
      if (e->kind != ExprKind::kFunctionCall ||
          (e->name != "startnode" && e->name != "endnode")) {
        return e;
      }
      if (e->children.size() != 1 ||
          e->children[0]->kind != ExprKind::kVariable) {
        failure = Status::InvalidArgument(
            StrCat(e->name, "() expects a relationship variable"));
        return e;
      }
      auto it = edge_endpoints_.find(e->children[0]->name);
      if (it == edge_endpoints_.end()) {
        failure = Status::InvalidArgument(
            StrCat(e->name, "(): '", e->children[0]->name,
                   "' is not a known relationship variable"));
        return e;
      }
      if (!it->second.directed) {
        failure = Status::InvalidArgument(
            StrCat(e->name, "() on an undirected pattern edge is ambiguous"));
        return e;
      }
      return MakeVariable(e->name == "startnode" ? it->second.source
                                                 : it->second.target);
    });
    if (!failure.ok()) return failure;
    return out;
  }

  static OpPtr GetVerticesOp(const std::string& var,
                             std::vector<std::string> labels) {
    OpPtr op = MakeOp(OpKind::kGetVertices);
    op->vertex_var = var;
    op->labels = std::move(labels);
    return op;
  }

  static OpPtr JoinOps(OpPtr left, OpPtr right) {
    if (!left) return right;
    return MakeOp(OpKind::kJoin, {std::move(left), std::move(right)});
  }

  /// Property predicates of `(v {k: expr})` become `v.k = expr` conjuncts.
  Status AddPropertySelections(
      const std::string& var,
      const std::vector<std::pair<std::string, ExprPtr>>& props,
      std::vector<ExprPtr>& selections) {
    for (const auto& [key, expr] : props) {
      PGIVM_ASSIGN_OR_RETURN(ExprPtr value, RewriteEndpointFunctions(expr));
      selections.push_back(MakeBinary(
          BinaryOp::kEq, MakeProperty(MakeVariable(var), key), value));
    }
    return Status::Ok();
  }

  /// Compiles one linear pattern part into a plan. Returns the plan;
  /// selections/pending path columns are appended to the output params.
  Result<OpPtr> CompilePart(const PatternPart& part,
                            std::vector<ExprPtr>& selections,
                            std::vector<std::string>& clause_edge_vars,
                            std::vector<std::pair<std::string, ExprPtr>>&
                                pending_path_columns) {
    std::unordered_set<std::string> part_vars;

    OpPtr plan = GetVerticesOp(part.first.variable, part.first.labels);
    part_vars.insert(part.first.variable);
    PGIVM_RETURN_IF_ERROR(AddPropertySelections(part.first.variable,
                                                part.first.properties,
                                                selections));

    // Arguments of the #path(...) constructor for a named path.
    std::vector<ExprPtr> path_args;
    path_args.push_back(MakeVariable(part.first.variable));

    std::string prev = part.first.variable;
    for (const auto& [rel, node] : part.chain) {
      if (edge_endpoints_.count(rel.variable) > 0) {
        return Status::InvalidArgument(
            StrCat("relationship variable '", rel.variable,
                   "' is bound more than once"));
      }

      // Chain-internal node rebinding: expand to a fresh column, then
      // equate it with the earlier occurrence.
      std::string dst = node.variable;
      if (part_vars.count(dst) > 0) {
        dst = Fresh(node.variable);
        selections.push_back(MakeBinary(BinaryOp::kEq, MakeVariable(dst),
                                        MakeVariable(node.variable)));
      }
      part_vars.insert(dst);

      OpPtr expand = MakeOp(
          rel.variable_length ? OpKind::kPathJoin : OpKind::kExpand,
          {std::move(plan)});
      expand->src_var = prev;
      expand->dst_var = dst;
      expand->edge_types = rel.types;
      switch (rel.direction) {
        case RelPattern::Direction::kOut:
          expand->direction = EdgeDirection::kOut;
          break;
        case RelPattern::Direction::kIn:
          expand->direction = EdgeDirection::kIn;
          break;
        case RelPattern::Direction::kBoth:
          expand->direction = EdgeDirection::kBoth;
          break;
      }
      if (rel.variable_length) {
        expand->variable_length = true;
        expand->min_hops = rel.min_hops;
        expand->max_hops = rel.max_hops;
        if (!part.path_variable.empty()) {
          expand->path_var = Fresh("#section");
          path_args.push_back(MakeVariable(expand->path_var));
        }
      } else {
        expand->edge_var = rel.variable;
        clause_edge_vars.push_back(rel.variable);
        bool directed = rel.direction != RelPattern::Direction::kBoth;
        std::string source =
            rel.direction == RelPattern::Direction::kIn ? dst : prev;
        std::string target =
            rel.direction == RelPattern::Direction::kIn ? prev : dst;
        edge_endpoints_[rel.variable] = {source, target, directed,
                                         rel.types};
        path_args.push_back(MakeVariable(rel.variable));
        path_args.push_back(MakeVariable(dst));
        PGIVM_RETURN_IF_ERROR(
            AddPropertySelections(rel.variable, rel.properties, selections));
      }
      plan = std::move(expand);

      // Every node variable gets a get-vertices leaf: it enforces the label
      // constraint and gives the pushdown pass a defining leaf. Variable
      // -length targets always need one (the path join itself is
      // unconstrained); fixed targets only when labelled — their dst column
      // already comes from get-edges after lowering.
      if (!node.labels.empty() || rel.variable_length) {
        plan = JoinOps(std::move(plan), GetVerticesOp(dst, node.labels));
      }
      PGIVM_RETURN_IF_ERROR(
          AddPropertySelections(dst, node.properties, selections));
      prev = dst;
    }

    if (!part.path_variable.empty()) {
      pending_path_columns.emplace_back(
          part.path_variable,
          MakeFunctionCall("#path", std::move(path_args)));
    }
    return plan;
  }

  /// Cypher relationship-uniqueness: distinct relationship variables of one
  /// pattern bind distinct edges. Two variables whose type lists are both
  /// non-empty and disjoint can never bind the same edge, so their
  /// conjunct is skipped. (Paths enforce trail semantics internally;
  /// cross-constraints between paths and single edges are not enforced —
  /// a documented simplification.)
  void AddUniquenessConjuncts(const std::vector<std::string>& edge_vars,
                              std::vector<ExprPtr>& selections) const {
    for (size_t i = 0; i < edge_vars.size(); ++i) {
      for (size_t j = i + 1; j < edge_vars.size(); ++j) {
        if (!MayBindSameEdge(edge_vars[i], edge_vars[j])) continue;
        selections.push_back(MakeBinary(BinaryOp::kNe,
                                        MakeVariable(edge_vars[i]),
                                        MakeVariable(edge_vars[j])));
      }
    }
  }

  bool MayBindSameEdge(const std::string& a, const std::string& b) const {
    const std::vector<std::string>& a_types = edge_endpoints_.at(a).types;
    const std::vector<std::string>& b_types = edge_endpoints_.at(b).types;
    if (a_types.empty() || b_types.empty()) return true;
    for (const std::string& type : a_types) {
      if (std::find(b_types.begin(), b_types.end(), type) != b_types.end()) {
        return true;
      }
    }
    return false;
  }

  Result<OpPtr> CompileMatch(const MatchClause& match, OpPtr current) {
    std::vector<ExprPtr> selections;
    std::vector<std::string> clause_edge_vars;
    std::vector<std::pair<std::string, ExprPtr>> pending_path_columns;

    OpPtr match_plan;
    for (const PatternPart& part : match.parts) {
      PGIVM_ASSIGN_OR_RETURN(
          OpPtr part_plan,
          CompilePart(part, selections, clause_edge_vars,
                      pending_path_columns));
      match_plan = JoinOps(std::move(match_plan), std::move(part_plan));
    }

    AddUniquenessConjuncts(clause_edge_vars, selections);

    // Split WHERE into plain conjuncts and exists(pattern) predicates;
    // the latter become semi-joins (positive) / anti-joins (negated).
    std::vector<std::pair<bool, int>> pattern_conjuncts;  // (negated, index)
    if (match.where) {
      PGIVM_ASSIGN_OR_RETURN(ExprPtr where,
                             RewriteEndpointFunctions(match.where));
      for (const ExprPtr& conjunct : SplitConjuncts(where)) {
        if (conjunct->kind == ExprKind::kPatternPredicate) {
          pattern_conjuncts.emplace_back(false, conjunct->column);
        } else if (conjunct->kind == ExprKind::kUnary &&
                   conjunct->unary_op == UnaryOp::kNot &&
                   conjunct->children[0]->kind ==
                       ExprKind::kPatternPredicate) {
          pattern_conjuncts.emplace_back(true,
                                         conjunct->children[0]->column);
        } else if (ContainsPatternPredicate(conjunct)) {
          return Status::Unimplemented(
              "exists(pattern) must be a top-level WHERE conjunct, "
              "optionally under a single NOT");
        } else {
          selections.push_back(conjunct);
        }
      }
    }

    if (match.optional && current) {
      // WHERE and property predicates evaluate inside the optional side;
      // they may reference optional-pattern variables (including the shared
      // join columns). ComputeSchemas rejects references to outer-only vars.
      PGIVM_ASSIGN_OR_RETURN(
          OpPtr optional_side,
          ApplySelectionsAndPaths(std::move(match_plan), selections,
                                  pending_path_columns));
      PGIVM_ASSIGN_OR_RETURN(
          optional_side,
          ApplyPatternPredicates(std::move(optional_side), match,
                                 pattern_conjuncts));
      return MakeOp(OpKind::kLeftOuterJoin,
                    {std::move(current), std::move(optional_side)});
    }

    OpPtr plan = JoinOps(std::move(current), std::move(match_plan));
    PGIVM_ASSIGN_OR_RETURN(plan,
                           ApplySelectionsAndPaths(std::move(plan),
                                                   selections,
                                                   pending_path_columns));
    return ApplyPatternPredicates(std::move(plan), match, pattern_conjuncts);
  }

  /// Attaches one semi-/anti-join per exists(pattern) conjunct. The pattern
  /// compiles like a pattern part; shared variables with the outer plan
  /// become the join keys, its own predicates become an inner selection.
  Result<OpPtr> ApplyPatternPredicates(
      OpPtr plan, const MatchClause& match,
      const std::vector<std::pair<bool, int>>& pattern_conjuncts) {
    for (const auto& [negated, index] : pattern_conjuncts) {
      if (index < 0 ||
          static_cast<size_t>(index) >= match.pattern_predicates.size()) {
        return Status::Internal("dangling exists() pattern reference");
      }
      std::vector<ExprPtr> sub_selections;
      std::vector<std::string> sub_edge_vars;
      std::vector<std::pair<std::string, ExprPtr>> sub_paths;
      PGIVM_ASSIGN_OR_RETURN(
          OpPtr sub_plan,
          CompilePart(match.pattern_predicates[static_cast<size_t>(index)],
                      sub_selections, sub_edge_vars, sub_paths));
      AddUniquenessConjuncts(sub_edge_vars, sub_selections);
      if (!sub_selections.empty()) {
        OpPtr sel = MakeOp(OpKind::kSelection, {std::move(sub_plan)});
        sel->predicate = ConjoinAll(sub_selections);
        sub_plan = std::move(sel);
      }
      plan = MakeOp(negated ? OpKind::kAntiJoin : OpKind::kSemiJoin,
                    {std::move(plan), std::move(sub_plan)});
    }
    return plan;
  }

  /// Wraps `plan` with the accumulated selection conjuncts, then (for named
  /// paths) a projection that keeps every column and adds the `#path(...)`
  /// columns.
  Result<OpPtr> ApplySelectionsAndPaths(
      OpPtr plan, std::vector<ExprPtr>& selections,
      std::vector<std::pair<std::string, ExprPtr>>& pending_path_columns) {
    if (!selections.empty()) {
      OpPtr sel = MakeOp(OpKind::kSelection, {std::move(plan)});
      sel->predicate = ConjoinAll(selections);
      plan = std::move(sel);
    }
    if (!pending_path_columns.empty()) {
      OpPtr proj = MakeOp(OpKind::kProjection, {plan});
      // The identity part of the projection needs the child's column list.
      PGIVM_RETURN_IF_ERROR(ComputeSchemas(proj->children[0]));
      for (const Attribute& attr : proj->children[0]->schema.attributes()) {
        proj->projections.emplace_back(attr.name, MakeVariable(attr.name));
      }
      for (auto& [name, expr] : pending_path_columns) {
        proj->projections.emplace_back(name, expr);
      }
      plan = std::move(proj);
    }
    return plan;
  }

  Result<OpPtr> CompileUnwind(const UnwindClause& unwind, OpPtr current) {
    if (!current) current = MakeOp(OpKind::kUnit);
    PGIVM_ASSIGN_OR_RETURN(ExprPtr expr,
                           RewriteEndpointFunctions(unwind.expr));
    OpPtr op = MakeOp(OpKind::kUnnest, {std::move(current)});
    op->unnest_expr = std::move(expr);
    op->unnest_alias = unwind.alias;
    return op;
  }

  /// Shared lowering of WITH and RETURN: aggregation or projection, then
  /// DISTINCT, then (for WITH) a post-selection; RETURN adds the Produce
  /// root carrying the final column names.
  Result<OpPtr> CompileProjectionLike(const std::vector<ReturnItem>& items,
                                      OpPtr current, bool distinct,
                                      const ExprPtr& where, bool is_return) {
    if (!current) current = MakeOp(OpKind::kUnit);

    bool any_aggregate = false;
    for (const ReturnItem& item : items) {
      if (item.expr->ContainsAggregate()) any_aggregate = true;
    }

    OpPtr plan;
    if (any_aggregate) {
      OpPtr agg = MakeOp(OpKind::kAggregate, {std::move(current)});
      for (const ReturnItem& item : items) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr expr,
                               RewriteEndpointFunctions(item.expr));
        if (expr->ContainsAggregate()) {
          if (!expr->IsAggregateCall()) {
            return Status::Unimplemented(
                StrCat("aggregates must be top-level calls; rewrite '",
                       expr->ToString(), "' using WITH"));
          }
          agg->aggregates.emplace_back(item.alias, std::move(expr));
        } else {
          agg->group_by.emplace_back(item.alias, std::move(expr));
        }
      }
      plan = std::move(agg);
    } else {
      OpPtr proj = MakeOp(OpKind::kProjection, {std::move(current)});
      for (const ReturnItem& item : items) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr expr,
                               RewriteEndpointFunctions(item.expr));
        proj->projections.emplace_back(item.alias, std::move(expr));
      }
      plan = std::move(proj);
    }

    if (distinct) plan = MakeOp(OpKind::kDistinct, {std::move(plan)});

    if (where) {
      PGIVM_ASSIGN_OR_RETURN(ExprPtr pred, RewriteEndpointFunctions(where));
      OpPtr sel = MakeOp(OpKind::kSelection, {std::move(plan)});
      sel->predicate = std::move(pred);
      plan = std::move(sel);
    }

    if (is_return) {
      OpPtr produce = MakeOp(OpKind::kProduce, {std::move(plan)});
      for (const ReturnItem& item : items) {
        produce->projections.emplace_back(item.alias,
                                          MakeVariable(item.alias));
      }
      plan = std::move(produce);
    }
    return plan;
  }

  int fresh_counter_ = 0;
  std::unordered_map<std::string, EdgeEndpoints> edge_endpoints_;
};

}  // namespace

Result<OpPtr> CompileToGra(const Query& query) {
  return Compiler().Run(query);
}

}  // namespace pgivm
