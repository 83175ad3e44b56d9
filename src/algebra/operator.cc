#include "algebra/operator.h"

#include <functional>
#include <sstream>
#include <unordered_set>

#include "support/string_util.h"

namespace pgivm {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kUnit:
      return "Unit";
    case OpKind::kGetVertices:
      return "GetVertices";
    case OpKind::kGetEdges:
      return "GetEdges";
    case OpKind::kGetPaths:
      return "GetPaths";
    case OpKind::kExpand:
      return "Expand";
    case OpKind::kPathJoin:
      return "PathJoin";
    case OpKind::kSelection:
      return "Selection";
    case OpKind::kProjection:
      return "Projection";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kLeftOuterJoin:
      return "LeftOuterJoin";
    case OpKind::kAntiJoin:
      return "AntiJoin";
    case OpKind::kSemiJoin:
      return "SemiJoin";
    case OpKind::kUnion:
      return "Union";
    case OpKind::kDistinct:
      return "Distinct";
    case OpKind::kAggregate:
      return "Aggregate";
    case OpKind::kUnnest:
      return "Unnest";
    case OpKind::kProduce:
      return "Produce";
  }
  return "Unknown";
}

bool IsGraphLeaf(OpKind kind) {
  return kind == OpKind::kGetVertices || kind == OpKind::kGetEdges ||
         kind == OpKind::kGetPaths;
}

std::string PropertyExtract::ToString() const {
  switch (what) {
    case What::kProperty:
      return StrCat(element_var, ".", key, " -> ", column_name);
    case What::kLabels:
      return StrCat("labels(", element_var, ") -> ", column_name);
    case What::kType:
      return StrCat("type(", element_var, ") -> ", column_name);
    case What::kPropertyMap:
      return StrCat("properties(", element_var, ") -> ", column_name);
  }
  return "?";
}

std::string LogicalOp::DebugString() const {
  std::ostringstream os;
  os << OpKindName(kind);
  auto print_extracts = [&os](const std::vector<PropertyExtract>& ex) {
    if (ex.empty()) return;
    os << " {";
    for (size_t i = 0; i < ex.size(); ++i) {
      if (i > 0) os << ", ";
      os << ex[i].ToString();
    }
    os << "}";
  };
  switch (kind) {
    case OpKind::kUnit:
      break;
    case OpKind::kGetVertices:
      os << " " << vertex_var;
      for (const std::string& l : labels) os << ":" << l;
      print_extracts(extracts);
      break;
    case OpKind::kGetEdges: {
      const char* arrow_in = direction == EdgeDirection::kIn ? "<-" : "-";
      const char* arrow_out = direction == EdgeDirection::kOut ? "->" : "-";
      os << " (" << src_var;
      for (const std::string& l : src_labels) os << ":" << l;
      os << ")" << arrow_in << "[" << edge_var;
      for (size_t i = 0; i < edge_types.size(); ++i) {
        os << (i == 0 ? ":" : "|") << edge_types[i];
      }
      os << "]" << arrow_out << "(" << dst_var;
      for (const std::string& l : dst_labels) os << ":" << l;
      os << ")";
      print_extracts(extracts);
      break;
    }
    case OpKind::kGetPaths:
    case OpKind::kExpand:
    case OpKind::kPathJoin: {
      const char* arrow_in = direction == EdgeDirection::kIn ? "<-" : "-";
      const char* arrow_out = direction == EdgeDirection::kOut ? "->" : "-";
      os << " (" << src_var;
      for (const std::string& l : src_labels) os << ":" << l;
      os << ")" << arrow_in << "[";
      if (!edge_var.empty()) os << edge_var;
      for (size_t i = 0; i < edge_types.size(); ++i) {
        os << (i == 0 ? ":" : "|") << edge_types[i];
      }
      if (variable_length || kind == OpKind::kGetPaths) {
        os << "*" << min_hops << "..";
        if (max_hops >= 0) os << max_hops;
      }
      os << "]" << arrow_out << "(" << dst_var;
      for (const std::string& l : dst_labels) os << ":" << l;
      os << ")";
      if (!path_var.empty()) os << " path=" << path_var;
      print_extracts(extracts);
      break;
    }
    case OpKind::kSelection:
      os << " " << predicate->ToString();
      break;
    case OpKind::kProjection:
    case OpKind::kProduce: {
      os << " ";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i > 0) os << ", ";
        os << projections[i].second->ToString() << " AS "
           << projections[i].first;
      }
      break;
    }
    case OpKind::kJoin:
    case OpKind::kLeftOuterJoin:
    case OpKind::kAntiJoin:
    case OpKind::kSemiJoin:
    case OpKind::kUnion:
    case OpKind::kDistinct:
      break;
    case OpKind::kAggregate: {
      os << " group[";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i > 0) os << ", ";
        os << group_by[i].second->ToString() << " AS " << group_by[i].first;
      }
      os << "] agg[";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) os << ", ";
        os << aggregates[i].second->ToString() << " AS "
           << aggregates[i].first;
      }
      os << "]";
      break;
    }
    case OpKind::kUnnest:
      os << " " << unnest_expr->ToString() << " AS " << unnest_alias;
      break;
  }
  return os.str();
}

OpPtr MakeOp(OpKind kind, std::vector<OpPtr> children) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = kind;
  op->children = std::move(children);
  return op;
}

OpPtr CloneTree(const OpPtr& op) {
  auto copy = std::make_shared<LogicalOp>(*op);
  for (OpPtr& child : copy->children) child = CloneTree(child);
  return copy;
}

void CollectPostOrder(const OpPtr& root, std::vector<OpPtr>& out) {
  for (const OpPtr& child : root->children) CollectPostOrder(child, out);
  out.push_back(root);
}

namespace {

Status CheckArity(const LogicalOp& op, size_t want) {
  if (op.children.size() != want) {
    return Status::Internal(StrCat(OpKindName(op.kind), " expects ", want,
                                   " children, has ", op.children.size()));
  }
  return Status::Ok();
}

Status AddUnique(Schema& schema, Attribute attr, const LogicalOp& op) {
  if (schema.Contains(attr.name)) {
    return Status::InvalidArgument(
        StrCat(OpKindName(op.kind), ": duplicate column '", attr.name, "'"));
  }
  schema.Add(std::move(attr));
  return Status::Ok();
}

Status AddExtracts(Schema& schema, const LogicalOp& op) {
  for (const PropertyExtract& extract : op.extracts) {
    if (!schema.Contains(extract.element_var)) {
      return Status::InvalidArgument(
          StrCat("extract refers to unknown column '", extract.element_var,
                 "' in ", OpKindName(op.kind)));
    }
    PGIVM_RETURN_IF_ERROR(AddUnique(
        schema, {extract.column_name, Attribute::Kind::kValue}, op));
  }
  return Status::Ok();
}

/// Verifies every free variable of `expr` is a column of `schema`.
Status CheckBound(const ExprPtr& expr, const Schema& schema,
                  const char* where) {
  std::vector<std::string> vars;
  expr->CollectVariables(vars);
  for (const std::string& var : vars) {
    if (!schema.Contains(var)) {
      return Status::InvalidArgument(StrCat("variable '", var, "' in ", where,
                                            " is not in scope ",
                                            schema.ToString()));
    }
  }
  return Status::Ok();
}

/// Output column kind for a projected expression: variables inherit their
/// source kind, the internal #path constructor yields a path.
Attribute::Kind ProjectedKind(const ExprPtr& expr, const Schema& input) {
  if (expr->kind == ExprKind::kVariable) {
    int idx = input.IndexOf(expr->name);
    if (idx >= 0) return input.at(static_cast<size_t>(idx)).kind;
  }
  if (expr->kind == ExprKind::kFunctionCall && expr->name == "#path") {
    return Attribute::Kind::kPath;
  }
  return Attribute::Kind::kValue;
}

Status ComputeOne(const OpPtr& op) {
  Schema schema;
  switch (op->kind) {
    case OpKind::kUnit:
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 0));
      break;

    case OpKind::kGetVertices:
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 0));
      PGIVM_RETURN_IF_ERROR(AddUnique(
          schema, {op->vertex_var, Attribute::Kind::kVertex}, *op));
      PGIVM_RETURN_IF_ERROR(AddExtracts(schema, *op));
      break;

    case OpKind::kGetEdges:
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 0));
      PGIVM_RETURN_IF_ERROR(
          AddUnique(schema, {op->src_var, Attribute::Kind::kVertex}, *op));
      PGIVM_RETURN_IF_ERROR(
          AddUnique(schema, {op->edge_var, Attribute::Kind::kEdge}, *op));
      PGIVM_RETURN_IF_ERROR(
          AddUnique(schema, {op->dst_var, Attribute::Kind::kVertex}, *op));
      PGIVM_RETURN_IF_ERROR(AddExtracts(schema, *op));
      break;

    case OpKind::kGetPaths:
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 0));
      PGIVM_RETURN_IF_ERROR(
          AddUnique(schema, {op->src_var, Attribute::Kind::kVertex}, *op));
      PGIVM_RETURN_IF_ERROR(
          AddUnique(schema, {op->dst_var, Attribute::Kind::kVertex}, *op));
      if (!op->path_var.empty()) {
        PGIVM_RETURN_IF_ERROR(
            AddUnique(schema, {op->path_var, Attribute::Kind::kPath}, *op));
      }
      PGIVM_RETURN_IF_ERROR(AddExtracts(schema, *op));
      break;

    case OpKind::kExpand:
    case OpKind::kPathJoin: {
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 1));
      schema = op->children[0]->schema;
      if (!schema.Contains(op->src_var)) {
        return Status::InvalidArgument(
            StrCat(OpKindName(op->kind), ": source variable '", op->src_var,
                   "' is not bound by the input"));
      }
      if (!op->variable_length) {
        PGIVM_RETURN_IF_ERROR(
            AddUnique(schema, {op->edge_var, Attribute::Kind::kEdge}, *op));
      }
      PGIVM_RETURN_IF_ERROR(
          AddUnique(schema, {op->dst_var, Attribute::Kind::kVertex}, *op));
      if (!op->path_var.empty()) {
        PGIVM_RETURN_IF_ERROR(
            AddUnique(schema, {op->path_var, Attribute::Kind::kPath}, *op));
      }
      break;
    }

    case OpKind::kSelection:
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 1));
      schema = op->children[0]->schema;
      PGIVM_RETURN_IF_ERROR(CheckBound(op->predicate, schema, "WHERE"));
      break;

    case OpKind::kProjection:
    case OpKind::kProduce: {
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 1));
      const Schema& input = op->children[0]->schema;
      for (const auto& [name, expr] : op->projections) {
        PGIVM_RETURN_IF_ERROR(CheckBound(expr, input, "projection"));
        PGIVM_RETURN_IF_ERROR(
            AddUnique(schema, {name, ProjectedKind(expr, input)}, *op));
      }
      break;
    }

    case OpKind::kJoin:
    case OpKind::kLeftOuterJoin: {
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 2));
      schema = op->children[0]->schema;
      const Schema& right = op->children[1]->schema;
      for (const Attribute& attr : right.attributes()) {
        if (!schema.Contains(attr.name)) schema.Add(attr);
      }
      break;
    }

    case OpKind::kAntiJoin:
    case OpKind::kSemiJoin:
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 2));
      schema = op->children[0]->schema;
      break;

    case OpKind::kUnion: {
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 2));
      schema = op->children[0]->schema;
      const Schema& right = op->children[1]->schema;
      if (schema.size() != right.size()) {
        return Status::InvalidArgument("UNION inputs have different widths");
      }
      for (const Attribute& attr : schema.attributes()) {
        if (!right.Contains(attr.name)) {
          return Status::InvalidArgument(
              StrCat("UNION right input lacks column '", attr.name, "'"));
        }
      }
      break;
    }

    case OpKind::kDistinct:
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 1));
      schema = op->children[0]->schema;
      break;

    case OpKind::kAggregate: {
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 1));
      const Schema& input = op->children[0]->schema;
      for (const auto& [name, expr] : op->group_by) {
        PGIVM_RETURN_IF_ERROR(CheckBound(expr, input, "group key"));
        PGIVM_RETURN_IF_ERROR(
            AddUnique(schema, {name, ProjectedKind(expr, input)}, *op));
      }
      for (const auto& [name, expr] : op->aggregates) {
        if (!expr->IsAggregateCall()) {
          return Status::InvalidArgument(
              StrCat("aggregate item '", name,
                     "' is not a plain aggregate call: ", expr->ToString()));
        }
        PGIVM_RETURN_IF_ERROR(CheckBound(expr, input, "aggregate"));
        PGIVM_RETURN_IF_ERROR(
            AddUnique(schema, {name, Attribute::Kind::kValue}, *op));
      }
      break;
    }

    case OpKind::kUnnest: {
      PGIVM_RETURN_IF_ERROR(CheckArity(*op, 1));
      const Schema& input = op->children[0]->schema;
      PGIVM_RETURN_IF_ERROR(CheckBound(op->unnest_expr, input, "UNWIND"));
      for (const std::string& dropped : op->unnest_drop_columns) {
        if (!input.Contains(dropped)) {
          return Status::Internal(
              StrCat("unnest drops unknown column '", dropped, "'"));
        }
      }
      for (const Attribute& attr : input.attributes()) {
        bool dropped = false;
        for (const std::string& name : op->unnest_drop_columns) {
          if (name == attr.name) dropped = true;
        }
        if (!dropped) schema.Add(attr);
      }
      // Unnesting nodes()/relationships() of a path yields graph elements;
      // the kind lets property pushdown treat the alias as such (the
      // paper's path-unwinding feature).
      Attribute::Kind alias_kind = Attribute::Kind::kValue;
      if (op->unnest_expr->kind == ExprKind::kFunctionCall) {
        if (op->unnest_expr->name == "nodes") {
          alias_kind = Attribute::Kind::kVertex;
        } else if (op->unnest_expr->name == "relationships") {
          alias_kind = Attribute::Kind::kEdge;
        }
      }
      PGIVM_RETURN_IF_ERROR(
          AddUnique(schema, {op->unnest_alias, alias_kind}, *op));
      break;
    }
  }
  op->schema = std::move(schema);
  return Status::Ok();
}

}  // namespace

Status ComputeSchemas(const OpPtr& root) {
  for (const OpPtr& child : root->children) {
    PGIVM_RETURN_IF_ERROR(ComputeSchemas(child));
  }
  return ComputeOne(root);
}

Status ComputeSchemaShallow(const OpPtr& op) { return ComputeOne(op); }

namespace {

bool ExprEqual(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return Expression::Equal(*a, *b);
}

bool NamedExprsEqual(
    const std::vector<std::pair<std::string, ExprPtr>>& a,
    const std::vector<std::pair<std::string, ExprPtr>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !ExprEqual(a[i].second, b[i].second)) {
      return false;
    }
  }
  return true;
}

size_t HashString(const std::string& s) {
  return std::hash<std::string>{}(s);
}

}  // namespace

bool PlanEqual(const OpPtr& a, const OpPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != b->kind || a->children.size() != b->children.size()) {
    return false;
  }
  if (a->vertex_var != b->vertex_var || a->labels != b->labels ||
      a->src_var != b->src_var || a->edge_var != b->edge_var ||
      a->dst_var != b->dst_var || a->edge_types != b->edge_types ||
      a->src_labels != b->src_labels || a->dst_labels != b->dst_labels ||
      a->direction != b->direction ||
      a->variable_length != b->variable_length ||
      a->min_hops != b->min_hops || a->max_hops != b->max_hops ||
      a->path_var != b->path_var || a->extracts != b->extracts ||
      a->unnest_alias != b->unnest_alias ||
      a->unnest_drop_columns != b->unnest_drop_columns) {
    return false;
  }
  if (!ExprEqual(a->predicate, b->predicate) ||
      !ExprEqual(a->unnest_expr, b->unnest_expr) ||
      !NamedExprsEqual(a->projections, b->projections) ||
      !NamedExprsEqual(a->group_by, b->group_by) ||
      !NamedExprsEqual(a->aggregates, b->aggregates)) {
    return false;
  }
  for (size_t i = 0; i < a->children.size(); ++i) {
    if (!PlanEqual(a->children[i], b->children[i])) return false;
  }
  return true;
}

size_t PlanHash(const OpPtr& op) {
  if (op == nullptr) return 0;
  size_t seed = static_cast<size_t>(op->kind) * 0x9e3779b97f4a7c15ull;
  HashCombine(seed, HashString(op->vertex_var));
  for (const std::string& label : op->labels) {
    HashCombine(seed, HashString(label));
  }
  HashCombine(seed, HashString(op->src_var));
  HashCombine(seed, HashString(op->edge_var));
  HashCombine(seed, HashString(op->dst_var));
  for (const std::string& type : op->edge_types) {
    HashCombine(seed, HashString(type));
  }
  for (const auto* labels : {&op->src_labels, &op->dst_labels}) {
    HashCombine(seed, labels->size());
    for (const std::string& label : *labels) {
      HashCombine(seed, HashString(label));
    }
  }
  HashCombine(seed, static_cast<size_t>(op->direction));
  HashCombine(seed, static_cast<size_t>(op->min_hops));
  HashCombine(seed, static_cast<size_t>(op->max_hops));
  HashCombine(seed, HashString(op->path_var));
  for (const PropertyExtract& extract : op->extracts) {
    HashCombine(seed, static_cast<size_t>(extract.what));
    HashCombine(seed, HashString(extract.element_var));
    HashCombine(seed, HashString(extract.key));
    HashCombine(seed, HashString(extract.column_name));
  }
  if (op->predicate != nullptr) HashCombine(seed, op->predicate->Hash());
  if (op->unnest_expr != nullptr) HashCombine(seed, op->unnest_expr->Hash());
  HashCombine(seed, HashString(op->unnest_alias));
  for (const std::string& dropped : op->unnest_drop_columns) {
    HashCombine(seed, HashString(dropped));
  }
  for (const auto* named :
       {&op->projections, &op->group_by, &op->aggregates}) {
    for (const auto& [name, expr] : *named) {
      HashCombine(seed, HashString(name));
      if (expr != nullptr) HashCombine(seed, expr->Hash());
    }
  }
  for (const OpPtr& child : op->children) {
    HashCombine(seed, PlanHash(child));
  }
  return seed;
}

}  // namespace pgivm
