#include "algebra/plan_fingerprint.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace pgivm {

namespace {

/// Appends `s` length-prefixed, so user-controlled strings (labels, keys,
/// literals) can never collide with the key syntax around them.
void AppendRaw(const std::string& s, std::string* out) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

void AppendInt(int64_t v, std::string* out) {
  out->append(std::to_string(v));
}

/// Label / edge-type sets are order-insensitive in the operators that carry
/// them (all-of semantics for labels, any-of for types).
void AppendSorted(std::vector<std::string> items, std::string* out) {
  std::sort(items.begin(), items.end());
  out->push_back('[');
  for (const std::string& item : items) {
    AppendRaw(item, out);
    out->push_back(',');
  }
  out->push_back(']');
}

char KindTag(Attribute::Kind kind) {
  switch (kind) {
    case Attribute::Kind::kVertex:
      return 'V';
    case Attribute::Kind::kEdge:
      return 'E';
    case Attribute::Kind::kPath:
      return 'P';
    case Attribute::Kind::kValue:
      return 'v';
  }
  return '?';
}

/// The output layout as attribute kinds only — names are aliases and stay
/// out of the fingerprint.
void AppendSchemaKinds(const Schema& schema, std::string* out) {
  out->push_back('<');
  for (const Attribute& attr : schema.attributes()) {
    out->push_back(KindTag(attr.kind));
  }
  out->push_back('>');
}

const char* ExtractWhatTag(PropertyExtract::What what) {
  switch (what) {
    case PropertyExtract::What::kProperty:
      return "p";
    case PropertyExtract::What::kLabels:
      return "l";
    case PropertyExtract::What::kType:
      return "t";
    case PropertyExtract::What::kPropertyMap:
      return "m";
  }
  return "?";
}

/// Canonical alias-insensitive rendering of `e` evaluated against `scope`:
/// scope variables become positions (#i), comprehension locals become
/// depth references (%d, innermost = 0). Returns false when the expression
/// cannot be canonicalized — the caller then skips sharing for the
/// enclosing operator.
bool CanonExpr(const ExprPtr& e, const Schema& scope,
               std::vector<std::string>* locals, std::string* out) {
  if (e == nullptr) return false;
  switch (e->kind) {
    case ExprKind::kLiteral:
      out->append("lit(");
      out->append(Value::TypeName(e->literal.type()));
      out->push_back(':');
      AppendRaw(e->literal.ToString(), out);
      out->push_back(')');
      return true;

    case ExprKind::kVariable: {
      for (size_t i = locals->size(); i-- > 0;) {
        if ((*locals)[i] == e->name) {
          out->push_back('%');
          AppendInt(static_cast<int64_t>(locals->size() - 1 - i), out);
          return true;
        }
      }
      int index = scope.IndexOf(e->name);
      if (index < 0) return false;
      out->push_back('#');
      AppendInt(index, out);
      return true;
    }

    case ExprKind::kColumnRef:
      out->push_back('#');
      AppendInt(e->column, out);
      return true;

    case ExprKind::kProperty:
      out->append("prop(");
      if (!CanonExpr(e->children[0], scope, locals, out)) return false;
      out->push_back(',');
      AppendRaw(e->name, out);
      out->push_back(')');
      return true;

    case ExprKind::kUnary:
      out->append("un(");
      out->append(UnaryOpName(e->unary_op));
      out->push_back(',');
      if (!CanonExpr(e->children[0], scope, locals, out)) return false;
      out->push_back(')');
      return true;

    case ExprKind::kBinary:
      out->append("bin(");
      out->append(BinaryOpName(e->binary_op));
      out->push_back(',');
      if (!CanonExpr(e->children[0], scope, locals, out)) return false;
      out->push_back(',');
      if (!CanonExpr(e->children[1], scope, locals, out)) return false;
      out->push_back(')');
      return true;

    case ExprKind::kFunctionCall:
      out->append("fn(");
      AppendRaw(e->name, out);
      if (e->star) out->append(",*");
      if (e->distinct) out->append(",d");
      for (const ExprPtr& child : e->children) {
        out->push_back(',');
        if (!CanonExpr(child, scope, locals, out)) return false;
      }
      out->push_back(')');
      return true;

    case ExprKind::kListLiteral:
      out->append("list(");
      for (const ExprPtr& child : e->children) {
        if (!CanonExpr(child, scope, locals, out)) return false;
        out->push_back(',');
      }
      out->push_back(')');
      return true;

    case ExprKind::kMapLiteral:
      out->append("map(");
      for (size_t i = 0; i < e->children.size(); ++i) {
        AppendRaw(e->map_keys[i], out);
        out->push_back('=');
        if (!CanonExpr(e->children[i], scope, locals, out)) return false;
        out->push_back(',');
      }
      out->push_back(')');
      return true;

    case ExprKind::kCase:
      out->append("case(");
      if (e->star) out->append("op,");
      if (e->distinct) out->append("else,");
      for (const ExprPtr& child : e->children) {
        if (!CanonExpr(child, scope, locals, out)) return false;
        out->push_back(',');
      }
      out->push_back(')');
      return true;

    case ExprKind::kComprehension: {
      out->append("compr(");
      AppendRaw(e->map_keys.empty() ? std::string("list") : e->map_keys[0],
                out);
      out->push_back(',');
      // children = [list, where, map]: the list is evaluated in the outer
      // scope, where/map see the local variable.
      if (!CanonExpr(e->children[0], scope, locals, out)) return false;
      locals->push_back(e->name);
      bool ok = true;
      for (size_t i = 1; i < e->children.size() && ok; ++i) {
        out->push_back(',');
        ok = CanonExpr(e->children[i], scope, locals, out);
      }
      locals->pop_back();
      if (!ok) return false;
      out->push_back(')');
      return true;
    }

    case ExprKind::kParameter:
    case ExprKind::kPatternPredicate:
      // Substituted / lowered before FRA; a survivor means this plan is
      // outside what we can canonicalize.
      return false;
  }
  return false;
}

bool CanonExprTop(const ExprPtr& e, const Schema& scope, std::string* out) {
  std::vector<std::string> locals;
  return CanonExpr(e, scope, &locals, out);
}

bool CanonOp(const LogicalOp& op, std::string* out);

/// The extracts of an edge or path leaf: the element each reads by role
/// (source, edge, target), what and key it reads, and its column.
bool AppendEndpointExtracts(const LogicalOp& op, std::string* out) {
  for (const PropertyExtract& extract : op.extracts) {
    int column_pos = op.schema.IndexOf(extract.column_name);
    if (column_pos < 0) return false;
    char role = extract.element_var == op.src_var    ? 's'
                : extract.element_var == op.edge_var ? 'e'
                : extract.element_var == op.dst_var  ? 'd'
                                                     : '?';
    if (role == '?') return false;
    out->push_back(';');
    out->push_back(role);
    out->append(ExtractWhatTag(extract.what));
    AppendRaw(extract.key, out);
    out->push_back('@');
    AppendInt(column_pos, out);
  }
  return true;
}

bool CanonChild(const LogicalOp& op, size_t index, std::string* out) {
  if (index >= op.children.size() || op.children[index] == nullptr) {
    return false;
  }
  return CanonOp(*op.children[index], out);
}

/// Natural-join key pairs of the two child schemas, by position: the join
/// semantics of kJoin/kAntiJoin/kSemiJoin/kLeftOuterJoin are entirely
/// determined by which left column matches which right column.
void AppendJoinPairs(const Schema& left, const Schema& right,
                     std::string* out) {
  out->push_back('{');
  for (size_t i = 0; i < left.size(); ++i) {
    int r = right.IndexOf(left.at(i).name);
    if (r < 0) continue;
    AppendInt(static_cast<int64_t>(i), out);
    out->push_back('~');
    AppendInt(r, out);
    out->push_back(',');
  }
  out->push_back('}');
}

bool CanonOp(const LogicalOp& op, std::string* out) {
  switch (op.kind) {
    case OpKind::kUnit:
      out->append("Unit");
      return true;

    case OpKind::kGetVertices: {
      out->append("V(");
      AppendSorted(op.labels, out);
      int vertex_pos = op.schema.IndexOf(op.vertex_var);
      if (vertex_pos < 0) return false;
      out->push_back('@');
      AppendInt(vertex_pos, out);
      for (const PropertyExtract& extract : op.extracts) {
        int column_pos = op.schema.IndexOf(extract.column_name);
        if (column_pos < 0) return false;
        out->push_back(';');
        out->append(ExtractWhatTag(extract.what));
        AppendRaw(extract.key, out);
        out->push_back('@');
        AppendInt(column_pos, out);
      }
      out->push_back(')');
      AppendSchemaKinds(op.schema, out);
      return true;
    }

    case OpKind::kGetEdges: {
      out->append("E(");
      AppendSorted(op.edge_types, out);
      AppendInt(static_cast<int64_t>(op.direction), out);
      AppendSorted(op.src_labels, out);
      AppendSorted(op.dst_labels, out);
      // Anonymous pattern elements may be absent from the schema: -1 is a
      // legitimate canonical position ("not emitted").
      out->push_back('@');
      AppendInt(op.schema.IndexOf(op.src_var), out);
      out->push_back(',');
      AppendInt(op.schema.IndexOf(op.edge_var), out);
      out->push_back(',');
      AppendInt(op.schema.IndexOf(op.dst_var), out);
      if (!AppendEndpointExtracts(op, out)) return false;
      out->push_back(')');
      AppendSchemaKinds(op.schema, out);
      return true;
    }

    case OpKind::kGetPaths: {
      out->append("GP(");
      AppendSorted(op.edge_types, out);
      AppendInt(static_cast<int64_t>(op.direction), out);
      out->push_back(',');
      AppendInt(op.min_hops, out);
      out->push_back(',');
      AppendInt(op.max_hops, out);
      AppendSorted(op.src_labels, out);
      AppendSorted(op.dst_labels, out);
      out->push_back('@');
      AppendInt(op.schema.IndexOf(op.src_var), out);
      out->push_back(',');
      AppendInt(op.schema.IndexOf(op.dst_var), out);
      out->push_back(',');
      AppendInt(op.path_var.empty() ? -1 : op.schema.IndexOf(op.path_var),
                out);
      if (!AppendEndpointExtracts(op, out)) return false;
      out->push_back(')');
      AppendSchemaKinds(op.schema, out);
      return true;
    }

    case OpKind::kSelection: {
      out->append("S(");
      if (!CanonChild(op, 0, out)) return false;
      out->push_back(';');
      if (!CanonExprTop(op.predicate, op.children[0]->schema, out)) {
        return false;
      }
      out->push_back(')');
      return true;
    }

    case OpKind::kProjection:
    case OpKind::kProduce: {
      // Produce is built as a plain projection; column *names* are aliases
      // and stay out of the key.
      out->append("P(");
      if (!CanonChild(op, 0, out)) return false;
      out->push_back(';');
      for (const auto& [name, expr] : op.projections) {
        (void)name;
        if (!CanonExprTop(expr, op.children[0]->schema, out)) return false;
        out->push_back(',');
      }
      out->push_back(')');
      AppendSchemaKinds(op.schema, out);
      return true;
    }

    case OpKind::kJoin:
    case OpKind::kAntiJoin:
    case OpKind::kSemiJoin: {
      out->append(op.kind == OpKind::kJoin       ? "J("
                  : op.kind == OpKind::kAntiJoin ? "AJ("
                                                 : "SJ(");
      if (!CanonChild(op, 0, out)) return false;
      out->push_back(',');
      if (!CanonChild(op, 1, out)) return false;
      out->push_back(';');
      AppendJoinPairs(op.children[0]->schema, op.children[1]->schema, out);
      out->push_back(')');
      AppendSchemaKinds(op.schema, out);
      return true;
    }

    case OpKind::kLeftOuterJoin: {
      out->append("LOJ(");
      if (!CanonChild(op, 0, out)) return false;
      out->push_back(',');
      if (!CanonChild(op, 1, out)) return false;
      out->push_back(';');
      AppendJoinPairs(op.children[0]->schema, op.children[1]->schema, out);
      // The null-pad projection: which output columns come from the left
      // child (by position) and which are padded.
      const Schema& left = op.children[0]->schema;
      out->push_back('{');
      for (const Attribute& attr : op.schema.attributes()) {
        int left_pos = left.IndexOf(attr.name);
        if (left_pos >= 0) {
          out->push_back('l');
          AppendInt(left_pos, out);
        } else {
          out->push_back('n');
        }
        out->push_back(',');
      }
      out->push_back('}');
      out->push_back(')');
      AppendSchemaKinds(op.schema, out);
      return true;
    }

    case OpKind::kUnion: {
      out->append("UN(");
      if (!CanonChild(op, 0, out)) return false;
      out->push_back(',');
      if (!CanonChild(op, 1, out)) return false;
      out->push_back(';');
      // Right columns are aligned to the left's order by name.
      const Schema& left = op.children[0]->schema;
      const Schema& right = op.children[1]->schema;
      out->push_back('{');
      for (const Attribute& attr : left.attributes()) {
        int right_pos = right.IndexOf(attr.name);
        if (right_pos < 0) return false;
        AppendInt(right_pos, out);
        out->push_back(',');
      }
      out->push_back('}');
      out->push_back(')');
      return true;
    }

    case OpKind::kDistinct: {
      out->append("D(");
      if (!CanonChild(op, 0, out)) return false;
      out->push_back(')');
      return true;
    }

    case OpKind::kAggregate: {
      out->append("G(");
      if (!CanonChild(op, 0, out)) return false;
      out->push_back(';');
      const Schema& child = op.children[0]->schema;
      for (const auto& [name, expr] : op.group_by) {
        (void)name;
        if (!CanonExprTop(expr, child, out)) return false;
        out->push_back(',');
      }
      out->push_back(';');
      for (const auto& [name, expr] : op.aggregates) {
        (void)name;
        if (!CanonExprTop(expr, child, out)) return false;
        out->push_back(',');
      }
      out->push_back(')');
      AppendSchemaKinds(op.schema, out);
      return true;
    }

    case OpKind::kUnnest: {
      out->append("X(");
      if (!CanonChild(op, 0, out)) return false;
      out->push_back(';');
      const Schema& child = op.children[0]->schema;
      if (!CanonExprTop(op.unnest_expr, child, out)) return false;
      // Kept columns, exactly as the builder computes them.
      out->push_back('{');
      for (size_t i = 0; i < child.size(); ++i) {
        const std::string& name = child.at(i).name;
        bool dropped = false;
        for (const std::string& d : op.unnest_drop_columns) {
          if (d == name) dropped = true;
        }
        if (!dropped) {
          AppendInt(static_cast<int64_t>(i), out);
          out->push_back(',');
        }
      }
      out->push_back('}');
      out->push_back(')');
      AppendSchemaKinds(op.schema, out);
      return true;
    }

    case OpKind::kExpand:
    case OpKind::kPathJoin:
      return false;  // removed by LowerToFra; never instantiated
  }
  return false;
}

// ---- expression canonicalization -------------------------------------------

/// AND/OR are associative and commutative (also in three-valued logic), so
/// their chains are flattened, key-sorted and rebuilt; the other commutative
/// operators only swap their two operands into key order. `+` is excluded —
/// it concatenates strings and lists.
bool IsChainOp(BinaryOp op) {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

bool IsSwapOp(BinaryOp op) {
  return op == BinaryOp::kXor || op == BinaryOp::kEq ||
         op == BinaryOp::kNe || op == BinaryOp::kMul;
}

void FlattenChain(const ExprPtr& e, BinaryOp op, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == op) {
    FlattenChain(e->children[0], op, out);
    FlattenChain(e->children[1], op, out);
    return;
  }
  out->push_back(e);
}

/// Keys `terms` for ordering: canonical key first; expressions that cannot
/// be keyed sort after every keyable one, keeping their original relative
/// order (stable sort) so the result is at least deterministic per query.
void SortTermsByKey(std::vector<ExprPtr>& terms, const Schema& scope,
                    const std::vector<std::string>& locals) {
  std::vector<std::pair<std::string, ExprPtr>> keyed;
  keyed.reserve(terms.size());
  for (const ExprPtr& term : terms) {
    std::string key;
    std::vector<std::string> locals_copy = locals;
    if (!CanonExpr(term, scope, &locals_copy, &key)) key.clear();
    keyed.emplace_back(std::move(key), term);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return CanonicalKeyLess(a.first, b.first);
                   });
  terms.clear();
  for (auto& [key, term] : keyed) {
    (void)key;
    terms.push_back(std::move(term));
  }
}

ExprPtr RewriteCanonical(const ExprPtr& e, const Schema& scope,
                         std::vector<std::string>* locals) {
  if (e == nullptr) return e;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  if (e->kind == ExprKind::kComprehension && !e->children.empty()) {
    // children = [list, where, map]: only the list sees the outer scope.
    children.push_back(RewriteCanonical(e->children[0], scope, locals));
    locals->push_back(e->name);
    for (size_t i = 1; i < e->children.size(); ++i) {
      children.push_back(RewriteCanonical(e->children[i], scope, locals));
    }
    locals->pop_back();
  } else {
    for (const ExprPtr& child : e->children) {
      children.push_back(RewriteCanonical(child, scope, locals));
    }
  }
  for (size_t i = 0; i < children.size(); ++i) {
    if (children[i] != e->children[i]) changed = true;
  }

  if (e->kind == ExprKind::kBinary && IsChainOp(e->binary_op)) {
    auto rebuilt = std::make_shared<Expression>(*e);
    rebuilt->children = std::move(children);
    std::vector<ExprPtr> terms;
    FlattenChain(rebuilt, e->binary_op, &terms);
    SortTermsByKey(terms, scope, *locals);
    ExprPtr chain = terms.front();
    for (size_t i = 1; i < terms.size(); ++i) {
      chain = MakeBinary(e->binary_op, std::move(chain), terms[i]);
    }
    return chain;
  }

  if (e->kind == ExprKind::kBinary && IsSwapOp(e->binary_op)) {
    std::string left_key, right_key;
    std::vector<std::string> locals_copy = *locals;
    bool left_ok = CanonExpr(children[0], scope, &locals_copy, &left_key);
    locals_copy = *locals;
    bool right_ok = CanonExpr(children[1], scope, &locals_copy, &right_key);
    if (left_ok && right_ok && right_key < left_key) {
      std::swap(children[0], children[1]);
      changed = true;
    }
  }

  if (!changed) return e;
  auto copy = std::make_shared<Expression>(*e);
  copy->children = std::move(children);
  return copy;
}

}  // namespace

std::string CanonicalPlanKey(const LogicalOp& op) {
  std::string key;
  if (!CanonOp(op, &key)) return std::string();
  return key;
}

std::string CanonicalExprKey(const ExprPtr& expr, const Schema& scope) {
  std::string key;
  if (!CanonExprTop(expr, scope, &key)) return std::string();
  return key;
}

ExprPtr CanonicalizeExpr(const ExprPtr& expr, const Schema& scope) {
  std::vector<std::string> locals;
  return RewriteCanonical(expr, scope, &locals);
}

bool CanonicalKeyLess(const std::string& a, const std::string& b) {
  if (a.empty() != b.empty()) return b.empty();
  return a < b;
}

uint64_t FingerprintHash(const std::string& key) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : key) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

std::string FingerprintHex(const std::string& key) {
  static const char* kHex = "0123456789abcdef";
  uint64_t hash = FingerprintHash(key);
  std::string out;
  out.reserve(16);
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(hash >> shift) & 0xf]);
  }
  return out;
}

std::string FormatFingerprint(const std::string& key) {
  return key.empty() ? "fp=-" : "fp=" + FingerprintHex(key);
}

bool ExtractLess(const PropertyExtract& a, const PropertyExtract& b,
                 const LogicalOp& leaf) {
  auto role = [&leaf](const PropertyExtract& e) {
    if (e.element_var == leaf.src_var) return 0;
    if (e.element_var == leaf.edge_var) return 1;
    if (e.element_var == leaf.dst_var) return 2;
    return 3;  // vertex leaves: single element, role irrelevant
  };
  if (role(a) != role(b)) return role(a) < role(b);
  if (a.what != b.what) return a.what < b.what;
  return a.key < b.key;
}

OpPtr MirrorUndirectedLeaf(const LogicalOp& op) {
  if (op.kind != OpKind::kGetEdges || !op.children.empty() ||
      op.direction != EdgeDirection::kBoth) {
    return nullptr;
  }
  auto mirror = std::make_shared<LogicalOp>(op);
  std::swap(mirror->src_var, mirror->dst_var);
  std::swap(mirror->src_labels, mirror->dst_labels);
  // Extract roles flipped with the swap; restore the canonical order.
  std::sort(mirror->extracts.begin(), mirror->extracts.end(),
            [&mirror](const PropertyExtract& a, const PropertyExtract& b) {
              return ExtractLess(a, b, *mirror);
            });
  if (!ComputeSchemaShallow(mirror).ok()) return nullptr;
  return mirror;
}

}  // namespace pgivm
