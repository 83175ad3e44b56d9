#include <unordered_map>
#include <unordered_set>

#include "algebra/passes/pass_manager.h"
#include "support/string_util.h"

namespace pgivm {

namespace {

/// Where a column's graph element is defined: the ◯/⇑ leaf and the leaf
/// column that binds it.
struct Origin {
  LogicalOp* leaf = nullptr;
  std::string var;
};

using OriginMap = std::unordered_map<std::string, Origin>;

/// One property/metadata access found in an operator's expressions.
struct Access {
  PropertyExtract::What what;
  std::string var;
  std::string key;  // kProperty only

  bool operator==(const Access& other) const {
    return what == other.what && var == other.var && key == other.key;
  }
};

struct AccessHash {
  size_t operator()(const Access& a) const {
    size_t seed = static_cast<size_t>(a.what);
    HashCombine(seed, std::hash<std::string>{}(a.var));
    HashCombine(seed, std::hash<std::string>{}(a.key));
    return seed;
  }
};

std::string ExtractColumnName(const Access& access) {
  switch (access.what) {
    case PropertyExtract::What::kProperty:
      return StrCat("#", access.var, ".", access.key);
    case PropertyExtract::What::kLabels:
      return StrCat("#labels(", access.var, ")");
    case PropertyExtract::What::kType:
      return StrCat("#type(", access.var, ")");
    case PropertyExtract::What::kPropertyMap:
      return StrCat("#props(", access.var, ")");
  }
  return "#?";
}

class PushdownPass {
 public:
  explicit PushdownPass(bool naive) : naive_(naive) {}

  Status Run(const OpPtr& root) {
    PGIVM_RETURN_IF_ERROR(Walk(root));
    return ComputeSchemas(root);
  }

 private:
  /// Computes which output columns of `op` are leaf-bound graph elements.
  OriginMap Origins(const OpPtr& op) {
    OriginMap map;
    switch (op->kind) {
      case OpKind::kGetVertices:
        map[op->vertex_var] = {op.get(), op->vertex_var};
        break;
      case OpKind::kGetEdges:
        map[op->src_var] = {op.get(), op->src_var};
        map[op->edge_var] = {op.get(), op->edge_var};
        map[op->dst_var] = {op.get(), op->dst_var};
        break;
      case OpKind::kJoin:
      case OpKind::kLeftOuterJoin: {
        OriginMap left = Origins(op->children[0]);
        OriginMap right = Origins(op->children[1]);
        map = std::move(left);
        for (auto& [name, origin] : right) {
          auto it = map.find(name);
          // Prefer get-vertices leaves: their input nodes react to vertex
          // updates directly instead of via incident-edge lookups.
          if (it == map.end() ||
              (it->second.leaf->kind != OpKind::kGetVertices &&
               origin.leaf->kind == OpKind::kGetVertices)) {
            map[name] = origin;
          }
        }
        break;
      }
      case OpKind::kAntiJoin:
      case OpKind::kSemiJoin:
      case OpKind::kSelection:
      case OpKind::kDistinct:
      case OpKind::kUnnest:
        map = Origins(op->children[0]);
        break;
      case OpKind::kProjection:
      case OpKind::kProduce: {
        OriginMap child = Origins(op->children[0]);
        for (const auto& [name, expr] : op->projections) {
          if (expr->kind == ExprKind::kVariable) {
            auto it = child.find(expr->name);
            if (it != child.end()) map[name] = it->second;
          }
        }
        break;
      }
      case OpKind::kAggregate: {
        OriginMap child = Origins(op->children[0]);
        for (const auto& [name, expr] : op->group_by) {
          if (expr->kind == ExprKind::kVariable) {
            auto it = child.find(expr->name);
            if (it != child.end()) map[name] = it->second;
          }
        }
        break;
      }
      // A path leaf's endpoints are bound by vertex leaves as well (the
      // compiler gives every variable-length endpoint one); extracts go
      // there, and FoldEndpointLabels may move them onto the path leaf.
      case OpKind::kGetPaths:
      case OpKind::kUnit:
      case OpKind::kUnion:
      case OpKind::kExpand:
      case OpKind::kPathJoin:
        break;
    }
    return map;
  }

  /// Makes `col` (already extracted at some leaf under `op`) visible in
  /// `op`'s output, inserting pass-through items into projections and
  /// aggregates on the way. Mutation happens only on successful paths —
  /// pass-through columns are functionally dependent on their element, so
  /// inserting them through Distinct/Aggregate scopes preserves semantics.
  bool Provide(const OpPtr& op, const std::string& col) {
    switch (op->kind) {
      case OpKind::kGetVertices:
        if (op->vertex_var == col) return true;
        break;
      case OpKind::kGetEdges:
        if (op->src_var == col || op->edge_var == col || op->dst_var == col) {
          return true;
        }
        break;
      case OpKind::kGetPaths:
        if (op->src_var == col || op->dst_var == col || op->path_var == col) {
          return true;
        }
        break;
      case OpKind::kUnit:
      case OpKind::kExpand:
      case OpKind::kPathJoin:
        return false;
      case OpKind::kJoin:
      case OpKind::kLeftOuterJoin:
        return Provide(op->children[0], col) || Provide(op->children[1], col);
      case OpKind::kAntiJoin:
      case OpKind::kSemiJoin:
      case OpKind::kSelection:
      case OpKind::kDistinct:
        return Provide(op->children[0], col);
      case OpKind::kUnnest:
        if (op->unnest_alias == col) return true;
        return Provide(op->children[0], col);
      case OpKind::kUnion:
        return Provide(op->children[0], col) && Provide(op->children[1], col);
      case OpKind::kProjection:
      case OpKind::kProduce:
        for (const auto& [name, expr] : op->projections) {
          if (name == col) return true;
        }
        if (Provide(op->children[0], col)) {
          op->projections.emplace_back(col, MakeVariable(col));
          return true;
        }
        return false;
      case OpKind::kAggregate:
        for (const auto& [name, expr] : op->group_by) {
          if (name == col) return true;
        }
        for (const auto& [name, expr] : op->aggregates) {
          if (name == col) return true;
        }
        if (Provide(op->children[0], col)) {
          op->group_by.emplace_back(col, MakeVariable(col));
          return true;
        }
        return false;
    }
    if (IsGraphLeaf(op->kind)) {
      for (const PropertyExtract& extract : op->extracts) {
        if (extract.column_name == col) return true;
      }
    }
    return false;
  }

  /// Adds (or finds) the extract for `access` on `leaf`; returns its column.
  std::string AddExtract(LogicalOp* leaf, const Access& access) {
    Access effective = access;
    if (naive_ && access.what == PropertyExtract::What::kProperty) {
      // Ablation: no schema inference — ship the whole property map.
      effective = {PropertyExtract::What::kPropertyMap, access.var, ""};
    }
    std::string col = ExtractColumnName(effective);
    for (const PropertyExtract& existing : leaf->extracts) {
      if (existing.column_name == col) return col;
    }
    PropertyExtract extract;
    extract.what = effective.what;
    extract.element_var = effective.var;
    extract.key = effective.key;
    extract.column_name = col;
    leaf->extracts.push_back(std::move(extract));
    return col;
  }

  /// Scans one expression tree for pushable accesses against `scope`.
  /// `shadowed` holds comprehension-local names: accesses through them
  /// refer to runtime values, never to pattern elements.
  void ScanExpr(const ExprPtr& expr, const OpPtr& scope,
                const OriginMap& origins,
                std::unordered_set<Access, AccessHash>& found,
                std::vector<std::string>& shadowed) {
    if (expr->kind == ExprKind::kComprehension) {
      ScanExpr(expr->children[0], scope, origins, found, shadowed);
      shadowed.push_back(expr->name);
      ScanExpr(expr->children[1], scope, origins, found, shadowed);
      ScanExpr(expr->children[2], scope, origins, found, shadowed);
      shadowed.pop_back();
      return;
    }
    auto is_shadowed = [&shadowed](const std::string& var) {
      for (const std::string& name : shadowed) {
        if (name == var) return true;
      }
      return false;
    };
    if (expr->kind == ExprKind::kProperty &&
        expr->children[0]->kind == ExprKind::kVariable &&
        !is_shadowed(expr->children[0]->name)) {
      const std::string& var = expr->children[0]->name;
      int idx = scope->schema.IndexOf(var);
      if (idx >= 0) {
        Attribute::Kind kind = scope->schema.at(static_cast<size_t>(idx)).kind;
        if (kind == Attribute::Kind::kVertex ||
            kind == Attribute::Kind::kEdge) {
          found.insert({PropertyExtract::What::kProperty, var, expr->name});
        }
      }
    } else if (expr->kind == ExprKind::kFunctionCall &&
               expr->children.size() == 1 &&
               expr->children[0]->kind == ExprKind::kVariable &&
               !is_shadowed(expr->children[0]->name)) {
      const std::string& var = expr->children[0]->name;
      int idx = scope->schema.IndexOf(var);
      if (idx >= 0) {
        Attribute::Kind kind = scope->schema.at(static_cast<size_t>(idx)).kind;
        bool is_vertex = kind == Attribute::Kind::kVertex;
        bool is_edge = kind == Attribute::Kind::kEdge;
        if (expr->name == "labels" && is_vertex) {
          found.insert({PropertyExtract::What::kLabels, var, ""});
        } else if (expr->name == "type" && is_edge) {
          found.insert({PropertyExtract::What::kType, var, ""});
        } else if (expr->name == "properties" && (is_vertex || is_edge)) {
          found.insert({PropertyExtract::What::kPropertyMap, var, ""});
        }
      }
    }
    for (const ExprPtr& child : expr->children) {
      ScanExpr(child, scope, origins, found, shadowed);
    }
    (void)origins;
  }

  /// Rewrites accesses to their extracted columns, honoring comprehension
  /// shadowing like ScanExpr.
  ExprPtr RewriteExpr(const ExprPtr& expr,
                      const std::unordered_map<std::string, std::string>&
                          replacement,
                      std::vector<std::string>& shadowed) {
    if (expr->kind == ExprKind::kComprehension) {
      auto copy = std::make_shared<Expression>(*expr);
      copy->children[0] = RewriteExpr(expr->children[0], replacement,
                                      shadowed);
      shadowed.push_back(expr->name);
      copy->children[1] = RewriteExpr(expr->children[1], replacement,
                                      shadowed);
      copy->children[2] = RewriteExpr(expr->children[2], replacement,
                                      shadowed);
      shadowed.pop_back();
      return copy;
    }
    auto is_shadowed = [&shadowed](const std::string& var) {
      for (const std::string& name : shadowed) {
        if (name == var) return true;
      }
      return false;
    };
    auto make_key = [](const Access& a) { return ExtractColumnName(a); };
    if (expr->kind == ExprKind::kProperty &&
        expr->children[0]->kind == ExprKind::kVariable &&
        !is_shadowed(expr->children[0]->name)) {
      Access access{PropertyExtract::What::kProperty,
                    expr->children[0]->name, expr->name};
      auto it = replacement.find(make_key(access));
      if (it != replacement.end()) {
        if (naive_) {
          // Map lookup on the full property-map column.
          return MakeProperty(MakeVariable(it->second), expr->name);
        }
        return MakeVariable(it->second);
      }
    } else if (expr->kind == ExprKind::kFunctionCall &&
               expr->children.size() == 1 &&
               expr->children[0]->kind == ExprKind::kVariable &&
               !is_shadowed(expr->children[0]->name)) {
      PropertyExtract::What what = PropertyExtract::What::kProperty;
      bool known = true;
      if (expr->name == "labels") {
        what = PropertyExtract::What::kLabels;
      } else if (expr->name == "type") {
        what = PropertyExtract::What::kType;
      } else if (expr->name == "properties") {
        what = PropertyExtract::What::kPropertyMap;
      } else {
        known = false;
      }
      if (known) {
        Access access{what, expr->children[0]->name, ""};
        auto it = replacement.find(make_key(access));
        if (it != replacement.end()) return MakeVariable(it->second);
      }
    }
    if (expr->children.empty()) return expr;
    auto copy = std::make_shared<Expression>(*expr);
    bool changed = false;
    for (size_t i = 0; i < expr->children.size(); ++i) {
      copy->children[i] = RewriteExpr(expr->children[i], replacement,
                                      shadowed);
      changed |= copy->children[i] != expr->children[i];
    }
    return changed ? ExprPtr(copy) : expr;
  }

  /// Processes one operator: resolve each access found in its expressions to
  /// a leaf extract (inserting a dynamic ◯/⇑ join for runtime-only
  /// elements), make the column visible, and rewrite the expressions.
  Status ProcessOp(const OpPtr& op) {
    bool has_exprs = op->kind == OpKind::kSelection ||
                     op->kind == OpKind::kProjection ||
                     op->kind == OpKind::kProduce ||
                     op->kind == OpKind::kAggregate ||
                     op->kind == OpKind::kUnnest;
    if (!has_exprs) return Status::Ok();

    OpPtr& scope = op->children[0];
    OriginMap origins = Origins(scope);

    std::unordered_set<Access, AccessHash> accesses;
    std::vector<std::string> shadowed;
    auto scan_all = [&]() {
      accesses.clear();
      if (op->predicate) {
        ScanExpr(op->predicate, scope, origins, accesses, shadowed);
      }
      for (const auto& [name, expr] : op->projections) {
        ScanExpr(expr, scope, origins, accesses, shadowed);
      }
      for (const auto& [name, expr] : op->group_by) {
        ScanExpr(expr, scope, origins, accesses, shadowed);
      }
      for (const auto& [name, expr] : op->aggregates) {
        ScanExpr(expr, scope, origins, accesses, shadowed);
      }
      if (op->unnest_expr) {
        ScanExpr(op->unnest_expr, scope, origins, accesses, shadowed);
      }
    };
    scan_all();
    if (accesses.empty()) return Status::Ok();

    // Elements with no defining leaf (e.g. vertices unnested from a path)
    // get a fresh leaf joined in, keyed by the element column itself.
    bool inserted_leaf = false;
    for (const Access& access : accesses) {
      if (origins.count(access.var) > 0) continue;
      int idx = scope->schema.IndexOf(access.var);
      if (idx < 0) continue;  // Not a column; left for runtime evaluation.
      Attribute::Kind kind = scope->schema.at(static_cast<size_t>(idx)).kind;
      OpPtr leaf;
      if (kind == Attribute::Kind::kVertex) {
        leaf = MakeOp(OpKind::kGetVertices);
        leaf->vertex_var = access.var;
      } else if (kind == Attribute::Kind::kEdge) {
        leaf = MakeOp(OpKind::kGetEdges);
        leaf->edge_var = access.var;
        leaf->src_var = StrCat("#src(", access.var, ")");
        leaf->dst_var = StrCat("#dst(", access.var, ")");
        leaf->direction = EdgeDirection::kOut;
      } else {
        continue;
      }
      scope = MakeOp(OpKind::kJoin, {scope, std::move(leaf)});
      inserted_leaf = true;
    }
    if (inserted_leaf) {
      PGIVM_RETURN_IF_ERROR(ComputeSchemas(scope));
      origins = Origins(scope);
      scan_all();
    }

    // Resolve every access: extract at the defining leaf, thread the column
    // up to this operator's input.
    std::unordered_map<std::string, std::string> replacement;
    for (const Access& access : accesses) {
      auto it = origins.find(access.var);
      if (it == origins.end()) continue;
      Access leaf_access = access;
      leaf_access.var = it->second.var;
      std::string col = AddExtract(it->second.leaf, leaf_access);
      if (!Provide(scope, col)) {
        return Status::Internal(
            StrCat("pushdown could not thread column '", col,
                   "' to operator ", op->DebugString()));
      }
      // The rewrite is keyed by the access as written (original var name).
      Access naive_adjusted = access;
      if (naive_ && access.what == PropertyExtract::What::kProperty) {
        // Rewrite map stores the map column under the original access name.
        replacement[ExtractColumnName(access)] = col;
        continue;
      }
      (void)naive_adjusted;
      replacement[ExtractColumnName(access)] = col;
    }

    if (op->predicate) {
      op->predicate = RewriteExpr(op->predicate, replacement, shadowed);
    }
    for (auto& [name, expr] : op->projections) {
      expr = RewriteExpr(expr, replacement, shadowed);
    }
    for (auto& [name, expr] : op->group_by) {
      expr = RewriteExpr(expr, replacement, shadowed);
    }
    for (auto& [name, expr] : op->aggregates) {
      expr = RewriteExpr(expr, replacement, shadowed);
    }
    if (op->unnest_expr) {
      op->unnest_expr = RewriteExpr(op->unnest_expr, replacement, shadowed);
    }

    // Schemas above the mutated leaves are stale; recompute this subtree so
    // parents see fresh columns.
    return ComputeSchemas(op);
  }

  Status Walk(const OpPtr& op) {
    for (const OpPtr& child : op->children) PGIVM_RETURN_IF_ERROR(Walk(child));
    return ProcessOp(op);
  }

  bool naive_;
};

}  // namespace

Status PushDownProperties(OpPtr& root, bool naive) {
  return PushdownPass(naive).Run(root);
}

}  // namespace pgivm
