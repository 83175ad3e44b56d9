#include "baseline/baseline_evaluator.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <unordered_set>

#include "rete/expression_eval.h"
#include "rete/join_node.h"
#include "support/string_util.h"

namespace pgivm {

namespace {

Value LabelsValue(const std::vector<std::string>& labels) {
  ValueList out;
  out.reserve(labels.size());
  for (const std::string& label : labels) out.push_back(Value::String(label));
  return Value::List(std::move(out));
}

/// Resolves each extract's property key to its symbol — once per operator
/// evaluation, so the per-element loops below never hash strings.
/// kNoSymbol for non-property extracts and never-interned names.
std::vector<SymbolId> ResolveExtractKeys(
    const SymbolTable& symbols, const std::vector<PropertyExtract>& extracts) {
  std::vector<SymbolId> keys;
  keys.reserve(extracts.size());
  for (const PropertyExtract& extract : extracts) {
    if (extract.what != PropertyExtract::What::kProperty) {
      keys.push_back(kNoSymbol);
      continue;
    }
    keys.push_back(symbols.Lookup(extract.key).value_or(kNoSymbol));
  }
  return keys;
}

/// Resolves a name list (required labels / allowed edge types). Returns
/// false when a name was never interned — no element can match, so the
/// caller's scan is empty.
bool ResolveNames(const SymbolTable& symbols,
                  const std::vector<std::string>& names,
                  std::vector<SymbolId>* out) {
  out->reserve(names.size());
  for (const std::string& name : names) {
    std::optional<SymbolId> id = symbols.Lookup(name);
    if (!id) return false;
    out->push_back(*id);
  }
  return true;
}

bool HasAllLabelIds(const PropertyGraph& graph, VertexId v,
                    const std::vector<SymbolId>& labels) {
  for (SymbolId label : labels) {
    if (!graph.VertexHasLabel(v, label)) return false;
  }
  return true;
}

}  // namespace

Result<Bag> BaselineEvaluator::Evaluate(const OpPtr& plan) const {
  return Eval(plan);
}

Value BaselineEvaluator::VertexExtract(const PropertyExtract& extract,
                                       SymbolId key, VertexId v) const {
  switch (extract.what) {
    case PropertyExtract::What::kProperty:
      return graph_->GetVertexProperty(v, key);
    case PropertyExtract::What::kLabels:
      return LabelsValue(graph_->VertexLabels(v));
    case PropertyExtract::What::kPropertyMap:
      return Value::Map(graph_->VertexProperties(v));
    case PropertyExtract::What::kType:
      return Value::Null();
  }
  return Value::Null();
}

Value BaselineEvaluator::EdgeExtract(const PropertyExtract& extract,
                                     SymbolId key, VertexId a, VertexId b,
                                     EdgeId e) const {
  // element_var naming matches the leaf's src/edge/dst columns; the caller
  // resolves which endpoint the extract refers to.
  (void)a;
  (void)b;
  switch (extract.what) {
    case PropertyExtract::What::kProperty:
      return graph_->GetEdgeProperty(e, key);
    case PropertyExtract::What::kType:
      return Value::String(graph_->EdgeType(e));
    case PropertyExtract::What::kPropertyMap:
      return Value::Map(graph_->EdgeProperties(e));
    case PropertyExtract::What::kLabels:
      return Value::Null();
  }
  return Value::Null();
}

Result<Bag> BaselineEvaluator::EvalGetVertices(const OpPtr& op) const {
  Bag out;
  // Resolve label names and extract keys to symbols once; the per-vertex
  // loop is then id comparisons and O(1) column probes.
  std::vector<SymbolId> required;
  if (!ResolveNames(graph_->symbols(), op->labels, &required)) {
    return out;  // a label the graph has never seen matches nothing
  }
  std::vector<SymbolId> keys =
      ResolveExtractKeys(graph_->symbols(), op->extracts);
  auto consider = [&](VertexId v) {
    if (!HasAllLabelIds(*graph_, v, required)) return;
    std::vector<Value> values;
    values.reserve(1 + op->extracts.size());
    values.push_back(Value::Vertex(v));
    for (size_t i = 0; i < op->extracts.size(); ++i) {
      values.push_back(VertexExtract(op->extracts[i], keys[i], v));
    }
    out.Apply(Tuple(std::move(values)), 1);
  };
  if (!required.empty()) {
    for (VertexId v : graph_->VerticesWithLabelId(required[0])) consider(v);
  } else {
    graph_->ForEachVertex(consider);
  }
  return out;
}

Result<Bag> BaselineEvaluator::EvalGetEdges(const OpPtr& op) const {
  Bag out;
  // Types and extract keys resolve to symbols once; the per-edge loop
  // compares ids and probes columns.
  std::vector<SymbolId> allowed_types;
  if (!op->edge_types.empty() &&
      !ResolveNames(graph_->symbols(), op->edge_types, &allowed_types)) {
    // A never-interned type still scans the resolvable ones.
    allowed_types.clear();
    for (const std::string& type : op->edge_types) {
      if (std::optional<SymbolId> id = graph_->symbols().Lookup(type)) {
        allowed_types.push_back(*id);
      }
    }
    if (allowed_types.empty()) return out;
  }
  std::vector<SymbolId> src_labels;
  std::vector<SymbolId> dst_labels;
  if (!ResolveNames(graph_->symbols(), op->src_labels, &src_labels) ||
      !ResolveNames(graph_->symbols(), op->dst_labels, &dst_labels)) {
    return out;  // a label the graph has never seen matches nothing
  }
  std::vector<SymbolId> keys =
      ResolveExtractKeys(graph_->symbols(), op->extracts);
  // Orientation (a -> b) of edge `e`, when its endpoints carry the labels.
  auto build = [&](VertexId a, VertexId b, EdgeId e) {
    if (!HasAllLabelIds(*graph_, a, src_labels) ||
        !HasAllLabelIds(*graph_, b, dst_labels)) {
      return;
    }
    std::vector<Value> values;
    values.reserve(3 + op->extracts.size());
    values.push_back(Value::Vertex(a));
    values.push_back(Value::Edge(e));
    values.push_back(Value::Vertex(b));
    for (size_t i = 0; i < op->extracts.size(); ++i) {
      const PropertyExtract& extract = op->extracts[i];
      if (extract.element_var == op->edge_var) {
        values.push_back(EdgeExtract(extract, keys[i], a, b, e));
      } else if (extract.element_var == op->src_var) {
        values.push_back(VertexExtract(extract, keys[i], a));
      } else {
        values.push_back(VertexExtract(extract, keys[i], b));
      }
    }
    out.Apply(Tuple(std::move(values)), 1);
  };
  auto consider = [&](EdgeId e) {
    if (!op->edge_types.empty()) {
      SymbolId type = graph_->EdgeTypeId(e);
      if (std::find(allowed_types.begin(), allowed_types.end(), type) ==
          allowed_types.end()) {
        return;
      }
    }
    VertexId src = graph_->EdgeSource(e);
    VertexId dst = graph_->EdgeTarget(e);
    build(src, dst, e);
    if (op->direction == EdgeDirection::kBoth && src != dst) {
      build(dst, src, e);
    }
  };
  if (!op->edge_types.empty()) {
    std::vector<EdgeId> candidates;
    for (SymbolId type : allowed_types) {
      const std::vector<EdgeId>& of_type = graph_->EdgesWithTypeId(type);
      candidates.insert(candidates.end(), of_type.begin(), of_type.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (EdgeId e : candidates) consider(e);
  } else {
    graph_->ForEachEdge(consider);
  }
  return out;
}

Result<Bag> BaselineEvaluator::EvalGetPaths(const OpPtr& op) const {
  Bag out;
  std::vector<SymbolId> src_labels;
  std::vector<SymbolId> dst_labels;
  if (!ResolveNames(graph_->symbols(), op->src_labels, &src_labels) ||
      !ResolveNames(graph_->symbols(), op->dst_labels, &dst_labels)) {
    return out;  // a label the graph has never seen matches nothing
  }
  bool reversed = op->direction == EdgeDirection::kIn;
  bool emit_path = !op->path_var.empty();
  int64_t limit = op->max_hops < 0 ? (int64_t{1} << 40) : op->max_hops;
  std::vector<SymbolId> keys =
      ResolveExtractKeys(graph_->symbols(), op->extracts);

  // Allowed types resolved to symbols once (never-interned names simply
  // drop out); the per-edge test inside the DFS is an id comparison.
  std::vector<SymbolId> allowed_types;
  for (const std::string& type : op->edge_types) {
    if (std::optional<SymbolId> id = graph_->symbols().Lookup(type)) {
      allowed_types.push_back(*id);
    }
  }
  auto type_ok = [&](EdgeId e) {
    if (op->edge_types.empty()) return true;
    SymbolId type = graph_->EdgeTypeId(e);
    return std::find(allowed_types.begin(), allowed_types.end(), type) !=
           allowed_types.end();
  };

  // DFS over trails in pattern direction from every vertex carrying the
  // start labels, collecting those in [min_hops, max_hops] whose last
  // vertex carries the end labels.
  std::vector<VertexId> vertices;
  std::vector<EdgeId> edges;
  std::unordered_set<EdgeId> used;
  auto emit = [&]() {
    int64_t length = static_cast<int64_t>(edges.size());
    if (length < op->min_hops ||
        !HasAllLabelIds(*graph_, vertices.back(), dst_labels)) {
      return;
    }
    std::vector<Value> values;
    values.reserve(3 + op->extracts.size());
    values.push_back(Value::Vertex(vertices.front()));
    values.push_back(Value::Vertex(vertices.back()));
    if (emit_path) values.push_back(Value::MakePath(Path(vertices, edges)));
    for (size_t i = 0; i < op->extracts.size(); ++i) {
      const PropertyExtract& extract = op->extracts[i];
      VertexId subject = extract.element_var == op->src_var ? vertices.front()
                                                            : vertices.back();
      values.push_back(VertexExtract(extract, keys[i], subject));
    }
    out.Apply(Tuple(std::move(values)), 1);
  };
  std::function<void(VertexId, int64_t)> dfs = [&](VertexId at,
                                                   int64_t remaining) {
    emit();
    if (remaining <= 0) return;
    const std::vector<EdgeId>& incident =
        reversed ? graph_->InEdges(at) : graph_->OutEdges(at);
    for (EdgeId e : incident) {
      if (!type_ok(e) || !used.insert(e).second) continue;
      VertexId next = reversed ? graph_->EdgeSource(e) : graph_->EdgeTarget(e);
      vertices.push_back(next);
      edges.push_back(e);
      dfs(next, remaining - 1);
      vertices.pop_back();
      edges.pop_back();
      used.erase(e);
    }
  };
  auto start = [&](VertexId source) {
    if (!HasAllLabelIds(*graph_, source, src_labels)) return;
    vertices.assign(1, source);
    dfs(source, limit);
  };
  if (!src_labels.empty()) {
    for (VertexId v : graph_->VerticesWithLabelId(src_labels[0])) start(v);
  } else {
    graph_->ForEachVertex(start);
  }
  return out;
}

Result<Bag> BaselineEvaluator::EvalJoinLike(const OpPtr& op) const {
  PGIVM_ASSIGN_OR_RETURN(Bag left, Eval(op->children[0]));
  PGIVM_ASSIGN_OR_RETURN(Bag right, Eval(op->children[1]));
  const Schema& lschema = op->children[0]->schema;
  const Schema& rschema = op->children[1]->schema;
  JoinLayout layout = JoinLayout::Make(lschema, rschema);

  std::unordered_map<Tuple, std::vector<std::pair<Tuple, int64_t>>, TupleHash>
      right_index;
  for (const auto& [tuple, count] : right.counts()) {
    right_index[tuple.Project(layout.right_key)].emplace_back(tuple, count);
  }

  Bag out;
  for (const auto& [ltuple, lcount] : left.counts()) {
    Tuple key = ltuple.Project(layout.left_key);
    auto it = right_index.find(key);
    bool matched = it != right_index.end() && !it->second.empty();
    if (op->kind == OpKind::kAntiJoin) {
      if (!matched) out.Apply(ltuple, lcount);
      continue;
    }
    if (op->kind == OpKind::kSemiJoin) {
      if (matched) out.Apply(ltuple, lcount);
      continue;
    }
    if (matched) {
      for (const auto& [rtuple, rcount] : it->second) {
        out.Apply(ltuple.ConcatProjected(rtuple, layout.right_rest),
                  lcount * rcount);
      }
    } else if (op->kind == OpKind::kLeftOuterJoin) {
      std::vector<Value> values(ltuple.begin(), ltuple.end());
      values.resize(values.size() + layout.right_rest.size(), Value::Null());
      out.Apply(Tuple(std::move(values)), lcount);
    }
  }
  return out;
}

Result<Bag> BaselineEvaluator::EvalAggregate(const OpPtr& op) const {
  PGIVM_ASSIGN_OR_RETURN(Bag input, Eval(op->children[0]));
  const Schema& in_schema = op->children[0]->schema;

  std::vector<BoundExpression> keys;
  for (const auto& [name, expr] : op->group_by) {
    PGIVM_ASSIGN_OR_RETURN(BoundExpression bound,
                           BoundExpression::Bind(expr, in_schema, graph_));
    keys.push_back(std::move(bound));
  }
  struct AggDef {
    std::string fn;
    bool star;
    bool distinct;
    std::optional<BoundExpression> arg;
  };
  std::vector<AggDef> defs;
  for (const auto& [name, expr] : op->aggregates) {
    AggDef def;
    def.fn = expr->name;
    def.star = expr->star;
    def.distinct = expr->distinct;
    if (!expr->star) {
      if (expr->children.size() != 1) {
        return Status::InvalidArgument(
            StrCat("aggregate ", expr->name, "() expects one argument"));
      }
      PGIVM_ASSIGN_OR_RETURN(
          BoundExpression bound,
          BoundExpression::Bind(expr->children[0], in_schema, graph_));
      def.arg = std::move(bound);
    }
    defs.push_back(std::move(def));
  }

  struct GroupData {
    int64_t rows = 0;
    std::vector<std::map<Value, int64_t>> values;  // per aggregate
  };
  std::map<std::vector<Value>, GroupData> groups;
  for (const auto& [tuple, count] : input.counts()) {
    std::vector<Value> key;
    key.reserve(keys.size());
    for (const BoundExpression& k : keys) key.push_back(k.Eval(tuple));
    GroupData& group = groups[key];
    if (group.values.empty()) group.values.resize(defs.size());
    group.rows += count;
    for (size_t i = 0; i < defs.size(); ++i) {
      if (defs[i].star) continue;
      Value v = defs[i].arg->Eval(tuple);
      if (!v.is_null()) group.values[i][v] += count;
    }
  }
  if (keys.empty() && groups.empty()) {
    GroupData& group = groups[{}];
    group.values.resize(defs.size());
  }

  Bag out;
  for (const auto& [key, group] : groups) {
    std::vector<Value> row = key;
    for (size_t i = 0; i < defs.size(); ++i) {
      const AggDef& def = defs[i];
      const std::map<Value, int64_t>& values = group.values[i];
      int64_t non_null = 0;
      for (const auto& [v, c] : values) non_null += c;
      if (def.fn == "count") {
        if (def.star) {
          row.push_back(Value::Int(group.rows));
        } else if (def.distinct) {
          row.push_back(Value::Int(static_cast<int64_t>(values.size())));
        } else {
          row.push_back(Value::Int(non_null));
        }
      } else if (def.fn == "sum" || def.fn == "avg") {
        double dsum = 0.0;
        int64_t isum = 0;
        bool saw_double = false;
        int64_t n = 0;
        for (const auto& [v, c] : values) {
          int64_t reps = def.distinct ? 1 : c;
          n += reps;
          if (v.is_int()) {
            isum += reps * v.AsInt();
          } else if (v.is_numeric()) {
            dsum += static_cast<double>(reps) * v.AsDouble();
            saw_double = true;
          }
        }
        if (def.fn == "sum") {
          row.push_back(saw_double
                            ? Value::Double(dsum + static_cast<double>(isum))
                            : Value::Int(isum));
        } else {
          row.push_back(n == 0 ? Value::Null()
                               : Value::Double(
                                     (dsum + static_cast<double>(isum)) /
                                     static_cast<double>(n)));
        }
      } else if (def.fn == "min") {
        row.push_back(values.empty() ? Value::Null() : values.begin()->first);
      } else if (def.fn == "max") {
        row.push_back(values.empty() ? Value::Null() : values.rbegin()->first);
      } else if (def.fn == "collect") {
        ValueList list;
        for (const auto& [v, c] : values) {
          int64_t reps = def.distinct ? 1 : c;
          for (int64_t r = 0; r < reps; ++r) list.push_back(v);
        }
        row.push_back(Value::List(std::move(list)));
      } else {
        return Status::InvalidArgument(
            StrCat("unknown aggregate '", def.fn, "'"));
      }
    }
    out.Apply(Tuple(std::move(row)), 1);
  }
  return out;
}

Result<Bag> BaselineEvaluator::EvalUnnest(const OpPtr& op) const {
  PGIVM_ASSIGN_OR_RETURN(Bag input, Eval(op->children[0]));
  const Schema& in_schema = op->children[0]->schema;
  PGIVM_ASSIGN_OR_RETURN(
      BoundExpression collection,
      BoundExpression::Bind(op->unnest_expr, in_schema, graph_));
  std::vector<int> kept;
  for (size_t i = 0; i < in_schema.size(); ++i) {
    const std::string& name = in_schema.at(i).name;
    bool dropped = false;
    for (const std::string& d : op->unnest_drop_columns) {
      if (d == name) dropped = true;
    }
    if (!dropped) kept.push_back(static_cast<int>(i));
  }

  Bag out;
  for (const auto& [tuple, count] : input.counts()) {
    Value value = collection.Eval(tuple);
    if (value.is_null()) continue;
    Tuple base = tuple.Project(kept);
    if (value.is_list()) {
      for (const Value& element : value.AsList()) {
        out.Apply(base.Append(element), count);
      }
    } else {
      out.Apply(base.Append(value), count);
    }
  }
  return out;
}

Result<Bag> BaselineEvaluator::Eval(const OpPtr& op) const {
  switch (op->kind) {
    case OpKind::kUnit: {
      Bag out;
      out.Apply(Tuple(), 1);
      return out;
    }
    case OpKind::kGetVertices:
      return EvalGetVertices(op);
    case OpKind::kGetEdges:
      return EvalGetEdges(op);
    case OpKind::kGetPaths:
      return EvalGetPaths(op);
    case OpKind::kSelection: {
      PGIVM_ASSIGN_OR_RETURN(Bag input, Eval(op->children[0]));
      PGIVM_ASSIGN_OR_RETURN(
          BoundExpression predicate,
          BoundExpression::Bind(op->predicate, op->children[0]->schema,
                                graph_));
      Bag out;
      for (const auto& [tuple, count] : input.counts()) {
        if (IsTrue(predicate.Eval(tuple))) out.Apply(tuple, count);
      }
      return out;
    }
    case OpKind::kProjection:
    case OpKind::kProduce: {
      PGIVM_ASSIGN_OR_RETURN(Bag input, Eval(op->children[0]));
      std::vector<BoundExpression> columns;
      for (const auto& [name, expr] : op->projections) {
        PGIVM_ASSIGN_OR_RETURN(
            BoundExpression bound,
            BoundExpression::Bind(expr, op->children[0]->schema, graph_));
        columns.push_back(std::move(bound));
      }
      Bag out;
      for (const auto& [tuple, count] : input.counts()) {
        std::vector<Value> values;
        values.reserve(columns.size());
        for (const BoundExpression& column : columns) {
          values.push_back(column.Eval(tuple));
        }
        out.Apply(Tuple(std::move(values)), count);
      }
      return out;
    }
    case OpKind::kJoin:
    case OpKind::kLeftOuterJoin:
    case OpKind::kAntiJoin:
    case OpKind::kSemiJoin:
      return EvalJoinLike(op);
    case OpKind::kUnion: {
      PGIVM_ASSIGN_OR_RETURN(Bag left, Eval(op->children[0]));
      PGIVM_ASSIGN_OR_RETURN(Bag right, Eval(op->children[1]));
      const Schema& lschema = op->children[0]->schema;
      const Schema& rschema = op->children[1]->schema;
      std::vector<int> reorder;
      for (const Attribute& attr : lschema.attributes()) {
        reorder.push_back(rschema.IndexOf(attr.name));
      }
      Bag out = std::move(left);
      for (const auto& [tuple, count] : right.counts()) {
        out.Apply(tuple.Project(reorder), count);
      }
      return out;
    }
    case OpKind::kDistinct: {
      PGIVM_ASSIGN_OR_RETURN(Bag input, Eval(op->children[0]));
      Bag out;
      for (const auto& [tuple, count] : input.counts()) {
        (void)count;
        out.Apply(tuple, 1);
      }
      return out;
    }
    case OpKind::kAggregate:
      return EvalAggregate(op);
    case OpKind::kUnnest:
      return EvalUnnest(op);
    case OpKind::kExpand:
    case OpKind::kPathJoin:
      return Status::Internal(StrCat(OpKindName(op->kind),
                                     " reached the baseline evaluator; run "
                                     "LowerToFra first"));
  }
  return Status::Internal(StrCat("unhandled operator ",
                                 OpKindName(op->kind)));
}

}  // namespace pgivm
