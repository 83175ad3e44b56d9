#include "rete/input_node.h"

#include <algorithm>

#include "support/string_util.h"

namespace pgivm {

namespace {

Value LabelsValue(const std::vector<std::string>& labels) {
  ValueList out;
  out.reserve(labels.size());
  for (const std::string& label : labels) out.push_back(Value::String(label));
  return Value::List(std::move(out));
}

/// The property-map column `map` after the update of `change`: the key's
/// entry set to the new value, or erased when the new value is null.
Value UpdatedPropertyMap(const Value& map, const GraphChange& change,
                         const SymbolTable& symbols) {
  ValueMap entries = map.is_map() ? map.AsMap() : ValueMap{};
  const std::string& key = symbols.Name(change.symbol);
  if (change.new_value.is_null()) {
    entries.erase(key);
  } else {
    entries[key] = change.new_value;
  }
  return Value::Map(std::move(entries));
}

}  // namespace

bool HasAllLabels(const PropertyGraph& graph, VertexId v,
                  const std::vector<SymbolRef>& refs) {
  const SymbolTable& symbols = graph.symbols();
  for (const SymbolRef& ref : refs) {
    SymbolId label = ref.Resolve(symbols);
    // Unresolved: the label name has never been interned, so no vertex
    // carries it.
    if (label == kNoSymbol || !graph.VertexHasLabel(v, label)) return false;
  }
  return true;
}

Value VertexExtractValue(const PropertyGraph& graph,
                         const PropertyExtract& extract, const SymbolRef& key,
                         VertexId v) {
  switch (extract.what) {
    case PropertyExtract::What::kProperty:
      return graph.GetVertexProperty(v, key.Resolve(graph.symbols()));
    case PropertyExtract::What::kLabels:
      return LabelsValue(graph.VertexLabels(v));
    case PropertyExtract::What::kPropertyMap:
      return Value::Map(graph.VertexProperties(v));
    case PropertyExtract::What::kType:
      return Value::Null();  // Vertices have no type.
  }
  return Value::Null();
}

bool ReadsVertexKey(const PropertyExtract& extract, const SymbolRef& key_ref,
                    const SymbolTable& symbols, SymbolId key) {
  return extract.what == PropertyExtract::What::kPropertyMap ||
         (extract.what == PropertyExtract::What::kProperty &&
          key_ref.Resolve(symbols) == key);
}

std::string EndpointLabelsString(const std::vector<std::string>& src_labels,
                                 const std::vector<std::string>& dst_labels) {
  if (src_labels.empty() && dst_labels.empty()) return "";
  auto labels = [](const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& name : names) out.append(StrCat(":", name));
    return out;
  };
  return StrCat(" (", labels(src_labels), ")->(", labels(dst_labels), ")");
}

// ---- VertexInputNode -------------------------------------------------------

VertexInputNode::VertexInputNode(Schema schema, const PropertyGraph* graph,
                                 std::vector<std::string> required_labels,
                                 std::vector<PropertyExtract> extracts)
    : GraphSourceNode(std::move(schema)),
      graph_(graph),
      required_labels_(std::move(required_labels)),
      extracts_(std::move(extracts)) {
  std::sort(required_labels_.begin(), required_labels_.end());
  required_label_refs_.reserve(required_labels_.size());
  for (const std::string& label : required_labels_) {
    required_label_refs_.emplace_back(label);
  }
  extract_key_refs_.reserve(extracts_.size());
  for (const PropertyExtract& extract : extracts_) {
    extract_key_refs_.emplace_back(
        extract.what == PropertyExtract::What::kProperty ? extract.key
                                                         : std::string());
  }
}

bool VertexInputNode::Matches(VertexId v) const {
  return HasAllLabels(*graph_, v, required_label_refs_);
}

Tuple VertexInputNode::BuildTuple(VertexId v) const {
  std::vector<Value> values;
  values.reserve(1 + extracts_.size());
  values.push_back(Value::Vertex(v));
  for (size_t i = 0; i < extracts_.size(); ++i) {
    values.push_back(
        VertexExtractValue(*graph_, extracts_[i], extract_key_refs_[i], v));
  }
  return Tuple(std::move(values));
}

void VertexInputNode::Translate(const GraphChange& change, Delta& out) {
  switch (change.kind) {
    case GraphChange::Kind::kAddVertex: {
      // The tuple is read from the post-batch graph. A later change in the
      // same batch may have removed the vertex again; its kRemoveVertex
      // then finds nothing stored. Later updates of a vertex that stays
      // apply to the stored tuple: intermediate values come and go as
      // inverse pairs the consolidation cancels, and each key's last
      // update writes its post-batch value again.
      if (!graph_->HasVertex(change.vertex) || !Matches(change.vertex)) return;
      Tuple tuple = BuildTuple(change.vertex);
      asserted_.emplace(change.vertex, tuple);
      out.push_back({std::move(tuple), 1});
      return;
    }
    case GraphChange::Kind::kRemoveVertex: {
      auto it = asserted_.find(change.vertex);
      if (it == asserted_.end()) return;
      Tuple old = it->second;
      asserted_.erase(it);
      out.push_back({std::move(old), -1});
      return;
    }
    case GraphChange::Kind::kSetVertexProperty: {
      auto it = asserted_.find(change.vertex);
      if (it == asserted_.end()) return;
      const Tuple& old = it->second;
      // Rebuild only the columns the changed key touches, against the
      // *stored* tuple: correct even mid-batch.
      const SymbolTable& symbols = graph_->symbols();
      Tuple updated = old;
      for (size_t i = 0; i < extracts_.size(); ++i) {
        const PropertyExtract& extract = extracts_[i];
        if (extract.what == PropertyExtract::What::kProperty &&
            extract_key_refs_[i].Resolve(symbols) == change.symbol) {
          updated = updated.WithColumn(i + 1, change.new_value);
        } else if (extract.what == PropertyExtract::What::kPropertyMap) {
          updated = updated.WithColumn(
              i + 1, UpdatedPropertyMap(updated.at(i + 1), change, symbols));
        }
      }
      if (updated == old) return;
      out.push_back({old, -1});
      out.push_back({updated, 1});
      it->second = std::move(updated);
      return;
    }
    case GraphChange::Kind::kAddVertexLabel:
    case GraphChange::Kind::kRemoveVertexLabel: {
      VertexId v = change.vertex;
      bool matched_now = graph_->HasVertex(v) && Matches(v);
      auto it = asserted_.find(v);
      if (it == asserted_.end()) {
        if (!matched_now) return;
        Tuple tuple = BuildTuple(v);
        asserted_.emplace(v, tuple);
        out.push_back({std::move(tuple), 1});
        return;
      }
      if (!matched_now) {
        Tuple old = it->second;
        asserted_.erase(it);
        out.push_back({std::move(old), -1});
        return;
      }
      // Still matching: refresh labels() columns if any.
      Tuple updated = it->second;
      for (size_t i = 0; i < extracts_.size(); ++i) {
        if (extracts_[i].what == PropertyExtract::What::kLabels) {
          updated = updated.WithColumn(i + 1,
                                       LabelsValue(graph_->VertexLabels(v)));
        }
      }
      if (updated == it->second) return;
      out.push_back({it->second, -1});
      out.push_back({updated, 1});
      it->second = std::move(updated);
      return;
    }
    default:
      return;
  }
}

void VertexInputNode::EmitInitialFromGraph(Delta& out) {
  auto consider = [this, &out](VertexId v) {
    if (!Matches(v)) return;
    Tuple tuple = BuildTuple(v);
    asserted_.emplace(v, tuple);
    out.push_back({std::move(tuple), 1});
  };
  // One entry per matching vertex: reserve the candidate count up front so
  // priming a large graph does not grow the delta step by step.
  if (!required_labels_.empty()) {
    // The posting list is already sorted ascending by id — scan in place.
    const std::vector<VertexId>& candidates = graph_->VerticesWithLabelId(
        required_label_refs_[0].Resolve(graph_->symbols()));
    out.reserve(out.size() + candidates.size());
    for (VertexId v : candidates) consider(v);
  } else {
    out.reserve(out.size() + graph_->vertex_count());
    graph_->ForEachVertex(consider);
  }
}

bool VertexInputNode::ReplayOutput(Delta& out) const {
  out.reserve(out.size() + asserted_.size());
  for (const auto& [v, tuple] : asserted_) {
    (void)v;
    out.push_back({tuple, 1});
  }
  return true;
}

size_t VertexInputNode::ApproxMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [v, tuple] : asserted_) {
    (void)v;
    bytes += sizeof(VertexId) + tuple.ApproxMemoryBytes();
  }
  return bytes;
}

std::string VertexInputNode::DebugString() const {
  return StrCat("Vertices[:", StrJoin(required_labels_, ":"), "]");
}

// ---- EdgeInputNode ---------------------------------------------------------

EdgeInputNode::EdgeInputNode(Schema schema, const PropertyGraph* graph,
                             std::vector<std::string> types, bool undirected,
                             std::string src_var, std::string edge_var,
                             std::string dst_var,
                             std::vector<std::string> src_labels,
                             std::vector<std::string> dst_labels,
                             std::vector<PropertyExtract> extracts)
    : GraphSourceNode(std::move(schema)),
      graph_(graph),
      types_(std::move(types)),
      undirected_(undirected),
      src_var_(std::move(src_var)),
      edge_var_(std::move(edge_var)),
      dst_var_(std::move(dst_var)),
      src_labels_(std::move(src_labels)),
      dst_labels_(std::move(dst_labels)),
      extracts_(std::move(extracts)) {
  type_refs_.reserve(types_.size());
  for (const std::string& type : types_) type_refs_.emplace_back(type);
  for (const std::string& label : src_labels_) {
    src_label_refs_.emplace_back(label);
  }
  for (const std::string& label : dst_labels_) {
    dst_label_refs_.emplace_back(label);
  }
  extract_key_refs_.reserve(extracts_.size());
  for (const PropertyExtract& extract : extracts_) {
    if (extract.element_var != edge_var_) depends_on_vertices_ = true;
    extract_key_refs_.emplace_back(
        extract.what == PropertyExtract::What::kProperty ? extract.key
                                                         : std::string());
  }
}

bool EdgeInputNode::TypeMatches(SymbolId type) const {
  return types_.empty() || AnyResolvesTo(type_refs_, graph_->symbols(), type);
}

bool EdgeInputNode::EndpointsMatch(VertexId a, VertexId b) const {
  return HasAllLabels(*graph_, a, src_label_refs_) &&
         HasAllLabels(*graph_, b, dst_label_refs_);
}

bool EdgeInputNode::VertexKeyMatters(SymbolId key) const {
  const SymbolTable& symbols = graph_->symbols();
  for (size_t i = 0; i < extracts_.size(); ++i) {
    if (extracts_[i].element_var != edge_var_ &&
        ReadsVertexKey(extracts_[i], extract_key_refs_[i], symbols, key)) {
      return true;
    }
  }
  return false;
}

bool EdgeInputNode::LabelMatters(SymbolId label) const {
  const SymbolTable& symbols = graph_->symbols();
  return depends_on_vertices_ ||
         AnyResolvesTo(src_label_refs_, symbols, label) ||
         AnyResolvesTo(dst_label_refs_, symbols, label);
}

Tuple EdgeInputNode::BuildTuple(VertexId a, VertexId b, EdgeId e) const {
  const SymbolTable& symbols = graph_->symbols();
  std::vector<Value> values;
  values.reserve(3 + extracts_.size());
  values.push_back(Value::Vertex(a));
  values.push_back(Value::Edge(e));
  values.push_back(Value::Vertex(b));
  for (size_t i = 0; i < extracts_.size(); ++i) {
    const PropertyExtract& extract = extracts_[i];
    if (extract.element_var == edge_var_) {
      switch (extract.what) {
        case PropertyExtract::What::kProperty:
          values.push_back(graph_->GetEdgeProperty(
              e, extract_key_refs_[i].Resolve(symbols)));
          break;
        case PropertyExtract::What::kType:
          values.push_back(Value::String(graph_->EdgeType(e)));
          break;
        case PropertyExtract::What::kPropertyMap:
          values.push_back(Value::Map(graph_->EdgeProperties(e)));
          break;
        case PropertyExtract::What::kLabels:
          values.push_back(Value::Null());
          break;
      }
      continue;
    }
    VertexId subject = extract.element_var == src_var_ ? a : b;
    values.push_back(VertexExtractValue(*graph_, extract,
                                        extract_key_refs_[i], subject));
  }
  return Tuple(std::move(values));
}

void EdgeInputNode::Store(EdgeId e, std::vector<Tuple> tuples, Delta& out) {
  if (tuples.empty()) return;
  for (const Tuple& tuple : tuples) out.push_back({tuple, 1});
  asserted_.emplace(e, std::move(tuples));
}

std::vector<Tuple> EdgeInputNode::TuplesFromGraph(EdgeId e) const {
  VertexId src = graph_->EdgeSource(e);
  VertexId dst = graph_->EdgeTarget(e);
  std::vector<Tuple> tuples;
  if (EndpointsMatch(src, dst)) {
    tuples.push_back(BuildTuple(src, dst, e));
  }
  if (undirected_ && src != dst && EndpointsMatch(dst, src)) {
    tuples.push_back(BuildTuple(dst, src, e));
  }
  return tuples;
}

void EdgeInputNode::Reconcile(EdgeId e, Delta& out) {
  std::vector<Tuple> fresh = TuplesFromGraph(e);
  auto it = asserted_.find(e);
  if (it == asserted_.end()) {
    Store(e, std::move(fresh), out);
    return;
  }
  // At most two orientation tuples per side: a linear diff is cheapest.
  std::vector<Tuple>& stored = it->second;
  for (const Tuple& tuple : stored) {
    if (std::find(fresh.begin(), fresh.end(), tuple) == fresh.end()) {
      out.push_back({tuple, -1});
    }
  }
  for (const Tuple& tuple : fresh) {
    if (std::find(stored.begin(), stored.end(), tuple) == stored.end()) {
      out.push_back({tuple, 1});
    }
  }
  if (fresh.empty()) {
    asserted_.erase(it);
  } else {
    stored = std::move(fresh);
  }
}

void EdgeInputNode::RefreshIncident(VertexId v, Delta& out) {
  // Walks the incident lists in place; only edges of a matching type build
  // tuples, so a hub vertex costs O(matching edges) beyond the scan.
  auto visit = [&](EdgeId e) {
    if (!TypeMatches(graph_->EdgeTypeId(e))) return;
    Reconcile(e, out);
  };
  for (EdgeId e : graph_->OutEdges(v)) visit(e);
  for (EdgeId e : graph_->InEdges(v)) {
    if (graph_->EdgeSource(e) != v) visit(e);  // self-loops came out-side
  }
}

void EdgeInputNode::Translate(const GraphChange& change, Delta& out) {
  switch (change.kind) {
    case GraphChange::Kind::kAddEdge:
      if (!TypeMatches(change.symbol)) return;
      // A later change in the same batch may have removed this edge again
      // (possibly detach-removing an endpoint, whose properties the vertex
      // extracts would read from the post-batch graph). Skip the assert; the
      // matching kRemoveEdge later in this delta then finds nothing stored.
      if (!graph_->HasEdge(change.edge)) return;
      // An endpoint update earlier in this batch already reconciled the
      // edge against the live graph (edge ids are never reused).
      if (asserted_.count(change.edge) != 0) return;
      Store(change.edge, TuplesFromGraph(change.edge), out);
      return;
    case GraphChange::Kind::kRemoveEdge: {
      if (!TypeMatches(change.symbol)) return;
      auto it = asserted_.find(change.edge);
      if (it == asserted_.end()) return;
      out.reserve(out.size() + it->second.size());
      for (const Tuple& tuple : it->second) out.push_back({tuple, -1});
      asserted_.erase(it);
      return;
    }
    case GraphChange::Kind::kSetEdgeProperty: {
      auto it = asserted_.find(change.edge);
      if (it == asserted_.end()) return;
      const SymbolTable& symbols = graph_->symbols();
      for (Tuple& stored : it->second) {
        Tuple updated = stored;
        for (size_t i = 0; i < extracts_.size(); ++i) {
          const PropertyExtract& extract = extracts_[i];
          if (extract.element_var != edge_var_) continue;
          size_t col = 3 + i;
          if (extract.what == PropertyExtract::What::kProperty &&
              extract_key_refs_[i].Resolve(symbols) == change.symbol) {
            updated = updated.WithColumn(col, change.new_value);
          } else if (extract.what == PropertyExtract::What::kPropertyMap) {
            updated = updated.WithColumn(
                col, UpdatedPropertyMap(updated.at(col), change, symbols));
          }
        }
        if (updated == stored) continue;
        out.push_back({stored, -1});
        out.push_back({updated, 1});
        stored = std::move(updated);
      }
      return;
    }
    case GraphChange::Kind::kSetVertexProperty:
      if (!depends_on_vertices_ || !VertexKeyMatters(change.symbol)) return;
      if (!graph_->HasVertex(change.vertex)) return;
      RefreshIncident(change.vertex, out);
      return;
    case GraphChange::Kind::kAddVertexLabel:
    case GraphChange::Kind::kRemoveVertexLabel:
      if (!LabelMatters(change.symbol)) return;
      if (!graph_->HasVertex(change.vertex)) return;
      RefreshIncident(change.vertex, out);
      return;
    default:
      return;
  }
}

void EdgeInputNode::EmitInitialFromGraph(Delta& out) {
  auto consider = [this, &out](EdgeId e) {
    if (!TypeMatches(graph_->EdgeTypeId(e))) return;
    Store(e, TuplesFromGraph(e), out);
  };
  // Reserve against the *filtered* candidate count (one entry per
  // orientation), not the whole edge store — a selective type over a huge
  // graph must not transiently allocate O(all edges), and priming repeats
  // on every catalog registration.
  if (!types_.empty()) {
    const SymbolTable& symbols = graph_->symbols();
    std::vector<EdgeId> candidates;
    for (const SymbolRef& ref : type_refs_) {
      const std::vector<EdgeId>& of_type =
          graph_->EdgesWithTypeId(ref.Resolve(symbols));
      candidates.insert(candidates.end(), of_type.begin(), of_type.end());
    }
    // Each posting list is sorted; merging several still needs a sort, and
    // a multi-type pattern could list one edge twice only if types_ held
    // duplicates — keep the unique pass for safety.
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    out.reserve(out.size() + candidates.size() * (undirected_ ? 2 : 1));
    for (EdgeId e : candidates) consider(e);
  } else {
    out.reserve(out.size() + graph_->edge_count() * (undirected_ ? 2 : 1));
    graph_->ForEachEdge(consider);
  }
}

bool EdgeInputNode::ReplayOutput(Delta& out) const {
  for (const auto& [e, tuples] : asserted_) {
    (void)e;
    for (const Tuple& tuple : tuples) out.push_back({tuple, 1});
  }
  return true;
}

size_t EdgeInputNode::ApproxMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [e, tuples] : asserted_) {
    (void)e;
    bytes += sizeof(EdgeId);
    for (const Tuple& tuple : tuples) {
      bytes += tuple.ApproxMemoryBytes();
    }
  }
  return bytes;
}

std::string EdgeInputNode::DebugString() const {
  return StrCat("Edges[:", StrJoin(types_, "|"), undirected_ ? " undir" : "",
                EndpointLabelsString(src_labels_, dst_labels_), "]");
}

}  // namespace pgivm
