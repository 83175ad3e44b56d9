#include "graph/property_graph.h"

#include <algorithm>
#include <cassert>

#include "support/string_util.h"

namespace pgivm {

namespace {

void SortUnique(std::vector<std::string>& labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
}

void EraseId(std::vector<int64_t>& ids, int64_t id) {
  auto it = std::find(ids.begin(), ids.end(), id);
  if (it != ids.end()) ids.erase(it);
}

/// Sorted posting-list maintenance. Most inserts are of a brand-new
/// maximal id (element creation), so probe the tail before binary search.
void InsertSorted(std::vector<int64_t>& ids, int64_t id) {
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);
    return;
  }
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) ids.insert(it, id);
}

void EraseSorted(std::vector<int64_t>& ids, int64_t id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) ids.erase(it);
}

}  // namespace

PropertyGraph::PropertyGraph()
    : vertex_props_(&symbols_), edge_props_(&symbols_) {}

PropertyGraph::VertexData& PropertyGraph::MutableVertex(VertexId id) {
  assert(HasVertex(id));
  return vertices_[id];
}

const PropertyGraph::VertexData& PropertyGraph::GetVertex(VertexId id) const {
  static const VertexData kAbsent;
  const VertexData* slot = vertices_.Find(id);
  return slot != nullptr ? *slot : kAbsent;
}

PropertyGraph::EdgeData& PropertyGraph::MutableEdge(EdgeId id) {
  assert(HasEdge(id));
  return edges_[id];
}

const PropertyGraph::EdgeData& PropertyGraph::GetEdge(EdgeId id) const {
  static const EdgeData kAbsent;
  const EdgeData* slot = edges_.Find(id);
  return slot != nullptr ? *slot : kAbsent;
}

std::vector<std::string> PropertyGraph::LabelNames(
    const std::vector<SymbolId>& ids) const {
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (SymbolId id : ids) names.push_back(symbols_.Name(id));
  std::sort(names.begin(), names.end());
  return names;
}

VertexId PropertyGraph::AddVertex(std::vector<std::string> labels,
                                  ValueMap properties) {
  SortUnique(labels);
  VertexId id = static_cast<VertexId>(vertices_.size());
  VertexData data;
  data.alive = true;
  data.labels.reserve(labels.size());
  for (const std::string& label : labels) {
    data.labels.push_back(symbols_.Intern(label));
  }
  std::sort(data.labels.begin(), data.labels.end());
  // New id is maximal, so push_back keeps every posting list sorted.
  for (SymbolId label : data.labels) {
    if (label >= label_index_.size()) label_index_.resize(label + 1);
    label_index_[label].push_back(id);
  }
  vertices_.Append(std::move(data));
  ++live_vertex_count_;
  // Null-valued entries mean "absent" everywhere in the API: skip them.
  for (const auto& [key, value] : properties) {
    if (!value.is_null()) vertex_props_.Set(id, symbols_.Intern(key), value);
  }

  GraphChange change;
  change.kind = GraphChange::Kind::kAddVertex;
  change.vertex = id;
  Record(std::move(change));
  return id;
}

Result<EdgeId> PropertyGraph::AddEdge(VertexId src, VertexId dst,
                                      std::string type, ValueMap properties) {
  if (!HasVertex(src)) {
    return Status::NotFound(StrCat("source vertex ", src, " does not exist"));
  }
  if (!HasVertex(dst)) {
    return Status::NotFound(StrCat("target vertex ", dst, " does not exist"));
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  EdgeData data;
  data.alive = true;
  data.src = src;
  data.dst = dst;
  data.type = symbols_.Intern(type);
  if (data.type >= type_index_.size()) type_index_.resize(data.type + 1);
  type_index_[data.type].push_back(id);  // new id is maximal: stays sorted
  edges_.Append(data);
  ++live_edge_count_;
  for (const auto& [key, value] : properties) {
    if (!value.is_null()) edge_props_.Set(id, symbols_.Intern(key), value);
  }
  MutableVertex(src).out_edges.push_back(id);
  MutableVertex(dst).in_edges.push_back(id);

  GraphChange change;
  change.kind = GraphChange::Kind::kAddEdge;
  change.edge = id;
  change.src = src;
  change.dst = dst;
  change.symbol = data.type;
  Record(std::move(change));
  return id;
}

Status PropertyGraph::RemoveEdge(EdgeId edge) {
  if (!HasEdge(edge)) {
    return Status::NotFound(StrCat("edge ", edge, " does not exist"));
  }
  EdgeData& data = MutableEdge(edge);

  GraphChange change;
  change.kind = GraphChange::Kind::kRemoveEdge;
  change.edge = edge;
  change.src = data.src;
  change.dst = data.dst;
  change.symbol = data.type;

  EraseId(MutableVertex(data.src).out_edges, edge);
  EraseId(MutableVertex(data.dst).in_edges, edge);
  EraseSorted(type_index_[data.type], edge);
  edges_.Kill(edge);
  edge_props_.ClearElement(edge);
  --live_edge_count_;

  Record(std::move(change));
  return Status::Ok();
}

Status PropertyGraph::RemoveVertex(VertexId vertex) {
  if (!HasVertex(vertex)) {
    return Status::NotFound(StrCat("vertex ", vertex, " does not exist"));
  }
  VertexData& data = MutableVertex(vertex);
  if (!data.out_edges.empty() || !data.in_edges.empty()) {
    return Status::FailedPrecondition(
        StrCat("vertex ", vertex,
               " still has incident edges; use DetachRemoveVertex"));
  }

  GraphChange change;
  change.kind = GraphChange::Kind::kRemoveVertex;
  change.vertex = vertex;

  for (SymbolId label : data.labels) {
    EraseSorted(label_index_[label], vertex);
  }
  vertices_.Kill(vertex);  // releases the label and edge-list buffers
  vertex_props_.ClearElement(vertex);
  --live_vertex_count_;

  Record(std::move(change));
  return Status::Ok();
}

Status PropertyGraph::DetachRemoveVertex(VertexId vertex) {
  if (!HasVertex(vertex)) {
    return Status::NotFound(StrCat("vertex ", vertex, " does not exist"));
  }
  // Copy: RemoveEdge mutates the incident lists while we iterate.
  std::vector<EdgeId> incident = GetVertex(vertex).out_edges;
  const std::vector<EdgeId>& in = GetVertex(vertex).in_edges;
  incident.insert(incident.end(), in.begin(), in.end());
  // Self-loops appear in both lists; deduplicate.
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());
  for (EdgeId e : incident) PGIVM_RETURN_IF_ERROR(RemoveEdge(e));
  return RemoveVertex(vertex);
}

Status PropertyGraph::SetPropertyImpl(bool is_vertex, int64_t id,
                                      std::string_view key, Value value) {
  PropertyStore* store = nullptr;
  GraphChange change;
  if (is_vertex) {
    if (!HasVertex(id)) {
      return Status::NotFound(StrCat("vertex ", id, " does not exist"));
    }
    store = &vertex_props_;
    change.kind = GraphChange::Kind::kSetVertexProperty;
    change.vertex = id;
  } else {
    if (!HasEdge(id)) {
      return Status::NotFound(StrCat("edge ", id, " does not exist"));
    }
    const EdgeData& data = GetEdge(id);
    store = &edge_props_;
    change.kind = GraphChange::Kind::kSetEdgeProperty;
    change.edge = id;
    change.src = data.src;
    change.dst = data.dst;
  }

  SymbolId key_symbol = symbols_.Intern(key);
  Value old_value = store->Get(id, key_symbol);
  if (old_value == value) return Status::Ok();  // No-op write.

  store->Set(id, key_symbol, value);

  change.symbol = key_symbol;
  change.old_value = std::move(old_value);
  change.new_value = std::move(value);
  Record(std::move(change));
  return Status::Ok();
}

Status PropertyGraph::SetVertexProperty(VertexId vertex, std::string key,
                                        Value value) {
  return SetPropertyImpl(/*is_vertex=*/true, vertex, key, std::move(value));
}

Status PropertyGraph::SetEdgeProperty(EdgeId edge, std::string key,
                                      Value value) {
  return SetPropertyImpl(/*is_vertex=*/false, edge, key, std::move(value));
}

Status PropertyGraph::AddVertexLabel(VertexId vertex, std::string label) {
  if (!HasVertex(vertex)) {
    return Status::NotFound(StrCat("vertex ", vertex, " does not exist"));
  }
  VertexData& data = MutableVertex(vertex);
  SymbolId symbol = symbols_.Intern(label);
  auto it = std::lower_bound(data.labels.begin(), data.labels.end(), symbol);
  if (it != data.labels.end() && *it == symbol) return Status::Ok();
  data.labels.insert(it, symbol);
  if (symbol >= label_index_.size()) label_index_.resize(symbol + 1);
  InsertSorted(label_index_[symbol], vertex);

  GraphChange change;
  change.kind = GraphChange::Kind::kAddVertexLabel;
  change.vertex = vertex;
  change.symbol = symbol;
  Record(std::move(change));
  return Status::Ok();
}

Status PropertyGraph::RemoveVertexLabel(VertexId vertex,
                                        const std::string& label) {
  if (!HasVertex(vertex)) {
    return Status::NotFound(StrCat("vertex ", vertex, " does not exist"));
  }
  VertexData& data = MutableVertex(vertex);
  std::optional<SymbolId> symbol = symbols_.Lookup(label);
  if (!symbol) return Status::Ok();  // Never interned: no vertex has it.
  auto it = std::lower_bound(data.labels.begin(), data.labels.end(), *symbol);
  if (it == data.labels.end() || *it != *symbol) return Status::Ok();
  data.labels.erase(it);
  EraseSorted(label_index_[*symbol], vertex);

  GraphChange change;
  change.kind = GraphChange::Kind::kRemoveVertexLabel;
  change.vertex = vertex;
  change.symbol = *symbol;
  Record(std::move(change));
  return Status::Ok();
}

Status PropertyGraph::ListAppend(VertexId vertex, const std::string& key,
                                 Value element) {
  if (!HasVertex(vertex)) {
    return Status::NotFound(StrCat("vertex ", vertex, " does not exist"));
  }
  Value current = GetVertexProperty(vertex, std::string_view(key));
  ValueList elements;
  if (current.is_list()) {
    elements = current.AsList();
  } else if (!current.is_null()) {
    return Status::FailedPrecondition(
        StrCat("property '", key, "' of vertex ", vertex, " is not a list"));
  }
  elements.push_back(std::move(element));
  return SetVertexProperty(vertex, key, Value::List(std::move(elements)));
}

Status PropertyGraph::ListRemoveFirst(VertexId vertex, const std::string& key,
                                      const Value& element) {
  if (!HasVertex(vertex)) {
    return Status::NotFound(StrCat("vertex ", vertex, " does not exist"));
  }
  Value current = GetVertexProperty(vertex, std::string_view(key));
  if (!current.is_list()) {
    return Status::FailedPrecondition(
        StrCat("property '", key, "' of vertex ", vertex, " is not a list"));
  }
  ValueList elements = current.AsList();
  auto it = std::find(elements.begin(), elements.end(), element);
  if (it == elements.end()) {
    return Status::NotFound(StrCat("element ", element.ToString(),
                                   " not present in list property '", key,
                                   "'"));
  }
  elements.erase(it);
  return SetVertexProperty(vertex, key, Value::List(std::move(elements)));
}

Status PropertyGraph::MapPut(VertexId vertex, const std::string& key,
                             const std::string& entry_key, Value value) {
  if (!HasVertex(vertex)) {
    return Status::NotFound(StrCat("vertex ", vertex, " does not exist"));
  }
  Value current = GetVertexProperty(vertex, std::string_view(key));
  ValueMap entries;
  if (current.is_map()) {
    entries = current.AsMap();
  } else if (!current.is_null()) {
    return Status::FailedPrecondition(
        StrCat("property '", key, "' of vertex ", vertex, " is not a map"));
  }
  entries[entry_key] = std::move(value);
  return SetVertexProperty(vertex, key, Value::Map(std::move(entries)));
}

Status PropertyGraph::MapErase(VertexId vertex, const std::string& key,
                               const std::string& entry_key) {
  if (!HasVertex(vertex)) {
    return Status::NotFound(StrCat("vertex ", vertex, " does not exist"));
  }
  Value current = GetVertexProperty(vertex, std::string_view(key));
  if (!current.is_map()) {
    return Status::FailedPrecondition(
        StrCat("property '", key, "' of vertex ", vertex, " is not a map"));
  }
  ValueMap entries = current.AsMap();
  if (entries.erase(entry_key) == 0) return Status::Ok();
  return SetVertexProperty(vertex, key, Value::Map(std::move(entries)));
}

void PropertyGraph::BeginBatch() {
  assert(!in_batch_ && "batches do not nest");
  in_batch_ = true;
  pending_.changes.clear();
}

void PropertyGraph::CommitBatch() {
  assert(in_batch_);
  in_batch_ = false;
  if (pending_.empty()) return;
  GraphDelta delta;
  delta.changes.swap(pending_.changes);
  NotifyListeners(std::move(delta));
}

void PropertyGraph::AddListener(GraphListener* listener) {
  listeners_.push_back(listener);
}

void PropertyGraph::RemoveListener(GraphListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

void PropertyGraph::Record(GraphChange change) {
  // Nobody to tell: a populate batch run before any engine subscribes
  // would otherwise hold a record of every element it creates.
  if (listeners_.empty()) return;
  if (in_batch_) {
    pending_.changes.push_back(std::move(change));
    return;
  }
  GraphDelta delta;
  delta.changes.push_back(std::move(change));
  NotifyListeners(std::move(delta));
}

void PropertyGraph::NotifyListeners(GraphDelta delta) {
  for (GraphListener* listener : listeners_) {
    listener->OnGraphDelta(delta);
  }
}

bool PropertyGraph::HasVertex(VertexId vertex) const {
  return vertices_.Find(vertex) != nullptr;
}

bool PropertyGraph::HasEdge(EdgeId edge) const {
  return edges_.Find(edge) != nullptr;
}

std::vector<std::string> PropertyGraph::VertexLabels(VertexId vertex) const {
  return LabelNames(GetVertex(vertex).labels);
}

bool PropertyGraph::VertexHasLabel(VertexId vertex,
                                   std::string_view label) const {
  std::optional<SymbolId> symbol = symbols_.Lookup(label);
  return symbol && VertexHasLabel(vertex, *symbol);
}

Value PropertyGraph::GetVertexProperty(VertexId vertex,
                                       std::string_view key) const {
  std::optional<SymbolId> symbol = symbols_.Lookup(key);
  return symbol ? vertex_props_.Get(vertex, *symbol) : Value::Null();
}

Value PropertyGraph::GetEdgeProperty(EdgeId edge, std::string_view key) const {
  std::optional<SymbolId> symbol = symbols_.Lookup(key);
  return symbol ? edge_props_.Get(edge, *symbol) : Value::Null();
}

ValueMap PropertyGraph::VertexProperties(VertexId vertex) const {
  return vertex_props_.Collect(vertex);
}

ValueMap PropertyGraph::EdgeProperties(EdgeId edge) const {
  return edge_props_.Collect(edge);
}

VertexId PropertyGraph::EdgeSource(EdgeId edge) const {
  return GetEdge(edge).src;
}

VertexId PropertyGraph::EdgeTarget(EdgeId edge) const {
  return GetEdge(edge).dst;
}

const std::string& PropertyGraph::EdgeType(EdgeId edge) const {
  static const std::string kAbsent;
  const SymbolId type = GetEdge(edge).type;
  return type == kNoSymbol ? kAbsent : symbols_.Name(type);
}

const std::vector<EdgeId>& PropertyGraph::OutEdges(VertexId vertex) const {
  return GetVertex(vertex).out_edges;
}

const std::vector<EdgeId>& PropertyGraph::InEdges(VertexId vertex) const {
  return GetVertex(vertex).in_edges;
}

std::vector<VertexId> PropertyGraph::VerticesWithLabel(
    std::string_view label) const {
  std::optional<SymbolId> symbol = symbols_.Lookup(label);
  if (!symbol) return {};
  return VerticesWithLabelId(*symbol);
}

std::vector<EdgeId> PropertyGraph::EdgesWithType(std::string_view type) const {
  std::optional<SymbolId> symbol = symbols_.Lookup(type);
  if (!symbol) return {};
  return EdgesWithTypeId(*symbol);
}

const std::vector<SymbolId>& PropertyGraph::VertexLabelIds(
    VertexId vertex) const {
  return GetVertex(vertex).labels;
}

bool PropertyGraph::VertexHasLabel(VertexId vertex, SymbolId label) const {
  const std::vector<SymbolId>& labels = GetVertex(vertex).labels;
  return std::binary_search(labels.begin(), labels.end(), label);
}

Value PropertyGraph::GetVertexProperty(VertexId vertex, SymbolId key) const {
  if (key == kNoSymbol) return Value::Null();
  return vertex_props_.Get(vertex, key);
}

Value PropertyGraph::GetEdgeProperty(EdgeId edge, SymbolId key) const {
  if (key == kNoSymbol) return Value::Null();
  return edge_props_.Get(edge, key);
}

SymbolId PropertyGraph::EdgeTypeId(EdgeId edge) const {
  return GetEdge(edge).type;
}

const std::vector<VertexId>& PropertyGraph::VerticesWithLabelId(
    SymbolId label) const {
  static const std::vector<VertexId> kEmpty;
  if (label >= label_index_.size()) return kEmpty;  // covers kNoSymbol
  return label_index_[label];
}

const std::vector<EdgeId>& PropertyGraph::EdgesWithTypeId(
    SymbolId type) const {
  static const std::vector<EdgeId> kEmpty;
  if (type >= type_index_.size()) return kEmpty;  // covers kNoSymbol
  return type_index_[type];
}

void PropertyGraph::ForEachVertex(
    const std::function<void(VertexId)>& fn) const {
  vertices_.ForEachSlot([&fn](VertexId id, const VertexData& vertex) {
    if (vertex.alive) fn(id);
  });
}

void PropertyGraph::ForEachEdge(const std::function<void(EdgeId)>& fn) const {
  edges_.ForEachSlot([&fn](EdgeId id, const EdgeData& edge) {
    if (edge.alive) fn(id);
  });
}

size_t PropertyGraph::ApproxMemoryBytes() const {
  size_t bytes = vertices_.PageBytes() + edges_.PageBytes();
  // Dead slots on a live page count too (they hold nothing once dead).
  vertices_.ForEachSlot([&bytes](VertexId, const VertexData& v) {
    bytes += v.labels.capacity() * sizeof(SymbolId);
    bytes += (v.out_edges.capacity() + v.in_edges.capacity()) * sizeof(EdgeId);
  });
  bytes += symbols_.ApproxMemoryBytes();
  bytes += vertex_props_.ApproxMemoryBytes();
  bytes += edge_props_.ApproxMemoryBytes();
  for (const std::vector<VertexId>& ids : label_index_) {
    bytes += ids.capacity() * sizeof(VertexId);
  }
  for (const std::vector<EdgeId>& ids : type_index_) {
    bytes += ids.capacity() * sizeof(EdgeId);
  }
  return bytes;
}

}  // namespace pgivm
