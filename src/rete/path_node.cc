#include "rete/path_node.h"

#include <algorithm>

#include "support/string_util.h"

namespace pgivm {

namespace {

constexpr int64_t kUnboundedLimit = int64_t{1} << 40;

const std::vector<EdgeId> kNoEdges;

}  // namespace

PathInputNode::PathInputNode(Schema schema, const PropertyGraph* graph,
                             std::vector<std::string> types, bool reversed,
                             int64_t min_hops, int64_t max_hops,
                             bool emit_path,
                             std::vector<std::string> start_labels,
                             std::vector<std::string> end_labels,
                             std::vector<PropertyExtract> extracts)
    : GraphSourceNode(std::move(schema)),
      graph_(graph),
      types_(std::move(types)),
      reversed_(reversed),
      min_hops_(min_hops),
      max_hops_(max_hops),
      emit_path_(emit_path),
      start_labels_(std::move(start_labels)),
      end_labels_(std::move(end_labels)),
      extracts_(std::move(extracts)) {
  type_refs_.reserve(types_.size());
  for (const std::string& type : types_) type_refs_.emplace_back(type);
  std::sort(start_labels_.begin(), start_labels_.end());
  std::sort(end_labels_.begin(), end_labels_.end());
  for (const std::string& label : start_labels_) {
    start_label_refs_.emplace_back(label);
  }
  for (const std::string& label : end_labels_) {
    end_label_refs_.emplace_back(label);
  }
  index_start_ = !start_labels_.empty();
  index_end_ = !end_labels_.empty();
  const std::string& start_var = this->schema().at(0).name;
  for (const PropertyExtract& extract : extracts_) {
    extract_key_refs_.emplace_back(
        extract.what == PropertyExtract::What::kProperty ? extract.key
                                                         : std::string());
    bool reads_start = extract.element_var == start_var;
    extract_reads_start_.push_back(reads_start);
    (reads_start ? index_start_ : index_end_) = true;
    if (extract.what == PropertyExtract::What::kLabels) {
      extracts_labels_ = true;
    }
  }
}

bool PathInputNode::TypeMatches(SymbolId type) const {
  return types_.empty() || AnyResolvesTo(type_refs_, graph_->symbols(), type);
}

bool PathInputNode::StartMatches(VertexId v) const {
  return HasAllLabels(*graph_, v, start_label_refs_);
}

bool PathInputNode::EndMatches(VertexId v) const {
  return HasAllLabels(*graph_, v, end_label_refs_);
}

bool PathInputNode::KeyMatters(SymbolId key) const {
  const SymbolTable& symbols = graph_->symbols();
  for (size_t i = 0; i < extracts_.size(); ++i) {
    if (ReadsVertexKey(extracts_[i], extract_key_refs_[i], symbols, key)) {
      return true;
    }
  }
  return false;
}

Tuple PathInputNode::BuildTuple(VertexId start, VertexId end,
                                const Value& path) const {
  std::vector<Value> values;
  values.reserve(3 + extracts_.size());
  values.push_back(Value::Vertex(start));
  values.push_back(Value::Vertex(end));
  if (emit_path_) values.push_back(path);
  for (size_t i = 0; i < extracts_.size(); ++i) {
    values.push_back(VertexExtractValue(*graph_, extracts_[i],
                                        extract_key_refs_[i],
                                        extract_reads_start_[i] ? start : end));
  }
  return Tuple(std::move(values));
}

template <typename Visit>
void PathInputNode::Walk(bool forward, int64_t limit,
                         const std::vector<EdgeId>& excluded,
                         std::vector<VertexId>& vertices,
                         std::vector<EdgeId>& edges,
                         const Visit& visit) const {
  visit(vertices, edges);
  if (limit <= 0) return;
  // Pattern-forward steps leave along out-edges, or along in-edges when
  // the pattern is reversed; backward steps do the opposite.
  const bool out_edges = forward != reversed_;
  const VertexId at = vertices.back();
  const std::vector<EdgeId>& incident =
      out_edges ? graph_->OutEdges(at) : graph_->InEdges(at);
  for (EdgeId e : incident) {
    if (!TypeMatches(graph_->EdgeTypeId(e))) continue;
    // Trails are short next to the adjacency they scan: linear probes.
    if (std::find(edges.begin(), edges.end(), e) != edges.end() ||
        std::find(excluded.begin(), excluded.end(), e) != excluded.end()) {
      continue;
    }
    edges.push_back(e);
    vertices.push_back(out_edges ? graph_->EdgeTarget(e)
                                 : graph_->EdgeSource(e));
    Walk(forward, limit - 1, excluded, vertices, edges, visit);
    vertices.pop_back();
    edges.pop_back();
  }
}

int64_t PathInputNode::ForwardLimit() const {
  return max_hops_ < 0 ? kUnboundedLimit : max_hops_;
}

void PathInputNode::AddTrail(const std::vector<EdgeId>& edges, VertexId start,
                             VertexId end,
                             const std::vector<VertexId>& vertices,
                             Delta& out) {
  auto [it, inserted] = trails_.try_emplace(edges);
  if (!inserted) return;
  Trail* trail = &*it;
  trail->second = BuildTuple(
      start, end,
      emit_path_ ? Value::MakePath(Path(vertices, edges)) : Value::Null());
  for (EdgeId e : edges) edge_index_[e].push_back(trail);
  if (index_start_) start_index_[start].push_back(trail);
  if (index_end_) end_index_[end].push_back(trail);
  out.push_back({trail->second, 1});
}

void PathInputNode::RemoveTrail(Trail* trail, Delta& out) {
  out.push_back({trail->second, -1});
  auto unlink = [trail](Postings& postings, int64_t key) {
    auto it = postings.find(key);
    if (it == postings.end()) return;  // the list RemoveAll is draining
    std::vector<Trail*>& list = it->second;
    auto pos = std::find(list.begin(), list.end(), trail);
    if (pos == list.end()) return;
    *pos = list.back();
    list.pop_back();
    if (list.empty()) postings.erase(it);
  };
  for (EdgeId e : trail->first) unlink(edge_index_, e);
  if (index_start_) unlink(start_index_, trail->second.at(0).AsVertex());
  if (index_end_) unlink(end_index_, trail->second.at(1).AsVertex());
  trails_.erase(trails_.find(trail->first));
}

void PathInputNode::RemoveAll(Postings& postings, int64_t key, Delta& out) {
  auto it = postings.find(key);
  if (it == postings.end()) return;
  std::vector<Trail*> victims = std::move(it->second);
  postings.erase(it);
  for (Trail* trail : victims) RemoveTrail(trail, out);
}

void PathInputNode::Refresh(Tuple& stored, Delta& out) const {
  Tuple fresh =
      BuildTuple(stored.at(0).AsVertex(), stored.at(1).AsVertex(),
                 emit_path_ ? stored.at(2) : Value::Null());
  if (fresh == stored) return;
  out.push_back({stored, -1});
  out.push_back({fresh, 1});
  stored = std::move(fresh);
}

void PathInputNode::RefreshAt(VertexId v, Delta& out) {
  for (Postings* postings : {&start_index_, &end_index_}) {
    auto it = postings->find(v);
    if (it == postings->end()) continue;
    for (Trail* trail : it->second) Refresh(trail->second, out);
  }
  auto zero = zero_trails_.find(v);
  if (zero != zero_trails_.end()) Refresh(zero->second, out);
}

void PathInputNode::ReconcileZero(VertexId v, Delta& out) {
  // A zero-length trail starts and ends at v: it needs both label sets.
  bool wanted = graph_->HasVertex(v) && StartMatches(v) && EndMatches(v);
  auto it = zero_trails_.find(v);
  if (wanted == (it != zero_trails_.end())) return;
  if (wanted) {
    Tuple tuple = BuildTuple(
        v, v, emit_path_ ? Value::MakePath(Path::Single(v)) : Value::Null());
    out.push_back({tuple, 1});
    zero_trails_.emplace(v, std::move(tuple));
  } else {
    out.push_back({std::move(it->second), -1});
    zero_trails_.erase(it);
  }
}

void PathInputNode::AddTrailsAt(VertexId v, bool from_start, Delta& out) {
  const int64_t min_length = std::max<int64_t>(min_hops_, 1);
  std::vector<VertexId> walk_vertices{v};
  std::vector<EdgeId> walk_edges;
  std::vector<VertexId> vertices;
  std::vector<EdgeId> edges;
  Walk(from_start, ForwardLimit(), kNoEdges, walk_vertices, walk_edges,
       [&](const std::vector<VertexId>& wv, const std::vector<EdgeId>& we) {
         if (static_cast<int64_t>(we.size()) < min_length) return;
         VertexId other = wv.back();
         if (from_start) {
           if (EndMatches(other)) AddTrail(we, v, other, wv, out);
           return;
         }
         // A backward walk holds the trail in reverse pattern order.
         if (!StartMatches(other)) return;
         edges.assign(we.rbegin(), we.rend());
         if (emit_path_) vertices.assign(wv.rbegin(), wv.rend());
         AddTrail(edges, other, v, vertices, out);
       });
}

void PathInputNode::Translate(const GraphChange& change, Delta& out) {
  switch (change.kind) {
    case GraphChange::Kind::kAddEdge: {
      if (!TypeMatches(change.symbol)) return;
      // A later change in the same batch may have removed this edge again
      // (possibly detach-removing an endpoint, whose adjacency is gone from
      // the post-batch graph the walks read). Every trail through it would
      // be retracted by that change's kRemoveEdge, so skip the enumeration.
      if (!graph_->HasEdge(change.edge)) return;
      const int64_t limit = ForwardLimit();
      if (limit < 1) return;
      // The new trails are exactly those through the new edge:
      // prefix · e · suffix, with prefix ending at e's pattern anchor and
      // suffix starting at its pattern successor, all edges distinct.
      // Suffixes are enumerated only behind a prefix whose first vertex
      // carries the start labels, and kept only when their last vertex
      // carries the end labels.
      const VertexId anchor = reversed_ ? change.dst : change.src;
      const VertexId successor = reversed_ ? change.src : change.dst;
      const int64_t min_length = std::max<int64_t>(min_hops_, 1);
      const std::vector<EdgeId> just_e{change.edge};
      std::vector<VertexId> pre_vertices{anchor};  // reverse pattern order
      std::vector<EdgeId> pre_edges;
      std::vector<EdgeId> used;  // the prefix and e: barred from suffixes
      std::vector<VertexId> vertices;
      std::vector<EdgeId> edges;
      Walk(
          false, limit - 1, just_e, pre_vertices, pre_edges,
          [&](const std::vector<VertexId>& pv, const std::vector<EdgeId>& pe) {
            const VertexId start = pv.back();
            if (!StartMatches(start)) return;
            used.assign(pe.begin(), pe.end());
            used.push_back(change.edge);
            std::vector<VertexId> suf_vertices{successor};
            std::vector<EdgeId> suf_edges;
            Walk(true, limit - 1 - static_cast<int64_t>(pe.size()), used,
                 suf_vertices, suf_edges,
                 [&](const std::vector<VertexId>& sv,
                     const std::vector<EdgeId>& se) {
                   if (static_cast<int64_t>(pe.size() + 1 + se.size()) <
                           min_length ||
                       !EndMatches(sv.back())) {
                     return;
                   }
                   edges.assign(pe.rbegin(), pe.rend());
                   edges.push_back(change.edge);
                   edges.insert(edges.end(), se.begin(), se.end());
                   if (emit_path_) {
                     vertices.assign(pv.rbegin(), pv.rend());
                     vertices.insert(vertices.end(), sv.begin(), sv.end());
                   }
                   AddTrail(edges, start, sv.back(), vertices, out);
                 });
          });
      return;
    }
    case GraphChange::Kind::kRemoveEdge:
      if (!TypeMatches(change.symbol)) return;
      RemoveAll(edge_index_, change.edge, out);
      return;
    case GraphChange::Kind::kAddVertex:
    case GraphChange::Kind::kRemoveVertex:
      // A detach-remove records its edges' removals first: the trails
      // through them went with those. Only a zero-length trail is left.
      if (min_hops_ == 0) ReconcileZero(change.vertex, out);
      return;
    case GraphChange::Kind::kSetVertexProperty:
      if (!KeyMatters(change.symbol)) return;
      if (!graph_->HasVertex(change.vertex)) return;
      RefreshAt(change.vertex, out);
      return;
    case GraphChange::Kind::kAddVertexLabel:
    case GraphChange::Kind::kRemoveVertexLabel: {
      // A vertex removed later in the batch loses its trails through the
      // removal records of its edges and of itself.
      const VertexId v = change.vertex;
      if (!graph_->HasVertex(v)) return;
      const SymbolTable& symbols = graph_->symbols();
      const bool start_label =
          AnyResolvesTo(start_label_refs_, symbols, change.symbol);
      const bool end_label =
          AnyResolvesTo(end_label_refs_, symbols, change.symbol);
      // Reconciled against the post-batch labels, whichever way the label
      // went: the stored trails at v are dropped, or the missing ones
      // enumerated (those already stored are skipped).
      if (start_label) {
        if (StartMatches(v)) {
          AddTrailsAt(v, /*from_start=*/true, out);
        } else {
          RemoveAll(start_index_, v, out);
        }
      }
      if (end_label) {
        if (EndMatches(v)) {
          AddTrailsAt(v, /*from_start=*/false, out);
        } else {
          RemoveAll(end_index_, v, out);
        }
      }
      if (min_hops_ == 0 && (start_label || end_label)) {
        ReconcileZero(v, out);
      }
      if (extracts_labels_) RefreshAt(v, out);
      return;
    }
    default:
      return;
  }
}

void PathInputNode::EmitInitialFromGraph(Delta& out) {
  auto consider = [this, &out](VertexId v) {
    if (!StartMatches(v)) return;
    if (min_hops_ == 0) ReconcileZero(v, out);
    AddTrailsAt(v, /*from_start=*/true, out);
  };
  if (!start_labels_.empty()) {
    // The posting list is sorted ascending by id — scan it in place.
    for (VertexId v : graph_->VerticesWithLabelId(
             start_label_refs_[0].Resolve(graph_->symbols()))) {
      consider(v);
    }
  } else {
    graph_->ForEachVertex(consider);
  }
}

bool PathInputNode::ReplayOutput(Delta& out) const {
  out.reserve(out.size() + zero_trails_.size() + trails_.size());
  for (const auto& [v, tuple] : zero_trails_) {
    (void)v;
    out.push_back({tuple, 1});
  }
  for (const auto& [edges, tuple] : trails_) {
    (void)edges;
    out.push_back({tuple, 1});
  }
  return true;
}

size_t PathInputNode::ApproxMemoryBytes() const {
  const size_t postings =
      (index_start_ ? 1 : 0) + (index_end_ ? 1 : 0);
  size_t bytes = 0;
  for (const auto& [edges, tuple] : trails_) {
    // The key, its edge-index entries and the end postings.
    bytes += sizeof(Trail) + edges.size() * (sizeof(EdgeId) + sizeof(Trail*)) +
             postings * sizeof(Trail*) + tuple.ApproxMemoryBytes();
  }
  for (const auto& [v, tuple] : zero_trails_) {
    (void)v;
    bytes += sizeof(VertexId) + tuple.ApproxMemoryBytes();
  }
  return bytes;
}

std::string PathInputNode::DebugString() const {
  return StrCat("Paths[:", StrJoin(types_, "|"), "*", min_hops_, "..",
                max_hops_ < 0 ? std::string("") : StrCat(max_hops_),
                reversed_ ? " reversed" : "",
                EndpointLabelsString(start_labels_, end_labels_), "]");
}

}  // namespace pgivm
