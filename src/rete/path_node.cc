#include "rete/path_node.h"

#include <algorithm>

#include "support/string_util.h"

namespace pgivm {

namespace {

constexpr int64_t kUnboundedLimit = int64_t{1} << 40;

}  // namespace

PathInputNode::PathInputNode(Schema schema, const PropertyGraph* graph,
                             std::vector<std::string> types, bool reversed,
                             int64_t min_hops, int64_t max_hops,
                             bool emit_path)
    : GraphSourceNode(std::move(schema)),
      graph_(graph),
      types_(std::move(types)),
      reversed_(reversed),
      min_hops_(min_hops),
      max_hops_(max_hops),
      emit_path_(emit_path) {
  type_refs_.reserve(types_.size());
  for (const std::string& type : types_) type_refs_.emplace_back(type);
}

bool PathInputNode::TypeMatches(SymbolId type) const {
  return types_.empty() || AnyResolvesTo(type_refs_, graph_->symbols(), type);
}

Tuple PathInputNode::MakeTuple(const Path& path) const {
  std::vector<Value> values;
  values.reserve(emit_path_ ? 3 : 2);
  values.push_back(Value::Vertex(path.source()));
  values.push_back(Value::Vertex(path.target()));
  if (emit_path_) values.push_back(Value::MakePath(path));
  return Tuple(std::move(values));
}

void PathInputNode::ForEachStep(
    VertexId a, const std::function<void(EdgeId, VertexId)>& fn) const {
  const std::vector<EdgeId>& edges =
      reversed_ ? graph_->InEdges(a) : graph_->OutEdges(a);
  for (EdgeId e : edges) {
    if (!TypeMatches(graph_->EdgeTypeId(e))) continue;
    fn(e, reversed_ ? graph_->EdgeSource(e) : graph_->EdgeTarget(e));
  }
}

void PathInputNode::ForEachReverseStep(
    VertexId a, const std::function<void(EdgeId, VertexId)>& fn) const {
  const std::vector<EdgeId>& edges =
      reversed_ ? graph_->OutEdges(a) : graph_->InEdges(a);
  for (EdgeId e : edges) {
    if (!TypeMatches(graph_->EdgeTypeId(e))) continue;
    fn(e, reversed_ ? graph_->EdgeTarget(e) : graph_->EdgeSource(e));
  }
}

void PathInputNode::DfsForward(VertexId start, int64_t limit,
                               std::unordered_set<EdgeId>& used,
                               std::vector<VertexId>& vertices,
                               std::vector<EdgeId>& edges,
                               const TrailCallback& cb) const {
  cb(vertices, edges);
  if (limit <= 0) return;
  ForEachStep(vertices.back(), [&](EdgeId e, VertexId next) {
    if (!used.insert(e).second) return;
    edges.push_back(e);
    vertices.push_back(next);
    DfsForward(start, limit - 1, used, vertices, edges, cb);
    vertices.pop_back();
    edges.pop_back();
    used.erase(e);
  });
}

void PathInputNode::DfsBackward(VertexId end, int64_t limit,
                                std::unordered_set<EdgeId>& used,
                                std::vector<VertexId>& vertices_rev,
                                std::vector<EdgeId>& edges_rev,
                                const TrailCallback& cb) const {
  // vertices_rev runs [end, ..., first]; present the pattern order.
  std::vector<VertexId> vertices(vertices_rev.rbegin(), vertices_rev.rend());
  std::vector<EdgeId> edges(edges_rev.rbegin(), edges_rev.rend());
  cb(vertices, edges);
  if (limit <= 0) return;
  ForEachReverseStep(vertices_rev.back(), [&](EdgeId e, VertexId prev) {
    if (!used.insert(e).second) return;
    edges_rev.push_back(e);
    vertices_rev.push_back(prev);
    DfsBackward(end, limit - 1, used, vertices_rev, edges_rev, cb);
    vertices_rev.pop_back();
    edges_rev.pop_back();
    used.erase(e);
  });
}

int64_t PathInputNode::ForwardLimit() const {
  return max_hops_ < 0 ? kUnboundedLimit : max_hops_;
}

void PathInputNode::AddPath(Path path, Delta& out) {
  // A trail already stored was found again via another of its edges (they
  // can both be new in one multi-change graph delta): assert it only once.
  if (!trail_keys_.insert(path.edges()).second) return;
  int64_t id = next_path_id_++;
  out.push_back({MakeTuple(path), 1});
  for (EdgeId e : path.edges()) edge_index_[e].push_back(id);
  paths_.emplace(id, std::move(path));
}

void PathInputNode::RemovePathsContaining(EdgeId e, Delta& out) {
  auto it = edge_index_.find(e);
  if (it == edge_index_.end()) return;
  std::vector<int64_t> ids = it->second;
  for (int64_t id : ids) {
    auto pit = paths_.find(id);
    if (pit == paths_.end()) continue;  // Already removed via another edge.
    out.push_back({MakeTuple(pit->second), -1});
    for (EdgeId pe : pit->second.edges()) {
      auto eit = edge_index_.find(pe);
      if (eit == edge_index_.end()) continue;
      auto& vec = eit->second;
      vec.erase(std::remove(vec.begin(), vec.end(), id), vec.end());
      if (vec.empty()) edge_index_.erase(eit);
    }
    trail_keys_.erase(pit->second.edges());
    paths_.erase(pit);
  }
}

void PathInputNode::Translate(const GraphChange& change,
                              uint32_t /*partition*/, uint32_t /*partitions*/,
                              Delta& out) {
  switch (change.kind) {
    case GraphChange::Kind::kAddEdge: {
      if (!TypeMatches(change.symbol)) return;
      // A later change in the same batch may have removed this edge again
      // (possibly detach-removing an endpoint, whose adjacency is gone from
      // the post-batch graph the DFS walks). Every trail through it would be
      // retracted by that change's kRemoveEdge, so skip the enumeration.
      if (!graph_->HasEdge(change.edge)) return;
      // The new trails are exactly those through the new edge:
      // prefix · e · suffix, with prefix ending at e's pattern anchor and
      // suffix starting at its pattern successor, all edges distinct.
      VertexId anchor = reversed_ ? change.dst : change.src;
      VertexId successor = reversed_ ? change.src : change.dst;
      int64_t limit = ForwardLimit();
      std::unordered_set<EdgeId> used{change.edge};
      std::vector<VertexId> pre_vertices{anchor};
      std::vector<EdgeId> pre_edges;
      DfsBackward(
          anchor, limit - 1, used, pre_vertices, pre_edges,
          [&](const std::vector<VertexId>& pv, const std::vector<EdgeId>& pe) {
            int64_t remaining =
                limit - 1 - static_cast<int64_t>(pe.size());
            std::vector<VertexId> suf_vertices{successor};
            std::vector<EdgeId> suf_edges;
            // `used` currently contains e plus the prefix edges, so the
            // suffix enumeration is automatically edge-disjoint.
            DfsForward(successor, remaining, used, suf_vertices, suf_edges,
                       [&](const std::vector<VertexId>& sv,
                           const std::vector<EdgeId>& se) {
                         int64_t length = static_cast<int64_t>(pe.size()) + 1 +
                                          static_cast<int64_t>(se.size());
                         if (length < std::max<int64_t>(min_hops_, 1)) return;
                         std::vector<VertexId> vertices = pv;
                         vertices.insert(vertices.end(), sv.begin(), sv.end());
                         std::vector<EdgeId> edges = pe;
                         edges.push_back(change.edge);
                         edges.insert(edges.end(), se.begin(), se.end());
                         AddPath(Path(std::move(vertices), std::move(edges)),
                                 out);
                       });
          });
      return;
    }
    case GraphChange::Kind::kRemoveEdge:
      if (!TypeMatches(change.symbol)) return;
      RemovePathsContaining(change.edge, out);
      return;
    case GraphChange::Kind::kAddVertex:
      if (min_hops_ == 0) {
        zero_asserted_.insert(change.vertex);
        out.push_back({MakeTuple(Path::Single(change.vertex)), 1});
      }
      return;
    case GraphChange::Kind::kRemoveVertex:
      if (min_hops_ == 0 && zero_asserted_.erase(change.vertex) > 0) {
        out.push_back({MakeTuple(Path::Single(change.vertex)), -1});
      }
      return;
    default:
      return;
  }
}

void PathInputNode::EmitInitialFromGraph(Delta& out) {
  int64_t limit = ForwardLimit();
  graph_->ForEachVertex([&](VertexId v) {
    if (min_hops_ == 0) {
      zero_asserted_.insert(v);
      out.push_back({MakeTuple(Path::Single(v)), 1});
    }
    std::unordered_set<EdgeId> used;
    std::vector<VertexId> vertices{v};
    std::vector<EdgeId> edges;
    DfsForward(v, limit, used, vertices, edges,
               [&](const std::vector<VertexId>& pv,
                   const std::vector<EdgeId>& pe) {
                 int64_t length = static_cast<int64_t>(pe.size());
                 if (length < std::max<int64_t>(min_hops_, 1)) return;
                 AddPath(Path(pv, pe), out);
               });
  });
}

bool PathInputNode::ReplayOutput(Delta& out) const {
  out.reserve(out.size() + zero_asserted_.size() + paths_.size());
  for (VertexId v : zero_asserted_) {
    out.push_back({MakeTuple(Path::Single(v)), 1});
  }
  for (const auto& [id, path] : paths_) {
    (void)id;
    out.push_back({MakeTuple(path), 1});
  }
  return true;
}

size_t PathInputNode::ApproxMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [id, path] : paths_) {
    bytes += sizeof(int64_t) + sizeof(Path) +
             path.vertices().size() * sizeof(VertexId) +
             path.edges().size() * sizeof(EdgeId) * 2;  // + index entry
  }
  bytes += zero_asserted_.size() * sizeof(VertexId) * 2;
  return bytes;
}

std::string PathInputNode::DebugString() const {
  return StrCat("Paths[:", StrJoin(types_, "|"), "*", min_hops_, "..",
                max_hops_ < 0 ? std::string("") : StrCat(max_hops_),
                reversed_ ? " reversed" : "", "]");
}

}  // namespace pgivm
