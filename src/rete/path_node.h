#ifndef PGIVM_RETE_PATH_NODE_H_
#define PGIVM_RETE_PATH_NODE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/property_graph.h"
#include "rete/input_node.h"
#include "value/path.h"

namespace pgivm {

/// The transitive base relation behind the paper's transitive join (./∗):
/// one tuple [left, right (, path)] per *trail* (edge-unique path, Cypher's
/// variable-length semantics) over edges of the given types with length in
/// [min_hops, max_hops]. `reversed` realizes incoming variable-length
/// patterns: steps follow edges backwards while the emitted path still runs
/// in pattern order, left to right.
///
/// This node is where the paper's ORD compromise lives: paths are
/// materialized as atomic, ordered values. An edge insertion asserts exactly
/// the set of new trails running through that edge (enumerated against the
/// current graph); an edge deletion retracts exactly the stored trails
/// containing it (via the edge→path index). Paths are never edited in
/// place.
class PathInputNode : public GraphSourceNode {
 public:
  PathInputNode(Schema schema, const PropertyGraph* graph,
                std::vector<std::string> types, bool reversed,
                int64_t min_hops, int64_t max_hops, bool emit_path);

  /// Serial: trail enumeration crosses entities, so the partition
  /// arguments are ignored.
  void Translate(const GraphChange& change, uint32_t partition,
                 uint32_t partitions, Delta& out) override;
  void EmitInitialFromGraph(Delta& out) override;

  /// Replays every materialized trail (and, for min_hops == 0, the
  /// asserted zero-length paths).
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;
  std::string DebugString() const override;
  const char* KindName() const override { return "PathInput"; }

  /// Number of materialized trails (excluding zero-length paths).
  size_t path_count() const { return paths_.size(); }

 private:
  using TrailCallback =
      std::function<void(const std::vector<VertexId>& vertices,
                         const std::vector<EdgeId>& edges)>;

  /// Type test against an interned type symbol — the per-edge check inside
  /// the DFS steps, so it must not touch strings.
  bool TypeMatches(SymbolId type) const;
  Tuple MakeTuple(const Path& path) const;

  /// Pattern-forward steps from `a`: calls fn(edge, next_vertex) for each
  /// type-matching edge leaving `a` (entering, when reversed).
  void ForEachStep(VertexId a,
                   const std::function<void(EdgeId, VertexId)>& fn) const;
  /// Pattern-backward steps into `a`.
  void ForEachReverseStep(
      VertexId a, const std::function<void(EdgeId, VertexId)>& fn) const;

  /// Enumerates trails starting at `start` (pattern direction), length 0 to
  /// `limit`, avoiding edges in `used`. The callback sees vertices
  /// [start..end] and the edge list; the empty trail is included.
  void DfsForward(VertexId start, int64_t limit,
                  std::unordered_set<EdgeId>& used,
                  std::vector<VertexId>& vertices, std::vector<EdgeId>& edges,
                  const TrailCallback& cb) const;

  /// Enumerates trails *ending* at `end`, mirrored version of DfsForward.
  /// The callback sees vertices in pattern order [first..end].
  void DfsBackward(VertexId end, int64_t limit,
                   std::unordered_set<EdgeId>& used,
                   std::vector<VertexId>& vertices_rev,
                   std::vector<EdgeId>& edges_rev, const TrailCallback& cb)
      const;

  void AddPath(Path path, Delta& out);
  void RemovePathsContaining(EdgeId e, Delta& out);

  int64_t ForwardLimit() const;

  const PropertyGraph* graph_;
  std::vector<std::string> types_;
  std::vector<SymbolRef> type_refs_;  // lazy name→symbol resolution
  bool reversed_;
  int64_t min_hops_;
  int64_t max_hops_;  // -1 = unbounded (trail property still bounds length)
  bool emit_path_;

  struct EdgeSeqHash {
    size_t operator()(const std::vector<EdgeId>& edges) const {
      size_t h = 0x9e3779b97f4a7c15ULL;
      for (EdgeId e : edges) {
        h = (h ^ static_cast<size_t>(e)) * 1099511628211ULL;
      }
      return h;
    }
  };

  int64_t next_path_id_ = 0;
  std::unordered_map<int64_t, Path> paths_;
  std::unordered_map<EdgeId, std::vector<int64_t>> edge_index_;
  /// Edge sequences of the stored trails (a trail is uniquely determined by
  /// its edges). Guards AddPath against double-assertion: a trail running
  /// through several edges added in the *same* graph delta is enumerated
  /// once per such edge, because each kAddEdge is translated against the
  /// final (fully applied) graph state.
  std::unordered_set<std::vector<EdgeId>, EdgeSeqHash> trail_keys_;
  std::unordered_set<VertexId> zero_asserted_;  // min_hops == 0 only
};

}  // namespace pgivm

#endif  // PGIVM_RETE_PATH_NODE_H_
