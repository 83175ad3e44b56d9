#ifndef PGIVM_RETE_PATH_NODE_H_
#define PGIVM_RETE_PATH_NODE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/property_graph.h"
#include "rete/input_node.h"
#include "value/path.h"

namespace pgivm {

/// The get-paths leaf, the trail relation behind the paper's transitive
/// join (./∗): one tuple [start, end (, path), extracts...] per *trail*
/// (edge-unique path, Cypher's variable-length semantics) over edges of the
/// given types with length in [min_hops, max_hops], whose start vertex
/// carries every start label and whose end vertex every end label. The
/// schema's first two columns name the start and end vertex; each extract
/// reads the endpoint its element variable names, like get-edges' endpoint
/// extracts. `reversed` realizes incoming variable-length patterns: steps
/// follow edges backwards while the emitted path still runs in pattern
/// order, start to end.
///
/// This node is where the paper's ORD compromise lives: paths are
/// materialized as atomic, ordered values. An edge insertion asserts exactly
/// the set of new trails running through that edge (enumerated against the
/// current graph); an edge deletion retracts exactly the stored trails
/// containing it (via the edge→trail index). Paths are never edited in
/// place. Start- and end-vertex postings find the stored trails at a
/// vertex, so a label change there retracts them or enumerates the new
/// ones, and an update of an extracted property or label re-asserts them
/// with the new value.
class PathInputNode : public GraphSourceNode {
 public:
  PathInputNode(Schema schema, const PropertyGraph* graph,
                std::vector<std::string> types, bool reversed,
                int64_t min_hops, int64_t max_hops, bool emit_path,
                std::vector<std::string> start_labels = {},
                std::vector<std::string> end_labels = {},
                std::vector<PropertyExtract> extracts = {});

  void Translate(const GraphChange& change, Delta& out) override;
  void EmitInitialFromGraph(Delta& out) override;

  /// Replays every materialized trail, zero-length ones included.
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;
  std::string DebugString() const override;
  const char* KindName() const override { return "PathInput"; }

  /// Number of materialized trails (excluding zero-length paths).
  size_t path_count() const { return trails_.size(); }

 private:
  struct EdgeSeqHash {
    size_t operator()(const std::vector<EdgeId>& edges) const {
      size_t h = 0x9e3779b97f4a7c15ULL;
      for (EdgeId e : edges) {
        h = (h ^ static_cast<size_t>(e)) * 1099511628211ULL;
      }
      return h;
    }
  };
  /// A trail is uniquely determined by its edge sequence; its entry holds
  /// the tuple it asserted. Entries never move, so the indexes point at
  /// them.
  using TrailMap = std::unordered_map<std::vector<EdgeId>, Tuple, EdgeSeqHash>;
  using Trail = TrailMap::value_type;
  using Postings = std::unordered_map<int64_t, std::vector<Trail*>>;

  /// Type test against an interned type symbol — the per-edge check inside
  /// the walks, so it must not touch strings.
  bool TypeMatches(SymbolId type) const;
  bool StartMatches(VertexId v) const;
  bool EndMatches(VertexId v) const;
  /// True when an update of vertex property `key` can change an extract.
  bool KeyMatters(SymbolId key) const;

  /// The tuple of the trail from `start` to `end`, extracts read from live
  /// graph state; `path` is its path value (ignored without a path column).
  Tuple BuildTuple(VertexId start, VertexId end, const Value& path) const;

  /// Depth-first trail enumeration from vertices.back(): calls
  /// visit(vertices, edges) on the walk so far, then extends it by up to
  /// `limit` more edges that are neither in `edges` nor in `excluded`.
  /// `forward` walks in pattern direction, otherwise against it (then the
  /// vectors hold the walk in reverse pattern order).
  template <typename Visit>
  void Walk(bool forward, int64_t limit, const std::vector<EdgeId>& excluded,
            std::vector<VertexId>& vertices, std::vector<EdgeId>& edges,
            const Visit& visit) const;
  /// Enumerates the matching trails starting at `start` (from_start) or
  /// ending at it, and asserts those not stored yet.
  void AddTrailsAt(VertexId v, bool from_start, Delta& out);

  /// Stores and asserts the trail with `edges` from `start` to `end`
  /// (`vertices`, in pattern order, is read only for the path column),
  /// unless it is stored already: a trail through several edges added in
  /// one graph delta is enumerated once per such edge, because each
  /// kAddEdge is translated against the final (fully applied) graph state.
  void AddTrail(const std::vector<EdgeId>& edges, VertexId start,
                VertexId end, const std::vector<VertexId>& vertices,
                Delta& out);
  void RemoveTrail(Trail* trail, Delta& out);
  /// Retracts every stored trail listed under `key` in `postings`.
  void RemoveAll(Postings& postings, int64_t key, Delta& out);
  /// Re-reads the extracts of `stored`; emits and keeps the new tuple when
  /// they changed.
  void Refresh(Tuple& stored, Delta& out) const;
  /// Refreshes every stored trail, zero-length ones included, that starts
  /// or ends at `v`.
  void RefreshAt(VertexId v, Delta& out);
  /// Asserts or retracts v's zero-length trail to match live graph state
  /// (min_hops == 0 only).
  void ReconcileZero(VertexId v, Delta& out);

  int64_t ForwardLimit() const;

  const PropertyGraph* graph_;
  std::vector<std::string> types_;
  std::vector<SymbolRef> type_refs_;  // lazy name→symbol resolution
  bool reversed_;
  int64_t min_hops_;
  int64_t max_hops_;  // -1 = unbounded (trail property still bounds length)
  bool emit_path_;
  std::vector<std::string> start_labels_;  // sorted
  std::vector<std::string> end_labels_;    // sorted
  std::vector<SymbolRef> start_label_refs_;
  std::vector<SymbolRef> end_label_refs_;
  std::vector<PropertyExtract> extracts_;
  std::vector<SymbolRef> extract_key_refs_;  // kProperty only
  std::vector<bool> extract_reads_start_;
  bool extracts_labels_ = false;  // some extract is labels()
  // Postings are kept only for an end that carries labels or extracts.
  bool index_start_ = false;
  bool index_end_ = false;

  TrailMap trails_;
  Postings edge_index_;
  Postings start_index_;
  Postings end_index_;
  std::unordered_map<VertexId, Tuple> zero_trails_;  // min_hops == 0 only
};

}  // namespace pgivm

#endif  // PGIVM_RETE_PATH_NODE_H_
