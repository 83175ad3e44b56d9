#ifndef PGIVM_RETE_INPUT_NODE_H_
#define PGIVM_RETE_INPUT_NODE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/operator.h"
#include "graph/property_graph.h"
#include "rete/node.h"

namespace pgivm {

/// Base of the nodes at the graph boundary. They have no input ports:
/// instead of OnDelta deliveries, the network forwards every GraphChange to
/// them, and asks once for the pre-existing graph state when a view is
/// registered on a non-empty graph.
class GraphSourceNode : public ReteNode {
 public:
  explicit GraphSourceNode(Schema schema) : ReteNode(std::move(schema)) {}

  /// Translates one graph change into relational deltas, appended to `out`.
  /// The change's whole batch is already applied, so an added element's
  /// tuple is read from the graph (and skipped when a later change of the
  /// batch removed the element again).
  virtual void Translate(const GraphChange& change, Delta& out) = 0;

  /// Asserts the tuples for the current graph content, appended to `out`.
  virtual void EmitInitialFromGraph(Delta& out) = 0;
};

/// ◯ — the get-vertices base relation: one tuple [v, extracts...] per live
/// vertex carrying all required labels.
///
/// The node keeps the currently asserted tuple per vertex, so updates are
/// translated into exact retract/assert pairs even inside multi-change
/// batches: an added vertex's tuple is read from the post-batch graph, and
/// a property update of a vertex is applied to its stored tuple.
class VertexInputNode : public GraphSourceNode {
 public:
  VertexInputNode(Schema schema, const PropertyGraph* graph,
                  std::vector<std::string> required_labels,
                  std::vector<PropertyExtract> extracts);

  void Translate(const GraphChange& change, Delta& out) override;
  void EmitInitialFromGraph(Delta& out) override;

  /// Replays the asserted tuple of every live matching vertex.
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;
  std::string DebugString() const override;
  const char* KindName() const override { return "VertexInput"; }

 private:
  /// Label test against live graph state: resolved symbols + binary search
  /// over the vertex's sorted label-id set — no string handling.
  bool Matches(VertexId v) const;
  /// Builds the tuple from live graph state: property extracts are O(1)
  /// column probes through the resolved key symbols (strings are
  /// materialized only for labels()/property-map extracts).
  Tuple BuildTuple(VertexId v) const;

  const PropertyGraph* graph_;
  std::vector<std::string> required_labels_;  // sorted
  std::vector<PropertyExtract> extracts_;
  // Plan-time name→symbol resolution (lazy, cached): one ref per required
  // label, and one per extract (meaningful for kProperty only).
  std::vector<SymbolRef> required_label_refs_;
  std::vector<SymbolRef> extract_key_refs_;
  std::unordered_map<VertexId, Tuple> asserted_;
};

/// ⇑(src:SrcLabels)-[e:Types]->(dst:DstLabels) — the get-edges base
/// relation: one tuple [src, e, dst, extracts...] per live edge of a
/// matching type whose endpoints carry the required labels (for undirected
/// patterns, each of the two orientation tuples is tested and asserted on
/// its own). Extracts may read the edge's own properties/type or the
/// endpoint vertices' properties/labels — the node reacts to endpoint
/// updates via the incident-edge lists.
class EdgeInputNode : public GraphSourceNode {
 public:
  EdgeInputNode(Schema schema, const PropertyGraph* graph,
                std::vector<std::string> types, bool undirected,
                std::string src_var, std::string edge_var,
                std::string dst_var, std::vector<std::string> src_labels,
                std::vector<std::string> dst_labels,
                std::vector<PropertyExtract> extracts);

  void Translate(const GraphChange& change, Delta& out) override;
  void EmitInitialFromGraph(Delta& out) override;

  /// Replays the asserted orientation tuples of every live matching edge.
  bool ReplayOutput(Delta& out) const override;

  size_t ApproxMemoryBytes() const override;
  std::string DebugString() const override;
  const char* KindName() const override { return "EdgeInput"; }

 private:
  /// Type test against an interned type symbol.
  bool TypeMatches(SymbolId type) const;
  /// Label test of orientation (a -> b) against live graph state.
  bool EndpointsMatch(VertexId a, VertexId b) const;
  /// Builds the tuple for orientation (a -> b) of edge `e` from live graph
  /// state: edge/endpoint property extracts are O(1) column probes through
  /// extract_key_refs_[i], no per-tuple string hashing or property-map
  /// materialization.
  Tuple BuildTuple(VertexId a, VertexId b, EdgeId e) const;
  /// The orientation tuples live graph state implies for edge `e`, whose
  /// type already matched.
  std::vector<Tuple> TuplesFromGraph(EdgeId e) const;
  /// Stores and asserts `tuples` as edge `e`'s (nothing stored when empty).
  void Store(EdgeId e, std::vector<Tuple> tuples, Delta& out);
  /// Reconciles every incident edge of `v` of a matching type after a
  /// vertex-side update: the tuples the live graph now implies replace the
  /// stored ones, and the difference is emitted. Edges that did not match
  /// before (an endpoint lacked a label) are picked up as well.
  void RefreshIncident(VertexId v, Delta& out);
  void Reconcile(EdgeId e, Delta& out);
  /// True when a label change of `label` can alter this node's output.
  bool LabelMatters(SymbolId label) const;

  const PropertyGraph* graph_;
  std::vector<std::string> types_;
  bool undirected_;
  std::string src_var_;
  std::string edge_var_;
  std::string dst_var_;
  std::vector<std::string> src_labels_;
  std::vector<std::string> dst_labels_;
  std::vector<PropertyExtract> extracts_;
  // Plan-time name→symbol resolution (lazy, cached): one ref per allowed
  // type, one per required endpoint label, and one per extract (meaningful
  // for kProperty only).
  std::vector<SymbolRef> type_refs_;
  std::vector<SymbolRef> src_label_refs_;
  std::vector<SymbolRef> dst_label_refs_;
  std::vector<SymbolRef> extract_key_refs_;
  bool depends_on_vertices_ = false;
  std::unordered_map<EdgeId, std::vector<Tuple>> asserted_;
};

/// The Unit relation: exactly one empty tuple, asserted at startup. Base of
/// pattern-free queries (`UNWIND [1,2] AS x RETURN x`).
class UnitInputNode : public GraphSourceNode {
 public:
  UnitInputNode() : GraphSourceNode(Schema{}) {}

  void Translate(const GraphChange& /*change*/, Delta& /*out*/) override {}
  void EmitInitialFromGraph(Delta& out) override {
    out.push_back({Tuple(), 1});
  }

  /// The Unit relation's content is constant: the single empty tuple.
  bool ReplayOutput(Delta& out) const override {
    out.push_back({Tuple(), 1});
    return true;
  }

  std::string DebugString() const override { return "Unit"; }
  const char* KindName() const override { return "UnitInput"; }
};

}  // namespace pgivm

#endif  // PGIVM_RETE_INPUT_NODE_H_
