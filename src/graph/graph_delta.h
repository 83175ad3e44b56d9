#ifndef PGIVM_GRAPH_GRAPH_DELTA_H_
#define PGIVM_GRAPH_GRAPH_DELTA_H_

#include <vector>

#include "graph/symbol_table.h"
#include "value/ids.h"
#include "value/value.h"

namespace pgivm {

/// One elementary graph mutation, recorded as ids plus, for a property
/// update, the old and new value. A record names its subject and what
/// changed; it carries no snapshot. Consumers read an added element's
/// state from the graph, which listeners see with the whole batch applied
/// (an element added and removed again within one batch is no longer
/// there, and the later removal record says so). The symbol is an id of
/// the emitting graph's SymbolTable: records never leave their graph, so
/// they need no names.
struct GraphChange {
  enum class Kind {
    kAddVertex,
    kRemoveVertex,
    kAddEdge,
    kRemoveEdge,
    kSetVertexProperty,
    kSetEdgeProperty,
    kAddVertexLabel,
    kRemoveVertexLabel,
  };

  Kind kind;

  /// Subject element. Exactly one of vertex/edge is meaningful per kind.
  VertexId vertex = kInvalidId;
  EdgeId edge = kInvalidId;

  /// Edge endpoints (edge kinds and edge-property kinds).
  VertexId src = kInvalidId;
  VertexId dst = kInvalidId;

  /// The edge type (edge kinds and edge-property kinds), the label added
  /// or removed (label kinds), or the property key (kSet*Property). Unset
  /// (kNoSymbol) for vertex adds and removes.
  SymbolId symbol = kNoSymbol;

  /// Property-update payload (kSet*Property). A null Value means "absent",
  /// so set-from-absent has null old_value and erase has null new_value.
  Value old_value;
  Value new_value;
};

/// An ordered batch of changes emitted atomically (one listener call). The
/// changes have already been applied to the graph when listeners run, in
/// the order recorded here.
struct GraphDelta {
  std::vector<GraphChange> changes;

  bool empty() const { return changes.empty(); }
  size_t size() const { return changes.size(); }
};

/// Observer interface for live graph consumers (the IVM engine, logs, ...).
class GraphListener {
 public:
  virtual ~GraphListener() = default;

  /// Called after `delta` has been fully applied to the graph.
  virtual void OnGraphDelta(const GraphDelta& delta) = 0;
};

}  // namespace pgivm

#endif  // PGIVM_GRAPH_GRAPH_DELTA_H_
