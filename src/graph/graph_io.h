#ifndef PGIVM_GRAPH_GRAPH_IO_H_
#define PGIVM_GRAPH_GRAPH_IO_H_

#include <string>
#include <string_view>

#include "graph/property_graph.h"
#include "support/status.h"

namespace pgivm {

/// Serializes a Value as a JSON-like literal: null, true/false, integers,
/// doubles (round-trip precision), "strings" (with \" \\ \n \t escapes),
/// [lists] and {"key": value} maps. Vertex/edge references and paths are
/// not serializable as property values (they are graph-topology, not data)
/// and render as null.
std::string WriteValueText(const Value& value);

/// Parses the WriteValueText format. Lists and maps nested deeper than
/// kMaxValueNesting are rejected with InvalidArgument.
Result<Value> ParseValueText(std::string_view text);

/// How deeply lists and maps may nest in parsed value text (each `[` or `{`
/// takes one level). Recursive descent would otherwise overflow the stack on
/// hostile input such as 10k open brackets.
inline constexpr int kMaxValueNesting = 256;

/// Dumps the whole graph in a line-based text format:
///
///   pgivm-graph 1
///   vertex <id> :Label1:Label2 {"key": value, ...}
///   edge <id> <src> <dst> <type> {"key": value, ...}
///
/// Labels and types must not contain whitespace (enforced on write).
std::string WriteGraphText(const PropertyGraph& graph);

/// Loads a WriteGraphText dump into `graph` (which is typically fresh but
/// may already hold elements). Ids are re-assigned densely in file order;
/// edge endpoints are remapped accordingly. Emits regular change
/// notifications (one batch per load), so attached views stay consistent.
Status ReadGraphText(std::string_view text, PropertyGraph* graph);

}  // namespace pgivm

#endif  // PGIVM_GRAPH_GRAPH_IO_H_
