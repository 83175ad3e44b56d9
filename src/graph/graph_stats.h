#ifndef PGIVM_GRAPH_GRAPH_STATS_H_
#define PGIVM_GRAPH_GRAPH_STATS_H_

#include <map>
#include <string>

#include "graph/property_graph.h"

namespace pgivm {

/// Snapshot statistics of a property graph: cardinalities per label/type,
/// degree aggregates, and property-key usage. Handy for sizing
/// experiments and for checking a generated workload's shape.
struct GraphStats {
  size_t vertex_count = 0;
  size_t edge_count = 0;
  std::map<std::string, size_t> vertices_per_label;
  std::map<std::string, size_t> edges_per_type;
  std::map<std::string, size_t> vertex_property_keys;  // key -> #vertices
  std::map<std::string, size_t> edge_property_keys;    // key -> #edges
  size_t max_out_degree = 0;
  size_t max_in_degree = 0;
  double avg_degree = 0.0;  // (in+out)/2 per vertex

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Computes statistics by one pass over the graph.
GraphStats ComputeGraphStats(const PropertyGraph& graph);

/// Order-stable 64-bit fingerprint of the full graph content: every live
/// vertex (id, labels, properties) and edge (id, endpoints, type,
/// properties), visited in increasing id order with sorted property maps —
/// no unordered-container iteration anywhere, so equal graphs hash equal on
/// every run, platform and thread setting. Two graphs built by the same
/// deterministic mutation sequence must fingerprint identically; this is
/// the bit-parity anchor of the SNB driver's validation mode and the
/// generator determinism tests.
uint64_t GraphFingerprint(const PropertyGraph& graph);

}  // namespace pgivm

#endif  // PGIVM_GRAPH_GRAPH_STATS_H_
