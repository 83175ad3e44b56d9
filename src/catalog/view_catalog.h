#ifndef PGIVM_CATALOG_VIEW_CATALOG_H_
#define PGIVM_CATALOG_VIEW_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/node_registry.h"
#include "engine/view.h"
#include "graph/property_graph.h"
#include "rete/network_builder.h"
#include "support/metrics.h"
#include "support/status.h"

namespace pgivm {

/// Aggregate health of a catalog: how many nodes the registered views
/// resolve to, how many of those are multi-view shared, and the registry's
/// lifetime reuse counters.
struct CatalogStats {
  size_t views = 0;
  size_t total_nodes = 0;   // live Rete nodes across the catalog
  size_t shared_nodes = 0;  // live nodes referenced by >= 2 views
  int64_t registry_hits = 0;    // lifetime sub-plan reuses
  int64_t registry_misses = 0;  // lifetime sub-plan constructions
  size_t memory_bytes = 0;      // node memories, each node counted once
  /// Lifetime priming volume split by origin: tuples delivered by memory
  /// replay from reused nodes vs. tuples emitted by fresh source nodes
  /// reading the graph. A catalog whose registrations fully share keeps
  /// `graph_primed_entries` at the cost of the *first* registration only.
  int64_t replayed_entries = 0;
  int64_t graph_primed_entries = 0;

  double SharingRatio() const {
    return total_nodes == 0
               ? 0.0
               : static_cast<double>(shared_nodes) /
                     static_cast<double>(total_nodes);
  }

  std::string ToString() const;
};

/// Owns every view registered against one PropertyGraph and the shared Rete
/// network they are instantiated in.
///
/// All views live inside a single multi-production network: registration
/// consults the NodeRegistry so structurally identical sub-plans map to the
/// same nodes, the batched wave scheduler propagates once per shared node
/// (not once per view), and deregistration refcounts node usage — tearing
/// down a view frees exactly the nodes no sibling references, never
/// disturbing survivors' memories.
///
/// The network is built with the catalog and lives as long as it: it
/// subscribes to the graph at construction and keeps its lifetime counters
/// and commit epoch across any number of registrations and drops. Every
/// registration, the first included, primes the same way: the registry
/// partitions the new plan into hits — live nodes that replay their
/// materialized memories into just the newly attached consumers — and
/// misses, which are built fresh and primed from the graph through their
/// own source nodes, so registration cost follows the new view's own
/// state, not the catalog size. Existing views' memories, pending deltas
/// and listeners are untouched, so observers of existing views see no
/// spurious deltas. `last_prime_stats` reports the replayed-vs-graph-primed
/// split of the most recent Install.
///
/// Thread-safety: the catalog's own API (Install/Deregister/Stats/...)
/// must be driven from the thread that owns the engine and applies graph
/// deltas (the wave executor parallelizes *inside* a propagation drain,
/// never across API calls). The *views* it hands out are different:
/// View::Pin/Snapshot/results/size read epoch-published immutable state
/// and are safe from any thread, concurrently with drains and even with
/// sibling registrations — see the View thread-safety contract.
///
/// Lifetime: the catalog is shared between its QueryEngine and every View
/// handed out, so views stay valid after the engine is destroyed. The graph
/// must outlive all of them.
class ViewCatalog : public std::enable_shared_from_this<ViewCatalog> {
 public:
  static std::shared_ptr<ViewCatalog> Create(PropertyGraph* graph,
                                             NetworkOptions network_options);

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// Instantiates the compiled view (FRA plan `fra`, original text `query`)
  /// and attaches it to the graph, primed with the current content. Called
  /// by QueryEngine::Register, which owns the compilation pipeline.
  /// FailedPrecondition while the graph holds an open batch: priming reads
  /// the batch's changes from the graph, and the commit would then deliver
  /// them to the new view a second time.
  Result<std::shared_ptr<View>> Install(std::string query, OpPtr gra,
                                        OpPtr fra, int64_t skip,
                                        int64_t limit);

  /// Prefer QueryEngine::MetricsSnapshot(), which embeds these stats in
  /// the engine-wide picture; kept as the catalog-local view.
  CatalogStats Stats() const;
  /// Stats() with memory_bytes summed from `nodes`, the rows of this
  /// catalog's network's NodeMetricsSnapshot(), instead of walking every
  /// node memory a second time.
  CatalogStats Stats(const std::vector<ReteNetwork::NodeMetrics>& nodes) const;

  /// Priming accounting of the most recent Install: how many tuples the
  /// new view received by memory replay vs. from fresh source nodes
  /// reading the graph (plus the fresh-node / replay-edge partition
  /// sizes). The first registration reports zero replayed entries. Also
  /// embedded in QueryEngine::MetricsSnapshot().last_prime.
  const ReteNetwork::PrimeStats& last_prime_stats() const {
    return last_prime_;
  }

  size_t view_count() const { return entries_.size(); }

  /// Bytes held by the node memories `view` references. Shared nodes are
  /// counted in full for every referencing view; see Stats().memory_bytes
  /// for the deduplicated total and MarginalMemoryBytes for the exclusive
  /// slice.
  size_t ViewMemoryBytes(const View* view) const;

  /// Bytes held by nodes only `view` references — what deregistering the
  /// view would actually free.
  size_t MarginalMemoryBytes(const View* view) const;

  /// The shared multi-view network, empty while no view is registered.
  /// Writer-thread only: Install/Deregister add and remove its nodes.
  const ReteNetwork& network() const { return network_; }

  /// The engine-wide metrics registry: the shared network records its
  /// propagation histograms here, and the serving path records pin
  /// latency. Counter/histogram reads are safe from any thread.
  MetricsRegistry& metrics() const { return *metrics_; }
  std::shared_ptr<MetricsRegistry> metrics_ptr() const { return metrics_; }

  /// Resolves a canonical plan fingerprint to its live shared Rete node,
  /// or nullptr for an unknown fingerprint. Non-counting:
  /// ExplainAnalyze uses it without skewing registry hit/miss statistics.
  const ReteNode* FindNodeByFingerprint(const std::string& key) const {
    const NodeRegistry::Entry* entry = registry_.Find(key);
    return entry == nullptr ? nullptr : entry->node;
  }

  /// Stats plus one line per registered view.
  std::string DebugString() const;

 private:
  friend class View;  // ~View deregisters itself
  friend class QueryEngine;  // set_profiling flips the shared network

  struct Entry {
    View* view = nullptr;
    ProductionNode* production = nullptr;
    std::vector<ReteNode*> nodes;  // refcounted footprint
  };

  ViewCatalog(PropertyGraph* graph, NetworkOptions network_options);

  void Deregister(View* view);

  CatalogStats StatsWithMemory(size_t memory_bytes) const;

  PropertyGraph* graph_;
  /// Shared so views can keep the serving-path histograms alive past the
  /// catalog (View holds a reference). Declared before network_, which
  /// records into it.
  std::shared_ptr<MetricsRegistry> metrics_;
  ReteNetwork network_;
  NodeRegistry registry_;
  std::vector<Entry> entries_;
  std::unordered_map<ReteNode*, int> refcounts_;
  ReteNetwork::PrimeStats last_prime_;
  int64_t replayed_entries_ = 0;      // lifetime, across Installs
  int64_t graph_primed_entries_ = 0;  // lifetime, across Installs
};

}  // namespace pgivm

#endif  // PGIVM_CATALOG_VIEW_CATALOG_H_
