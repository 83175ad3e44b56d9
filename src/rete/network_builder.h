#ifndef PGIVM_RETE_NETWORK_BUILDER_H_
#define PGIVM_RETE_NETWORK_BUILDER_H_

#include <vector>

#include "algebra/operator.h"
#include "graph/property_graph.h"
#include "rete/network.h"
#include "support/status.h"

namespace pgivm {

class NodeRegistry;

struct NetworkOptions {
  /// Fold unnest deltas per kept-column projection and emit element-level
  /// differences (the FGN behaviour). Off = the E4 ablation baseline.
  bool fine_grained_unnest = true;

  /// How a topological wave's nodes are executed (see ExecutorKind).
  /// kSerial is the default-compatible single-thread drain; kParallel
  /// distributes each wave over a persistent worker pool with
  /// bit-identical results.
  ExecutorKind executor = ExecutorKind::kSerial;

  /// Total wave parallelism for ExecutorKind::kParallel, including the
  /// dispatching thread; 0 = the machine's hardware concurrency.
  int num_threads = 0;

  /// Work-size gate for parallel dispatch: a topological wave whose queued
  /// delta entries total fewer than this runs inline on the draining
  /// thread instead of being handed to the worker pool — waking workers
  /// costs more than delivering a near-empty wave (the single-change
  /// steady state of a serving catalog). 0 dispatches every multi-node
  /// wave. Purely a performance knob: results are bit-identical for any
  /// value. Ignored under kSerial.
  size_t parallel_min_wave_entries = 8;

  /// Work-size gate for morsel-style intra-node parallelism: a single node
  /// holding at least this many queued delta entries has its delivery
  /// split into key-partitioned morsels processed concurrently (and a
  /// graph delta with at least this many changes has its source
  /// translation partitioned the same way). 0 forces the morsel path for
  /// every eligible node — the test/CI setting; raising it keeps skew-free
  /// steady states on the cheaper whole-node path. Purely a performance
  /// knob: results are bit-identical for any value. Requires
  /// ExecutorKind::kParallel (no pool = no morsels); see also
  /// ApplyEnvMorselOverride / PGIVM_MORSEL.
  size_t morsel_min_node_entries = 1024;

  /// Caps how many partitions a morsel dispatch splits a node into. 0 =
  /// auto (the worker pool's parallelism, itself capped at kMorselShards);
  /// 1 disables morsel execution and parallel source translation entirely
  /// (the ablation baseline). Bit-identical results for any value.
  uint32_t morsel_partitions = 0;

  /// Delta payloads of this size or fewer bypass sort-based consolidation
  /// for a pairwise fast path (see Consolidate). Identical results for any
  /// value; 0 disables the fast path entirely.
  size_t consolidation_cutoff = kDefaultConsolidationCutoff;

  /// How many *previous* committed epochs each production keeps alive for
  /// concurrent readers, in addition to the current one (see
  /// ReteNetwork::set_epoch_retention). 0 frees a superseded epoch at the
  /// first commit after the last reader unpins it.
  size_t epoch_retention = 0;

  /// Per-node/per-drain propagation profiling (see
  /// ReteNetwork::set_profiling): node profiles, drain/wave/serving
  /// histograms and Chrome-trace events. Off (the default) keeps every hot
  /// path free of clock reads — bench_e9_observability holds the
  /// profiling-off overhead under 2% on the e3 burst workload. Can also be
  /// toggled at runtime (QueryEngine::set_profiling) and overridden by the
  /// PGIVM_PROFILE environment variable (see ApplyEnvProfilingOverride).
  bool profiling = false;

  /// Capacity, in events, of each network's profiling trace buffer (plus
  /// the engine's ingest-span buffer). Events past capacity are dropped
  /// and counted, so a long profiled session truncates its trace instead
  /// of growing without bound.
  size_t trace_capacity = 1 << 16;
};

/// Returns `options` with the `PGIVM_THREADS` environment override applied:
/// when the variable is set to an integer n, n > 1 forces
/// ExecutorKind::kParallel with n threads and n <= 1 forces kSerial —
/// regardless of what the options said. A value that is not entirely an
/// integer ("8abc", "abc", "") or does not fit in int is *rejected* with a
/// stderr warning and the options pass through unchanged — a typo must not
/// silently pick some other thread count. This is the operator-level escape
/// hatch (and how CI runs the whole suite under a parallel executor). It
/// is applied exactly once per engine, at ViewCatalog::Create, so every
/// view the engine ever registers resolves against the environment as it
/// was at construction; hand-wired ReteNetworks take options as-given.
NetworkOptions ApplyEnvExecutorOverride(NetworkOptions options);

/// Returns `options` with the `PGIVM_PROFILE` environment override applied:
/// an integer value forces NetworkOptions::profiling on (non-zero) or off
/// (zero) regardless of what the options said. Validated exactly like
/// PGIVM_THREADS — a value that is not entirely an integer or does not fit
/// in int is rejected with a stderr warning and the options pass through
/// unchanged. Applied once per engine, at ViewCatalog::Create, alongside
/// the executor override.
NetworkOptions ApplyEnvProfilingOverride(NetworkOptions options);

/// Returns `options` with the `PGIVM_MORSEL` environment override applied:
/// an integer n >= 0 sets NetworkOptions::morsel_min_node_entries to n
/// (0 = force the morsel path for every eligible node — how CI's TSAN job
/// exercises partitioned delivery on ordinary workloads); a negative n
/// sets morsel_partitions to 1, disabling morsel execution entirely.
/// Validated exactly like PGIVM_THREADS — a value that is not entirely an
/// integer or does not fit in int is rejected with a stderr warning and
/// the options pass through unchanged. Applied once per engine, at
/// ViewCatalog::Create, alongside the executor override.
NetworkOptions ApplyEnvMorselOverride(NetworkOptions options);

/// One view instantiated inside a (possibly multi-view) network: its
/// production root plus every Rete node the view references — shared
/// prefixes included. The ViewCatalog refcounts exactly this set.
///
/// `created` is the registry-miss partition of `nodes`: the nodes this
/// call actually constructed, in creation (bottom-up) order, production
/// last. `nodes` minus `created` are the registry hits — live nodes other
/// views already primed, whose memories the catalog replays into the new
/// consumers instead of re-reading the graph (ReteNetwork::PrimeNewNodes).
struct BuiltView {
  ProductionNode* production = nullptr;
  std::vector<ReteNode*> nodes;    // deduped, production included
  std::vector<ReteNode*> created;  // fresh subset, bottom-up, production last
};

/// Instantiates the FRA plan (paper step 4) as a Rete sub-network inside
/// `network`, which may already host other views. `registry` is consulted
/// per sub-plan: a fingerprint hit reuses the existing nodes (and their
/// memories) instead of constructing — the operator-state sharing that
/// turns a view catalog into one shared dataflow graph. Downstream expressions are bound against the *plan's*
/// child schemas, which are positionally identical to any shared node's
/// output, so sharing is insensitive to query aliases.
///
/// On failure every node this call added is removed from `network` and
/// `registry` again; previously registered views are untouched.
///
/// Lowerings performed here:
///  * transitive join → Join(input, PathInputNode) — the path store is the
///    fused get-edges side of the paper's ./∗ operator;
///  * left outer join → Join ∪ (AntiJoin → null-pad Projection);
///  * Produce → Projection feeding a fresh ProductionNode (the view root;
///    productions are never shared).
Result<BuiltView> BuildViewInto(ReteNetwork* network, const OpPtr& plan,
                                const PropertyGraph* graph,
                                const NetworkOptions& options,
                                NodeRegistry& registry);

}  // namespace pgivm

#endif  // PGIVM_RETE_NETWORK_BUILDER_H_
