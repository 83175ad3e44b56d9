#ifndef PGIVM_RETE_NETWORK_BUILDER_H_
#define PGIVM_RETE_NETWORK_BUILDER_H_

#include <vector>

#include "algebra/operator.h"
#include "graph/property_graph.h"
#include "rete/network.h"
#include "support/status.h"

namespace pgivm {

class NodeRegistry;

/// Returns `options` with the `PGIVM_THREADS` environment override applied:
/// when the variable is set to an integer n, n > 1 forces
/// ExecutorKind::kParallel with n threads and n <= 1 forces kSerial —
/// regardless of what the options said. A value that is not entirely an
/// integer ("8abc", "abc", "") or exceeds ThreadPool::kMaxThreads is
/// *rejected* with a stderr warning and the options pass through unchanged
/// — a typo must not silently pick some other thread count, nor start
/// enough threads to kill the process. This is the operator-level escape
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
