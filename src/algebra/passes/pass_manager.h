#ifndef PGIVM_ALGEBRA_PASSES_PASS_MANAGER_H_
#define PGIVM_ALGEBRA_PASSES_PASS_MANAGER_H_

#include "algebra/operator.h"
#include "support/status.h"

namespace pgivm {

/// Plan lowering configuration. The defaults produce the paper's FRA plan;
/// the flags exist for the ablation experiments (E4, E6) and the
/// differential oracle. The wave executor of the instantiated network is
/// configured separately via NetworkOptions in rete/network.h;
/// EngineOptions bundles both.
struct PlanOptions {
  /// Ablation mode of property pushdown (paper step 3): instead of
  /// per-property columns, leaves materialize the *entire* property map of
  /// each element and accesses become map lookups — what an engine without
  /// schema inference must do.
  bool naive_property_maps = false;

  /// Fine-grained unnest maintenance (FGN): drop columns from unnest
  /// *outputs* when they only feed the collection expression
  /// (NarrowUnnestOutputs); every unnest that dropped a column then folds
  /// its deltas into element-level differences (see UnnestNode). Off = the
  /// E4 ablation baseline, where every unnest expands naively.
  bool fine_grained_unnest = true;

  /// Rewrite the lowered FRA plan into its canonical normal form (join
  /// regions flattened and deterministically re-ordered, filter conjuncts
  /// split/sorted/re-merged, commutative expression operands ordered, union
  /// branches sorted) so logically equal queries — MATCH clause
  /// permutations, alias renames, commuted WHERE conjuncts — reach the
  /// catalog's fingerprint registry as one plan and share one Rete
  /// sub-network. Results are unchanged; off = the PR-2 structural-only
  /// sharing, kept as the ablation baseline for the E3 canonical sweep.
  bool canonicalize = true;
};

/// Runs the full GRA → NRA → FRA lowering pipeline (paper steps 2 and 3) on
/// a schema-computed GRA tree and returns the flat, incrementally
/// instantiable plan (schemas recomputed and validated).
Result<OpPtr> LowerToFra(const OpPtr& gra, const PlanOptions& options = {});

// Individual passes, exposed for unit tests and the ablation benchmarks.

/// Paper step 2: rewrites every Expand into Join(input, GetEdges) and
/// every transitive join (kPathJoin) into Join(input, GetPaths). No kExpand
/// or kPathJoin remains.
OpPtr RewriteExpandToJoin(const OpPtr& root);

/// Paper step 3: minimal schema inference. Rewrites property/labels/type/
/// properties accesses on pattern-bound graph elements into columns
/// extracted at the defining ◯/⇑ leaf, inserting pass-through projection
/// items (safe: extracts are functionally dependent on their element) and,
/// for elements that only exist at runtime (e.g. vertices unnested from a
/// path), joining in a fresh get-vertices/get-edges leaf keyed by the
/// element column. With `naive` set, leaves extract whole property maps
/// instead (the ablation plan). Requires schemas computed; leaves them
/// recomputed.
Status PushDownProperties(OpPtr& root, bool naive);

/// Pushes selection conjuncts below joins/distinct/unnest where their
/// variables allow. Requires schemas computed; returns a rewritten tree
/// (schemas stale).
OpPtr PushDownFilters(const OpPtr& root);

/// Removes extracted columns never referenced above their leaf. Safe
/// globally because a dropped name is dropped from every leaf at once and
/// extracts are functionally dependent columns. Mutates the tree in place.
void PruneUnusedExtracts(const OpPtr& root);

/// Marks unnest operators to drop the columns that only their collection
/// expression reads, when doing so is safe: the column is not a join key
/// anywhere and no DISTINCT/aggregate sits above the unnest (dropping a
/// column there could merge groups). Requires schemas computed; mutates in
/// place (schemas stale afterwards).
void NarrowUnnestOutputs(const OpPtr& root);

/// Moves vertex-label constraints into the get-edges and get-paths leaves
/// of the same inner-join region — the paper's ⇑(v:V)[e:E](w:W). A region
/// is a maximal tree of kJoin and kSelection nodes; it never extends
/// through outer, semi- or anti-joins, unions, aggregates or unnests.
/// Inside each region:
///
///  1. every get-edges and get-paths leaf takes, as src_labels/dst_labels,
///     the labels of every get-vertices leaf on its src_var/dst_var —
///     including leaves that stay, so a pattern with and without a
///     property predicate on an endpoint still shares one edge leaf;
///  2. a get-vertices leaf without extracts that is a direct child of a
///     kJoin whose other input binds its variable is deleted when some
///     get-edges or get-paths leaf of the region has that variable as an
///     endpoint;
///  3. a get-vertices leaf with extracts (under any selections of its own)
///     that is a direct child of a kJoin whose other input holds a
///     get-paths leaf with its variable as an endpoint hands its extracts
///     to the first such path leaf and is deleted with its join; its
///     selections move above the other input. Get-edges leaves keep their
///     vertex joins.
///
/// Runs on every plan, after NarrowUnnestOutputs and before
/// CanonicalizePlan. Requires schemas computed; returns a rewritten tree
/// (schemas stale).
OpPtr FoldEndpointLabels(const OpPtr& root);

/// Canonical plan normalization (the last FRA pass; PlanOptions::
/// canonicalize). Rewrites the plan into a normal form chosen so that
/// logically equal plans become structurally — for same-alias spellings,
/// byte — identical:
///
///  * every maximal inner-join region (kJoin trees with interleaved
///    kSelection nodes) is flattened; its conjuncts are pulled up, its
///    leaves re-ordered by canonical fingerprint (connected leaves first,
///    so no cross product is introduced where the source had none) and
///    rebuilt left-deep; each conjunct is re-pushed to its deepest binding
///    site, and every selection site carries its conjuncts key-sorted,
///    deduplicated and re-merged into one σ;
///  * chains of semi-/anti-joins (exists() conjuncts) are re-ordered by
///    the canonical key of their probe side;
///  * union branches are flattened and key-sorted;
///  * commutative expression operands are ordered (CanonicalizeExpr) and
///    label/type/extract lists sorted in every leaf;
///  * projection / group-by / aggregate items are key-sorted (the Produce
///    root keeps its user-visible column order).
///
/// Output columns of every operator keep their *names*, so downstream
/// name-based binding — and therefore every view snapshot — is unchanged.
/// Requires schemas computed; returns a rewritten tree with schemas
/// recomputed.
Result<OpPtr> CanonicalizePlan(const OpPtr& root);

}  // namespace pgivm

#endif  // PGIVM_ALGEBRA_PASSES_PASS_MANAGER_H_
