#ifndef PGIVM_ALGEBRA_PLAN_FINGERPRINT_H_
#define PGIVM_ALGEBRA_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "algebra/operator.h"

namespace pgivm {

/// Canonical structural fingerprint of an FRA sub-plan: operator kind +
/// parameters + child fingerprints, with every variable reference rewritten
/// to a schema *position* so the key is insensitive to query aliases
/// (`MATCH (p:Post)` and `MATCH (x:Post)` fingerprint identically). Two
/// sub-plans with equal keys compute positionally identical tuple streams,
/// so one Rete node (and its memories) can serve both — downstream
/// consumers bind their expressions positionally anyway.
///
/// The key is computed on the plan exactly as given; it does not normalize
/// structure. Run CanonicalizePlan (algebra/passes/pass_manager.h) first so
/// logically equal plans that would lower to different join orders, filter
/// splits or operand spellings reach the fingerprint in one normal form.
///
/// Returns "" when the sub-plan contains a construct the canonicalizer does
/// not cover (unbound variable, compile-time-only placeholder); such
/// sub-plans are simply built privately, never shared. Requires schemas
/// computed.
std::string CanonicalPlanKey(const LogicalOp& op);

/// Canonical alias-insensitive rendering of `expr` evaluated against
/// `scope`: scope variables become positions (#i), comprehension locals
/// become depth references. Returns "" when the expression cannot be
/// canonicalized. This is the expression fragment of CanonicalPlanKey,
/// exposed so plan passes can order sub-expressions by a key that is
/// stable under alias renames.
std::string CanonicalExprKey(const ExprPtr& expr, const Schema& scope);

/// Rewrites `expr` into its canonical form: operands of commutative
/// operators are ordered by canonical key — AND/OR chains are flattened,
/// sorted and rebuilt left-deep; XOR/=/<>/* operand pairs are swapped into
/// key order. (`+` is excluded: it concatenates strings and lists.)
/// `scope` only feeds the ordering keys; expressions that cannot be keyed
/// keep their original operand order. Semantics are unchanged — Cypher's
/// three-valued AND/OR are commutative and associative, and evaluation
/// here never short-circuits observable effects.
ExprPtr CanonicalizeExpr(const ExprPtr& expr, const Schema& scope);

/// The strict-weak ordering every canonical re-ordering (conjunct sites,
/// projection/aggregate items, union branches, join-region leaves,
/// AND/OR chains) sorts by: keyable entries first in lexicographic key
/// order, unkeyable ("") entries last. One shared rule, so the
/// canonicalize pass can never drift from the fingerprint's notion of
/// order. Callers preserve the original relative order of ties with
/// stable_sort.
bool CanonicalKeyLess(const std::string& a, const std::string& b);

/// 64-bit FNV-1a of a canonical key — the compact form used when a full
/// key would be unwieldy (plan dumps, logs). Not collision-free; equality
/// decisions must use the full key.
uint64_t FingerprintHash(const std::string& key);

/// FingerprintHash of `key` as 16 lowercase hex digits.
std::string FingerprintHex(const std::string& key);

/// Human-readable fingerprint tag for plan dumps: "fp=" + FingerprintHex,
/// or "fp=-" for the empty (unshareable) key.
std::string FormatFingerprint(const std::string& key);

/// The canonical order of a leaf's extracts: (role, what, property key),
/// where role is the extract's element — src, edge, dst — in `leaf`.
/// Property pushdown dedups identical accesses, so the triple is unique
/// per leaf, and it omits the alias-derived column name, so the order is
/// stable under renames. The canonicalize pass sorts every leaf by it and
/// MirrorUndirectedLeaf restores it after swapping the endpoints.
bool ExtractLess(const PropertyExtract& a, const PropertyExtract& b,
                 const LogicalOp& leaf);

/// The mirrored spelling of an undirected edge leaf: a copy of `op` with
/// src_var/dst_var and their labels swapped, extracts re-sorted into the
/// canonical (role, what, key) order and the schema recomputed. An undirected
/// (kBoth) scan emits both orientations of every edge, so the mirror binds
/// the *same* set of rows — swapping the endpoint roles is a pure renaming
/// of the leaf's internals, and the canonicalizer is free to pick
/// whichever of the two spellings fingerprints smaller (or, when the two
/// keys tie, whichever orientation renders the enclosing join region
/// smaller). Returns nullptr when `op` is not a childless kBoth kGetEdges
/// leaf. Lives next to the fingerprint because the choice must agree with
/// its rendering: the mirror is "the other spelling of the same key
/// space", not a semantic rewrite.
OpPtr MirrorUndirectedLeaf(const LogicalOp& op);

}  // namespace pgivm

#endif  // PGIVM_ALGEBRA_PLAN_FINGERPRINT_H_
