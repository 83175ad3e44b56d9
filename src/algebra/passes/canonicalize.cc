// Canonical plan normalization (PlanOptions::canonicalize, the last FRA
// pass). Logically equal queries reach this pass as structurally different
// trees — the compiler joins MATCH parts in clause order, filter pushdown
// visits conjuncts in WHERE order, property pushdown appends extracts in
// reference order. This pass rewrites all of that order away: after it,
// clause permutations, alias renames and commuted conjuncts produce plans
// whose canonical fingerprints (algebra/plan_fingerprint.h) are equal, so
// the catalog's NodeRegistry maps them onto one shared Rete sub-network.
//
// Every rewrite below is a bag-algebra identity (natural joins are
// commutative and associative, selections commute with joins and each
// other, semi/anti joins filter only their left input, union is
// commutative), and operators keep their output column *names* — so
// downstream name-based binding, and with it every view snapshot, is
// unchanged. Only intermediate column order and node placement move.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algebra/passes/pass_manager.h"
#include "algebra/plan_fingerprint.h"

namespace pgivm {

namespace {

bool SchemaBinds(const Schema& schema, const std::vector<std::string>& vars) {
  for (const std::string& var : vars) {
    if (!schema.Contains(var)) return false;
  }
  return true;
}

bool SharesColumn(const Schema& acc, const Schema& leaf) {
  for (const Attribute& attr : leaf.attributes()) {
    if (acc.Contains(attr.name)) return true;
  }
  return false;
}

/// Positional rendering of the natural-join key pairs `acc` ⋈ `leaf` — the
/// alias-insensitive tie-break between leaves with equal fingerprints that
/// attach to the already-joined prefix on different columns (two identical
/// vertex scans binding the two endpoints of one edge, say).
std::string JoinSignature(const Schema& acc, const Schema& leaf) {
  std::string out = "{";
  for (size_t i = 0; i < acc.size(); ++i) {
    int r = leaf.IndexOf(acc.at(i).name);
    if (r < 0) continue;
    out.append(std::to_string(i));
    out.push_back('~');
    out.append(std::to_string(r));
    out.push_back(',');
  }
  out.push_back('}');
  return out;
}

/// The pass. Canonicalizes bottom-up; every returned subtree has its
/// schema recomputed (ComputeSchemaShallow), because ordering keys are
/// position-based and need valid schemas at each step.
class Canonicalizer {
 public:
  Result<OpPtr> Run(const OpPtr& op) {
    switch (op->kind) {
      case OpKind::kJoin:
      case OpKind::kSelection:
        return CanonJoinRegion(op);
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
        return CanonSemiAntiChain(op);
      case OpKind::kUnion:
        return CanonUnion(op);
      default:
        return CanonDefault(op);
    }
  }

 private:
  /// Key-sorts `items` (projection / group-by / aggregate lists); ties and
  /// unkeyable expressions keep their original relative order.
  static void SortNamedExprs(
      std::vector<std::pair<std::string, ExprPtr>>& items,
      const Schema& scope) {
    std::vector<std::pair<std::string, std::pair<std::string, ExprPtr>>>
        keyed;
    keyed.reserve(items.size());
    for (auto& item : items) {
      keyed.emplace_back(CanonicalExprKey(item.second, scope),
                         std::move(item));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return CanonicalKeyLess(a.first, b.first);
                     });
    items.clear();
    for (auto& [key, item] : keyed) {
      (void)key;
      items.push_back(std::move(item));
    }
  }

  /// Everything that is not a join region / filter chain / union /
  /// semi-anti chain: canonicalize children, order the operator's own
  /// commutative payload, recompute the schema.
  Result<OpPtr> CanonDefault(const OpPtr& op) {
    auto copy = std::make_shared<LogicalOp>(*op);
    for (OpPtr& child : copy->children) {
      PGIVM_ASSIGN_OR_RETURN(child, Run(child));
    }
    switch (copy->kind) {
      case OpKind::kGetVertices:
        std::sort(copy->labels.begin(), copy->labels.end());
        std::sort(copy->extracts.begin(), copy->extracts.end(),
                  [&copy](const PropertyExtract& a, const PropertyExtract& b) {
                    return ExtractLess(a, b, *copy);
                  });
        break;

      case OpKind::kGetEdges:
      case OpKind::kGetPaths:
        std::sort(copy->edge_types.begin(), copy->edge_types.end());
        std::sort(copy->src_labels.begin(), copy->src_labels.end());
        std::sort(copy->dst_labels.begin(), copy->dst_labels.end());
        std::sort(copy->extracts.begin(), copy->extracts.end(),
                  [&copy](const PropertyExtract& a, const PropertyExtract& b) {
                    return ExtractLess(a, b, *copy);
                  });
        break;

      case OpKind::kUnnest:
        copy->unnest_expr =
            CanonicalizeExpr(copy->unnest_expr, copy->children[0]->schema);
        std::sort(copy->unnest_drop_columns.begin(),
                  copy->unnest_drop_columns.end());
        break;

      case OpKind::kProjection: {
        const Schema& child = copy->children[0]->schema;
        for (auto& [name, expr] : copy->projections) {
          (void)name;
          expr = CanonicalizeExpr(expr, child);
        }
        SortNamedExprs(copy->projections, child);
        break;
      }

      case OpKind::kProduce: {
        // The view root: column order is user-visible (RETURN order), so
        // only the expressions canonicalize, never the item order.
        const Schema& child = copy->children[0]->schema;
        for (auto& [name, expr] : copy->projections) {
          (void)name;
          expr = CanonicalizeExpr(expr, child);
        }
        break;
      }

      case OpKind::kAggregate: {
        const Schema& child = copy->children[0]->schema;
        for (auto* items : {&copy->group_by, &copy->aggregates}) {
          for (auto& [name, expr] : *items) {
            (void)name;
            expr = CanonicalizeExpr(expr, child);
          }
          SortNamedExprs(*items, child);
        }
        break;
      }

      default:
        break;  // kUnit/kDistinct/kLeftOuterJoin carry no commutative payload
    }
    PGIVM_RETURN_IF_ERROR(ComputeSchemaShallow(copy));
    // An undirected (kBoth) edge scan emits both orientations of every
    // edge, so swapping its endpoint roles is a pure renaming — the two
    // spellings bind identical rows (see MirrorUndirectedLeaf). Pin the
    // orientation to the smaller fingerprint, so `(a)-[e]-(b)` and
    // `(b)-[e]-(a)` leaves with asymmetric extracts canonicalize — and
    // therefore share — identically. Symmetric leaves tie here; their
    // orientation is resolved at the join-region level (CanonJoinRegion),
    // where the attachment to the neighbors breaks the tie.
    if (copy->kind == OpKind::kGetEdges &&
        copy->direction == EdgeDirection::kBoth) {
      OpPtr mirror = MirrorUndirectedLeaf(*copy);
      if (mirror != nullptr) {
        std::string key = CanonicalPlanKey(*copy);
        std::string mirror_key = CanonicalPlanKey(*mirror);
        if (CanonicalKeyLess(mirror_key, key)) return mirror;
      }
    }
    return copy;
  }

  // ---- join regions ---------------------------------------------------------

  /// A *join region* is a maximal subtree of inner natural joins with
  /// selections interleaved anywhere. Its semantics are fully described by
  /// the leaf multiset and the conjunct multiset; the internal shape is the
  /// compiler's clause-order accident that this pass normalizes away.
  static void FlattenRegion(const OpPtr& op, std::vector<OpPtr>* leaves,
                            std::vector<ExprPtr>* conjuncts) {
    if (op->kind == OpKind::kJoin) {
      FlattenRegion(op->children[0], leaves, conjuncts);
      FlattenRegion(op->children[1], leaves, conjuncts);
      return;
    }
    if (op->kind == OpKind::kSelection) {
      for (const ExprPtr& conjunct : SplitConjuncts(op->predicate)) {
        conjuncts->push_back(conjunct);
      }
      FlattenRegion(op->children[0], leaves, conjuncts);
      return;
    }
    leaves->push_back(op);
  }

  struct Leaf {
    OpPtr op;
    std::string key;
    /// Weisfeiler–Leman-refined tie-break key, filled by RefineLeafKeys:
    /// equal-fingerprint leaves are distinguished by how they attach to
    /// the rest of the region. Never part of the registry fingerprint.
    std::string refined;
    size_t index;  // original region position — the last-resort tie-break
  };

  /// Iterated neighborhood refinement (Weisfeiler–Leman coloring) of the
  /// leaf fingerprints: two same-shaped leaves — say the two edge scans of
  /// `(a)-[:R]->(b), (c)-[:R]->(d), (b)-[:S]->(c)` — have equal base
  /// fingerprints, but attach to the rest of the region on different
  /// columns; each round folds every neighbor's (positional join
  /// signature, current color) multiset into the leaf's color, so such
  /// ties resolve without falling back to clause order. Built purely from
  /// alias-insensitive parts and multisets over the leaf set, so the
  /// result is invariant under MATCH permutations and renames. Colors are
  /// re-hashed per round to stay short; a hash collision only weakens a
  /// tie-break, never a fingerprint. Leaves truly automorphic in the
  /// region stay tied (and then either order yields isomorphic plans).
  static void RefineLeafKeys(std::vector<Leaf>& leaves) {
    const size_t n = leaves.size();
    std::vector<std::string> color(n);
    for (size_t i = 0; i < n; ++i) color[i] = leaves[i].key;
    // Region diameters are tiny; three rounds separate everything the
    // signature graph can separate in practice.
    const int kRounds = 3;
    std::vector<std::string> next(n);
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < n; ++i) {
        std::vector<std::string> attachments;
        for (size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          if (!SharesColumn(leaves[i].op->schema, leaves[j].op->schema)) {
            continue;
          }
          attachments.push_back(
              JoinSignature(leaves[i].op->schema, leaves[j].op->schema) +
              "|" + color[j]);
        }
        std::sort(attachments.begin(), attachments.end());
        std::string blob = color[i];
        for (const std::string& attachment : attachments) {
          blob.push_back(';');
          blob.append(attachment);
        }
        next[i] = FingerprintHex(blob);
      }
      color.swap(next);
    }
    for (size_t i = 0; i < n; ++i) leaves[i].refined = std::move(color[i]);
  }

  /// Canonical leaf order: start at the globally smallest fingerprint, then
  /// repeatedly append the smallest-keyed leaf that shares a column with
  /// the prefix joined so far (ties broken by the refined color, then by
  /// how the leaf attaches — the positional join signature). Preferring
  /// connected leaves means no cross product is introduced where the
  /// source plan had none; every criterion is alias-insensitive and
  /// multiset-derived, so any permutation of the same leaf multiset
  /// orders identically up to true automorphisms. Fills `prefix` with the
  /// left-deep prefix schemas.
  static std::vector<size_t> OrderLeaves(std::vector<Leaf>& leaves,
                                         std::vector<Schema>* prefix) {
    const size_t n = leaves.size();
    RefineLeafKeys(leaves);
    std::vector<size_t> order;
    order.reserve(n);
    std::vector<bool> used(n, false);

    auto start_less = [&leaves](size_t a, size_t b) {
      const Leaf& la = leaves[a];
      const Leaf& lb = leaves[b];
      if (la.key != lb.key) return CanonicalKeyLess(la.key, lb.key);
      if (la.refined != lb.refined) return la.refined < lb.refined;
      return la.index < lb.index;
    };
    size_t start = 0;
    for (size_t i = 1; i < n; ++i) {
      if (start_less(i, start)) start = i;
    }
    order.push_back(start);
    used[start] = true;
    Schema acc = leaves[start].op->schema;
    prefix->push_back(acc);

    while (order.size() < n) {
      size_t best = n;
      bool best_connected = false;
      std::string best_sig;
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        bool connected = SharesColumn(acc, leaves[i].op->schema);
        std::string sig =
            connected ? JoinSignature(acc, leaves[i].op->schema)
                      : std::string();
        bool better;
        if (best == n) {
          better = true;
        } else if (connected != best_connected) {
          better = connected;
        } else if (leaves[i].key != leaves[best].key) {
          better = CanonicalKeyLess(leaves[i].key, leaves[best].key);
        } else if (leaves[i].refined != leaves[best].refined) {
          better = leaves[i].refined < leaves[best].refined;
        } else if (sig != best_sig) {
          better = sig < best_sig;
        } else {
          better = leaves[i].index < leaves[best].index;
        }
        if (better) {
          best = i;
          best_connected = connected;
          best_sig = std::move(sig);
        }
      }
      order.push_back(best);
      used[best] = true;
      // Extend the prefix schema exactly as kJoin's schema rule does:
      // left columns, then right columns not already present.
      for (const Attribute& attr : leaves[best].op->schema.attributes()) {
        if (!acc.Contains(attr.name)) acc.Add(attr);
      }
      prefix->push_back(acc);
    }
    return order;
  }

  /// Wraps `node` in one σ carrying `conjuncts` canonicalized against the
  /// site schema, key-sorted, and deduplicated (equal canonical keys render
  /// the same positional predicate — σ is idempotent, so the duplicate is
  /// dead weight).
  Result<OpPtr> WrapSelection(OpPtr node, std::vector<ExprPtr> conjuncts) {
    if (conjuncts.empty()) return node;
    const Schema& scope = node->schema;
    std::vector<std::pair<std::string, ExprPtr>> keyed;
    keyed.reserve(conjuncts.size());
    for (ExprPtr& conjunct : conjuncts) {
      ExprPtr canon = CanonicalizeExpr(conjunct, scope);
      keyed.emplace_back(CanonicalExprKey(canon, scope), std::move(canon));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return CanonicalKeyLess(a.first, b.first);
                     });
    std::vector<ExprPtr> terms;
    terms.reserve(keyed.size());
    for (size_t i = 0; i < keyed.size(); ++i) {
      if (i > 0 && !keyed[i].first.empty() &&
          keyed[i].first == keyed[i - 1].first) {
        continue;  // duplicate conjunct
      }
      terms.push_back(std::move(keyed[i].second));
    }
    OpPtr selection = MakeOp(OpKind::kSelection, {std::move(node)});
    selection->predicate = ConjoinAll(std::move(terms));
    PGIVM_RETURN_IF_ERROR(ComputeSchemaShallow(selection));
    return selection;
  }

  Result<OpPtr> CanonJoinRegion(const OpPtr& op) {
    std::vector<OpPtr> raw_leaves;
    std::vector<ExprPtr> conjuncts;
    FlattenRegion(op, &raw_leaves, &conjuncts);

    std::vector<Leaf> leaves;
    leaves.reserve(raw_leaves.size());
    for (size_t i = 0; i < raw_leaves.size(); ++i) {
      PGIVM_ASSIGN_OR_RETURN(OpPtr canon, Run(raw_leaves[i]));
      std::string key = CanonicalPlanKey(*canon);
      leaves.push_back({std::move(canon), std::move(key), std::string(), i});
    }

    // Undirected leaves whose two orientations fingerprint identically
    // (CanonDefault could not pin them) still render the *region*
    // differently — which endpoint joins which neighbor moves the join
    // signatures. No alias-free criterion ranks the orientations up
    // front, so enumerate: rebuild the region for every assignment over
    // the ambiguous leaves and keep the smallest rendering. Regions have
    // at most a handful of undirected edges; the enumeration is capped
    // (leaves beyond the cap keep their given orientation) so the worst
    // case stays at 2^4 rebuilds of one small region.
    constexpr size_t kMaxAmbiguous = 4;
    std::vector<std::pair<size_t, OpPtr>> ambiguous;  // leaf index → mirror
    for (size_t i = 0;
         i < leaves.size() && ambiguous.size() < kMaxAmbiguous; ++i) {
      if (leaves[i].key.empty()) continue;  // unshareable: not worth picking
      OpPtr mirror = MirrorUndirectedLeaf(*leaves[i].op);
      if (mirror == nullptr) continue;
      if (CanonicalPlanKey(*mirror) != leaves[i].key) continue;
      ambiguous.emplace_back(i, std::move(mirror));
    }
    if (ambiguous.empty()) {
      return BuildRegion(std::move(leaves), std::move(conjuncts));
    }
    OpPtr best;
    std::string best_key;
    for (uint32_t mask = 0; mask < (1u << ambiguous.size()); ++mask) {
      std::vector<Leaf> attempt = leaves;  // leaf ops are never mutated
      for (size_t bit = 0; bit < ambiguous.size(); ++bit) {
        if (mask & (1u << bit)) {
          attempt[ambiguous[bit].first].op = ambiguous[bit].second;
        }
      }
      PGIVM_ASSIGN_OR_RETURN(OpPtr candidate,
                             BuildRegion(std::move(attempt), conjuncts));
      std::string key = CanonicalPlanKey(*candidate);
      if (best == nullptr || CanonicalKeyLess(key, best_key)) {
        best = std::move(candidate);
        best_key = std::move(key);
      }
    }
    return best;
  }

  /// Rebuilds one join region from its canonicalized leaves and conjunct
  /// multiset: canonical leaf order, conjuncts re-pushed to their deepest
  /// binding site, left-deep kJoin chain.
  Result<OpPtr> BuildRegion(std::vector<Leaf> leaves,
                            std::vector<ExprPtr> conjuncts) {
    std::vector<Schema> prefix;
    prefix.reserve(leaves.size());
    std::vector<size_t> order = OrderLeaves(leaves, &prefix);
    const size_t n = order.size();

    // Re-push every conjunct to its deepest binding site in the canonical
    // tree: the first single leaf whose schema binds all its variables, or
    // failing that the shortest left-deep prefix. Filtering either side of
    // a natural join on shared columns is equivalent to filtering the join,
    // so any binding site yields the same region output; picking the first
    // makes the choice canonical.
    std::vector<std::vector<ExprPtr>> leaf_conjuncts(n);
    std::vector<std::vector<ExprPtr>> prefix_conjuncts(n);
    for (ExprPtr& conjunct : conjuncts) {
      std::vector<std::string> vars;
      conjunct->CollectVariables(vars);
      bool placed = false;
      for (size_t p = 0; p < n && !placed; ++p) {
        if (SchemaBinds(leaves[order[p]].op->schema, vars)) {
          leaf_conjuncts[p].push_back(std::move(conjunct));
          placed = true;
        }
      }
      for (size_t k = 1; k < n && !placed; ++k) {
        if (SchemaBinds(prefix[k], vars)) {
          prefix_conjuncts[k].push_back(std::move(conjunct));
          placed = true;
        }
      }
      if (!placed) {
        // A variable the region does not bind — keep the conjunct at the
        // topmost site so WrapSelection's schema validation reports it
        // (prefix slot 0 is never applied: the rebuild loop starts at 1,
        // so a single-leaf region must fall back to the leaf site).
        if (n == 1) {
          leaf_conjuncts[0].push_back(std::move(conjunct));
        } else {
          prefix_conjuncts[n - 1].push_back(std::move(conjunct));
        }
      }
    }

    PGIVM_ASSIGN_OR_RETURN(
        OpPtr current,
        WrapSelection(leaves[order[0]].op, std::move(leaf_conjuncts[0])));
    for (size_t k = 1; k < n; ++k) {
      PGIVM_ASSIGN_OR_RETURN(
          OpPtr rhs, WrapSelection(leaves[order[k]].op,
                                   std::move(leaf_conjuncts[k])));
      OpPtr join =
          MakeOp(OpKind::kJoin, {std::move(current), std::move(rhs)});
      PGIVM_RETURN_IF_ERROR(ComputeSchemaShallow(join));
      PGIVM_ASSIGN_OR_RETURN(
          current,
          WrapSelection(std::move(join), std::move(prefix_conjuncts[k])));
    }
    return current;
  }

  // ---- semi/anti-join chains ------------------------------------------------

  /// exists() conjuncts become a left-nested chain of semi/anti joins in
  /// WHERE order. Each one only filters the left input (the probe side is
  /// read-only), so they commute freely: re-order by (kind, probe
  /// fingerprint).
  Result<OpPtr> CanonSemiAntiChain(const OpPtr& op) {
    struct Probe {
      OpKind kind;
      OpPtr plan;
      std::string key;
      size_t index;
    };
    std::vector<Probe> probes;
    OpPtr base = op;
    while (base->kind == OpKind::kSemiJoin ||
           base->kind == OpKind::kAntiJoin) {
      probes.push_back({base->kind, base->children[1], std::string(),
                        probes.size()});
      base = base->children[0];
    }
    std::reverse(probes.begin(), probes.end());  // innermost first
    PGIVM_ASSIGN_OR_RETURN(OpPtr current, Run(base));
    for (Probe& probe : probes) {
      PGIVM_ASSIGN_OR_RETURN(probe.plan, Run(probe.plan));
      probe.key = CanonicalPlanKey(*probe.plan);
    }
    std::stable_sort(probes.begin(), probes.end(),
                     [](const Probe& a, const Probe& b) {
                       if (a.kind != b.kind) {
                         return a.kind == OpKind::kSemiJoin;
                       }
                       return CanonicalKeyLess(a.key, b.key);
                     });
    for (Probe& probe : probes) {
      OpPtr join =
          MakeOp(probe.kind, {std::move(current), std::move(probe.plan)});
      PGIVM_RETURN_IF_ERROR(ComputeSchemaShallow(join));
      current = std::move(join);
    }
    return current;
  }

  // ---- unions ---------------------------------------------------------------

  static void FlattenUnion(const OpPtr& op, std::vector<OpPtr>* branches) {
    if (op->kind == OpKind::kUnion) {
      FlattenUnion(op->children[0], branches);
      FlattenUnion(op->children[1], branches);
      return;
    }
    branches->push_back(op);
  }

  /// Bag union is commutative and associative; branches are key-sorted and
  /// rebuilt left-deep. The first branch's column order becomes the output
  /// order — names are preserved, so the Produce above re-projects
  /// identically.
  Result<OpPtr> CanonUnion(const OpPtr& op) {
    std::vector<OpPtr> raw;
    FlattenUnion(op, &raw);
    std::vector<std::pair<std::string, OpPtr>> branches;
    branches.reserve(raw.size());
    for (OpPtr& branch : raw) {
      PGIVM_ASSIGN_OR_RETURN(OpPtr canon, Run(branch));
      branches.emplace_back(CanonicalPlanKey(*canon), std::move(canon));
    }
    std::stable_sort(branches.begin(), branches.end(),
                     [](const auto& a, const auto& b) {
                       return CanonicalKeyLess(a.first, b.first);
                     });
    OpPtr current = std::move(branches[0].second);
    for (size_t i = 1; i < branches.size(); ++i) {
      OpPtr merged = MakeOp(OpKind::kUnion, {std::move(current),
                                             std::move(branches[i].second)});
      PGIVM_RETURN_IF_ERROR(ComputeSchemaShallow(merged));
      current = std::move(merged);
    }
    return current;
  }
};

}  // namespace

Result<OpPtr> CanonicalizePlan(const OpPtr& root) {
  return Canonicalizer().Run(root);
}

}  // namespace pgivm
