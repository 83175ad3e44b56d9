// Endpoint-label folding (FoldEndpointLabels). The compiler spells every
// labelled pattern node as a get-vertices leaf joined onto the pattern's
// edges, and gives the first node of every chain and both ends of every
// variable-length relationship such a leaf even without a label. The
// paper's get-edges operator filters its endpoint labels itself —
// ⇑(v:V)[e:E](w:W) — so inside one inner-join region the label constraint
// can move onto the edge and path leaves, and a vertex leaf that did
// nothing but check a label (or bind an already-bound vertex) disappears
// together with its join and join memory. A path leaf also reads its
// endpoints' properties itself, so a vertex leaf whose extracts are all it
// adds to a path leaf's rows goes as well.
//
// All three rewrites are bag-algebra identities. Every leaf of an
// inner-join region contributes to every row the region emits, and natural
// joins equate equal names, so filtering an edge or path leaf by the labels
// a vertex leaf of the same region already demands of that variable drops
// only rows the join would drop anyway. A vertex leaf without extracts
// joined onto an input that binds its variable is then a pure label
// filter; once an edge or path leaf carries the labels, the join is the
// identity. A vertex leaf with extracts holds one row per vertex, and its
// extracts are functions of that vertex: a path leaf that carries the
// labels and the same extracts joins every row with exactly one of its
// rows, so the join adds nothing and goes too.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "algebra/passes/pass_manager.h"

namespace pgivm {

namespace {

bool InRegion(const LogicalOp& op) {
  return op.kind == OpKind::kJoin || op.kind == OpKind::kSelection;
}

void MergeLabels(const std::vector<std::string>& extra,
                 std::vector<std::string>* labels) {
  labels->insert(labels->end(), extra.begin(), extra.end());
  std::sort(labels->begin(), labels->end());
  labels->erase(std::unique(labels->begin(), labels->end()), labels->end());
}

bool IsEdgeOrPathLeaf(const LogicalOp& op) {
  return op.kind == OpKind::kGetEdges || op.kind == OpKind::kGetPaths;
}

struct Region {
  std::map<std::string, std::vector<std::string>> labels;  // vertex var
  std::set<std::string> edge_endpoints;  // of edge and path leaves
};

void Scan(const OpPtr& op, Region* region) {
  if (InRegion(*op)) {
    for (const OpPtr& child : op->children) Scan(child, region);
  } else if (op->kind == OpKind::kGetVertices) {
    MergeLabels(op->labels, &region->labels[op->vertex_var]);
  } else if (IsEdgeOrPathLeaf(*op)) {
    region->edge_endpoints.insert(op->src_var);
    region->edge_endpoints.insert(op->dst_var);
  }
}

/// Rule 2: a vertex leaf without extracts, joined onto an input that
/// already binds its variable, where some edge or path leaf of the region
/// (now carrying the labels) has that variable as an endpoint.
bool Redundant(const LogicalOp& leaf, const Schema& sibling,
               const Region& region) {
  return leaf.kind == OpKind::kGetVertices && leaf.extracts.empty() &&
         sibling.Contains(leaf.vertex_var) &&
         region.edge_endpoints.count(leaf.vertex_var) > 0;
}

/// The first path leaf of the rebuilt region subtree `op` with `var` as an
/// endpoint, or null.
LogicalOp* FindPathLeaf(const OpPtr& op, const std::string& var) {
  if (op->kind == OpKind::kGetPaths) {
    return op->src_var == var || op->dst_var == var ? op.get() : nullptr;
  }
  if (!InRegion(*op)) return nullptr;
  for (const OpPtr& child : op->children) {
    if (LogicalOp* found = FindPathLeaf(child, var)) return found;
  }
  return nullptr;
}

/// Rule 3: `side` is a vertex leaf with extracts, under selections of its
/// own, and `other` (the rebuilt sibling; its path leaves are copies this
/// pass owns) holds a path leaf with that variable as an endpoint. That
/// leaf, and only that one, takes the extracts; the selections move above
/// `other`, which binds every column they read. Returns the replacement of
/// the join, or null when the rule does not apply.
OpPtr MoveExtractsToPath(const OpPtr& side, const OpPtr& other) {
  std::vector<ExprPtr> conjuncts;
  const LogicalOp* leaf = side.get();
  while (leaf->kind == OpKind::kSelection) {
    conjuncts.push_back(leaf->predicate);
    leaf = leaf->children[0].get();
  }
  if (leaf->kind != OpKind::kGetVertices || leaf->extracts.empty()) {
    return nullptr;
  }
  LogicalOp* paths = FindPathLeaf(other, leaf->vertex_var);
  if (paths == nullptr) return nullptr;
  for (const PropertyExtract& extract : leaf->extracts) {
    bool present = std::any_of(
        paths->extracts.begin(), paths->extracts.end(),
        [&extract](const PropertyExtract& existing) {
          return existing.column_name == extract.column_name;
        });
    if (!present) paths->extracts.push_back(extract);
  }
  if (conjuncts.empty()) return other;
  OpPtr selection = MakeOp(OpKind::kSelection, {other});
  selection->predicate = ConjoinAll(std::move(conjuncts));
  return selection;
}

OpPtr Fold(const OpPtr& op);

OpPtr Rebuild(const OpPtr& op, const Region& region) {
  if (op->kind == OpKind::kJoin) {
    OpPtr left = Rebuild(op->children[0], region);
    OpPtr right = Rebuild(op->children[1], region);
    // Deleting a leaf never unbinds a variable (its sibling binds it), so
    // the original schemas still describe the rebuilt siblings.
    if (Redundant(*left, op->children[1]->schema, region)) return right;
    if (Redundant(*right, op->children[0]->schema, region)) return left;
    if (OpPtr folded = MoveExtractsToPath(left, right)) return folded;
    if (OpPtr folded = MoveExtractsToPath(right, left)) return folded;
    auto copy = std::make_shared<LogicalOp>(*op);
    copy->children = {std::move(left), std::move(right)};
    return copy;
  }
  if (op->kind == OpKind::kSelection) {
    auto copy = std::make_shared<LogicalOp>(*op);
    copy->children[0] = Rebuild(op->children[0], region);
    return copy;
  }
  if (IsEdgeOrPathLeaf(*op)) {
    // Rule 1: every edge and path leaf takes the labels of its endpoints.
    auto copy = std::make_shared<LogicalOp>(*op);
    for (auto [var, labels] :
         {std::make_pair(&copy->src_var, &copy->src_labels),
          std::make_pair(&copy->dst_var, &copy->dst_labels)}) {
      auto it = region.labels.find(*var);
      if (it != region.labels.end()) MergeLabels(it->second, labels);
    }
    return copy;
  }
  if (op->kind == OpKind::kGetVertices) return op;
  return Fold(op);  // a region boundary: its inputs are regions of their own
}

/// Rewrites every region of the tree rooted at `op`, which is a region
/// root or a region boundary.
OpPtr Fold(const OpPtr& op) {
  if (InRegion(*op)) {
    Region region;
    Scan(op, &region);
    return Rebuild(op, region);
  }
  if (op->children.empty()) return op;
  auto copy = std::make_shared<LogicalOp>(*op);
  for (OpPtr& child : copy->children) child = Fold(child);
  return copy;
}

}  // namespace

OpPtr FoldEndpointLabels(const OpPtr& root) { return Fold(root); }

}  // namespace pgivm
