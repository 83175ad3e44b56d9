// Endpoint-label folding (FoldEndpointLabels). The compiler spells every
// labelled pattern node as a get-vertices leaf joined onto the pattern's
// edges, and gives the first node of every chain such a leaf even without
// a label. The paper's get-edges operator filters its endpoint labels
// itself — ⇑(v:V)[e:E](w:W) — so inside one inner-join region the label
// constraint can move onto the edge leaves, and a vertex leaf that did
// nothing but check a label (or bind an already-bound vertex) disappears
// together with its join and join memory.
//
// Both rewrites are bag-algebra identities. Every leaf of an inner-join
// region contributes to every row the region emits, and natural joins
// equate equal names, so filtering an edge leaf by the labels a vertex
// leaf of the same region already demands of that variable drops only
// rows the join would drop anyway. A vertex leaf without extracts joined
// onto an input that binds its variable is then a pure label filter; once
// an edge leaf carries the labels, the join is the identity.

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

struct Region {
  std::map<std::string, std::vector<std::string>> labels;  // vertex var
  std::set<std::string> edge_endpoints;
};

void Scan(const OpPtr& op, Region* region) {
  if (InRegion(*op)) {
    for (const OpPtr& child : op->children) Scan(child, region);
  } else if (op->kind == OpKind::kGetVertices) {
    MergeLabels(op->labels, &region->labels[op->vertex_var]);
  } else if (op->kind == OpKind::kGetEdges) {
    region->edge_endpoints.insert(op->src_var);
    region->edge_endpoints.insert(op->dst_var);
  }
}

/// Rule 2: a vertex leaf without extracts, joined onto an input that
/// already binds its variable, where some edge leaf of the region (now
/// carrying the labels) has that variable as an endpoint.
bool Redundant(const LogicalOp& leaf, const Schema& sibling,
               const Region& region) {
  return leaf.kind == OpKind::kGetVertices && leaf.extracts.empty() &&
         sibling.Contains(leaf.vertex_var) &&
         region.edge_endpoints.count(leaf.vertex_var) > 0;
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
    auto copy = std::make_shared<LogicalOp>(*op);
    copy->children = {std::move(left), std::move(right)};
    return copy;
  }
  if (op->kind == OpKind::kSelection) {
    auto copy = std::make_shared<LogicalOp>(*op);
    copy->children[0] = Rebuild(op->children[0], region);
    return copy;
  }
  if (op->kind == OpKind::kGetEdges) {
    // Rule 1: every edge leaf takes the labels of its endpoints.
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
