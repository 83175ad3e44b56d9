#include <cassert>

#include "algebra/passes/pass_manager.h"

namespace pgivm {

namespace {

OpPtr Rewrite(const OpPtr& op) {
  std::vector<OpPtr> children;
  children.reserve(op->children.size());
  for (const OpPtr& child : op->children) children.push_back(Rewrite(child));

  if (op->kind == OpKind::kPathJoin) {
    // ⋈*(src)-[:T*]->(dst)(input)  ≡  input ⋈ (src)-[:T*]->(dst): the trail
    // relation is a leaf of its own, like get-edges, so the endpoint fold
    // can hand it labels and extracts. Unlike get-edges it keeps the
    // pattern orientation: the emitted path runs in pattern order.
    OpPtr paths = MakeOp(OpKind::kGetPaths);
    paths->src_var = op->src_var;
    paths->dst_var = op->dst_var;
    paths->edge_types = op->edge_types;
    paths->direction = op->direction;
    paths->min_hops = op->min_hops;
    paths->max_hops = op->max_hops;
    paths->path_var = op->path_var;
    return MakeOp(OpKind::kJoin, {children[0], std::move(paths)});
  }
  if (op->kind != OpKind::kExpand) {
    auto copy = std::make_shared<LogicalOp>(*op);
    copy->children = std::move(children);
    return copy;
  }

  // ↑(src)-[e:T]->(dst)(input)  ≡  input ⋈ ⇑(src)-[e:T]->(dst).
  // The kIn orientation is normalized away here: get-edges always emits the
  // graph-direction (source, edge, target) triple, so an incoming pattern
  // edge just swaps which pattern variable names which column.
  OpPtr edges = MakeOp(OpKind::kGetEdges);
  edges->edge_var = op->edge_var;
  edges->edge_types = op->edge_types;
  switch (op->direction) {
    case EdgeDirection::kOut:
      edges->src_var = op->src_var;
      edges->dst_var = op->dst_var;
      edges->direction = EdgeDirection::kOut;
      break;
    case EdgeDirection::kIn:
      edges->src_var = op->dst_var;
      edges->dst_var = op->src_var;
      edges->direction = EdgeDirection::kOut;
      break;
    case EdgeDirection::kBoth:
      edges->src_var = op->src_var;
      edges->dst_var = op->dst_var;
      edges->direction = EdgeDirection::kBoth;
      break;
  }
  return MakeOp(OpKind::kJoin, {children[0], std::move(edges)});
}

}  // namespace

OpPtr RewriteExpandToJoin(const OpPtr& root) { return Rewrite(root); }

}  // namespace pgivm
