#include "algebra/compiler.h"

#include <gtest/gtest.h>

#include "algebra/plan_printer.h"
#include "cypher/parser.h"

namespace pgivm {
namespace {

OpPtr Compile(const std::string& text) {
  Result<Query> query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status();
  Result<OpPtr> plan = CompileToGra(query.value());
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.ok() ? plan.value() : nullptr;
}

/// Counts operators of `kind` in the tree.
int CountKind(const OpPtr& op, OpKind kind) {
  int n = op->kind == kind ? 1 : 0;
  for (const OpPtr& child : op->children) n += CountKind(child, kind);
  return n;
}

const LogicalOp* FindKind(const OpPtr& op, OpKind kind) {
  if (op->kind == kind) return op.get();
  for (const OpPtr& child : op->children) {
    if (const LogicalOp* found = FindKind(child, kind)) return found;
  }
  return nullptr;
}

TEST(CompilerTest, RootIsProduceWithReturnColumns) {
  OpPtr plan = Compile("MATCH (n:A) RETURN n AS node");
  ASSERT_TRUE(plan != nullptr);
  EXPECT_EQ(plan->kind, OpKind::kProduce);
  ASSERT_EQ(plan->schema.size(), 1u);
  EXPECT_EQ(plan->schema.at(0).name, "node");
  EXPECT_EQ(plan->schema.at(0).kind, Attribute::Kind::kVertex);
}

TEST(CompilerTest, NodePatternBecomesGetVertices) {
  OpPtr plan = Compile("MATCH (n:Person) RETURN n");
  const LogicalOp* gv = FindKind(plan, OpKind::kGetVertices);
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->vertex_var, "n");
  EXPECT_EQ(gv->labels, std::vector<std::string>{"Person"});
}

TEST(CompilerTest, RelationshipBecomesExpand) {
  OpPtr plan = Compile("MATCH (a:A)-[r:T]->(b:B) RETURN r");
  const LogicalOp* expand = FindKind(plan, OpKind::kExpand);
  ASSERT_NE(expand, nullptr);
  EXPECT_EQ(expand->src_var, "a");
  EXPECT_EQ(expand->edge_var, "r");
  EXPECT_EQ(expand->dst_var, "b");
  EXPECT_FALSE(expand->variable_length);
  // Labelled target: a get-vertices join enforces :B.
  EXPECT_EQ(CountKind(plan, OpKind::kGetVertices), 2);
}

TEST(CompilerTest, VariableLengthBecomesPathJoin) {
  OpPtr plan = Compile("MATCH (a:A)-[:T*1..3]->(b:B) RETURN a, b");
  const LogicalOp* pj = FindKind(plan, OpKind::kPathJoin);
  ASSERT_NE(pj, nullptr);
  EXPECT_TRUE(pj->variable_length);
  EXPECT_EQ(pj->min_hops, 1);
  EXPECT_EQ(pj->max_hops, 3);
  // Variable-length targets always get a get-vertices leaf.
  EXPECT_EQ(CountKind(plan, OpKind::kGetVertices), 2);
}

TEST(CompilerTest, NamedPathProjectsPathConstructor) {
  OpPtr plan = Compile("MATCH t = (a:A)-[r:T]->(b) RETURN t");
  int idx = plan->schema.IndexOf("t");
  ASSERT_GE(idx, 0);
  EXPECT_EQ(plan->schema.at(static_cast<size_t>(idx)).kind,
            Attribute::Kind::kPath);
}

TEST(CompilerTest, InlinePropertiesBecomeSelections) {
  OpPtr plan = Compile("MATCH (n:A {x: 1}) RETURN n");
  const LogicalOp* sel = FindKind(plan, OpKind::kSelection);
  ASSERT_NE(sel, nullptr);
  EXPECT_NE(sel->predicate->ToString().find("n.x"), std::string::npos);
}

TEST(CompilerTest, EdgeUniquenessConstraintGenerated) {
  OpPtr plan = Compile("MATCH (a)-[r1:T]->(b)-[r2:T]->(c) RETURN a");
  const LogicalOp* sel = FindKind(plan, OpKind::kSelection);
  ASSERT_NE(sel, nullptr);
  EXPECT_NE(sel->predicate->ToString().find("r1 <> r2"), std::string::npos);
}

TEST(CompilerTest, EdgeUniquenessSkippedForDisjointTypes) {
  // KNOWS and HAS_CREATOR edges can never be the same edge: no conjunct,
  // and with no other predicate no selection at all.
  OpPtr plan = Compile(
      "MATCH (a)-[r1:KNOWS]->(b)<-[r2:HAS_CREATOR|LIKES]-(c) RETURN a");
  EXPECT_EQ(FindKind(plan, OpKind::kSelection), nullptr);
}

TEST(CompilerTest, EdgeUniquenessKeptForOverlappingOrUntypedEdges) {
  // Overlapping type lists (T shared) and an untyped edge may both bind
  // the edge r1 binds.
  OpPtr plan = Compile(
      "MATCH (a)-[r1:T|U]->(b)-[r2:T]->(c)-[r3]->(d) RETURN a");
  const LogicalOp* sel = FindKind(plan, OpKind::kSelection);
  ASSERT_NE(sel, nullptr);
  std::string predicate = sel->predicate->ToString();
  EXPECT_NE(predicate.find("r1 <> r2"), std::string::npos) << predicate;
  EXPECT_NE(predicate.find("r1 <> r3"), std::string::npos) << predicate;
  EXPECT_NE(predicate.find("r2 <> r3"), std::string::npos) << predicate;
}

TEST(CompilerTest, ChainRebindingRenamesAndEquates) {
  // (a)-->(b)-->(a): the second `a` becomes a fresh column equated to `a`.
  OpPtr plan = Compile("MATCH (a)-[r1:T]->(b)-[r2:T]->(a) RETURN a");
  const LogicalOp* sel = FindKind(plan, OpKind::kSelection);
  ASSERT_NE(sel, nullptr);
  EXPECT_NE(sel->predicate->ToString().find("a#"), std::string::npos);
}

TEST(CompilerTest, ReusedRelationshipVariableRejected) {
  Result<Query> query =
      ParseQuery("MATCH (a)-[r:T]->(b)-[r:T]->(c) RETURN a");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(CompileToGra(query.value()).ok());
}

TEST(CompilerTest, WhereBecomesSelection) {
  OpPtr plan = Compile("MATCH (n:A) WHERE n.x > 5 RETURN n");
  EXPECT_GE(CountKind(plan, OpKind::kSelection), 1);
}

TEST(CompilerTest, MultiplePartsJoined) {
  OpPtr plan = Compile("MATCH (a:A), (b:B) RETURN a, b");
  EXPECT_EQ(CountKind(plan, OpKind::kJoin), 1);
}

TEST(CompilerTest, UnwindBecomesUnnest) {
  OpPtr plan = Compile("UNWIND [1,2,3] AS x RETURN x");
  const LogicalOp* unnest = FindKind(plan, OpKind::kUnnest);
  ASSERT_NE(unnest, nullptr);
  EXPECT_EQ(unnest->unnest_alias, "x");
  EXPECT_EQ(CountKind(plan, OpKind::kUnit), 1);
}

TEST(CompilerTest, AggregationSplitsKeysAndAggregates) {
  OpPtr plan = Compile("MATCH (n:A) RETURN n.x AS k, count(*) AS c");
  const LogicalOp* agg = FindKind(plan, OpKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  ASSERT_EQ(agg->group_by.size(), 1u);
  EXPECT_EQ(agg->group_by[0].first, "k");
  ASSERT_EQ(agg->aggregates.size(), 1u);
  EXPECT_EQ(agg->aggregates[0].first, "c");
}

TEST(CompilerTest, MixedAggregateExpressionRejected) {
  Result<Query> query =
      ParseQuery("MATCH (n:A) RETURN count(*) + 1 AS bad");
  ASSERT_TRUE(query.ok());
  Result<OpPtr> plan = CompileToGra(query.value());
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnimplemented);
}

TEST(CompilerTest, DistinctAddsDistinctOp) {
  OpPtr plan = Compile("MATCH (n:A) RETURN DISTINCT n");
  EXPECT_EQ(CountKind(plan, OpKind::kDistinct), 1);
}

TEST(CompilerTest, OptionalMatchBecomesLeftOuterJoin) {
  OpPtr plan = Compile("MATCH (a:A) OPTIONAL MATCH (a)-[r:T]->(b) RETURN a, b");
  EXPECT_EQ(CountKind(plan, OpKind::kLeftOuterJoin), 1);
}

TEST(CompilerTest, UnboundVariableInReturnRejected) {
  Result<Query> query = ParseQuery("MATCH (a:A) RETURN b");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(CompileToGra(query.value()).ok());
}

TEST(CompilerTest, UnboundVariableInWhereRejected) {
  Result<Query> query = ParseQuery("MATCH (a:A) WHERE zz > 1 RETURN a");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(CompileToGra(query.value()).ok());
}

TEST(CompilerTest, StartNodeEndNodeRewriting) {
  OpPtr plan = Compile("MATCH (a)-[r:T]->(b) RETURN startNode(r) AS s, "
                       "endNode(r) AS e");
  // Rewritten to the pattern variables, so Produce outputs vertex columns.
  EXPECT_EQ(plan->schema.at(0).kind, Attribute::Kind::kVertex);
  EXPECT_EQ(plan->schema.at(1).kind, Attribute::Kind::kVertex);
}

TEST(CompilerTest, StartNodeOnIncomingEdgeFollowsGraphDirection) {
  OpPtr plan = Compile("MATCH (a)<-[r:T]-(b) RETURN startNode(r) AS s");
  const LogicalOp* produce = plan.get();
  EXPECT_EQ(produce->projections[0].second->ToString(), "s");
  // The produced column aliases `b` (the graph-direction source).
  const LogicalOp* proj = FindKind(plan, OpKind::kProjection);
  ASSERT_NE(proj, nullptr);
  EXPECT_EQ(proj->projections[0].second->ToString(), "b");
}

TEST(CompilerTest, WithPipelinesProjection) {
  OpPtr plan =
      Compile("MATCH (n:A) WITH n.x AS x WHERE x > 1 RETURN x AS out");
  EXPECT_GE(CountKind(plan, OpKind::kProjection), 1);
  EXPECT_GE(CountKind(plan, OpKind::kSelection), 1);
}

TEST(CompilerTest, PlanPrinterShowsTree) {
  OpPtr plan = Compile("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p");
  std::string printed = PrintPlan(plan);
  EXPECT_NE(printed.find("Produce"), std::string::npos);
  EXPECT_NE(printed.find("GetVertices p:Post"), std::string::npos);
  EXPECT_NE(printed.find("Expand"), std::string::npos);
}

}  // namespace
}  // namespace pgivm
