// Semantics-focused maintenance scenarios: each test drives a specific
// corner of delta propagation (batches, property churn inside batches,
// detach-delete cascades, ablation modes) and checks the view stays exact.

#include <gtest/gtest.h>

#include "engine/query_engine.h"

namespace pgivm {
namespace {

TEST(IncrementalSemanticsTest, MultiWriteBatchIsConsistent) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      engine.Register("MATCH (n:A) WHERE n.x = 1 AND n.y = 2 RETURN n")
          .value();

  // Both properties written in ONE batch; the view must not lose or
  // double-count the row despite intermediate states.
  VertexId v = graph.AddVertex({"A"});
  graph.BeginBatch();
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(1)).ok());
  ASSERT_TRUE(graph.SetVertexProperty(v, "y", Value::Int(2)).ok());
  graph.CommitBatch();
  EXPECT_EQ(view->size(), 1);

  graph.BeginBatch();
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(0)).ok());
  ASSERT_TRUE(graph.SetVertexProperty(v, "y", Value::Int(0)).ok());
  graph.CommitBatch();
  EXPECT_EQ(view->size(), 0);
}

TEST(IncrementalSemanticsTest, AddVertexAndPropertiesInOneBatch) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      engine.Register("MATCH (n:A) WHERE n.x = 1 RETURN n").value();

  graph.BeginBatch();
  VertexId v = graph.AddVertex({"A"});
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(1)).ok());
  graph.CommitBatch();
  EXPECT_EQ(view->size(), 1);
}

TEST(IncrementalSemanticsTest, DetachDeleteCascadesThroughJoins) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (a:A)-[:T]->(b:B)-[:T]->(c:C) "
                            "RETURN a, b, c")
                  .value();
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({"B"});
  VertexId c = graph.AddVertex({"C"});
  (void)graph.AddEdge(a, b, "T").value();
  (void)graph.AddEdge(b, c, "T").value();
  EXPECT_EQ(view->size(), 1);

  ASSERT_TRUE(graph.DetachRemoveVertex(b).ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(IncrementalSemanticsTest, EdgeAddedAndEndpointDetachedInOneBatch) {
  // The delta carries kAddEdge for an edge whose endpoint is dead in the
  // post-batch graph (added, replied-to, then detach-removed before the
  // commit). The edge leaf extracts endpoint properties from the live
  // graph, so the add must be skipped, not dereferenced.
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (p:Post)-[:REPLY]->(c:Comm) "
                            "WHERE p.lang = c.lang RETURN p, c")
                  .value();
  VertexId post = graph.AddVertex({"Post"}, {{"lang", Value::String("en")}});

  graph.BeginBatch();
  VertexId gone = graph.AddVertex({"Comm"}, {{"lang", Value::String("en")}});
  (void)graph.AddEdge(post, gone, "REPLY").value();
  VertexId kept = graph.AddVertex({"Comm"}, {{"lang", Value::String("en")}});
  (void)graph.AddEdge(post, kept, "REPLY").value();
  ASSERT_TRUE(graph.DetachRemoveVertex(gone).ok());
  graph.CommitBatch();

  // Only the surviving reply matches; the transient one left no residue.
  EXPECT_EQ(view->size(), 1);
}

TEST(IncrementalSemanticsTest, PathEdgeAddedAndEndpointDetachedInOneBatch) {
  // Same batch shape against the transitive path node: its kAddEdge
  // handling DFS-walks the post-batch graph from the new edge's endpoints,
  // which must not touch a vertex the batch later detach-removed.
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (p:Post)-[:REPLY*]->(c:Comm) "
                            "RETURN p, c")
                  .value();
  VertexId post = graph.AddVertex({"Post"});
  VertexId c1 = graph.AddVertex({"Comm"});
  (void)graph.AddEdge(post, c1, "REPLY").value();
  EXPECT_EQ(view->size(), 1);

  graph.BeginBatch();
  VertexId gone = graph.AddVertex({"Comm"});
  (void)graph.AddEdge(c1, gone, "REPLY").value();
  VertexId c2 = graph.AddVertex({"Comm"});
  (void)graph.AddEdge(c1, c2, "REPLY").value();
  ASSERT_TRUE(graph.DetachRemoveVertex(gone).ok());
  graph.CommitBatch();

  // Surviving trails: post->c1, post->c1->c2, c1->c2... restricted to
  // (Post, Comm) endpoints: post->c1 and post->*->c2.
  EXPECT_EQ(view->size(), 2);
}

TEST(IncrementalSemanticsTest, EndpointPropertyUpdateRefreshesEdgeLeaf) {
  // `b.w` is extracted at the GetEdges leaf (b has no GetVertices leaf of
  // its own when unlabelled); updating b.w must refresh edge tuples.
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (a:A)-[:T]->(b) WHERE b.w = 1 RETURN b")
                  .value();
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({}, {{"w", Value::Int(0)}});
  (void)graph.AddEdge(a, b, "T").value();
  EXPECT_EQ(view->size(), 0);
  ASSERT_TRUE(graph.SetVertexProperty(b, "w", Value::Int(1)).ok());
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.SetVertexProperty(b, "w", Value::Int(2)).ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(IncrementalSemanticsTest, LabelsFunctionTracksLabelChanges) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      engine.Register("MATCH (n:A) RETURN n, size(labels(n)) AS l").value();
  VertexId v = graph.AddVertex({"A"});
  EXPECT_EQ(view->Snapshot()[0].at(1), Value::Int(1));
  ASSERT_TRUE(graph.AddVertexLabel(v, "B").ok());
  EXPECT_EQ(view->Snapshot()[0].at(1), Value::Int(2));
  ASSERT_TRUE(graph.RemoveVertexLabel(v, "B").ok());
  EXPECT_EQ(view->Snapshot()[0].at(1), Value::Int(1));
}

TEST(IncrementalSemanticsTest, NaivePropertyMapModeBehavesIdentically) {
  EngineOptions naive;
  naive.plan.naive_property_maps = true;

  PropertyGraph graph;
  QueryEngine engine(&graph, naive);
  auto view =
      engine.Register("MATCH (n:A) WHERE n.x > 0 RETURN n, n.x AS x")
          .value();
  VertexId v = graph.AddVertex({"A"}, {{"x", Value::Int(5)}});
  EXPECT_EQ(view->size(), 1);
  EXPECT_EQ(view->Snapshot()[0].at(1), Value::Int(5));
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(-1)).ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(IncrementalSemanticsTest, CoarseUnnestModeBehavesIdentically) {
  EngineOptions coarse;
  coarse.plan.fine_grained_unnest = false;

  PropertyGraph graph;
  QueryEngine engine(&graph, coarse);
  auto view =
      engine.Register("MATCH (n:A) UNWIND n.tags AS t RETURN t").value();
  VertexId v = graph.AddVertex(
      {"A"}, {{"tags", Value::List({Value::Int(1), Value::Int(2)})}});
  EXPECT_EQ(view->size(), 2);
  ASSERT_TRUE(graph.ListAppend(v, "tags", Value::Int(3)).ok());
  EXPECT_EQ(view->size(), 3);

  // The one flag decides both halves of FGN: the plan drops no column and
  // so the unnest node expands every entry instead of folding.
  const LogicalOp* unnest = view->fra_plan().get();
  while (unnest->kind != OpKind::kUnnest) {
    ASSERT_FALSE(unnest->children.empty());
    unnest = unnest->children[0].get();
  }
  EXPECT_TRUE(unnest->unnest_drop_columns.empty());
  const std::string network = view->NetworkDebugString();
  EXPECT_NE(network.find("Unnest["), std::string::npos) << network;
  EXPECT_EQ(network.find("(fine-grained)"), std::string::npos) << network;

  // The default engine narrows the same plan and folds.
  PropertyGraph fine_graph;
  QueryEngine fine(&fine_graph);
  auto fine_view =
      fine.Register("MATCH (n:A) UNWIND n.tags AS t RETURN t").value();
  EXPECT_NE(fine_view->NetworkDebugString().find("(fine-grained)"),
            std::string::npos)
      << fine_view->NetworkDebugString();
}

// An unnest under DISTINCT whose collection is a computed column cannot
// drop it, so its node expands instead of folding. Each input tuple then
// forms its own fold group, and the consolidated output — rows and emitted
// entries, duplicate list elements included — equals what the folding
// node produced (116 entries for this script).
TEST(IncrementalSemanticsTest, UnnestThatKeepsItsColumnMatchesTheFoldedCounts) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (n:A) WITH n.tags + [0] AS l "
                            "UNWIND l AS x RETURN DISTINCT x")
                  .value();
  const std::string network = view->NetworkDebugString();
  EXPECT_NE(network.find("Unnest["), std::string::npos) << network;
  EXPECT_EQ(network.find("(fine-grained)"), std::string::npos) << network;

  VertexId a = graph.AddVertex(
      {"A"},
      {{"tags", Value::List({Value::Int(1), Value::Int(1), Value::Int(2)})}});
  VertexId b = graph.AddVertex(
      {"A"}, {{"tags", Value::List({Value::Int(2), Value::Int(3)})}});
  ASSERT_TRUE(graph.ListAppend(a, "tags", Value::Int(4)).ok());
  ASSERT_TRUE(graph.ListAppend(b, "tags", Value::Int(1)).ok());
  graph.BeginBatch();
  ASSERT_TRUE(graph.ListAppend(a, "tags", Value::Int(5)).ok());
  ASSERT_TRUE(graph.ListAppend(a, "tags", Value::Int(5)).ok());
  ASSERT_TRUE(
      graph.SetVertexProperty(b, "tags", Value::List({Value::Int(7)})).ok());
  graph.CommitBatch();
  ASSERT_TRUE(graph.RemoveVertex(a).ok());

  std::vector<Tuple> rows = view->Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at(0), Value::Int(0));
  EXPECT_EQ(rows[1].at(0), Value::Int(7));
  EXPECT_EQ(view->network().TotalEmittedEntries(), 116);
}

TEST(IncrementalSemanticsTest, MapPropertyFineGrainedUpdates) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (n:Cfg) WHERE n.opts['mode'] = 'fast' "
                            "RETURN n")
                  .value();
  VertexId v = graph.AddVertex({"Cfg"});
  ASSERT_TRUE(graph.MapPut(v, "opts", "mode", Value::String("slow")).ok());
  EXPECT_EQ(view->size(), 0);
  ASSERT_TRUE(graph.MapPut(v, "opts", "mode", Value::String("fast")).ok());
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.MapErase(v, "opts", "mode").ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(IncrementalSemanticsTest, PropertyErasureRetractsRows) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      engine.Register("MATCH (n:A) WHERE n.x IS NOT NULL RETURN n").value();
  VertexId v = graph.AddVertex({"A"}, {{"x", Value::Int(1)}});
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Null()).ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(IncrementalSemanticsTest, IsNullSeesAbsentProperties) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      engine.Register("MATCH (n:A) WHERE n.x IS NULL RETURN n").value();
  VertexId v = graph.AddVertex({"A"});
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(1)).ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(IncrementalSemanticsTest, ZeroLengthVariablePattern) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      engine.Register("MATCH (a:A)-[:T*0..1]->(b) RETURN a, b").value();
  VertexId a = graph.AddVertex({"A"});
  EXPECT_EQ(view->size(), 1);  // Zero-length: (a, a).
  VertexId b = graph.AddVertex({});
  (void)graph.AddEdge(a, b, "T").value();
  EXPECT_EQ(view->size(), 2);
}

TEST(IncrementalSemanticsTest, IncomingVariableLength) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (c:Comm)<-[:REPLY*]-(p:Post) "
                            "RETURN c, p")
                  .value();
  VertexId p = graph.AddVertex({"Post"});
  VertexId c1 = graph.AddVertex({"Comm"});
  VertexId c2 = graph.AddVertex({"Comm"});
  (void)graph.AddEdge(p, c1, "REPLY").value();
  (void)graph.AddEdge(c1, c2, "REPLY").value();
  // c1 <- p and c2 <-* p (via c1). c2 <- c1 has wrong source label.
  EXPECT_EQ(view->size(), 2);
}

TEST(IncrementalSemanticsTest, CollectAggregateMaintained) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      engine.Register("MATCH (n:A) RETURN collect(n.x) AS xs").value();
  VertexId v1 = graph.AddVertex({"A"}, {{"x", Value::Int(2)}});
  graph.AddVertex({"A"}, {{"x", Value::Int(1)}});
  EXPECT_EQ(view->Snapshot()[0].at(0),
            Value::List({Value::Int(1), Value::Int(2)}));
  ASSERT_TRUE(graph.RemoveVertex(v1).ok());
  EXPECT_EQ(view->Snapshot()[0].at(0), Value::List({Value::Int(1)}));
}

TEST(IncrementalSemanticsTest, LongChainPropagation) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (a:A)-[:T]->(b)-[:T]->(c)-[:T]->(d:D) "
                            "RETURN a, d")
                  .value();
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({});
  VertexId c = graph.AddVertex({});
  VertexId d = graph.AddVertex({"D"});
  (void)graph.AddEdge(a, b, "T").value();
  (void)graph.AddEdge(c, d, "T").value();
  EXPECT_EQ(view->size(), 0);
  EdgeId bridge = graph.AddEdge(b, c, "T").value();
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.RemoveEdge(bridge).ok());
  EXPECT_EQ(view->size(), 0);
}

}  // namespace
}  // namespace pgivm
