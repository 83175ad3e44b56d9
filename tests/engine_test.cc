#include "engine/query_engine.h"

#include <string>

#include <gtest/gtest.h>

#include "cypher/parser.h"

namespace pgivm {
namespace {

std::shared_ptr<View> MustRegister(QueryEngine& engine,
                                   const std::string& query) {
  Result<std::shared_ptr<View>> view = engine.Register(query);
  EXPECT_TRUE(view.ok()) << query << " -> " << view.status();
  return view.ok() ? view.value() : nullptr;
}

TEST(EngineTest, SimpleLabelScanMaintained) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, "MATCH (n:Person) RETURN n");
  EXPECT_EQ(view->size(), 0);

  VertexId a = graph.AddVertex({"Person"});
  graph.AddVertex({"Robot"});
  EXPECT_EQ(view->size(), 1);
  EXPECT_EQ(view->Snapshot()[0].at(0), Value::Vertex(a));

  ASSERT_TRUE(graph.RemoveVertex(a).ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(EngineTest, LabelChangesEnterAndLeaveView) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, "MATCH (n:Hot) RETURN n");
  VertexId v = graph.AddVertex({"Item"});
  EXPECT_EQ(view->size(), 0);
  ASSERT_TRUE(graph.AddVertexLabel(v, "Hot").ok());
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.RemoveVertexLabel(v, "Hot").ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(EngineTest, PropertyPredicateMaintained) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      MustRegister(engine, "MATCH (s:Segment) WHERE s.length <= 0 RETURN s");
  VertexId good = graph.AddVertex({"Segment"}, {{"length", Value::Int(5)}});
  VertexId bad = graph.AddVertex({"Segment"}, {{"length", Value::Int(-1)}});
  EXPECT_EQ(view->size(), 1);
  EXPECT_EQ(view->Snapshot()[0].at(0), Value::Vertex(bad));

  // Repair and break.
  ASSERT_TRUE(graph.SetVertexProperty(bad, "length", Value::Int(3)).ok());
  EXPECT_EQ(view->size(), 0);
  ASSERT_TRUE(graph.SetVertexProperty(good, "length", Value::Int(0)).ok());
  EXPECT_EQ(view->size(), 1);
}

TEST(EngineTest, EdgePatternJoin) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(
      engine, "MATCH (a:P)-[k:KNOWS]->(b:P) RETURN a, b");
  VertexId x = graph.AddVertex({"P"});
  VertexId y = graph.AddVertex({"P"});
  VertexId z = graph.AddVertex({"Q"});
  EdgeId e = graph.AddEdge(x, y, "KNOWS").value();
  (void)graph.AddEdge(x, z, "KNOWS").value();  // Wrong target label.
  (void)graph.AddEdge(x, y, "LIKES").value();  // Wrong type.
  EXPECT_EQ(view->size(), 1);

  ASSERT_TRUE(graph.RemoveEdge(e).ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(EngineTest, UndirectedPattern) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, "MATCH (a:P)-[:REL]-(b:P) RETURN a, b");
  VertexId x = graph.AddVertex({"P"});
  VertexId y = graph.AddVertex({"P"});
  (void)graph.AddEdge(x, y, "REL").value();
  EXPECT_EQ(view->size(), 2);  // Both orientations.
}

TEST(EngineTest, EdgePropertyFilter) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(
      engine, "MATCH (a)-[r:RATED]->(b) WHERE r.stars >= 4 RETURN a, b");
  VertexId u = graph.AddVertex({});
  VertexId m = graph.AddVertex({});
  EdgeId e = graph.AddEdge(u, m, "RATED", {{"stars", Value::Int(3)}}).value();
  EXPECT_EQ(view->size(), 0);
  ASSERT_TRUE(graph.SetEdgeProperty(e, "stars", Value::Int(5)).ok());
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.SetEdgeProperty(e, "stars", Value::Int(2)).ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(EngineTest, CrossPatternPropertyJoin) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(
      engine, "MATCH (a:L), (b:R) WHERE a.k = b.k RETURN a, b");
  VertexId a1 = graph.AddVertex({"L"}, {{"k", Value::Int(1)}});
  VertexId b1 = graph.AddVertex({"R"}, {{"k", Value::Int(1)}});
  VertexId b2 = graph.AddVertex({"R"}, {{"k", Value::Int(2)}});
  EXPECT_EQ(view->size(), 1);

  // Property updates re-join.
  ASSERT_TRUE(graph.SetVertexProperty(b2, "k", Value::Int(1)).ok());
  EXPECT_EQ(view->size(), 2);
  ASSERT_TRUE(graph.SetVertexProperty(a1, "k", Value::Int(9)).ok());
  EXPECT_EQ(view->size(), 0);
  (void)b1;
}

TEST(EngineTest, DistinctCollapsesDuplicates) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(
      engine, "MATCH (p:Person)-[:LIKES]->(m) RETURN DISTINCT p");
  VertexId p = graph.AddVertex({"Person"});
  VertexId m1 = graph.AddVertex({});
  VertexId m2 = graph.AddVertex({});
  EdgeId e1 = graph.AddEdge(p, m1, "LIKES").value();
  (void)graph.AddEdge(p, m2, "LIKES").value();
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.RemoveEdge(e1).ok());
  EXPECT_EQ(view->size(), 1);  // Still liked by m2.
}

TEST(EngineTest, AggregationMaintained) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(
      engine,
      "MATCH (p:Person)-[:LIKES]->(m:Msg) RETURN m AS msg, count(*) AS c");
  VertexId p1 = graph.AddVertex({"Person"});
  VertexId p2 = graph.AddVertex({"Person"});
  VertexId m = graph.AddVertex({"Msg"});
  (void)graph.AddEdge(p1, m, "LIKES").value();
  EXPECT_EQ(view->Snapshot()[0].at(1), Value::Int(1));
  EdgeId e2 = graph.AddEdge(p2, m, "LIKES").value();
  EXPECT_EQ(view->Snapshot()[0].at(1), Value::Int(2));
  ASSERT_TRUE(graph.RemoveEdge(e2).ok());
  EXPECT_EQ(view->Snapshot()[0].at(1), Value::Int(1));
}

TEST(EngineTest, KeylessCountOverEmptyGraph) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, "MATCH (n:X) RETURN count(*) AS c");
  ASSERT_EQ(view->size(), 1);
  EXPECT_EQ(view->Snapshot()[0].at(0), Value::Int(0));
  graph.AddVertex({"X"});
  EXPECT_EQ(view->Snapshot()[0].at(0), Value::Int(1));
}

TEST(EngineTest, OptionalMatchMaintained) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(
      engine,
      "MATCH (sw:Switch) OPTIONAL MATCH (sw)-[m:monitoredBy]->(:Sensor) "
      "WITH sw, m WHERE m IS NULL RETURN sw");
  VertexId sw = graph.AddVertex({"Switch"});
  VertexId sensor = graph.AddVertex({"Sensor"});
  EXPECT_EQ(view->size(), 1);  // Unmonitored: a violation row.

  EdgeId e = graph.AddEdge(sw, sensor, "monitoredBy").value();
  EXPECT_EQ(view->size(), 0);  // Monitored now.

  ASSERT_TRUE(graph.RemoveEdge(e).ok());
  EXPECT_EQ(view->size(), 1);  // Violation returns.
}

TEST(EngineTest, UnwindCollectionProperty) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(
      engine, "MATCH (p:Person) UNWIND p.speaks AS lang "
              "RETURN lang, count(*) AS c");
  VertexId p1 = graph.AddVertex(
      {"Person"},
      {{"speaks", Value::List({Value::String("en"), Value::String("de")})}});
  graph.AddVertex(
      {"Person"}, {{"speaks", Value::List({Value::String("en")})}});
  {
    std::vector<Tuple> rows = view->Snapshot();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].at(0), Value::String("de"));
    EXPECT_EQ(rows[0].at(1), Value::Int(1));
    EXPECT_EQ(rows[1].at(0), Value::String("en"));
    EXPECT_EQ(rows[1].at(1), Value::Int(2));
  }

  // Fine-grained collection update flows through.
  ASSERT_TRUE(graph.ListAppend(p1, "speaks", Value::String("fr")).ok());
  {
    std::vector<Tuple> rows = view->Snapshot();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1].at(0), Value::String("en"));
  }
  ASSERT_TRUE(
      graph.ListRemoveFirst(p1, "speaks", Value::String("en")).ok());
  {
    std::vector<Tuple> rows = view->Snapshot();
    ASSERT_EQ(rows.size(), 3u);
    // en count dropped to 1.
    EXPECT_EQ(rows[2].at(0), Value::String("fr"));
  }
}

TEST(EngineTest, ViewChangeListenerReceivesDeltas) {
  class Recorder : public ViewChangeListener {
   public:
    void OnViewDelta(const Delta& delta) override {
      for (const DeltaEntry& entry : delta) {
        log.push_back(entry.multiplicity);
      }
    }
    std::vector<int64_t> log;
  };

  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, "MATCH (n:A) RETURN n");
  Recorder recorder;
  view->AddListener(&recorder);

  VertexId v = graph.AddVertex({"A"});
  ASSERT_TRUE(graph.RemoveVertex(v).ok());
  EXPECT_EQ(recorder.log, (std::vector<int64_t>{1, -1}));
}

TEST(EngineTest, SkipLimitAppliedOnSnapshots) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view =
      MustRegister(engine, "MATCH (n:A) RETURN n SKIP 1 LIMIT 2");
  for (int i = 0; i < 5; ++i) graph.AddVertex({"A"});
  EXPECT_EQ(view->size(), 5);  // Bag holds everything...
  EXPECT_EQ(view->Snapshot().size(), 2u);  // ...snapshot applies SKIP/LIMIT.
}

TEST(EngineTest, DestroyedViewStopsMaintaining) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  {
    auto view = MustRegister(engine, "MATCH (n:A) RETURN n");
    graph.AddVertex({"A"});
    EXPECT_EQ(view->size(), 1);
  }
  // View destroyed: further updates must not crash.
  graph.AddVertex({"A"});
}

TEST(EngineTest, MultipleIndependentViews) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto v1 = MustRegister(engine, "MATCH (n:A) RETURN n");
  auto v2 = MustRegister(engine, "MATCH (n:B) RETURN n");
  auto v3 = MustRegister(engine, "MATCH (a:A)-[:T]->(b:B) RETURN a, b");
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({"B"});
  (void)graph.AddEdge(a, b, "T").value();
  EXPECT_EQ(v1->size(), 1);
  EXPECT_EQ(v2->size(), 1);
  EXPECT_EQ(v3->size(), 1);
}

TEST(EngineTest, SelfLoopPattern) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, "MATCH (a:A)-[:T]->(a) RETURN a");
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({"A"});
  (void)graph.AddEdge(a, a, "T").value();   // Self loop: matches.
  (void)graph.AddEdge(a, b, "T").value();   // Not a loop: no match.
  EXPECT_EQ(view->size(), 1);
  EXPECT_EQ(view->Snapshot()[0].at(0), Value::Vertex(a));
}

TEST(EngineTest, EdgeUniquenessInOneMatch) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  // Two edges of one MATCH must be distinct edges.
  auto view = MustRegister(
      engine, "MATCH (a)-[r1:T]->(b)-[r2:T]->(c) RETURN a, b, c");
  VertexId x = graph.AddVertex({});
  VertexId y = graph.AddVertex({});
  (void)graph.AddEdge(x, y, "T").value();
  (void)graph.AddEdge(y, x, "T").value();
  // x->y->x and y->x->y both use two distinct edges: 2 rows. A single edge
  // cannot be used twice (no r1 == r2 rows).
  EXPECT_EQ(view->size(), 2);
}

TEST(EngineTest, TypeAlternativesMatchEither) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, "MATCH (a)-[r:X|Y]->(b) RETURN r");
  VertexId u = graph.AddVertex({});
  VertexId w = graph.AddVertex({});
  (void)graph.AddEdge(u, w, "X").value();
  (void)graph.AddEdge(u, w, "Y").value();
  (void)graph.AddEdge(u, w, "Z").value();
  EXPECT_EQ(view->size(), 2);
}

TEST(EngineTest, CompileErrorsSurface) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  EXPECT_FALSE(engine.Register("MATCH (n RETURN n").ok());
  EXPECT_FALSE(engine.Register("MATCH (n:A) RETURN m").ok());
  EXPECT_FALSE(engine.Register("MATCH (n:A) RETURN n ORDER BY n.x").ok());
}

TEST(EngineTest, RegisterInsideAnOpenBatchFails) {
  // Priming would read the open batch's vertex from the graph, and the
  // commit would deliver it again: the view would hold it twice.
  PropertyGraph graph;
  QueryEngine engine(&graph);
  graph.BeginBatch();
  VertexId a = graph.AddVertex({"A"});
  Result<std::shared_ptr<View>> inside =
      engine.Register("MATCH (a:A) RETURN a, a.x AS x");
  ASSERT_FALSE(inside.ok());
  EXPECT_EQ(inside.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.catalog().view_count(), 0u);
  ASSERT_TRUE(graph.SetVertexProperty(a, "x", Value::Int(1)).ok());
  graph.CommitBatch();

  auto rows = MustRegister(engine, "MATCH (a:A) RETURN a, a.x AS x");
  auto count = MustRegister(engine, "MATCH (a:A) RETURN count(*) AS n");
  ASSERT_EQ(rows->size(), 1);
  EXPECT_EQ(rows->Snapshot()[0].at(1), Value::Int(1));
  EXPECT_EQ(count->Snapshot()[0].at(0), Value::Int(1));
  Result<std::vector<Tuple>> fresh =
      engine.EvaluateOnce("MATCH (a:A) RETURN a, a.x AS x");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->size(), 1u);
}

TEST(EngineTest, WithAggregationPipeline) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(
      engine,
      "MATCH (p:Person)-[:LIKES]->(m:Msg) "
      "WITH p, count(*) AS likes WHERE likes >= 2 RETURN p, likes");
  VertexId p = graph.AddVertex({"Person"});
  VertexId m1 = graph.AddVertex({"Msg"});
  VertexId m2 = graph.AddVertex({"Msg"});
  (void)graph.AddEdge(p, m1, "LIKES").value();
  EXPECT_EQ(view->size(), 0);
  (void)graph.AddEdge(p, m2, "LIKES").value();
  EXPECT_EQ(view->size(), 1);
  EXPECT_EQ(view->Snapshot()[0].at(1), Value::Int(2));
}

TEST(EngineTest, NetworkDiagnosticsAvailable) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, "MATCH (a:A)-[:T]->(b:B) RETURN a, b");
  graph.AddVertex({"A"});
  EXPECT_GT(view->network().node_count(), 0u);
  EXPECT_FALSE(view->NetworkDebugString().empty());
  EXPECT_GT(view->ApproxMemoryBytes(), 0u);
}

// The parser's nesting limit must leave room for everything downstream of
// it: lowering, canonicalization and evaluation all recurse over the
// expression tree, so a predicate at the limit registers and maintains.
TEST(EngineTest, PredicateAtNestingLimitRegistersAndMaintains) {
  const int parens = kMaxExpressionNesting - 1;  // WHERE takes one level
  const std::string query = "MATCH (n:A) WHERE " + std::string(parens, '(') +
                            "n.x > 1" + std::string(parens, ')') +
                            " RETURN n";
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = MustRegister(engine, query);
  ASSERT_NE(view, nullptr);
  graph.AddVertex({"A"}, {{"x", Value::Int(2)}});
  VertexId low = graph.AddVertex({"A"}, {{"x", Value::Int(0)}});
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.SetVertexProperty(low, "x", Value::Int(5)).ok());
  EXPECT_EQ(view->size(), 2);
  Result<std::vector<Tuple>> expected = engine.EvaluateOnce(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(view->Snapshot(), expected.value());
}

}  // namespace
}  // namespace pgivm
