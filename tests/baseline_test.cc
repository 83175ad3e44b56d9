#include "baseline/baseline_evaluator.h"

#include <gtest/gtest.h>

#include "algebra/compiler.h"
#include "algebra/passes/pass_manager.h"
#include "cypher/parser.h"
#include "rete/production_node.h"

namespace pgivm {
namespace {

std::vector<Tuple> Evaluate(const PropertyGraph& graph,
                            const std::string& query) {
  Result<Query> parsed = ParseQuery(query);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  Result<OpPtr> gra = CompileToGra(parsed.value());
  EXPECT_TRUE(gra.ok()) << gra.status();
  Result<OpPtr> fra = LowerToFra(gra.value());
  EXPECT_TRUE(fra.ok()) << fra.status();
  BaselineEvaluator evaluator(&graph);
  Result<Bag> bag = evaluator.Evaluate(fra.value());
  EXPECT_TRUE(bag.ok()) << bag.status();
  return ProductionNode::SortedRows(bag.value());
}

TEST(BaselineTest, LabelScan) {
  PropertyGraph graph;
  graph.AddVertex({"A"});
  graph.AddVertex({"A"});
  graph.AddVertex({"B"});
  EXPECT_EQ(Evaluate(graph, "MATCH (n:A) RETURN n").size(), 2u);
  EXPECT_EQ(Evaluate(graph, "MATCH (n) RETURN n").size(), 3u);
}

TEST(BaselineTest, EdgePatternWithFilter) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"P"}, {{"age", Value::Int(30)}});
  VertexId b = graph.AddVertex({"P"}, {{"age", Value::Int(20)}});
  (void)graph.AddEdge(a, b, "KNOWS").value();
  (void)graph.AddEdge(b, a, "KNOWS").value();
  std::vector<Tuple> rows = Evaluate(
      graph, "MATCH (x:P)-[:KNOWS]->(y:P) WHERE x.age > y.age RETURN x, y");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at(0), Value::Vertex(a));
}

TEST(BaselineTest, VariableLengthPaths) {
  PropertyGraph graph;
  VertexId v1 = graph.AddVertex({"N"});
  VertexId v2 = graph.AddVertex({"N"});
  VertexId v3 = graph.AddVertex({"N"});
  (void)graph.AddEdge(v1, v2, "T").value();
  (void)graph.AddEdge(v2, v3, "T").value();
  EXPECT_EQ(Evaluate(graph, "MATCH (a:N)-[:T*]->(b:N) RETURN a, b").size(),
            3u);
  EXPECT_EQ(
      Evaluate(graph, "MATCH (a:N)-[:T*2..2]->(b:N) RETURN a, b").size(),
      1u);
  EXPECT_EQ(
      Evaluate(graph, "MATCH (a:N)-[:T*0..]->(b:N) RETURN a, b").size(),
      6u);  // 3 zero-length + 3 proper.
}

TEST(BaselineTest, AggregationAndGrouping) {
  PropertyGraph graph;
  graph.AddVertex({"X"}, {{"g", Value::Int(1)}, {"v", Value::Int(10)}});
  graph.AddVertex({"X"}, {{"g", Value::Int(1)}, {"v", Value::Int(20)}});
  graph.AddVertex({"X"}, {{"g", Value::Int(2)}, {"v", Value::Int(5)}});
  std::vector<Tuple> rows = Evaluate(
      graph,
      "MATCH (n:X) RETURN n.g AS g, count(*) AS c, sum(n.v) AS s, "
      "min(n.v) AS mn, max(n.v) AS mx, avg(n.v) AS a");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at(0), Value::Int(1));
  EXPECT_EQ(rows[0].at(1), Value::Int(2));
  EXPECT_EQ(rows[0].at(2), Value::Int(30));
  EXPECT_EQ(rows[0].at(3), Value::Int(10));
  EXPECT_EQ(rows[0].at(4), Value::Int(20));
  EXPECT_EQ(rows[0].at(5), Value::Double(15.0));
}

TEST(BaselineTest, KeylessAggregateOnEmptyInput) {
  PropertyGraph graph;
  std::vector<Tuple> rows =
      Evaluate(graph, "MATCH (n:X) RETURN count(*) AS c");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at(0), Value::Int(0));
}

TEST(BaselineTest, OptionalMatchPadsNulls) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({"A"});
  VertexId c = graph.AddVertex({"C"});
  (void)graph.AddEdge(a, c, "T").value();
  std::vector<Tuple> rows = Evaluate(
      graph, "MATCH (n:A) OPTIONAL MATCH (n)-[:T]->(m) RETURN n, m");
  ASSERT_EQ(rows.size(), 2u);
  // Row for `a` has m = c; row for `b` has m = null.
  EXPECT_EQ(rows[0].at(0), Value::Vertex(a));
  EXPECT_EQ(rows[0].at(1), Value::Vertex(c));
  EXPECT_EQ(rows[1].at(0), Value::Vertex(b));
  EXPECT_TRUE(rows[1].at(1).is_null());
}

TEST(BaselineTest, UnwindAndDistinct) {
  PropertyGraph graph;
  graph.AddVertex({"P"},
                  {{"tags", Value::List({Value::Int(1), Value::Int(2),
                                         Value::Int(1)})}});
  EXPECT_EQ(
      Evaluate(graph, "MATCH (p:P) UNWIND p.tags AS t RETURN t").size(), 3u);
  EXPECT_EQ(Evaluate(graph,
                     "MATCH (p:P) UNWIND p.tags AS t RETURN DISTINCT t")
                .size(),
            2u);
}

TEST(BaselineTest, PatternFreeQuery) {
  PropertyGraph graph;
  std::vector<Tuple> rows =
      Evaluate(graph, "UNWIND [1, 2, 3] AS x RETURN x * 10 AS y");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2].at(0), Value::Int(30));
}

}  // namespace
}  // namespace pgivm
