// Tests for the language extensions beyond the paper's minimal fragment:
// CASE expressions, the extended scalar function library, exists()
// pattern predicates (semi/anti-joins), and UNION queries.

#include <cstdint>

#include <gtest/gtest.h>

#include "engine/query_engine.h"

namespace pgivm {
namespace {

Value Eval1(const std::string& expr) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  Result<std::vector<Tuple>> rows =
      engine.EvaluateOnce("RETURN " + expr + " AS v");
  EXPECT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows.value().size(), 1u);
  return rows.value()[0].at(0);
}

// ---- Scalar function library ----------------------------------------------

TEST(FunctionsTest, StringFunctions) {
  EXPECT_EQ(Eval1("trim('  x  ')"), Value::String("x"));
  EXPECT_EQ(Eval1("lTrim('  x')"), Value::String("x"));
  EXPECT_EQ(Eval1("rTrim('x  ')"), Value::String("x"));
  EXPECT_EQ(Eval1("replace('banana', 'an', 'o')"), Value::String("booa"));
  EXPECT_EQ(Eval1("substring('hello', 1, 3)"), Value::String("ell"));
  EXPECT_EQ(Eval1("substring('hello', 2)"), Value::String("llo"));
  EXPECT_EQ(Eval1("left('hello', 2)"), Value::String("he"));
  EXPECT_EQ(Eval1("right('hello', 2)"), Value::String("lo"));
  EXPECT_EQ(Eval1("reverse('abc')"), Value::String("cba"));
  EXPECT_EQ(Eval1("split('a,b,c', ',')"),
            Value::List({Value::String("a"), Value::String("b"),
                         Value::String("c")}));
}

TEST(FunctionsTest, NumericFunctions) {
  EXPECT_EQ(Eval1("round(2.5)"), Value::Double(3.0));
  EXPECT_EQ(Eval1("floor(2.9)"), Value::Double(2.0));
  EXPECT_EQ(Eval1("ceil(2.1)"), Value::Double(3.0));
  EXPECT_EQ(Eval1("sqrt(9)"), Value::Double(3.0));
  EXPECT_TRUE(Eval1("sqrt(-1)").is_null());
  EXPECT_EQ(Eval1("sign(-7)"), Value::Int(-1));
  EXPECT_EQ(Eval1("sign(0)"), Value::Int(0));
  EXPECT_EQ(Eval1("toInteger('42')"), Value::Int(42));
  EXPECT_TRUE(Eval1("toInteger('4x')").is_null());
  // Out of int64 range: null, not a saturated INT64_MAX.
  EXPECT_TRUE(Eval1("toInteger('99999999999999999999')").is_null());
  EXPECT_EQ(Eval1("toInteger('-9223372036854775808')"), Value::Int(INT64_MIN));
  EXPECT_EQ(Eval1("toFloat('2.5')"), Value::Double(2.5));
  EXPECT_EQ(Eval1("toInteger(3.7)"), Value::Int(3));
}

TEST(FunctionsTest, ListFunctions) {
  EXPECT_EQ(Eval1("range(1, 4)"),
            Value::List({Value::Int(1), Value::Int(2), Value::Int(3),
                         Value::Int(4)}));
  EXPECT_EQ(Eval1("range(5, 1, -2)"),
            Value::List({Value::Int(5), Value::Int(3), Value::Int(1)}));
  EXPECT_TRUE(Eval1("range(1, 3, 0)").is_null());
  EXPECT_EQ(Eval1("tail([1, 2, 3])"),
            Value::List({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(Eval1("reverse([1, 2])"),
            Value::List({Value::Int(2), Value::Int(1)}));
}

TEST(FunctionsTest, ExistsOnExpression) {
  EXPECT_EQ(Eval1("exists(1)"), Value::Bool(true));
  EXPECT_EQ(Eval1("exists(null)"), Value::Bool(false));
}

// ---- CASE expressions -------------------------------------------------------

TEST(CaseTest, GenericForm) {
  EXPECT_EQ(Eval1("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' "
                  "ELSE 'c' END"),
            Value::String("b"));
  EXPECT_EQ(Eval1("CASE WHEN false THEN 1 END"), Value::Null());
  EXPECT_EQ(Eval1("CASE WHEN null THEN 1 ELSE 2 END"), Value::Int(2));
}

TEST(CaseTest, SimpleForm) {
  EXPECT_EQ(Eval1("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END"),
            Value::String("two"));
  EXPECT_EQ(Eval1("CASE 9 WHEN 1 THEN 'one' ELSE 'many' END"),
            Value::String("many"));
  EXPECT_EQ(Eval1("CASE null WHEN null THEN 'n' ELSE 'e' END"),
            Value::String("e"));  // null never matches (Cypher semantics)
}

TEST(CaseTest, MaintainedInView) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register(
                      "MATCH (s:Seg) "
                      "RETURN CASE WHEN s.len <= 0 THEN 'bad' ELSE 'ok' END "
                      "AS verdict, count(*) AS n")
                  .value();
  VertexId seg = graph.AddVertex({"Seg"}, {{"len", Value::Int(5)}});
  graph.AddVertex({"Seg"}, {{"len", Value::Int(-1)}});
  {
    std::vector<Tuple> rows = view->Snapshot();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].at(0), Value::String("bad"));
    EXPECT_EQ(rows[0].at(1), Value::Int(1));
  }
  ASSERT_TRUE(graph.SetVertexProperty(seg, "len", Value::Int(0)).ok());
  {
    std::vector<Tuple> rows = view->Snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].at(0), Value::String("bad"));
    EXPECT_EQ(rows[0].at(1), Value::Int(2));
  }
}

TEST(CaseTest, RequiresWhenBranch) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  EXPECT_FALSE(engine.Register("RETURN CASE ELSE 1 END AS v").ok());
}

// ---- List comprehensions and quantifiers ------------------------------------

TEST(ComprehensionTest, FilterAndMap) {
  EXPECT_EQ(Eval1("[x IN [1,2,3,4] WHERE x % 2 = 0 | x * 10]"),
            Value::List({Value::Int(20), Value::Int(40)}));
  EXPECT_EQ(Eval1("[x IN [1,2,3] | x + 1]"),
            Value::List({Value::Int(2), Value::Int(3), Value::Int(4)}));
  EXPECT_EQ(Eval1("[x IN [1,2,3] WHERE x > 1]"),
            Value::List({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(Eval1("[x IN []]"), Value::List({}));
  EXPECT_TRUE(Eval1("[x IN null | x]").is_null());
}

TEST(ComprehensionTest, NestedComprehensions) {
  EXPECT_EQ(Eval1("[x IN [1,2] | [y IN [10,20] | x + y]]"),
            Value::List({Value::List({Value::Int(11), Value::Int(21)}),
                         Value::List({Value::Int(12), Value::Int(22)})}));
  // Inner variable shadows outer.
  EXPECT_EQ(Eval1("[x IN [1] | [x IN [5] | x]]"),
            Value::List({Value::List({Value::Int(5)})}));
}

TEST(ComprehensionTest, LocalVariableIsScoped) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  // `x` is not visible outside the comprehension.
  EXPECT_FALSE(engine.EvaluateOnce("RETURN [x IN [1]] AS a, x AS b").ok());
}

TEST(QuantifierTest, AnyAllNoneSingle) {
  EXPECT_EQ(Eval1("any(x IN [1, 2] WHERE x > 1)"), Value::Bool(true));
  EXPECT_EQ(Eval1("any(x IN [1, 2] WHERE x > 5)"), Value::Bool(false));
  EXPECT_EQ(Eval1("all(x IN [2, 4] WHERE x % 2 = 0)"), Value::Bool(true));
  EXPECT_EQ(Eval1("all(x IN [2, 3] WHERE x % 2 = 0)"), Value::Bool(false));
  EXPECT_EQ(Eval1("all(x IN [] WHERE false)"), Value::Bool(true));
  EXPECT_EQ(Eval1("none(x IN [1, 2] WHERE x > 5)"), Value::Bool(true));
  EXPECT_EQ(Eval1("none(x IN [1, 2] WHERE x = 2)"), Value::Bool(false));
  EXPECT_EQ(Eval1("single(x IN [1, 2, 3] WHERE x = 2)"), Value::Bool(true));
  EXPECT_EQ(Eval1("single(x IN [2, 2] WHERE x = 2)"), Value::Bool(false));
}

TEST(QuantifierTest, ThreeValuedVerdicts) {
  EXPECT_TRUE(Eval1("any(x IN [null] WHERE x > 1)").is_null());
  EXPECT_EQ(Eval1("any(x IN [null, 5] WHERE x > 1)"), Value::Bool(true));
  EXPECT_TRUE(Eval1("all(x IN [2, null] WHERE x > 1)").is_null());
  EXPECT_EQ(Eval1("all(x IN [0, null] WHERE x > 1)"), Value::Bool(false));
}

TEST(QuantifierTest, ShadowedLocalReadsElementNotVertex) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  // The local `x` shadows the pattern `x`; `x.k` reads map elements.
  auto view = engine
                  .Register("MATCH (x:A) "
                            "WHERE any(x IN x.tags WHERE x.k = 1) RETURN x")
                  .value();
  VertexId v = graph.AddVertex(
      {"A"},
      {{"tags", Value::List({Value::Map({{"k", Value::Int(2)}})})},
       {"k", Value::Int(1)}});  // Vertex-level k=1 must NOT count.
  EXPECT_EQ(view->size(), 0);
  ASSERT_TRUE(
      graph.ListAppend(v, "tags", Value::Map({{"k", Value::Int(1)}})).ok());
  EXPECT_EQ(view->size(), 1);
}

TEST(QuantifierTest, MaintainedOverCollectionProperty) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register(
                      "MATCH (u:Person) "
                      "WHERE any(lang IN u.speaks WHERE lang = 'en') "
                      "RETURN u")
                  .value();
  VertexId u = graph.AddVertex(
      {"Person"}, {{"speaks", Value::List({Value::String("de")})}});
  EXPECT_EQ(view->size(), 0);
  ASSERT_TRUE(graph.ListAppend(u, "speaks", Value::String("en")).ok());
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(
      graph.ListRemoveFirst(u, "speaks", Value::String("en")).ok());
  EXPECT_EQ(view->size(), 0);
}

// ---- exists(pattern) --------------------------------------------------------

TEST(ExistsPatternTest, PositiveExistsMaintained) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register(
                      "MATCH (p:Person) "
                      "WHERE exists((p)-[:LIKES]->(:Post)) RETURN p")
                  .value();
  VertexId p = graph.AddVertex({"Person"});
  VertexId post = graph.AddVertex({"Post"});
  EXPECT_EQ(view->size(), 0);

  EdgeId like = graph.AddEdge(p, post, "LIKES").value();
  EXPECT_EQ(view->size(), 1);

  // Multiplicity stays 1 regardless of how many partners exist (semijoin).
  VertexId post2 = graph.AddVertex({"Post"});
  (void)graph.AddEdge(p, post2, "LIKES").value();
  EXPECT_EQ(view->size(), 1);

  ASSERT_TRUE(graph.RemoveEdge(like).ok());
  EXPECT_EQ(view->size(), 1);  // Second like still there.
}

TEST(ExistsPatternTest, NegatedExistsMaintained) {
  // The Train Benchmark SwitchMonitored constraint in its natural form.
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register(
                      "MATCH (sw:Switch) "
                      "WHERE NOT exists((sw)-[:monitoredBy]->(:Sensor)) "
                      "RETURN sw")
                  .value();
  VertexId sw = graph.AddVertex({"Switch"});
  VertexId sensor = graph.AddVertex({"Sensor"});
  EXPECT_EQ(view->size(), 1);  // Unmonitored.
  EdgeId e = graph.AddEdge(sw, sensor, "monitoredBy").value();
  EXPECT_EQ(view->size(), 0);
  ASSERT_TRUE(graph.RemoveEdge(e).ok());
  EXPECT_EQ(view->size(), 1);
}

TEST(ExistsPatternTest, CombinesWithPlainConjuncts) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register(
                      "MATCH (p:Person) WHERE p.age >= 18 AND "
                      "exists((p)-[:OWNS]->(:Car)) RETURN p")
                  .value();
  VertexId adult = graph.AddVertex({"Person"}, {{"age", Value::Int(30)}});
  VertexId minor = graph.AddVertex({"Person"}, {{"age", Value::Int(12)}});
  VertexId car = graph.AddVertex({"Car"});
  (void)graph.AddEdge(adult, car, "OWNS").value();
  (void)graph.AddEdge(minor, car, "OWNS").value();
  EXPECT_EQ(view->size(), 1);
  EXPECT_EQ(view->Snapshot()[0].at(0), Value::Vertex(adult));
}

TEST(ExistsPatternTest, MatchesBaseline) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  const char* query =
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WHERE NOT exists((b)-[:KNOWS]->(a)) RETURN a, b";
  auto view = engine.Register(query).value();
  VertexId x = graph.AddVertex({"Person"});
  VertexId y = graph.AddVertex({"Person"});
  VertexId z = graph.AddVertex({"Person"});
  (void)graph.AddEdge(x, y, "KNOWS").value();
  (void)graph.AddEdge(y, x, "KNOWS").value();  // Mutual: excluded.
  (void)graph.AddEdge(x, z, "KNOWS").value();  // One-way: included.
  EXPECT_EQ(view->Snapshot(), engine.EvaluateOnce(query).value());
  EXPECT_EQ(view->size(), 1);
}

TEST(ExistsPatternTest, RejectedOutsideMatchWhere) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  EXPECT_FALSE(
      engine.Register("MATCH (p:P) RETURN exists((p)-[:X]->()) AS e").ok());
  EXPECT_FALSE(engine
                   .Register("MATCH (p:P) WHERE exists((p)-[:X]->()) OR "
                             "p.y = 1 RETURN p")
                   .ok());
}

// ---- UNION ------------------------------------------------------------------

TEST(UnionTest, UnionAllConcatenates) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (a:A) RETURN a AS x UNION ALL "
                            "MATCH (b:B) RETURN b AS x")
                  .value();
  VertexId both = graph.AddVertex({"A", "B"});
  graph.AddVertex({"A"});
  EXPECT_EQ(view->size(), 3);  // `both` appears via both parts.
  ASSERT_TRUE(graph.RemoveVertexLabel(both, "B").ok());
  EXPECT_EQ(view->size(), 2);
}

TEST(UnionTest, PlainUnionDeduplicates) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine
                  .Register("MATCH (a:A) RETURN a AS x UNION "
                            "MATCH (b:B) RETURN b AS x")
                  .value();
  VertexId both = graph.AddVertex({"A", "B"});
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.RemoveVertexLabel(both, "A").ok());
  EXPECT_EQ(view->size(), 1);
  ASSERT_TRUE(graph.RemoveVertexLabel(both, "B").ok());
  EXPECT_EQ(view->size(), 0);
}

TEST(UnionTest, ColumnMismatchRejected) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  EXPECT_FALSE(engine
                   .Register("MATCH (a:A) RETURN a AS x UNION "
                             "MATCH (b:B) RETURN b AS y")
                   .ok());
}

TEST(UnionTest, MixingUnionKindsRejected) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  EXPECT_FALSE(engine
                   .Register("MATCH (a:A) RETURN a AS x UNION "
                             "MATCH (b:B) RETURN b AS x UNION ALL "
                             "MATCH (c:C) RETURN c AS x")
                   .ok());
}

TEST(UnionTest, MatchesBaseline) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  const char* query =
      "MATCH (a:A) RETURN a AS x, 'a' AS src UNION ALL "
      "MATCH (b:B) RETURN b AS x, 'b' AS src";
  auto view = engine.Register(query).value();
  graph.AddVertex({"A"});
  graph.AddVertex({"B"});
  graph.AddVertex({"A", "B"});
  EXPECT_EQ(view->Snapshot(), engine.EvaluateOnce(query).value());
}

}  // namespace
}  // namespace pgivm
