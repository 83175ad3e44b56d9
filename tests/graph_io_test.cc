#include "graph/graph_io.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "graph/graph_stats.h"
#include "workload/random_graph.h"

namespace pgivm {
namespace {

Value Roundtrip(const Value& v) {
  Result<Value> parsed = ParseValueText(WriteValueText(v));
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " for " << v.ToString();
  return parsed.ok() ? parsed.value() : Value::Null();
}

TEST(ValueTextTest, ScalarsRoundtrip) {
  EXPECT_EQ(Roundtrip(Value::Null()), Value::Null());
  EXPECT_EQ(Roundtrip(Value::Bool(true)), Value::Bool(true));
  EXPECT_EQ(Roundtrip(Value::Bool(false)), Value::Bool(false));
  EXPECT_EQ(Roundtrip(Value::Int(-42)), Value::Int(-42));
  EXPECT_EQ(Roundtrip(Value::Int(0)), Value::Int(0));
}

TEST(ValueTextTest, DoublesKeepTypeAndPrecision) {
  Value d = Roundtrip(Value::Double(3.0));
  EXPECT_TRUE(d.is_double());  // "3.0", not the integer 3.
  EXPECT_EQ(Roundtrip(Value::Double(0.1)), Value::Double(0.1));
  EXPECT_EQ(Roundtrip(Value::Double(1e300)), Value::Double(1e300));
  EXPECT_EQ(Roundtrip(Value::Double(-2.5e-7)), Value::Double(-2.5e-7));
}

TEST(ValueTextTest, StringsWithEscapes) {
  Value s = Value::String("line\nwith \"quotes\" and \\slashes\t!");
  EXPECT_EQ(Roundtrip(s), s);
  EXPECT_EQ(Roundtrip(Value::String("")), Value::String(""));
}

TEST(ValueTextTest, NestedCollections) {
  Value nested = Value::Map(
      {{"list", Value::List({Value::Int(1), Value::String("x"),
                             Value::List({})})},
       {"map", Value::Map({{"inner", Value::Bool(true)}})},
       {"scalar", Value::Double(2.5)}});
  EXPECT_EQ(Roundtrip(nested), nested);
}

TEST(ValueTextTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseValueText("").ok());
  EXPECT_FALSE(ParseValueText("[1, 2").ok());
  EXPECT_FALSE(ParseValueText("{\"k\" 1}").ok());
  EXPECT_FALSE(ParseValueText("\"unterminated").ok());
  EXPECT_FALSE(ParseValueText("1 2").ok());
  EXPECT_FALSE(ParseValueText("{k: 1}").ok());  // Unquoted key.
}

TEST(ValueTextTest, MalformedNumbersRejectedNotZeroed) {
  // Regression: these used to parse as Int(0)/garbage because the number
  // scanner never validated strtoll/strtod's end pointer or errno.
  EXPECT_FALSE(ParseValueText("-").ok());        // Sign with no digits.
  EXPECT_FALSE(ParseValueText("+").ok());
  EXPECT_FALSE(ParseValueText("1e").ok());       // Dangling exponent.
  EXPECT_FALSE(ParseValueText("[1, -]").ok());
  // Integer overflow surfaces as an error instead of saturating.
  EXPECT_FALSE(ParseValueText("99999999999999999999999").ok());
  Result<Value> overflow = ParseValueText("99999999999999999999999");
  EXPECT_NE(overflow.status().message().find("out of range"),
            std::string::npos)
      << overflow.status();
  // In-range values near the boundary still parse.
  EXPECT_EQ(ParseValueText("9223372036854775807").value(),
            Value::Int(9223372036854775807LL));
  EXPECT_EQ(ParseValueText("-9223372036854775808").value(),
            Value::Int(INT64_MIN));
}

// Hostile nesting: recursive descent must fail with an error naming the
// limit instead of overflowing the stack.
std::string Repeated(const std::string& text, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) out += text;
  return out;
}

void ExpectNestingError(const std::string& text) {
  Result<Value> parsed = ParseValueText(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find(
                "limit of " + std::to_string(kMaxValueNesting)),
            std::string::npos)
      << parsed.status();
}

constexpr int kHostileDepth = 100000;

TEST(ValueTextTest, NestingAtTheLimitParses) {
  const int n = kMaxValueNesting;
  EXPECT_TRUE(ParseValueText(Repeated("[", n) + "1" + Repeated("]", n)).ok());
  EXPECT_TRUE(
      ParseValueText(Repeated("{\"k\": ", n - 1) + "{}" + Repeated("}", n - 1))
          .ok());
  ExpectNestingError(Repeated("[", n + 1) + "1" + Repeated("]", n + 1));
}

TEST(ValueTextTest, DeepListIsAnError) {
  ExpectNestingError(Repeated("[", kHostileDepth));
}

TEST(ValueTextTest, DeepMapIsAnError) {
  ExpectNestingError(Repeated("{\"k\": ", kHostileDepth));
}

TEST(GraphTextTest, DeepPropertyValueFailsLoad) {
  PropertyGraph graph;
  Status bad = ReadGraphText("pgivm-graph 1\nvertex 0 :X {\"w\": " +
                                 Repeated("[", kHostileDepth) + "}\n",
                             &graph);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("nesting"), std::string::npos) << bad;
}

TEST(GraphTextTest, PropertyValueAtNestingLimitRoundtrips) {
  // The record's property map takes the first level.
  Value deep = Value::Int(7);
  for (int i = 1; i < kMaxValueNesting; ++i) deep = Value::List({deep});
  PropertyGraph graph;
  graph.AddVertex({"X"}, {{"w", deep}});
  PropertyGraph loaded;
  Status status = ReadGraphText(WriteGraphText(graph), &loaded);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(loaded.GetVertexProperty(0, "w"), deep);
}

TEST(GraphTextTest, MalformedPropertyNumberFailsLoad) {
  // A malformed numeric literal inside a record's property map must fail
  // the whole load (previously it silently loaded as Int(0)).
  PropertyGraph graph;
  Status bad =
      ReadGraphText("pgivm-graph 1\nvertex 0 :X {\"w\": -}\n", &graph);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("malformed number"), std::string::npos)
      << bad;
  // The well-formed spelling of the same record still loads.
  PropertyGraph good;
  ASSERT_TRUE(
      ReadGraphText("pgivm-graph 1\nvertex 0 :X {\"w\": -1}\n", &good).ok());
  EXPECT_EQ(good.GetVertexProperty(0, "w"), Value::Int(-1));
}

TEST(GraphTextTest, EmptyGraphRoundtrip) {
  PropertyGraph graph;
  std::string dump = WriteGraphText(graph);
  PropertyGraph loaded;
  ASSERT_TRUE(ReadGraphText(dump, &loaded).ok());
  EXPECT_EQ(loaded.vertex_count(), 0u);
  EXPECT_EQ(loaded.edge_count(), 0u);
}

TEST(GraphTextTest, SmallGraphRoundtrip) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"Post"}, {{"lang", Value::String("en")}});
  VertexId b = graph.AddVertex(
      {"Comm", "Msg"},
      {{"lang", Value::String("de")},
       {"tags", Value::List({Value::Int(1), Value::Int(2)})}});
  (void)graph.AddEdge(a, b, "REPLY", {{"w", Value::Double(0.5)}}).value();

  std::string dump = WriteGraphText(graph);
  PropertyGraph loaded;
  ASSERT_TRUE(ReadGraphText(dump, &loaded).ok());
  EXPECT_EQ(loaded.vertex_count(), 2u);
  EXPECT_EQ(loaded.edge_count(), 1u);
  EXPECT_EQ(loaded.VerticesWithLabel("Post").size(), 1u);
  EXPECT_EQ(loaded.VerticesWithLabel("Msg").size(), 1u);
  EdgeId e = loaded.EdgesWithType("REPLY")[0];
  EXPECT_EQ(loaded.GetEdgeProperty(e, "w"), Value::Double(0.5));
  VertexId lb = loaded.EdgeTarget(e);
  EXPECT_EQ(loaded.GetVertexProperty(lb, "tags"),
            Value::List({Value::Int(1), Value::Int(2)}));

  // Dense dumps are stable: dump(load(dump)) == dump.
  EXPECT_EQ(WriteGraphText(loaded), dump);
}

TEST(GraphTextTest, IdsRemappedAfterDeletions) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({"B"});
  VertexId c = graph.AddVertex({"C"});
  (void)graph.AddEdge(a, c, "T").value();
  ASSERT_TRUE(graph.RemoveVertex(b).ok());  // Leaves an id gap.

  PropertyGraph loaded;
  ASSERT_TRUE(ReadGraphText(WriteGraphText(graph), &loaded).ok());
  EXPECT_EQ(loaded.vertex_count(), 2u);
  EXPECT_EQ(loaded.edge_count(), 1u);
  EdgeId e = loaded.EdgesWithType("T")[0];
  EXPECT_TRUE(loaded.VertexHasLabel(loaded.EdgeSource(e), "A"));
  EXPECT_TRUE(loaded.VertexHasLabel(loaded.EdgeTarget(e), "C"));
}

TEST(GraphTextTest, RandomGraphRoundtripPreservesQueryResults) {
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 99;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);
  for (int i = 0; i < 50; ++i) generator.ApplyRandomUpdate(&graph);

  PropertyGraph loaded;
  ASSERT_TRUE(ReadGraphText(WriteGraphText(graph), &loaded).ok());
  EXPECT_EQ(loaded.vertex_count(), graph.vertex_count());
  EXPECT_EQ(loaded.edge_count(), graph.edge_count());

  // Id-independent queries agree between original and loaded graph.
  QueryEngine original(&graph);
  QueryEngine copy(&loaded);
  for (const char* query :
       {"MATCH (n:A) RETURN count(*) AS c",
        "MATCH (a:A)-[:R]->(b:B) RETURN count(*) AS c",
        "MATCH (n:B) UNWIND n.tags AS t RETURN t, count(*) AS c"}) {
    EXPECT_EQ(original.EvaluateOnce(query).value(),
              copy.EvaluateOnce(query).value())
        << query;
  }
}

TEST(GraphTextTest, LoadFeedsRegisteredViews) {
  // Loading emits one batch; attached views must pick everything up.
  PropertyGraph source;
  VertexId a = source.AddVertex({"Post"}, {{"lang", Value::String("en")}});
  VertexId b = source.AddVertex({"Comm"}, {{"lang", Value::String("en")}});
  (void)source.AddEdge(a, b, "REPLY").value();

  PropertyGraph target;
  QueryEngine engine(&target);
  auto view = engine
                  .Register("MATCH (p:Post)-[:REPLY]->(c:Comm) "
                            "WHERE p.lang = c.lang RETURN p, c")
                  .value();
  ASSERT_TRUE(ReadGraphText(WriteGraphText(source), &target).ok());
  EXPECT_EQ(view->size(), 1);
}

TEST(GraphTextTest, BadHeaderRejected) {
  PropertyGraph graph;
  EXPECT_FALSE(ReadGraphText("not a dump", &graph).ok());
  EXPECT_FALSE(ReadGraphText("", &graph).ok());
}

TEST(GraphTextTest, MalformedRecordsRejected) {
  PropertyGraph graph;
  EXPECT_FALSE(
      ReadGraphText("pgivm-graph 1\nvertex oops : {}", &graph).ok());
  EXPECT_FALSE(
      ReadGraphText("pgivm-graph 1\nedge 0 5 6 T {}", &graph).ok());
  EXPECT_FALSE(
      ReadGraphText("pgivm-graph 1\nwidget 1 2 3", &graph).ok());
  EXPECT_FALSE(ReadGraphText(
                   "pgivm-graph 1\nvertex 0 : {}\nvertex 0 : {}", &graph)
                   .ok());
}

TEST(GraphTextTest, RoundtripFingerprintIsSymbolIdIndependent) {
  // The original graph interns scaffolding symbols FIRST — a label and a
  // property key that are later retracted. Intern ids are append-only, so
  // every symbol the dump DOES contain sits at a shifted id; a reload
  // interns in file order and assigns different ids to the same names.
  // The fingerprint compares strings, never ids, so it must not move.
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A"});
  ASSERT_TRUE(graph.AddVertexLabel(a, "Scaffold").ok());
  ASSERT_TRUE(graph.SetVertexProperty(a, "temp", Value::Int(1)).ok());
  ASSERT_TRUE(graph.SetVertexProperty(a, "temp", Value::Null()).ok());
  ASSERT_TRUE(graph.RemoveVertexLabel(a, "Scaffold").ok());
  ASSERT_TRUE(graph.SetVertexProperty(a, "x", Value::Int(5)).ok());
  VertexId b = graph.AddVertex({"B"}, {{"y", Value::Double(2.5)}});
  (void)graph.AddEdge(a, b, "R", {{"w", Value::Int(3)}}).value();

  const std::string dump = WriteGraphText(graph);
  PropertyGraph reloaded;
  ASSERT_TRUE(ReadGraphText(dump, &reloaded).ok());

  // Sanity: the ids really did shift ("Scaffold"/"temp" never reach the
  // dump), so equality below is not vacuous.
  ASSERT_TRUE(graph.symbols().Lookup("x").has_value());
  ASSERT_TRUE(reloaded.symbols().Lookup("x").has_value());
  ASSERT_NE(*graph.symbols().Lookup("x"), *reloaded.symbols().Lookup("x"));

  // No deletions above, so element ids are dense and survive the reload:
  // original and reload fingerprint identically.
  EXPECT_EQ(GraphFingerprint(reloaded), GraphFingerprint(graph));
  EXPECT_EQ(WriteGraphText(reloaded), dump);
}

TEST(GraphTextTest, RandomRoundtripIsBitIdentical) {
  // A churned random graph (deletions included, so ids get remapped on
  // load) dumped once: two independent reloads are indistinguishable, and
  // the reload's own dump is a fixed point of another roundtrip.
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 1234;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);
  for (int i = 0; i < 60; ++i) generator.ApplyRandomUpdate(&graph);

  const std::string dump = WriteGraphText(graph);
  PropertyGraph first;
  PropertyGraph second;
  ASSERT_TRUE(ReadGraphText(dump, &first).ok());
  ASSERT_TRUE(ReadGraphText(dump, &second).ok());
  EXPECT_EQ(GraphFingerprint(first), GraphFingerprint(second));
  EXPECT_EQ(WriteGraphText(first), WriteGraphText(second));

  const std::string redump = WriteGraphText(first);
  PropertyGraph third;
  ASSERT_TRUE(ReadGraphText(redump, &third).ok());
  EXPECT_EQ(GraphFingerprint(third), GraphFingerprint(first));
  EXPECT_EQ(WriteGraphText(third), redump);
  EXPECT_EQ(first.vertex_count(), graph.vertex_count());
  EXPECT_EQ(first.edge_count(), graph.edge_count());
}

TEST(GraphTextTest, CommentsAndBlankLinesSkipped) {
  PropertyGraph graph;
  ASSERT_TRUE(ReadGraphText(
                  "pgivm-graph 1\n# a comment\n\nvertex 0 :X {}\n", &graph)
                  .ok());
  EXPECT_EQ(graph.VerticesWithLabel("X").size(), 1u);
}

// A graph whose first page of vertex and edge ids was freed dumps and
// reloads like any other: the reload renumbers densely and round-trips.
TEST(GraphTextTest, RoundtripAfterAPageIsFreed) {
  PropertyGraph graph;
  const int64_t page = static_cast<int64_t>(PropertyGraph::kPageSlots);
  std::vector<VertexId> doomed;
  for (int64_t i = 0; i < page; ++i) doomed.push_back(graph.AddVertex({"D"}));
  VertexId a = graph.AddVertex({"A"}, {{"x", Value::Int(7)}});
  VertexId b = graph.AddVertex({"B"});
  for (VertexId v : doomed) (void)graph.AddEdge(v, a, "T").value();
  for (VertexId v : doomed) ASSERT_TRUE(graph.DetachRemoveVertex(v).ok());
  ASSERT_FALSE(graph.HasVertex(0));
  (void)graph.AddEdge(a, b, "R", {{"w", Value::Double(0.5)}}).value();

  const std::string dump = WriteGraphText(graph);
  PropertyGraph loaded;
  ASSERT_TRUE(ReadGraphText(dump, &loaded).ok());
  EXPECT_EQ(loaded.vertex_count(), 2u);
  EXPECT_EQ(loaded.edge_count(), 1u);
  EdgeId e = loaded.EdgesWithType("R")[0];
  EXPECT_TRUE(loaded.VertexHasLabel(loaded.EdgeSource(e), "A"));
  EXPECT_TRUE(loaded.VertexHasLabel(loaded.EdgeTarget(e), "B"));
  EXPECT_EQ(loaded.GetVertexProperty(loaded.EdgeSource(e), "x"),
            Value::Int(7));
  EXPECT_EQ(loaded.GetEdgeProperty(e, "w"), Value::Double(0.5));

  // The reload is dense, so from here dumps are stable.
  const std::string dense = WriteGraphText(loaded);
  PropertyGraph reloaded;
  ASSERT_TRUE(ReadGraphText(dense, &reloaded).ok());
  EXPECT_EQ(WriteGraphText(reloaded), dense);
  EXPECT_EQ(GraphFingerprint(reloaded), GraphFingerprint(loaded));
}

}  // namespace
}  // namespace pgivm
