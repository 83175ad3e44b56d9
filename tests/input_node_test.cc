// Direct unit tests of the graph-boundary nodes (◯ and ⇑): label subset
// matching, extract maintenance under property/label churn, orientation
// handling, and batch consistency — the trickiest delta-translation logic.

#include "rete/input_node.h"

#include <gtest/gtest.h>

namespace pgivm {
namespace {

class SinkNode : public ReteNode {
 public:
  SinkNode() : ReteNode(Schema{}) {}
  void OnDelta(int port, const Delta& delta) override {
    (void)port;
    for (const DeltaEntry& entry : delta) {
      bag.Apply(entry.tuple, entry.multiplicity);
      ++entries_seen;
    }
  }
  std::string DebugString() const override { return "Sink"; }
  Bag bag;
  int entries_seen = 0;
};

/// Forwards graph changes into one source node, like the network does.
class Adapter : public GraphListener {
 public:
  explicit Adapter(GraphSourceNode* node) : node_(node) {}
  void OnGraphDelta(const GraphDelta& delta) override {
    for (const GraphChange& change : delta.changes) {
      node_->HandleChange(change);
    }
  }

 private:
  GraphSourceNode* node_;
};

PropertyExtract PropExtract(const std::string& var, const std::string& key) {
  return {PropertyExtract::What::kProperty, var, key,
          "#" + var + "." + key};
}

// ---- VertexInputNode -------------------------------------------------------

struct VertexFixture {
  VertexFixture(std::vector<std::string> labels,
                std::vector<PropertyExtract> extracts) {
    Schema schema({{"v", Attribute::Kind::kVertex}});
    for (const PropertyExtract& e : extracts) {
      schema.Add({e.column_name, Attribute::Kind::kValue});
    }
    node = std::make_unique<VertexInputNode>(schema, &graph,
                                             std::move(labels),
                                             std::move(extracts));
    node->AddOutput(&sink, 0);
    adapter = std::make_unique<Adapter>(node.get());
    graph.AddListener(adapter.get());
  }

  PropertyGraph graph;
  SinkNode sink;
  std::unique_ptr<VertexInputNode> node;
  std::unique_ptr<Adapter> adapter;
};

TEST(VertexInputNodeTest, LabelSubsetSemantics) {
  VertexFixture f({"A", "B"}, {});
  f.graph.AddVertex({"A"});            // Missing B.
  f.graph.AddVertex({"A", "B"});       // Match.
  f.graph.AddVertex({"A", "B", "C"});  // Superset: match.
  EXPECT_EQ(f.sink.bag.total_count(), 2);
}

TEST(VertexInputNodeTest, LabelChurnTogglesMembership) {
  VertexFixture f({"Hot"}, {});
  VertexId v = f.graph.AddVertex({"Item"});
  EXPECT_EQ(f.sink.bag.total_count(), 0);
  ASSERT_TRUE(f.graph.AddVertexLabel(v, "Hot").ok());
  EXPECT_EQ(f.sink.bag.total_count(), 1);
  ASSERT_TRUE(f.graph.RemoveVertexLabel(v, "Hot").ok());
  EXPECT_EQ(f.sink.bag.total_count(), 0);
  // Unrelated label changes emit nothing.
  int before = f.sink.entries_seen;
  ASSERT_TRUE(f.graph.AddVertexLabel(v, "Other").ok());
  EXPECT_EQ(f.sink.entries_seen, before);
}

TEST(VertexInputNodeTest, PropertyExtractMaintained) {
  VertexFixture f({"A"}, {PropExtract("v", "x")});
  VertexId v = f.graph.AddVertex({"A"}, {{"x", Value::Int(1)}});
  Tuple with_1({Value::Vertex(v), Value::Int(1)});
  EXPECT_EQ(f.sink.bag.Count(with_1), 1);

  ASSERT_TRUE(f.graph.SetVertexProperty(v, "x", Value::Int(2)).ok());
  EXPECT_EQ(f.sink.bag.Count(with_1), 0);
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(v), Value::Int(2)})), 1);

  // Erasing the property yields a null column, not a retraction.
  ASSERT_TRUE(f.graph.SetVertexProperty(v, "x", Value::Null()).ok());
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(v), Value::Null()})), 1);
}

TEST(VertexInputNodeTest, IrrelevantPropertyChangesFiltered) {
  VertexFixture f({"A"}, {PropExtract("v", "x")});
  VertexId v = f.graph.AddVertex({"A"}, {{"x", Value::Int(1)}});
  int before = f.sink.entries_seen;
  ASSERT_TRUE(f.graph.SetVertexProperty(v, "unrelated", Value::Int(9)).ok());
  EXPECT_EQ(f.sink.entries_seen, before);  // Minimal schema in action.
}

TEST(VertexInputNodeTest, InitialStateEmitted) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A"}, {{"x", Value::Int(7)}});
  graph.AddVertex({"B"});

  Schema schema({{"v", Attribute::Kind::kVertex},
                 {"#v.x", Attribute::Kind::kValue}});
  VertexInputNode node(schema, &graph, {"A"}, {PropExtract("v", "x")});
  SinkNode sink;
  node.AddOutput(&sink, 0);
  node.EmitInitialFromGraph();
  EXPECT_EQ(sink.bag.Count(Tuple({Value::Vertex(a), Value::Int(7)})), 1);
  EXPECT_EQ(sink.bag.total_count(), 1);
}

TEST(VertexInputNodeTest, LabelsExtractRefreshes) {
  PropertyExtract labels_extract{PropertyExtract::What::kLabels, "v", "",
                                 "#labels(v)"};
  VertexFixture f({"A"}, {labels_extract});
  VertexId v = f.graph.AddVertex({"A"});
  ASSERT_TRUE(f.graph.AddVertexLabel(v, "Z").ok());
  Tuple expected({Value::Vertex(v),
                  Value::List({Value::String("A"), Value::String("Z")})});
  EXPECT_EQ(f.sink.bag.Count(expected), 1);
  EXPECT_EQ(f.sink.bag.total_count(), 1);
}

// ---- EdgeInputNode ---------------------------------------------------------

struct EdgeFixture {
  EdgeFixture(std::vector<std::string> types, bool undirected,
              std::vector<PropertyExtract> extracts,
              std::vector<std::string> src_labels = {},
              std::vector<std::string> dst_labels = {}) {
    Schema schema({{"s", Attribute::Kind::kVertex},
                   {"e", Attribute::Kind::kEdge},
                   {"t", Attribute::Kind::kVertex}});
    for (const PropertyExtract& x : extracts) {
      schema.Add({x.column_name, Attribute::Kind::kValue});
    }
    node = std::make_unique<EdgeInputNode>(schema, &graph, std::move(types),
                                           undirected, "s", "e", "t",
                                           std::move(src_labels),
                                           std::move(dst_labels),
                                           std::move(extracts));
    node->AddOutput(&sink, 0);
    adapter = std::make_unique<Adapter>(node.get());
    graph.AddListener(adapter.get());
  }

  PropertyGraph graph;
  SinkNode sink;
  std::unique_ptr<EdgeInputNode> node;
  std::unique_ptr<Adapter> adapter;
};

TEST(EdgeInputNodeTest, TypeFiltering) {
  EdgeFixture f({"X", "Y"}, false, {});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  (void)f.graph.AddEdge(a, b, "X").value();
  (void)f.graph.AddEdge(a, b, "Y").value();
  (void)f.graph.AddEdge(a, b, "Z").value();
  EXPECT_EQ(f.sink.bag.total_count(), 2);
}

TEST(EdgeInputNodeTest, UndirectedEmitsBothOrientations) {
  EdgeFixture f({"T"}, /*undirected=*/true, {});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  EdgeId e = f.graph.AddEdge(a, b, "T").value();
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(a), Value::Edge(e),
                                    Value::Vertex(b)})),
            1);
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(b), Value::Edge(e),
                                    Value::Vertex(a)})),
            1);
  ASSERT_TRUE(f.graph.RemoveEdge(e).ok());
  EXPECT_EQ(f.sink.bag.total_count(), 0);
}

TEST(EdgeInputNodeTest, UndirectedSelfLoopEmitsOnce) {
  EdgeFixture f({"T"}, /*undirected=*/true, {});
  VertexId a = f.graph.AddVertex({});
  (void)f.graph.AddEdge(a, a, "T").value();
  EXPECT_EQ(f.sink.bag.total_count(), 1);
}

TEST(EdgeInputNodeTest, EndpointLabelsFilterEachOrientation) {
  EdgeFixture f({"T"}, /*undirected=*/true, {}, {"A"}, {});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  EdgeId e = f.graph.AddEdge(a, b, "T").value();
  Tuple ab({Value::Vertex(a), Value::Edge(e), Value::Vertex(b)});
  Tuple ba({Value::Vertex(b), Value::Edge(e), Value::Vertex(a)});
  EXPECT_EQ(f.sink.bag.total_count(), 0);

  // A label change reconciles an incident edge that was never stored.
  ASSERT_TRUE(f.graph.AddVertexLabel(a, "A").ok());
  EXPECT_EQ(f.sink.bag.Count(ab), 1);
  EXPECT_EQ(f.sink.bag.total_count(), 1);
  ASSERT_TRUE(f.graph.AddVertexLabel(b, "A").ok());
  EXPECT_EQ(f.sink.bag.Count(ba), 1);
  EXPECT_EQ(f.sink.bag.total_count(), 2);
  ASSERT_TRUE(f.graph.RemoveVertexLabel(a, "A").ok());
  EXPECT_EQ(f.sink.bag.Count(ab), 0);
  EXPECT_EQ(f.sink.bag.total_count(), 1);
  // A label the pattern does not mention touches nothing.
  int seen = f.sink.entries_seen;
  ASSERT_TRUE(f.graph.AddVertexLabel(b, "Z").ok());
  EXPECT_EQ(f.sink.entries_seen, seen);
}

TEST(EdgeInputNodeTest, BatchedLabelThenEdgeAssertsOnce) {
  EdgeFixture f({"T"}, false, {}, {"A"}, {});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  f.graph.BeginBatch();
  ASSERT_TRUE(f.graph.AddVertexLabel(a, "A").ok());
  (void)f.graph.AddEdge(a, b, "T").value();
  f.graph.CommitBatch();
  EXPECT_EQ(f.sink.bag.total_count(), 1);
  EXPECT_EQ(f.sink.entries_seen, 1);
}

TEST(EdgeInputNodeTest, BatchedEdgeThenLabelAssertsOnce) {
  EdgeFixture f({"T"}, false, {}, {"A"}, {});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  f.graph.BeginBatch();
  (void)f.graph.AddEdge(a, b, "T").value();
  ASSERT_TRUE(f.graph.AddVertexLabel(a, "A").ok());
  f.graph.CommitBatch();
  EXPECT_EQ(f.sink.bag.total_count(), 1);
  EXPECT_EQ(f.sink.entries_seen, 1);
}

TEST(EdgeInputNodeTest, BatchedEdgeThenLabelRemovalNetsToZero) {
  EdgeFixture f({"T"}, false, {}, {}, {"B"});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({"B"});
  f.graph.BeginBatch();
  (void)f.graph.AddEdge(a, b, "T").value();
  ASSERT_TRUE(f.graph.RemoveVertexLabel(b, "B").ok());
  f.graph.CommitBatch();
  EXPECT_EQ(f.sink.bag.total_count(), 0);
  EXPECT_EQ(f.sink.bag.distinct_size(), 0u);
}

TEST(EdgeInputNodeTest, EdgePropertyExtractMaintained) {
  EdgeFixture f({"T"}, false, {PropExtract("e", "w")});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  EdgeId e = f.graph.AddEdge(a, b, "T", {{"w", Value::Int(1)}}).value();
  ASSERT_TRUE(f.graph.SetEdgeProperty(e, "w", Value::Int(5)).ok());
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(a), Value::Edge(e),
                                    Value::Vertex(b), Value::Int(5)})),
            1);
  EXPECT_EQ(f.sink.bag.total_count(), 1);
}

TEST(EdgeInputNodeTest, EndpointPropertyExtractRefreshesIncidentEdges) {
  EdgeFixture f({"T"}, false, {PropExtract("t", "score")});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({}, {{"score", Value::Int(1)}});
  EdgeId e1 = f.graph.AddEdge(a, b, "T").value();
  EdgeId e2 = f.graph.AddEdge(a, b, "T").value();

  ASSERT_TRUE(f.graph.SetVertexProperty(b, "score", Value::Int(2)).ok());
  // Both incident edges refreshed to the new score.
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(a), Value::Edge(e1),
                                    Value::Vertex(b), Value::Int(2)})),
            1);
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(a), Value::Edge(e2),
                                    Value::Vertex(b), Value::Int(2)})),
            1);
  EXPECT_EQ(f.sink.bag.total_count(), 2);
}

TEST(EdgeInputNodeTest, SourcePropertyChangeDoesNotTouchTargetExtract) {
  EdgeFixture f({"T"}, false, {PropExtract("t", "score")});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({}, {{"score", Value::Int(1)}});
  (void)f.graph.AddEdge(a, b, "T").value();
  int before = f.sink.entries_seen;
  ASSERT_TRUE(f.graph.SetVertexProperty(a, "score", Value::Int(9)).ok());
  EXPECT_EQ(f.sink.entries_seen, before);  // `a` is the source, not target.
}

TEST(EdgeInputNodeTest, TypeExtract) {
  PropertyExtract type_extract{PropertyExtract::What::kType, "e", "",
                               "#type(e)"};
  EdgeFixture f({}, false, {type_extract});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  EdgeId e = f.graph.AddEdge(a, b, "KNOWS").value();
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(a), Value::Edge(e),
                                    Value::Vertex(b),
                                    Value::String("KNOWS")})),
            1);
}

// ---- Batch consistency across input nodes ----------------------------------

TEST(InputNodeBatchTest, InterleavedBatchYieldsConsistentNetState) {
  VertexFixture f({"A"}, {PropExtract("v", "x"), PropExtract("v", "y")});
  f.graph.BeginBatch();
  VertexId v = f.graph.AddVertex({"A"});
  ASSERT_TRUE(f.graph.SetVertexProperty(v, "x", Value::Int(1)).ok());
  ASSERT_TRUE(f.graph.SetVertexProperty(v, "y", Value::Int(2)).ok());
  ASSERT_TRUE(f.graph.SetVertexProperty(v, "x", Value::Int(3)).ok());
  f.graph.CommitBatch();
  EXPECT_EQ(f.sink.bag.total_count(), 1);
  EXPECT_EQ(f.sink.bag.Count(Tuple({Value::Vertex(v), Value::Int(3),
                                    Value::Int(2)})),
            1);
}

}  // namespace
}  // namespace pgivm
