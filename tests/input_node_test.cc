// Direct unit tests of the graph-boundary nodes (◯ and ⇑): label subset
// matching, extract maintenance under property/label churn, orientation
// handling, and batch consistency — the trickiest delta-translation logic.

#include "rete/input_node.h"

#include <algorithm>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "rete/path_node.h"
#include "support/rng.h"
#include "support/string_util.h"

namespace pgivm {
namespace {

/// Accumulates everything a source node outputs.
struct Sink {
  void Record(const Delta& delta) {
    for (const DeltaEntry& entry : delta) {
      bag.Apply(entry.tuple, entry.multiplicity);
      ++entries_seen;
    }
    last_delta = delta;
  }
  Bag bag;
  int entries_seen = 0;
  Delta last_delta;
};

/// Forwards graph changes into one source node, like the network does: the
/// whole delta is translated, then recorded in the sink at once.
class Adapter : public GraphListener {
 public:
  Adapter(GraphSourceNode* node, Sink* sink) : node_(node), sink_(sink) {}
  void OnGraphDelta(const GraphDelta& delta) override {
    Delta out;
    for (const GraphChange& change : delta.changes) {
      node_->Translate(change, out);
    }
    if (!out.empty()) sink_->Record(out);
  }

 private:
  GraphSourceNode* node_;
  Sink* sink_;
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
    adapter = std::make_unique<Adapter>(node.get(), &sink);
    graph.AddListener(adapter.get());
  }

  PropertyGraph graph;
  Sink sink;
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
  Sink sink;
  Delta initial;
  node.EmitInitialFromGraph(initial);
  sink.Record(initial);
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
    adapter = std::make_unique<Adapter>(node.get(), &sink);
    graph.AddListener(adapter.get());
  }

  PropertyGraph graph;
  Sink sink;
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

// ---- Maintained sources match freshly primed ones --------------------------

/// `bag` as sorted "tuple xcount" lines: readable when a comparison fails.
std::vector<std::string> BagLines(const Bag& bag) {
  std::vector<std::string> lines;
  for (const auto& [tuple, count] : bag.counts()) {
    lines.push_back(StrCat(tuple.ToString(), " x", count));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::vector<std::string> OutputLines(const ReteNode& node) {
  Delta out;
  EXPECT_TRUE(node.ReplayOutput(out));
  Bag bag;
  for (const DeltaEntry& entry : out) bag.Apply(entry.tuple, entry.multiplicity);
  return BagLines(bag);
}

using SourceFactory = std::function<std::unique_ptr<GraphSourceNode>()>;

/// A source kept up to date by translating every graph delta, and the
/// factory that builds an unprimed twin of it.
struct MaintainedSource {
  MaintainedSource(PropertyGraph* graph, SourceFactory factory)
      : make(std::move(factory)), node(make()) {
    Delta initial;
    node->EmitInitialFromGraph(initial);
    sink.Record(initial);
    adapter = std::make_unique<Adapter>(node.get(), &sink);
    graph->AddListener(adapter.get());
  }

  SourceFactory make;
  std::unique_ptr<GraphSourceNode> node;
  Sink sink;
  std::unique_ptr<Adapter> adapter;
};

std::unique_ptr<GraphSourceNode> MakeVertexSource(
    const PropertyGraph* graph, std::vector<std::string> labels,
    std::vector<PropertyExtract> extracts) {
  Schema schema({{"v", Attribute::Kind::kVertex}});
  for (const PropertyExtract& e : extracts) {
    schema.Add({e.column_name, Attribute::Kind::kValue});
  }
  return std::make_unique<VertexInputNode>(schema, graph, std::move(labels),
                                           std::move(extracts));
}

std::unique_ptr<GraphSourceNode> MakeEdgeSource(
    const PropertyGraph* graph, std::vector<std::string> types,
    bool undirected, std::vector<std::string> src_labels,
    std::vector<std::string> dst_labels,
    std::vector<PropertyExtract> extracts) {
  Schema schema({{"s", Attribute::Kind::kVertex},
                 {"e", Attribute::Kind::kEdge},
                 {"t", Attribute::Kind::kVertex}});
  for (const PropertyExtract& e : extracts) {
    schema.Add({e.column_name, Attribute::Kind::kValue});
  }
  return std::make_unique<EdgeInputNode>(
      schema, graph, std::move(types), undirected, "s", "e", "t",
      std::move(src_labels), std::move(dst_labels), std::move(extracts));
}

std::unique_ptr<GraphSourceNode> MakePathSource(
    const PropertyGraph* graph, std::vector<std::string> types,
    bool reversed, int64_t min_hops, int64_t max_hops, bool emit_path,
    std::vector<std::string> start_labels,
    std::vector<std::string> end_labels,
    std::vector<PropertyExtract> extracts) {
  Schema schema({{"s", Attribute::Kind::kVertex},
                 {"t", Attribute::Kind::kVertex}});
  if (emit_path) schema.Add({"p", Attribute::Kind::kPath});
  for (const PropertyExtract& e : extracts) {
    schema.Add({e.column_name, Attribute::Kind::kValue});
  }
  return std::make_unique<PathInputNode>(
      schema, graph, std::move(types), reversed, min_hops, max_hops,
      emit_path, std::move(start_labels), std::move(end_labels),
      std::move(extracts));
}

PropertyExtract WholeExtract(PropertyExtract::What what, const std::string& var,
                             const std::string& name) {
  return {what, var, "", StrCat("#", name, "(", var, ")")};
}

/// Random batches that add elements and then, in the same batch, set and
/// erase their properties, add and remove their labels and detach-remove
/// them. After every batch each maintained source must hold exactly what a
/// source freshly primed on the post-batch graph holds, its emissions must
/// net to that state, and it must emit nothing about an element that was
/// added and removed within the batch.
TEST(InputNodeRandomBatchTest, MaintainedSourcesMatchFreshlyPrimed) {
  using What = PropertyExtract::What;
  const std::vector<std::string> kLabels = {"A", "B", "C"};
  const std::vector<std::string> kKeys = {"x", "y", "z"};
  const std::vector<std::string> kTypes = {"T", "U"};
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(StrCat("seed ", seed));
    PropertyGraph graph;
    std::vector<std::unique_ptr<MaintainedSource>> sources;
    auto maintain = [&](SourceFactory make) {
      sources.push_back(
          std::make_unique<MaintainedSource>(&graph, std::move(make)));
    };
    maintain([&] {
      return MakeVertexSource(
          &graph, {"A"},
          {PropExtract("v", "x"), WholeExtract(What::kPropertyMap, "v", "props"),
           WholeExtract(What::kLabels, "v", "labels")});
    });
    maintain([&] {
      return MakeVertexSource(&graph, {},
                              {PropExtract("v", "y"),
                               WholeExtract(What::kLabels, "v", "labels")});
    });
    maintain([&] {
      return MakeEdgeSource(
          &graph, {"T"}, /*undirected=*/true, {"A"}, {"B"},
          {PropExtract("e", "x"), PropExtract("s", "x"),
           WholeExtract(What::kLabels, "t", "labels"),
           WholeExtract(What::kPropertyMap, "t", "props")});
    });
    maintain([&] {
      return MakeEdgeSource(&graph, {}, /*undirected=*/false, {}, {},
                            {WholeExtract(What::kType, "e", "type"),
                             WholeExtract(What::kPropertyMap, "e", "props"),
                             PropExtract("t", "y")});
    });
    maintain([&] {
      return MakePathSource(&graph, {"T"}, /*reversed=*/false, 1, 3,
                            /*emit_path=*/false, {"A"}, {"B"},
                            {PropExtract("s", "x"), PropExtract("t", "x"),
                             WholeExtract(What::kLabels, "t", "labels")});
    });
    maintain([&] {
      return MakePathSource(&graph, {"T", "U"}, /*reversed=*/true, 0, 2,
                            /*emit_path=*/true, {"C"}, {},
                            {WholeExtract(What::kPropertyMap, "t", "props"),
                             PropExtract("s", "y")});
    });

    Rng rng(seed);
    auto pick = [&rng](const auto& items) {
      return items[rng.NextBelow(items.size())];
    };
    auto random_value = [&rng]() {
      int64_t n = rng.NextInRange(0, 3);
      return n == 0 ? Value::Null() : Value::Int(n);
    };
    std::vector<VertexId> vertices;
    std::vector<EdgeId> edges;
    for (int batch = 0; batch < 40; ++batch) {
      SCOPED_TRACE(StrCat("batch ", batch));
      for (auto& source : sources) source->sink.last_delta.clear();
      // Elements added in this batch: all of them, and those still live.
      std::vector<VertexId> born_vertices, fresh_vertices;
      std::vector<EdgeId> born_edges, fresh_edges;
      // Half of the updates go to elements added in this batch.
      auto some_vertex = [&]() {
        return !fresh_vertices.empty() && rng.NextBool(0.5)
                   ? pick(fresh_vertices)
                   : pick(vertices);
      };
      graph.BeginBatch();
      for (int op = 0; op < 30; ++op) {
        // 0 add vertex, 1 add edge, 2/3 set vertex/edge property, 4/5
        // add/remove label, 6 detach-remove vertex, 7 remove edge; adds
        // weigh more so the graph grows.
        static constexpr int kKinds[] = {0, 0, 1, 1, 1, 2, 3, 4, 5, 6, 7};
        const int kind =
            vertices.empty() ? 0 : kKinds[rng.NextBelow(std::size(kKinds))];
        if (kind == 0) {
          std::vector<std::string> labels;
          for (const std::string& label : kLabels) {
            if (rng.NextBool(0.5)) labels.push_back(label);
          }
          ValueMap properties;
          for (const std::string& key : kKeys) {
            properties[key] = random_value();
          }
          VertexId v = graph.AddVertex(labels, properties);
          vertices.push_back(v);
          born_vertices.push_back(v);
          fresh_vertices.push_back(v);
        } else if (kind == 1) {
          Result<EdgeId> e = graph.AddEdge(some_vertex(), some_vertex(),
                                           pick(kTypes),
                                           {{"x", random_value()}});
          ASSERT_TRUE(e.ok());
          edges.push_back(*e);
          born_edges.push_back(*e);
          fresh_edges.push_back(*e);
        } else if (kind == 2) {
          ASSERT_TRUE(graph
                          .SetVertexProperty(some_vertex(), pick(kKeys),
                                             random_value())
                          .ok());
        } else if (kind == 3 && !edges.empty()) {
          EdgeId e = !fresh_edges.empty() && rng.NextBool(0.5)
                         ? pick(fresh_edges)
                         : pick(edges);
          ASSERT_TRUE(
              graph.SetEdgeProperty(e, pick(kKeys), random_value()).ok());
        } else if (kind == 4) {
          ASSERT_TRUE(graph.AddVertexLabel(some_vertex(), pick(kLabels)).ok());
        } else if (kind == 5) {
          ASSERT_TRUE(
              graph.RemoveVertexLabel(some_vertex(), pick(kLabels)).ok());
        } else if (kind == 6) {
          VertexId v = some_vertex();
          ASSERT_TRUE(graph.DetachRemoveVertex(v).ok());
          vertices.erase(std::find(vertices.begin(), vertices.end(), v));
          auto dead = [&graph](EdgeId e) { return !graph.HasEdge(e); };
          edges.erase(std::remove_if(edges.begin(), edges.end(), dead),
                      edges.end());
        } else if (kind == 7 && !edges.empty()) {
          EdgeId e = pick(edges);
          ASSERT_TRUE(graph.RemoveEdge(e).ok());
          edges.erase(std::find(edges.begin(), edges.end(), e));
        }
        auto dead_vertex = [&graph](VertexId v) { return !graph.HasVertex(v); };
        fresh_vertices.erase(std::remove_if(fresh_vertices.begin(),
                                            fresh_vertices.end(), dead_vertex),
                             fresh_vertices.end());
        auto dead_edge = [&graph](EdgeId e) { return !graph.HasEdge(e); };
        fresh_edges.erase(std::remove_if(fresh_edges.begin(),
                                         fresh_edges.end(), dead_edge),
                          fresh_edges.end());
      }
      graph.CommitBatch();
      std::vector<Value> transient;
      for (VertexId v : born_vertices) {
        if (!graph.HasVertex(v)) transient.push_back(Value::Vertex(v));
      }
      for (EdgeId e : born_edges) {
        if (!graph.HasEdge(e)) transient.push_back(Value::Edge(e));
      }

      for (size_t i = 0; i < sources.size(); ++i) {
        SCOPED_TRACE(StrCat("source ", i, " ", sources[i]->node->DebugString()));
        std::unique_ptr<GraphSourceNode> fresh = sources[i]->make();
        Delta primed;
        fresh->EmitInitialFromGraph(primed);
        const std::vector<std::string> expected = OutputLines(*fresh);
        EXPECT_EQ(OutputLines(*sources[i]->node), expected);
        EXPECT_EQ(BagLines(sources[i]->sink.bag), expected);
        for (const DeltaEntry& entry : sources[i]->sink.last_delta) {
          for (const Value& value : entry.tuple) {
            EXPECT_EQ(std::count(transient.begin(), transient.end(), value), 0)
                << "emitted " << entry.tuple.ToString()
                << " for an element added and removed in the batch";
          }
        }
      }
    }
  }
}

// ---- Key- and type-aware translation ----------------------------------------

/// Keeps every graph delta, so a test can hand a source one change at a
/// time.
struct DeltaLog : GraphListener {
  void OnGraphDelta(const GraphDelta& delta) override {
    deltas.push_back(delta);
  }
  std::vector<GraphDelta> deltas;
};

/// A hub whose x both sources read sits at the start of 20 T edges; one
/// batch updates its x and then a key no extract reads. Each change is
/// translated against the post-batch graph, so a source that reconciled
/// the hub on the unread key would already emit the x update there.
TEST(SourceKeyTest, UnreadKeyUpdateOfAHubEmitsNothing) {
  PropertyGraph graph;
  VertexId hub = graph.AddVertex({"A"}, {{"x", Value::Int(0)}});
  for (int i = 0; i < 20; ++i) {
    (void)graph.AddEdge(hub, graph.AddVertex({"B"}), "T").value();
  }
  std::vector<std::unique_ptr<GraphSourceNode>> sources;
  sources.push_back(MakeEdgeSource(&graph, {"T"}, /*undirected=*/false, {},
                                   {}, {PropExtract("s", "x")}));
  sources.push_back(MakePathSource(&graph, {"T"}, /*reversed=*/false, 1, -1,
                                   /*emit_path=*/false, {"A"}, {"B"},
                                   {PropExtract("s", "x")}));
  for (auto& source : sources) {
    Delta primed;
    source->EmitInitialFromGraph(primed);
    ASSERT_EQ(primed.size(), 20u) << source->DebugString();
  }
  DeltaLog log;
  graph.AddListener(&log);
  graph.BeginBatch();
  ASSERT_TRUE(graph.SetVertexProperty(hub, "x", Value::Int(1)).ok());
  ASSERT_TRUE(graph.SetVertexProperty(hub, "name", Value::String("h")).ok());
  graph.CommitBatch();
  ASSERT_EQ(log.deltas.size(), 1u);
  ASSERT_EQ(log.deltas[0].size(), 2u);
  for (auto& source : sources) {
    SCOPED_TRACE(source->DebugString());
    Delta unread;
    source->Translate(log.deltas[0].changes[1], unread);
    EXPECT_TRUE(unread.empty());
    Delta read;
    source->Translate(log.deltas[0].changes[0], read);
    EXPECT_EQ(read.size(), 40u);  // 20 retract/assert pairs
  }
}

TEST(SourceKeyTest, RemovalOfAnEdgeOfAnotherTypeEmitsNothing) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({});
  VertexId b = graph.AddVertex({});
  (void)graph.AddEdge(a, b, "T").value();
  EdgeId other = graph.AddEdge(a, b, "U").value();
  std::vector<std::unique_ptr<GraphSourceNode>> sources;
  sources.push_back(MakeEdgeSource(&graph, {"T"}, /*undirected=*/true, {},
                                   {}, {}));
  sources.push_back(MakePathSource(&graph, {"T"}, /*reversed=*/false, 1, -1,
                                   /*emit_path=*/false, {}, {}, {}));
  for (auto& source : sources) {
    Delta primed;
    source->EmitInitialFromGraph(primed);
    ASSERT_FALSE(primed.empty());
  }
  DeltaLog log;
  graph.AddListener(&log);
  ASSERT_TRUE(graph.RemoveEdge(other).ok());
  ASSERT_EQ(log.deltas.size(), 1u);
  for (auto& source : sources) {
    Delta out;
    source->Translate(log.deltas[0].changes[0], out);
    EXPECT_TRUE(out.empty()) << source->DebugString();
  }
}

// ---- The append contract ---------------------------------------------------

const DeltaEntry& Sentinel() {
  static const DeltaEntry sentinel{Tuple({Value::String("sentinel")}), 7};
  return sentinel;
}

/// `out` is the sentinel followed by exactly `expected`, in order.
void ExpectSentinelThen(const Delta& out, const Delta& expected) {
  ASSERT_EQ(out.size(), expected.size() + 1);
  EXPECT_EQ(out[0].tuple, Sentinel().tuple);
  EXPECT_EQ(out[0].multiplicity, Sentinel().multiplicity);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i + 1].tuple, expected[i].tuple) << "entry " << i;
    EXPECT_EQ(out[i + 1].multiplicity, expected[i].multiplicity)
        << "entry " << i;
  }
}

/// Twin source nodes over one graph: `node` answers into a delta that
/// already holds the sentinel, `twin` into an empty one. Every answer —
/// graph priming, each change's translation, replay — must leave the
/// sentinel first and untouched and append exactly what the twin does.
class TwinSources : public GraphListener {
 public:
  TwinSources(PropertyGraph* graph, std::unique_ptr<GraphSourceNode> node,
              std::unique_ptr<GraphSourceNode> twin)
      : graph_(graph), node_(std::move(node)), twin_(std::move(twin)) {
    Delta out{Sentinel()};
    Delta expected;
    node_->EmitInitialFromGraph(out);
    twin_->EmitInitialFromGraph(expected);
    ExpectSentinelThen(out, expected);
    appended_ += expected.size();
    graph_->AddListener(this);
  }
  ~TwinSources() override { graph_->RemoveListener(this); }

  void OnGraphDelta(const GraphDelta& delta) override {
    for (const GraphChange& change : delta.changes) {
      Delta out{Sentinel()};
      Delta expected;
      node_->Translate(change, out);
      twin_->Translate(change, expected);
      ExpectSentinelThen(out, expected);
      appended_ += expected.size();
    }
  }

  /// Checks replay, and that the twins answered with something at all.
  void Finish() {
    Delta out{Sentinel()};
    Delta expected;
    ASSERT_TRUE(node_->ReplayOutput(out));
    ASSERT_TRUE(twin_->ReplayOutput(expected));
    ExpectSentinelThen(out, expected);
    EXPECT_FALSE(expected.empty()) << "nothing left to replay";
    EXPECT_GT(appended_, 0u) << "the changes never made the source answer";
  }

 private:
  PropertyGraph* graph_;
  std::unique_ptr<GraphSourceNode> node_;
  std::unique_ptr<GraphSourceNode> twin_;
  size_t appended_ = 0;
};

TEST(SourceAppendContractTest, VertexSourceAppendsBehindExistingEntries) {
  PropertyGraph graph;
  VertexId v0 = graph.AddVertex({"A"}, {{"x", Value::Int(1)}});
  VertexId v1 = graph.AddVertex({"B"});
  Schema schema({{"v", Attribute::Kind::kVertex},
                 {"#v.x", Attribute::Kind::kValue}});
  auto make = [&] {
    return std::make_unique<VertexInputNode>(
        schema, &graph, std::vector<std::string>{"A"},
        std::vector<PropertyExtract>{PropExtract("v", "x")});
  };
  TwinSources twins(&graph, make(), make());

  VertexId v2 = graph.AddVertex({"A"}, {{"x", Value::Int(2)}});
  ASSERT_TRUE(graph.SetVertexProperty(v0, "x", Value::Int(5)).ok());
  ASSERT_TRUE(graph.AddVertexLabel(v1, "A").ok());
  graph.BeginBatch();
  ASSERT_TRUE(graph.RemoveVertexLabel(v0, "A").ok());
  ASSERT_TRUE(graph.SetVertexProperty(v1, "x", Value::Int(3)).ok());
  VertexId transient = graph.AddVertex({"A"});
  ASSERT_TRUE(graph.RemoveVertex(transient).ok());
  graph.CommitBatch();
  ASSERT_TRUE(graph.RemoveVertex(v2).ok());
  twins.Finish();
}

TEST(SourceAppendContractTest, EdgeSourceAppendsBehindExistingEntries) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({}, {{"score", Value::Int(1)}});
  VertexId b = graph.AddVertex({}, {{"score", Value::Int(2)}});
  VertexId c = graph.AddVertex({});
  (void)graph.AddEdge(a, b, "T").value();
  Schema schema({{"s", Attribute::Kind::kVertex},
                 {"e", Attribute::Kind::kEdge},
                 {"t", Attribute::Kind::kVertex},
                 {"#t.score", Attribute::Kind::kValue}});
  auto make = [&] {
    return std::make_unique<EdgeInputNode>(
        schema, &graph, std::vector<std::string>{"T"}, /*undirected=*/true,
        "s", "e", "t", std::vector<std::string>{},
        std::vector<std::string>{},
        std::vector<PropertyExtract>{PropExtract("t", "score")});
  };
  TwinSources twins(&graph, make(), make());

  EdgeId bc = graph.AddEdge(b, c, "T").value();
  (void)graph.AddEdge(a, c, "OTHER").value();
  // An endpoint property refreshes every incident orientation.
  ASSERT_TRUE(graph.SetVertexProperty(b, "score", Value::Int(7)).ok());
  graph.BeginBatch();
  ASSERT_TRUE(graph.RemoveEdge(bc).ok());
  (void)graph.AddEdge(c, c, "T").value();
  ASSERT_TRUE(graph.SetVertexProperty(c, "score", Value::Int(4)).ok());
  graph.CommitBatch();
  ASSERT_TRUE(graph.DetachRemoveVertex(a).ok());
  twins.Finish();
}

TEST(SourceAppendContractTest, PathSourceAppendsBehindExistingEntries) {
  PropertyGraph graph;
  std::vector<VertexId> v;
  for (int i = 0; i < 4; ++i) v.push_back(graph.AddVertex({}));
  (void)graph.AddEdge(v[0], v[1], "T").value();
  (void)graph.AddEdge(v[1], v[2], "T").value();
  Schema schema({{"a", Attribute::Kind::kVertex},
                 {"b", Attribute::Kind::kVertex},
                 {"p", Attribute::Kind::kPath}});
  auto make = [&] {
    return std::make_unique<PathInputNode>(
        schema, &graph, std::vector<std::string>{"T"}, /*reversed=*/false,
        /*min_hops=*/1, /*max_hops=*/-1, /*emit_path=*/true);
  };
  TwinSources twins(&graph, make(), make());

  // Each insert extends and each removal cuts paths through the edge.
  EdgeId e23 = graph.AddEdge(v[2], v[3], "T").value();
  EdgeId e30 = graph.AddEdge(v[3], v[0], "T").value();
  graph.BeginBatch();
  ASSERT_TRUE(graph.RemoveEdge(e23).ok());
  (void)graph.AddEdge(v[1], v[3], "T").value();
  graph.CommitBatch();
  ASSERT_TRUE(graph.RemoveEdge(e30).ok());
  twins.Finish();
}

}  // namespace
}  // namespace pgivm
