#include "rete/path_node.h"

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "scoped_threads_env.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

/// Accumulates everything the path node outputs.
struct Sink {
  void Record(const Delta& delta) {
    for (const DeltaEntry& entry : delta) {
      bag.Apply(entry.tuple, entry.multiplicity);
    }
  }
  Bag bag;
};

Schema PathSchema(bool with_path) {
  Schema schema({{"a", Attribute::Kind::kVertex},
                 {"b", Attribute::Kind::kVertex}});
  if (with_path) schema.Add({"p", Attribute::Kind::kPath});
  return schema;
}

Tuple Pair(VertexId a, VertexId b) {
  return Tuple({Value::Vertex(a), Value::Vertex(b)});
}

struct Fixture {
  Fixture(int64_t min_hops, int64_t max_hops, bool emit_path = false,
          bool reversed = false)
      : node(PathSchema(emit_path), &graph, {"T"}, reversed, min_hops,
             max_hops, emit_path) {
    graph.AddListener(&adapter);
  }

  /// Routes graph changes into the node like a network would: the whole
  /// delta is translated, then recorded in the sink at once.
  struct Adapter : GraphListener {
    Adapter(PathInputNode* n, Sink* s) : node(n), sink(s) {}
    void OnGraphDelta(const GraphDelta& delta) override {
      Delta out;
      for (const GraphChange& change : delta.changes) {
        node->Translate(change, out);
      }
      if (!out.empty()) sink->Record(out);
    }
    PathInputNode* node;
    Sink* sink;
  };

  PropertyGraph graph;
  Sink sink;
  PathInputNode node;
  Adapter adapter{&node, &sink};
};

TEST(PathNodeTest, ChainPathsMaterialized) {
  Fixture f(1, -1);
  VertexId v1 = f.graph.AddVertex({});
  VertexId v2 = f.graph.AddVertex({});
  VertexId v3 = f.graph.AddVertex({});
  (void)f.graph.AddEdge(v1, v2, "T").value();
  EXPECT_EQ(f.sink.bag.Count(Pair(v1, v2)), 1);

  (void)f.graph.AddEdge(v2, v3, "T").value();
  // New trails through the new edge: v2->v3 and v1->v2->v3.
  EXPECT_EQ(f.sink.bag.Count(Pair(v2, v3)), 1);
  EXPECT_EQ(f.sink.bag.Count(Pair(v1, v3)), 1);
  EXPECT_EQ(f.sink.bag.total_count(), 3);
  EXPECT_EQ(f.node.path_count(), 3u);
}

TEST(PathNodeTest, EdgeRemovalRetractsContainingPaths) {
  Fixture f(1, -1);
  VertexId v1 = f.graph.AddVertex({});
  VertexId v2 = f.graph.AddVertex({});
  VertexId v3 = f.graph.AddVertex({});
  EdgeId e1 = f.graph.AddEdge(v1, v2, "T").value();
  (void)f.graph.AddEdge(v2, v3, "T").value();
  EXPECT_EQ(f.sink.bag.total_count(), 3);

  ASSERT_TRUE(f.graph.RemoveEdge(e1).ok());
  // v1->v2 and v1->v3 gone; v2->v3 stays.
  EXPECT_EQ(f.sink.bag.total_count(), 1);
  EXPECT_EQ(f.sink.bag.Count(Pair(v2, v3)), 1);
}

TEST(PathNodeTest, TypeFilteringIgnoresOtherEdges) {
  Fixture f(1, -1);
  VertexId v1 = f.graph.AddVertex({});
  VertexId v2 = f.graph.AddVertex({});
  (void)f.graph.AddEdge(v1, v2, "OTHER").value();
  EXPECT_EQ(f.sink.bag.total_count(), 0);
}

TEST(PathNodeTest, HopBoundsRespected) {
  Fixture f(2, 3);
  std::vector<VertexId> v;
  for (int i = 0; i < 5; ++i) v.push_back(f.graph.AddVertex({}));
  for (int i = 0; i + 1 < 5; ++i) {
    (void)f.graph.AddEdge(v[i], v[i + 1], "T").value();
  }
  // Chain of 4 edges: length-2 paths: 3; length-3 paths: 2. No 1s or 4s.
  EXPECT_EQ(f.sink.bag.total_count(), 5);
  EXPECT_EQ(f.sink.bag.Count(Pair(v[0], v[1])), 0);
  EXPECT_EQ(f.sink.bag.Count(Pair(v[0], v[2])), 1);
  EXPECT_EQ(f.sink.bag.Count(Pair(v[0], v[3])), 1);
  EXPECT_EQ(f.sink.bag.Count(Pair(v[0], v[4])), 0);
}

TEST(PathNodeTest, ZeroLengthPathsTrackVertices) {
  Fixture f(0, 1);
  VertexId v1 = f.graph.AddVertex({});
  EXPECT_EQ(f.sink.bag.Count(Pair(v1, v1)), 1);
  ASSERT_TRUE(f.graph.RemoveVertex(v1).ok());
  EXPECT_EQ(f.sink.bag.total_count(), 0);
}

TEST(PathNodeTest, CycleTerminatesViaTrailSemantics) {
  Fixture f(1, -1);
  VertexId v1 = f.graph.AddVertex({});
  VertexId v2 = f.graph.AddVertex({});
  (void)f.graph.AddEdge(v1, v2, "T").value();
  (void)f.graph.AddEdge(v2, v1, "T").value();
  // Trails (no repeated edge): v1->v2, v2->v1, v1->v2->v1, v2->v1->v2.
  EXPECT_EQ(f.sink.bag.total_count(), 4);
  EXPECT_EQ(f.sink.bag.Count(Pair(v1, v1)), 1);
  EXPECT_EQ(f.sink.bag.Count(Pair(v2, v2)), 1);
}

TEST(PathNodeTest, DiamondCountsDistinctPaths) {
  Fixture f(1, -1);
  VertexId s = f.graph.AddVertex({});
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  VertexId t = f.graph.AddVertex({});
  (void)f.graph.AddEdge(s, a, "T").value();
  (void)f.graph.AddEdge(s, b, "T").value();
  (void)f.graph.AddEdge(a, t, "T").value();
  (void)f.graph.AddEdge(b, t, "T").value();
  // Two distinct s->t paths (bag semantics: multiplicity 2).
  EXPECT_EQ(f.sink.bag.Count(Pair(s, t)), 2);
}

TEST(PathNodeTest, PathValuesEmittedInPatternOrder) {
  Fixture f(1, -1, /*emit_path=*/true);
  VertexId v1 = f.graph.AddVertex({});
  VertexId v2 = f.graph.AddVertex({});
  EdgeId e = f.graph.AddEdge(v1, v2, "T").value();

  bool found = false;
  for (const auto& [tuple, count] : f.sink.bag.counts()) {
    if (count <= 0) continue;
    ASSERT_EQ(tuple.size(), 3u);
    const Path& path = tuple.at(2).AsPath();
    EXPECT_EQ(path.vertices(), (std::vector<VertexId>{v1, v2}));
    EXPECT_EQ(path.edges(), std::vector<EdgeId>{e});
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PathNodeTest, ReversedFollowsIncomingEdges) {
  // Pattern (a)<-[:T*]-(b): edges run b->a in the graph, while the emitted
  // pair is (a, b) in pattern order.
  Fixture f(1, -1, /*emit_path=*/false, /*reversed=*/true);
  VertexId a = f.graph.AddVertex({});
  VertexId b = f.graph.AddVertex({});
  (void)f.graph.AddEdge(b, a, "T").value();
  EXPECT_EQ(f.sink.bag.Count(Pair(a, b)), 1);
}

TEST(PathNodeTest, InitialStateFromExistingGraph) {
  PropertyGraph graph;
  VertexId v1 = graph.AddVertex({});
  VertexId v2 = graph.AddVertex({});
  VertexId v3 = graph.AddVertex({});
  (void)graph.AddEdge(v1, v2, "T").value();
  (void)graph.AddEdge(v2, v3, "T").value();

  PathInputNode node(PathSchema(false), &graph, {"T"}, false, 1, -1, false);
  Sink sink;
  Delta initial;
  node.EmitInitialFromGraph(initial);
  sink.Record(initial);
  EXPECT_EQ(sink.bag.total_count(), 3);
  EXPECT_EQ(sink.bag.Count(Pair(v1, v3)), 1);
}

TEST(PathNodeTest, InsertInMiddleCreatesCrossPaths) {
  Fixture f(1, -1);
  VertexId v1 = f.graph.AddVertex({});
  VertexId v2 = f.graph.AddVertex({});
  VertexId v3 = f.graph.AddVertex({});
  VertexId v4 = f.graph.AddVertex({});
  (void)f.graph.AddEdge(v1, v2, "T").value();
  (void)f.graph.AddEdge(v3, v4, "T").value();
  EXPECT_EQ(f.sink.bag.total_count(), 2);

  // Bridge the two chains: all prefix x suffix combinations appear.
  (void)f.graph.AddEdge(v2, v3, "T").value();
  // New: v2->v3, v1->v3, v2->v4, v1->v4.
  EXPECT_EQ(f.sink.bag.total_count(), 6);
  EXPECT_EQ(f.sink.bag.Count(Pair(v1, v4)), 1);
}

// ---- parallel waves --------------------------------------------------------

TEST(PathNodeParallelTest, ParallelWavesBitIdenticalOnPathHeavyWorkload) {
  // Parallel waves with the work-size gate open dispatch every multi-node
  // wave to the pool. On a reply-tree-heavy social workload the path views
  // must stay bit-identical to a serial reference.
  ScopedThreadsEnv pin_threads(nullptr);

  PropertyGraph graph;
  SocialNetworkConfig config = SocialNetworkConfig::AtScale(0.02, 5);
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  const char* kPathQueries[] = {
      "MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN p, c",
      "MATCH (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang "
      "RETURN p, c",
      "MATCH t = (p:Post)-[:REPLY*1..3]->(c:Comm) RETURN t",
  };

  // Engine under test: parallel waves, every multi-node wave dispatched.
  EngineOptions options;
  options.network.executor = ExecutorKind::kParallel;
  options.network.num_threads = 4;
  options.network.parallel_min_wave_entries = 0;
  auto forced = std::make_unique<QueryEngine>(&graph, options);
  // Reference: plain serial engine.
  QueryEngine reference(&graph, EngineOptions{});

  std::vector<std::shared_ptr<View>> forced_views;
  std::vector<std::shared_ptr<View>> reference_views;
  for (const char* query : kPathQueries) {
    Result<std::shared_ptr<View>> forced_view = forced->Register(query);
    ASSERT_TRUE(forced_view.ok()) << forced_view.status();
    forced_views.push_back(*forced_view);
    Result<std::shared_ptr<View>> reference_view = reference.Register(query);
    ASSERT_TRUE(reference_view.ok()) << reference_view.status();
    reference_views.push_back(*reference_view);
  }

  Rng op_seeds(123);
  for (int step = 0; step < 60; ++step) {
    generator.ApplyUpdate(&graph, op_seeds.Next());
    for (size_t q = 0; q < forced_views.size(); ++q) {
      std::vector<Tuple> actual = forced_views[q]->Snapshot();
      std::vector<Tuple> expected = reference_views[q]->Snapshot();
      ASSERT_EQ(actual.size(), expected.size())
          << kPathQueries[q] << " diverged at step " << step;
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(Tuple::Compare(actual[i], expected[i]), 0)
            << kPathQueries[q] << " step " << step << " row " << i;
      }
    }
  }
  // The engine under test really ran parallel waves.
  EXPECT_EQ(forced->options().network.executor, ExecutorKind::kParallel);
  EXPECT_GT(forced->MetricsSnapshot().parallel_waves_dispatched, 0);
}

}  // namespace
}  // namespace pgivm
