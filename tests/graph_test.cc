#include "graph/property_graph.h"

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace pgivm {
namespace {

/// Captures emitted deltas for inspection.
class RecordingListener : public GraphListener {
 public:
  void OnGraphDelta(const GraphDelta& delta) override {
    deltas.push_back(delta);
  }
  std::vector<GraphDelta> deltas;
};

TEST(PropertyGraphTest, AddAndReadVertex) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({"Post", "Message"},
                               {{"lang", Value::String("en")}});
  EXPECT_TRUE(graph.HasVertex(v));
  EXPECT_EQ(graph.vertex_count(), 1u);
  EXPECT_TRUE(graph.VertexHasLabel(v, "Post"));
  EXPECT_TRUE(graph.VertexHasLabel(v, "Message"));
  EXPECT_FALSE(graph.VertexHasLabel(v, "Comm"));
  EXPECT_EQ(graph.GetVertexProperty(v, "lang"), Value::String("en"));
  EXPECT_TRUE(graph.GetVertexProperty(v, "missing").is_null());
}

TEST(PropertyGraphTest, LabelsAreSortedAndDeduplicated) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({"B", "A", "B"});
  EXPECT_EQ(graph.VertexLabels(v), (std::vector<std::string>{"A", "B"}));
}

TEST(PropertyGraphTest, NullPropertiesDroppedOnAdd) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({}, {{"x", Value::Null()}});
  EXPECT_TRUE(graph.VertexProperties(v).empty());
}

TEST(PropertyGraphTest, AddEdgeRequiresEndpoints) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({});
  EXPECT_FALSE(graph.AddEdge(v, 999, "T").ok());
  EXPECT_FALSE(graph.AddEdge(999, v, "T").ok());
  Result<EdgeId> e = graph.AddEdge(v, v, "T");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(graph.EdgeSource(*e), v);
  EXPECT_EQ(graph.EdgeTarget(*e), v);
  EXPECT_EQ(graph.EdgeType(*e), "T");
}

TEST(PropertyGraphTest, AdjacencyListsTrackEdges) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({});
  VertexId b = graph.AddVertex({});
  EdgeId e = graph.AddEdge(a, b, "T").value();
  EXPECT_EQ(graph.OutEdges(a), std::vector<EdgeId>{e});
  EXPECT_EQ(graph.InEdges(b), std::vector<EdgeId>{e});
  EXPECT_TRUE(graph.OutEdges(b).empty());
  ASSERT_TRUE(graph.RemoveEdge(e).ok());
  EXPECT_TRUE(graph.OutEdges(a).empty());
  EXPECT_TRUE(graph.InEdges(b).empty());
  EXPECT_FALSE(graph.HasEdge(e));
}

TEST(PropertyGraphTest, RemoveVertexRefusesWithIncidentEdges) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({});
  VertexId b = graph.AddVertex({});
  (void)graph.AddEdge(a, b, "T").value();
  EXPECT_EQ(graph.RemoveVertex(a).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(graph.DetachRemoveVertex(a).ok());
  EXPECT_FALSE(graph.HasVertex(a));
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(PropertyGraphTest, IdsAreNeverReused) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({});
  ASSERT_TRUE(graph.RemoveVertex(a).ok());
  VertexId b = graph.AddVertex({});
  EXPECT_NE(a, b);
}

TEST(PropertyGraphTest, LabelIndexFollowsLabelChanges) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({"A"});
  EXPECT_EQ(graph.VerticesWithLabel("A").size(), 1u);
  ASSERT_TRUE(graph.AddVertexLabel(v, "B").ok());
  EXPECT_EQ(graph.VerticesWithLabel("B").size(), 1u);
  ASSERT_TRUE(graph.RemoveVertexLabel(v, "A").ok());
  EXPECT_TRUE(graph.VerticesWithLabel("A").empty());
}

TEST(PropertyGraphTest, SetPropertyEmitsOldAndNewValue) {
  PropertyGraph graph;
  RecordingListener listener;
  VertexId v = graph.AddVertex({});
  graph.AddListener(&listener);
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(1)).ok());
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(2)).ok());
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Null()).ok());  // erase

  ASSERT_EQ(listener.deltas.size(), 3u);
  const GraphChange& first = listener.deltas[0].changes[0];
  EXPECT_TRUE(first.old_value.is_null());
  EXPECT_EQ(first.new_value, Value::Int(1));
  const GraphChange& second = listener.deltas[1].changes[0];
  EXPECT_EQ(second.old_value, Value::Int(1));
  EXPECT_EQ(second.new_value, Value::Int(2));
  const GraphChange& third = listener.deltas[2].changes[0];
  EXPECT_EQ(third.old_value, Value::Int(2));
  EXPECT_TRUE(third.new_value.is_null());
  EXPECT_TRUE(graph.GetVertexProperty(v, "x").is_null());
}

TEST(PropertyGraphTest, ChangesWithoutListenersAreNotRecorded) {
  PropertyGraph graph;
  graph.BeginBatch();
  VertexId a = graph.AddVertex({"A"}, {{"x", Value::Int(1)}});
  VertexId b = graph.AddVertex({});
  ASSERT_TRUE(graph.AddEdge(a, b, "R").ok());
  // A listener registered mid-batch hears only what follows it.
  RecordingListener listener;
  graph.AddListener(&listener);
  ASSERT_TRUE(graph.SetVertexProperty(b, "y", Value::Int(2)).ok());
  graph.CommitBatch();
  ASSERT_EQ(listener.deltas.size(), 1u);
  ASSERT_EQ(listener.deltas[0].size(), 1u);
  EXPECT_EQ(listener.deltas[0].changes[0].kind,
            GraphChange::Kind::kSetVertexProperty);
  EXPECT_EQ(listener.deltas[0].changes[0].vertex, b);

  // Unsubscribed again: nothing is kept for a later listener either.
  graph.RemoveListener(&listener);
  graph.BeginBatch();
  (void)graph.AddVertex({});
  graph.AddListener(&listener);
  graph.CommitBatch();
  EXPECT_EQ(listener.deltas.size(), 1u);
  EXPECT_EQ(graph.vertex_count(), 3u);
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(PropertyGraphTest, ChangeRecordsCarrySymbols) {
  PropertyGraph graph;
  RecordingListener listener;
  graph.AddListener(&listener);
  VertexId a = graph.AddVertex({"Person"}, {{"name", Value::String("a")}});
  VertexId b = graph.AddVertex({});
  EdgeId e = graph.AddEdge(a, b, "KNOWS", {{"since", Value::Int(1)}}).value();
  ASSERT_TRUE(graph.SetVertexProperty(a, "age", Value::Int(3)).ok());
  ASSERT_TRUE(graph.SetEdgeProperty(e, "since", Value::Int(2)).ok());
  ASSERT_TRUE(graph.AddVertexLabel(b, "City").ok());
  ASSERT_TRUE(graph.RemoveVertexLabel(a, "Person").ok());
  ASSERT_TRUE(graph.RemoveEdge(e).ok());
  ASSERT_TRUE(graph.RemoveVertex(b).ok());

  auto symbol = [&graph](const char* name) {
    return graph.symbols().Lookup(name).value();
  };
  ASSERT_EQ(listener.deltas.size(), 9u);
  std::vector<GraphChange> changes;
  for (const GraphDelta& delta : listener.deltas) {
    ASSERT_EQ(delta.size(), 1u);
    changes.push_back(delta.changes[0]);
  }
  using Kind = GraphChange::Kind;

  EXPECT_EQ(changes[0].kind, Kind::kAddVertex);
  EXPECT_EQ(changes[0].vertex, a);
  EXPECT_EQ(changes[0].symbol, kNoSymbol);

  EXPECT_EQ(changes[2].kind, Kind::kAddEdge);
  EXPECT_EQ(changes[2].edge, e);
  EXPECT_EQ(changes[2].src, a);
  EXPECT_EQ(changes[2].dst, b);
  EXPECT_EQ(changes[2].symbol, symbol("KNOWS"));

  EXPECT_EQ(changes[3].kind, Kind::kSetVertexProperty);
  EXPECT_EQ(changes[3].vertex, a);
  EXPECT_EQ(changes[3].symbol, symbol("age"));
  EXPECT_TRUE(changes[3].old_value.is_null());
  EXPECT_EQ(changes[3].new_value, Value::Int(3));

  EXPECT_EQ(changes[4].kind, Kind::kSetEdgeProperty);
  EXPECT_EQ(changes[4].edge, e);
  EXPECT_EQ(changes[4].src, a);
  EXPECT_EQ(changes[4].dst, b);
  EXPECT_EQ(changes[4].symbol, symbol("since"));
  EXPECT_EQ(changes[4].old_value, Value::Int(1));
  EXPECT_EQ(changes[4].new_value, Value::Int(2));

  EXPECT_EQ(changes[5].kind, Kind::kAddVertexLabel);
  EXPECT_EQ(changes[5].vertex, b);
  EXPECT_EQ(changes[5].symbol, symbol("City"));

  EXPECT_EQ(changes[6].kind, Kind::kRemoveVertexLabel);
  EXPECT_EQ(changes[6].vertex, a);
  EXPECT_EQ(changes[6].symbol, symbol("Person"));

  EXPECT_EQ(changes[7].kind, Kind::kRemoveEdge);
  EXPECT_EQ(changes[7].edge, e);
  EXPECT_EQ(changes[7].src, a);
  EXPECT_EQ(changes[7].dst, b);
  EXPECT_EQ(changes[7].symbol, symbol("KNOWS"));

  EXPECT_EQ(changes[8].kind, Kind::kRemoveVertex);
  EXPECT_EQ(changes[8].vertex, b);
  EXPECT_EQ(changes[8].symbol, kNoSymbol);
}

TEST(PropertyGraphTest, NoOpWritesEmitNothing) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({}, {{"x", Value::Int(1)}});
  RecordingListener listener;
  graph.AddListener(&listener);
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(1)).ok());
  ASSERT_TRUE(graph.AddVertexLabel(v, "L").ok());
  ASSERT_TRUE(graph.AddVertexLabel(v, "L").ok());  // duplicate: no-op
  ASSERT_TRUE(graph.RemoveVertexLabel(v, "Missing").ok());
  EXPECT_EQ(listener.deltas.size(), 1u);  // only the first label add
}

TEST(PropertyGraphTest, BatchEmitsOneDelta) {
  PropertyGraph graph;
  RecordingListener listener;
  graph.AddListener(&listener);
  graph.BeginBatch();
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({"B"});
  (void)graph.AddEdge(a, b, "T").value();
  graph.CommitBatch();
  ASSERT_EQ(listener.deltas.size(), 1u);
  EXPECT_EQ(listener.deltas[0].size(), 3u);
}

TEST(PropertyGraphTest, DetachRemoveEmitsEdgeRemovalsFirst) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({});
  VertexId b = graph.AddVertex({});
  (void)graph.AddEdge(a, b, "T").value();
  (void)graph.AddEdge(b, a, "T").value();
  RecordingListener listener;
  graph.AddListener(&listener);
  graph.BeginBatch();
  ASSERT_TRUE(graph.DetachRemoveVertex(a).ok());
  graph.CommitBatch();
  const GraphDelta& delta = listener.deltas[0];
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta.changes[0].kind, GraphChange::Kind::kRemoveEdge);
  EXPECT_EQ(delta.changes[1].kind, GraphChange::Kind::kRemoveEdge);
  EXPECT_EQ(delta.changes[2].kind, GraphChange::Kind::kRemoveVertex);
}

TEST(PropertyGraphTest, ListAppendAndRemove) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({});
  ASSERT_TRUE(graph.ListAppend(v, "tags", Value::Int(1)).ok());
  ASSERT_TRUE(graph.ListAppend(v, "tags", Value::Int(2)).ok());
  ASSERT_TRUE(graph.ListAppend(v, "tags", Value::Int(1)).ok());
  Value tags = graph.GetVertexProperty(v, "tags");
  ASSERT_TRUE(tags.is_list());
  EXPECT_EQ(tags.AsList().size(), 3u);

  ASSERT_TRUE(graph.ListRemoveFirst(v, "tags", Value::Int(1)).ok());
  tags = graph.GetVertexProperty(v, "tags");
  EXPECT_EQ(tags.AsList().size(), 2u);
  EXPECT_EQ(tags.AsList()[0], Value::Int(2));  // First occurrence removed.

  EXPECT_EQ(graph.ListRemoveFirst(v, "tags", Value::Int(9)).code(),
            StatusCode::kNotFound);
}

TEST(PropertyGraphTest, ListAppendRejectsNonListProperty) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({}, {{"x", Value::Int(1)}});
  EXPECT_EQ(graph.ListAppend(v, "x", Value::Int(2)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PropertyGraphTest, MapPutAndErase) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({});
  ASSERT_TRUE(graph.MapPut(v, "attrs", "color", Value::String("red")).ok());
  ASSERT_TRUE(graph.MapPut(v, "attrs", "size", Value::Int(3)).ok());
  Value attrs = graph.GetVertexProperty(v, "attrs");
  ASSERT_TRUE(attrs.is_map());
  EXPECT_EQ(attrs.AsMap().size(), 2u);
  ASSERT_TRUE(graph.MapErase(v, "attrs", "color").ok());
  EXPECT_EQ(graph.GetVertexProperty(v, "attrs").AsMap().size(), 1u);
  ASSERT_TRUE(graph.MapErase(v, "attrs", "missing").ok());  // no-op
}

TEST(PropertyGraphTest, EdgePropertiesWork) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({});
  VertexId b = graph.AddVertex({});
  EdgeId e = graph.AddEdge(a, b, "T", {{"w", Value::Int(5)}}).value();
  EXPECT_EQ(graph.GetEdgeProperty(e, "w"), Value::Int(5));
  ASSERT_TRUE(graph.SetEdgeProperty(e, "w", Value::Int(6)).ok());
  EXPECT_EQ(graph.GetEdgeProperty(e, "w"), Value::Int(6));
}

TEST(PropertyGraphTest, TypeIndex) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({});
  VertexId b = graph.AddVertex({});
  (void)graph.AddEdge(a, b, "X").value();
  EdgeId e2 = graph.AddEdge(a, b, "Y").value();
  EXPECT_EQ(graph.EdgesWithType("X").size(), 1u);
  EXPECT_EQ(graph.EdgesWithType("Y").size(), 1u);
  ASSERT_TRUE(graph.RemoveEdge(e2).ok());
  EXPECT_TRUE(graph.EdgesWithType("Y").empty());
}

TEST(PropertyGraphTest, RemovedListenerStopsReceiving) {
  PropertyGraph graph;
  RecordingListener listener;
  graph.AddListener(&listener);
  graph.AddVertex({});
  graph.RemoveListener(&listener);
  graph.AddVertex({});
  EXPECT_EQ(listener.deltas.size(), 1u);
}

TEST(PropertyGraphTest, ApproxMemoryGrowsWithContent) {
  PropertyGraph graph;
  size_t empty = graph.ApproxMemoryBytes();
  for (int i = 0; i < 100; ++i) {
    graph.AddVertex({"Label"}, {{"k", Value::String("some value here")}});
  }
  EXPECT_GT(graph.ApproxMemoryBytes(), empty);
}

// A removed vertex releases its label and edge-list buffers: a dead slot on
// a still-live page holds no heap.
TEST(PropertyGraphTest, RemovedVertexReleasesItsBuffers) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A", "B", "C"});
  VertexId b = graph.AddVertex({"A"});
  graph.AddVertex({"Keep"});  // keeps the page alive
  std::vector<EdgeId> edges;
  for (int i = 0; i < 64; ++i) {
    edges.push_back(graph.AddEdge(a, b, "T").value());
  }
  for (EdgeId e : edges) ASSERT_TRUE(graph.RemoveEdge(e).ok());
  const size_t with_buffers = graph.ApproxMemoryBytes();
  ASSERT_TRUE(graph.RemoveVertex(a).ok());
  ASSERT_TRUE(graph.RemoveVertex(b).ok());
  // The out/in lists of 64 edges each, plus four label ids.
  EXPECT_GE(with_buffers - graph.ApproxMemoryBytes(),
            2 * 64 * sizeof(EdgeId) + 4 * sizeof(SymbolId));
}

/// A graph whose first page of vertex and edge ids is fully assigned and
/// dead: vertex i < kPageSlots had one edge to `hub` and was detach-removed.
struct FreedPageFixture {
  FreedPageFixture() {
    const int64_t page = static_cast<int64_t>(PropertyGraph::kPageSlots);
    std::vector<VertexId> doomed;
    for (int64_t i = 0; i < page; ++i) {
      doomed.push_back(graph.AddVertex({"Doomed"}, {{"i", Value::Int(i)}}));
    }
    hub = graph.AddVertex({"Hub"}, {{"name", Value::String("hub")}});
    for (VertexId v : doomed) {
      (void)graph.AddEdge(v, hub, "TO", {{"w", Value::Int(v)}}).value();
    }
    hub_loop = graph.AddEdge(hub, hub, "LOOP").value();
    before_free = graph.ApproxMemoryBytes();
    for (VertexId v : doomed) EXPECT_TRUE(graph.DetachRemoveVertex(v).ok());
  }
  PropertyGraph graph;
  VertexId hub = kInvalidId;
  EdgeId hub_loop = kInvalidId;
  size_t before_free = 0;
};

TEST(PropertyGraphPaging, FreedPageIdsAreAbsent) {
  FreedPageFixture f;
  const int64_t page = static_cast<int64_t>(PropertyGraph::kPageSlots);
  for (int64_t id = 0; id < page; ++id) {
    ASSERT_FALSE(f.graph.HasVertex(id)) << id;
    ASSERT_FALSE(f.graph.HasEdge(id)) << id;
  }
  EXPECT_TRUE(f.graph.HasVertex(f.hub));
  EXPECT_TRUE(f.graph.HasEdge(f.hub_loop));
  EXPECT_FALSE(f.graph.HasVertex(-1));
  EXPECT_FALSE(f.graph.HasVertex(f.hub + 1));
  EXPECT_EQ(f.graph.vertex_count(), 1u);
  EXPECT_EQ(f.graph.edge_count(), 1u);
  EXPECT_TRUE(f.graph.VerticesWithLabel("Doomed").empty());
  EXPECT_EQ(f.graph.InEdges(f.hub), std::vector<EdgeId>{f.hub_loop});
  EXPECT_EQ(f.graph.GetVertexProperty(f.hub, "name"), Value::String("hub"));
  // Both pages' slots are gone, not just marked dead.
  EXPECT_LT(f.graph.ApproxMemoryBytes(), f.before_free);
}

TEST(PropertyGraphPaging, ScansSkipFreedPages) {
  FreedPageFixture f;
  std::vector<VertexId> vertices;
  f.graph.ForEachVertex([&](VertexId v) { vertices.push_back(v); });
  std::vector<EdgeId> edges;
  f.graph.ForEachEdge([&](EdgeId e) { edges.push_back(e); });
  EXPECT_EQ(vertices, std::vector<VertexId>{f.hub});
  EXPECT_EQ(edges, std::vector<EdgeId>{f.hub_loop});
}

TEST(PropertyGraphPaging, IdsStayFreshAfterAPageIsFreed) {
  FreedPageFixture f;
  const VertexId v = f.graph.AddVertex({"New"});
  EXPECT_EQ(v, f.hub + 1);
  const EdgeId e = f.graph.AddEdge(v, f.hub, "TO").value();
  EXPECT_EQ(e, f.hub_loop + 1);
  EXPECT_TRUE(f.graph.HasVertex(v));
  EXPECT_TRUE(f.graph.HasEdge(e));
  EXPECT_EQ(f.graph.EdgeSource(e), v);
  EXPECT_EQ(f.graph.vertex_count(), 2u);
}

// Every read API accepts ids that are not live — removed on a live page,
// removed with their whole page freed, never assigned, negative — and reads
// them as an empty element in every build type.
TEST(PropertyGraphPaging, ReadsOfIdsThatAreNotLiveSeeAnEmptyElement) {
  FreedPageFixture f;
  PropertyGraph& graph = f.graph;
  const VertexId removed_vertex =
      graph.AddVertex({"Doomed"}, {{"i", Value::Int(1)}});
  ASSERT_TRUE(graph.RemoveVertex(removed_vertex).ok());
  const EdgeId removed_edge =
      graph.AddEdge(f.hub, f.hub, "TO", {{"w", Value::Int(1)}}).value();
  ASSERT_TRUE(graph.RemoveEdge(removed_edge).ok());
  const SymbolId doomed = *graph.symbols().Lookup("Doomed");
  const SymbolId i_key = *graph.symbols().Lookup("i");
  const SymbolId w_key = *graph.symbols().Lookup("w");
  const int64_t page = static_cast<int64_t>(PropertyGraph::kPageSlots);

  // 0 and page - 1: the freed first page. The last two: never assigned.
  for (VertexId v : {VertexId{0}, VertexId{page - 1}, removed_vertex,
                     VertexId{-1}, removed_vertex + 1, VertexId{1} << 40}) {
    SCOPED_TRACE(v);
    EXPECT_FALSE(graph.HasVertex(v));
    EXPECT_TRUE(graph.VertexLabels(v).empty());
    EXPECT_TRUE(graph.VertexLabelIds(v).empty());
    EXPECT_FALSE(graph.VertexHasLabel(v, "Doomed"));
    EXPECT_FALSE(graph.VertexHasLabel(v, doomed));
    EXPECT_TRUE(graph.GetVertexProperty(v, "i").is_null());
    EXPECT_TRUE(graph.GetVertexProperty(v, i_key).is_null());
    EXPECT_TRUE(graph.VertexProperties(v).empty());
    EXPECT_TRUE(graph.OutEdges(v).empty());
    EXPECT_TRUE(graph.InEdges(v).empty());
  }
  for (EdgeId e : {EdgeId{0}, EdgeId{page - 1}, removed_edge, EdgeId{-1},
                   removed_edge + 1, EdgeId{1} << 40}) {
    SCOPED_TRACE(e);
    EXPECT_FALSE(graph.HasEdge(e));
    EXPECT_TRUE(graph.GetEdgeProperty(e, "w").is_null());
    EXPECT_TRUE(graph.GetEdgeProperty(e, w_key).is_null());
    EXPECT_TRUE(graph.EdgeProperties(e).empty());
    EXPECT_EQ(graph.EdgeSource(e), kInvalidId);
    EXPECT_EQ(graph.EdgeTarget(e), kInvalidId);
    EXPECT_EQ(graph.EdgeTypeId(e), kNoSymbol);
    EXPECT_EQ(graph.EdgeType(e), "");
  }
  // Live elements read as before.
  EXPECT_EQ(graph.VertexLabels(f.hub), std::vector<std::string>{"Hub"});
  EXPECT_EQ(graph.EdgeType(f.hub_loop), "LOOP");
}

// A size-neutral stream — each step detach-removes the oldest vertex and
// adds one wired to a random live vertex — keeps the store's footprint
// within a fixed bound once warm: dead pages are freed, not accumulated.
TEST(PropertyGraphPaging, SizeNeutralChurnStaysBounded) {
  PropertyGraph graph;
  std::deque<VertexId> live;
  uint64_t state = 12345;
  auto next_below = [&state](size_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<size_t>((state >> 33) % bound);
  };
  auto add = [&] {
    const VertexId v = graph.AddVertex({"Node"}, {{"s", Value::String("x")}});
    if (!live.empty()) {
      (void)graph.AddEdge(v, live[next_below(live.size())], "LINK").value();
    }
    live.push_back(v);
  };
  for (int i = 0; i < 2000; ++i) add();
  size_t warm = 0;
  size_t peak = 0;
  for (int op = 0; op < 100000; op += 2) {
    ASSERT_TRUE(graph.DetachRemoveVertex(live.front()).ok());
    live.pop_front();
    add();
    if (op % 128 != 0) continue;
    if (op == 20096) warm = graph.ApproxMemoryBytes();
    if (op > 20096) peak = std::max(peak, graph.ApproxMemoryBytes());
  }
  EXPECT_EQ(graph.vertex_count(), 2000u);
  // Two pages of each kind, at most, beyond the warm footprint; without
  // freeing, the 40,000 ids assigned since would hold several MB.
  const size_t pages = 2 * PropertyGraph::kPageSlots * 128;
  EXPECT_LE(peak, warm + pages) << "warm " << warm;
}

}  // namespace
}  // namespace pgivm
