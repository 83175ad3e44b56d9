// Tests of the view catalog and its shared Rete sub-networks: fingerprint-
// based node reuse (alias-insensitive), refcounted detach, per-view memory
// attribution, listener silence while a sibling primes, and the
// shared-vs-private differential acceptance criterion.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/node_registry.h"
#include "engine/query_engine.h"
#include "workload/railway.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

/// Ten standing social-network views with heavily overlapping prefixes —
/// the paper's §1 monitoring deployment (many views, one graph). As in
/// real standing-query catalogs, several dashboards register the same
/// query under different aliases, or variants differing only in the final
/// filter/aggregation; structural sharing collapses all of that.
std::vector<std::string> OverlappingSocialViews() {
  return {
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m",
      "MATCH (fan:Person)-[:LIKES]->(msg:Post) RETURN fan, msg",
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN m AS msg, count(*) AS l",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = b.country "
      "RETURN a, b",
      "MATCH (p:Person)-[:KNOWS]->(q:Person) WHERE p.country = q.country "
      "RETURN p, q",
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang "
      "RETURN p, c",
      "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang "
      "RETURN x, y",
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang <> c.lang "
      "RETURN p, c",
      "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
      "MATCH (q:Post) RETURN q.lang AS l, count(*) AS n",
  };
}

TEST(NodeRegistry, CanonicalKeysAreAliasInsensitive) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto plan_a =
      engine.Compile("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c");
  auto plan_b =
      engine.Compile("MATCH (x:Post)-[:REPLY]->(y:Comm) RETURN x, y");
  auto plan_c =
      engine.Compile("MATCH (p:Post)-[:LIKES]->(c:Comm) RETURN p, c");
  ASSERT_TRUE(plan_a.ok() && plan_b.ok() && plan_c.ok());

  std::string key_a = CanonicalPlanKey(**plan_a);
  std::string key_b = CanonicalPlanKey(**plan_b);
  std::string key_c = CanonicalPlanKey(**plan_c);
  ASSERT_FALSE(key_a.empty());
  EXPECT_EQ(key_a, key_b);  // aliases do not matter
  EXPECT_NE(key_a, key_c);  // edge types do
}

TEST(NodeRegistry, EndpointLabelsAreKeyed) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto labelled = engine.Compile("MATCH (a:A)-[:R]->(b) RETURN a, b");
  auto plain = engine.Compile("MATCH (a)-[:R]->(b) RETURN a, b");
  ASSERT_TRUE(labelled.ok() && plain.ok());
  EXPECT_NE(CanonicalPlanKey(**labelled), CanonicalPlanKey(**plain));
}

TEST(CatalogSharing, MirroredUndirectedLabelledEdgeSharesOneEdgeInput) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 10;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto first = engine.Register("MATCH (a:Person)-[e]-(b) RETURN a, e, b");
  auto second = engine.Register("MATCH (b)-[e]-(a:Person) RETURN a, e, b");
  ASSERT_TRUE(first.ok() && second.ok());
  std::string dump = engine.catalog().network().DebugString();
  size_t edge_inputs = 0;
  for (size_t at = dump.find("Edges["); at != std::string::npos;
       at = dump.find("Edges[", at + 1)) {
    ++edge_inputs;
  }
  EXPECT_EQ(edge_inputs, 1u) << dump;
  EXPECT_GT(engine.catalog().Stats().shared_nodes, 0u);
  EXPECT_EQ((*first)->Snapshot().size(), (*second)->Snapshot().size());
}

TEST(CatalogSharing, RenamedDuplicateViewAddsOnlyAProduction) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 20;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto first = engine.Register(
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c");
  ASSERT_TRUE(first.ok()) << first.status();
  size_t nodes_before = engine.catalog().Stats().total_nodes;

  auto second = engine.Register(
      "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang RETURN x, y");
  ASSERT_TRUE(second.ok()) << second.status();

  CatalogStats stats = engine.catalog().Stats();
  // The whole plan was reused; only the second view's private production
  // was added.
  EXPECT_EQ(stats.total_nodes, nodes_before + 1);
  EXPECT_GT(stats.registry_hits, 0);
  EXPECT_GT(stats.shared_nodes, 0u);

  // Both views maintain identical (correct) results.
  generator.ApplyRandomUpdate(&graph);
  EXPECT_EQ((*first)->Snapshot().size(), (*second)->Snapshot().size());
}

TEST(CatalogSharing, WithinViewDuplicateSubPlanIsInstantiatedOnce) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 25;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  // Both KNOWS hops and all three Person scans are structurally identical
  // sub-plans: the shared network instantiates each once and the join
  // becomes a self-join through one shared node.
  const char* query =
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN a, b, c";
  auto view = engine.Register(query);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_GT(engine.catalog().Stats().registry_hits, 0);

  for (int step = 0; step < 25; ++step) {
    generator.ApplyRandomUpdate(&graph);
    auto expected = engine.EvaluateOnce(query);
    ASSERT_TRUE(expected.ok());
    std::vector<Tuple> actual = (*view)->Snapshot();
    ASSERT_EQ(actual.size(), expected.value().size()) << "step " << step;
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(Tuple::Compare(actual[i], expected.value()[i]), 0)
          << "step " << step << " row " << i;
    }
  }
}

TEST(CatalogLifecycle, DetachingOneViewLeavesTheSharingSiblingUntouched) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 20;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto doomed = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m");
  auto survivor = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) WHERE m.length > 0 RETURN u, m");
  ASSERT_TRUE(doomed.ok() && survivor.ok());
  ASSERT_GT(engine.catalog().Stats().shared_nodes, 0u);

  std::vector<Tuple> rows_before = (*survivor)->Snapshot();
  size_t nodes_before = engine.catalog().Stats().total_nodes;
  size_t survivor_bytes = (*survivor)->ApproxMemoryBytes();
  int64_t deltas_before = (*survivor)->network().deltas_processed();

  doomed->reset();  // ~View → catalog refcounted detach

  CatalogStats stats = engine.catalog().Stats();
  EXPECT_EQ(stats.views, 1u);
  EXPECT_LT(stats.total_nodes, nodes_before);
  // No re-prime happened: the survivor's memories and results are the very
  // same objects, not rebuilt copies.
  EXPECT_EQ((*survivor)->network().deltas_processed(), deltas_before);
  EXPECT_EQ((*survivor)->ApproxMemoryBytes(), survivor_bytes);
  std::vector<Tuple> rows_after = (*survivor)->Snapshot();
  ASSERT_EQ(rows_after.size(), rows_before.size());
  for (size_t i = 0; i < rows_after.size(); ++i) {
    ASSERT_EQ(Tuple::Compare(rows_after[i], rows_before[i]), 0);
  }

  // Maintenance continues for the survivor.
  for (int step = 0; step < 15; ++step) {
    generator.ApplyRandomUpdate(&graph);
    auto expected = engine.EvaluateOnce(
        "MATCH (u:Person)-[:LIKES]->(m:Post) WHERE m.length > 0 "
        "RETURN u, m");
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ((*survivor)->Snapshot().size(), expected.value().size())
        << "survivor diverged at step " << step;
  }

  // Re-registering the dropped view reuses the survivor's sub-network
  // again (fingerprint hit) and is immediately correct.
  int64_t hits_before = engine.catalog().Stats().registry_hits;
  auto back = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m");
  ASSERT_TRUE(back.ok());
  EXPECT_GT(engine.catalog().Stats().registry_hits, hits_before);
  EXPECT_GT(engine.catalog().Stats().shared_nodes, 0u);
  auto expected = engine.EvaluateOnce(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*back)->Snapshot().size(), expected.value().size());
}

// The network lives as long as the catalog: dropping the last view frees
// every node but keeps the network itself, still subscribed to the graph.
TEST(CatalogLifecycle, LastViewLeavesTheNetworkEmpty) {
  PropertyGraph graph;
  graph.AddVertex({"A"});
  QueryEngine engine(&graph);
  const ReteNetwork* network = &engine.catalog().network();
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok());
  EXPECT_GT(network->node_count(), 0u);
  view->reset();
  EXPECT_EQ(&engine.catalog().network(), network);
  EXPECT_EQ(network->node_count(), 0u);
  EXPECT_EQ(network->source_count(), 0u);
  EXPECT_EQ(engine.catalog().Stats().total_nodes, 0u);
  graph.AddVertex({"A"});  // an empty network still commits graph deltas
  EXPECT_EQ(network->deltas_processed(), 1);

  // And the catalog accepts registrations again afterwards.
  auto again = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->size(), 2);
}

// Emptying the catalog and registering again reads the graph as it is
// now, under the serial and the parallel executor alike: removals
// and additions made while no view was live all show in the new view,
// which then keeps up with further updates.
TEST(CatalogLifecycle, RegistrationAfterEmptyingTheCatalogReadsTheCurrentGraph) {
  const char* query =
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN m, count(*) AS likes";
  for (bool parallel : {false, true}) {
    SocialNetworkConfig config;
    config.persons = 20;
    SocialNetworkGenerator generator(config);
    PropertyGraph graph;
    generator.Populate(&graph);
    EngineOptions options;
    if (parallel) {
      options.network.num_threads = 2;
      options.network.parallel_min_wave_entries = 0;
    }
    QueryEngine engine(&graph, options);
    auto first = engine.Register(query);
    ASSERT_TRUE(first.ok()) << first.status();
    for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);
    first->reset();
    ASSERT_EQ(engine.catalog().view_count(), 0u);

    for (int i = 0; i < 20; ++i) generator.ApplyRandomUpdate(&graph);
    auto second = engine.Register(query);
    ASSERT_TRUE(second.ok()) << second.status();
    auto expected = engine.EvaluateOnce(query);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*second)->Snapshot(), expected.value())
        << "parallel=" << parallel;

    for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);
    expected = engine.EvaluateOnce(query);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*second)->Snapshot(), expected.value())
        << "parallel=" << parallel;
  }
}

TEST(CatalogLifecycle, ViewsOutliveTheEngine) {
  PropertyGraph graph;
  graph.AddVertex({"A"});
  std::shared_ptr<View> view;
  {
    QueryEngine engine(&graph);
    auto registered = engine.Register("MATCH (n:A) RETURN n");
    ASSERT_TRUE(registered.ok());
    view = *registered;
  }
  // The view keeps the catalog (and the shared network) alive.
  graph.AddVertex({"A"});
  EXPECT_EQ(view->size(), 2);
}

class RecordingListener : public ViewChangeListener {
 public:
  void OnViewDelta(const Delta& delta) override {
    ++calls;
    entries += static_cast<int64_t>(delta.size());
  }
  int calls = 0;
  int64_t entries = 0;
};

TEST(CatalogLifecycle, RegisteringASiblingEmitsNoSpuriousListenerDeltas) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A"});
  (void)a;
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok());
  RecordingListener listener;
  (*view)->AddListener(&listener);

  // Registering another view primes it inside the shared network; the
  // first view's result did not change, so its listeners must stay silent.
  auto sibling = engine.Register("MATCH (n:A) RETURN n AS m");
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ(listener.calls, 0);
  EXPECT_EQ((*view)->size(), 1);

  // Real changes still notify exactly once.
  graph.AddVertex({"A"});
  EXPECT_EQ(listener.calls, 1);
  (*view)->RemoveListener(&listener);
}

TEST(CatalogStatsTest, MarginalMemoryIsBoundedByViewMemory) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 20;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto a = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m");
  auto b = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN m AS msg, count(*) AS l");
  ASSERT_TRUE(a.ok() && b.ok());
  const ViewCatalog& catalog = engine.catalog();
  size_t marginal = catalog.MarginalMemoryBytes(a->get());
  size_t full = catalog.ViewMemoryBytes(a->get());
  EXPECT_LE(marginal, full);
  // The shared prefix holds real memory, so the marginal slice is a strict
  // subset of the view's footprint.
  EXPECT_LT(marginal, full);
  EXPECT_LE(catalog.Stats().memory_bytes,
            catalog.ViewMemoryBytes(a->get()) +
                catalog.ViewMemoryBytes(b->get()));
}

TEST(CatalogSharing, DisjointViewsStillRunInTheOneSharedNetwork) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 15;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  // Views with no sub-plan in common share no node, but there is still
  // exactly one network per engine: both live in it.
  QueryEngine engine(&graph);
  auto a = engine.Register("MATCH (u:Person)-[:KNOWS]->(v:Person) RETURN u, v");
  auto b = engine.Register("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c");
  ASSERT_TRUE(a.ok() && b.ok());
  const ViewCatalog& catalog = engine.catalog();
  EXPECT_EQ(&(*a)->network(), &catalog.network());
  EXPECT_EQ(&(*b)->network(), &catalog.network());
  CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.views, 2u);
  EXPECT_EQ(stats.shared_nodes, 0u);
  // Sharing nothing, each view's marginal cost is its whole footprint.
  EXPECT_EQ(catalog.MarginalMemoryBytes(a->get()),
            catalog.ViewMemoryBytes(a->get()));
  EXPECT_EQ(catalog.MarginalMemoryBytes(b->get()),
            catalog.ViewMemoryBytes(b->get()));
}

// ---- acceptance: 10 overlapping views, shared vs one engine per view -------

TEST(CatalogAcceptanceTest, TenOverlappingViewsShareAndStayBitIdentical) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 30;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine shared_engine(&graph);
  // The unshared reference: one engine per query over the same graph, so
  // every view runs in a private network.
  std::vector<std::unique_ptr<QueryEngine>> private_engines;

  std::vector<std::shared_ptr<View>> shared_views;
  std::vector<std::shared_ptr<View>> unshared_views;
  size_t unshared_nodes = 0;
  size_t unshared_bytes = 0;
  for (const std::string& query : OverlappingSocialViews()) {
    auto s = shared_engine.Register(query);
    ASSERT_TRUE(s.ok()) << query << ": " << s.status();
    shared_views.push_back(*s);
    private_engines.push_back(std::make_unique<QueryEngine>(&graph));
    auto u = private_engines.back()->Register(query);
    ASSERT_TRUE(u.ok()) << query << ": " << u.status();
    unshared_views.push_back(*u);
    CatalogStats stats = private_engines.back()->catalog().Stats();
    unshared_nodes += stats.total_nodes;
    unshared_bytes += stats.memory_bytes;
  }

  CatalogStats shared_stats = shared_engine.catalog().Stats();
  ASSERT_EQ(shared_stats.views, 10u);
  // ≥ 30% of the live Rete nodes serve more than one view...
  EXPECT_GE(shared_stats.SharingRatio(), 0.3)
      << shared_stats.ToString();
  // ...the catalog needs strictly fewer nodes than ten private networks...
  EXPECT_LT(shared_stats.total_nodes, unshared_nodes);
  // ...and strictly less total node-memory.
  EXPECT_LT(shared_stats.memory_bytes, unshared_bytes)
      << "shared: " << shared_stats.ToString()
      << " unshared bytes: " << unshared_bytes;

  // Differential: shared results stay bit-identical to the per-view
  // networks after every update (all engines listen to the same graph).
  for (int step = 0; step < 30; ++step) {
    if (step % 4 == 3) {
      graph.BeginBatch();
      for (int i = 0; i < 5; ++i) generator.ApplyRandomUpdate(&graph);
      graph.CommitBatch();
    } else {
      generator.ApplyRandomUpdate(&graph);
    }
    for (size_t q = 0; q < shared_views.size(); ++q) {
      std::vector<Tuple> shared_rows = shared_views[q]->Snapshot();
      std::vector<Tuple> unshared_rows = unshared_views[q]->Snapshot();
      ASSERT_EQ(shared_rows.size(), unshared_rows.size())
          << OverlappingSocialViews()[q] << " diverged at step " << step;
      for (size_t i = 0; i < shared_rows.size(); ++i) {
        ASSERT_EQ(Tuple::Compare(shared_rows[i], unshared_rows[i]), 0)
            << OverlappingSocialViews()[q] << " step " << step << " row "
            << i;
      }
    }
  }
}

// The railway (TrainBenchmark) catalog shares its Segment/Sensor prefixes
// the same way — the paper's bench_e3 deployment scenario.
TEST(CatalogSharing, RailwayCatalogSharesAcrossTheFourQueries) {
  PropertyGraph graph;
  RailwayConfig config;
  RailwayGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  for (const std::string& query :
       {RailwayGenerator::PosLengthQuery(),
        RailwayGenerator::SwitchMonitoredQuery(),
        RailwayGenerator::RouteSensorQuery(),
        RailwayGenerator::SwitchSetQuery()}) {
    auto view = engine.Register(query);
    ASSERT_TRUE(view.ok()) << query << ": " << view.status();
    views.push_back(*view);
  }
  CatalogStats stats = engine.catalog().Stats();
  EXPECT_EQ(stats.views, 4u);
  EXPECT_GT(stats.shared_nodes, 0u) << stats.ToString();

  for (int step = 0; step < 20; ++step) {
    generator.ApplyRandomUpdate(&graph);
  }
  for (const auto& view : views) {
    auto expected = engine.EvaluateOnce(view->query());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(view->Snapshot().size(), expected.value().size())
        << view->query();
  }
}

// ---- Snapshot dirty-flag caching -------------------------------------------

TEST(SnapshotCache, UnchangedViewReturnsCachedRowsAndInvalidatesOnChange) {
  PropertyGraph graph;
  graph.AddVertex({"A"});
  graph.AddVertex({"A"});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok());

  std::vector<Tuple> first = (*view)->Snapshot();
  std::vector<Tuple> second = (*view)->Snapshot();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(first.size(), second.size());

  graph.AddVertex({"A"});
  std::vector<Tuple> third = (*view)->Snapshot();
  EXPECT_EQ(third.size(), 3u);

  // A flip-flop batch consolidates to nothing: the cache stays valid and
  // the rows stay correct.
  graph.BeginBatch();
  VertexId v = graph.AddVertex({"A"});
  ASSERT_TRUE(graph.RemoveVertex(v).ok());
  graph.CommitBatch();
  EXPECT_EQ((*view)->Snapshot().size(), 3u);
}

TEST(SnapshotCache, SkipLimitViewsStayCorrectAcrossChanges) {
  PropertyGraph graph;
  for (int i = 0; i < 6; ++i) graph.AddVertex({"A"});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n SKIP 1 LIMIT 3");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->Snapshot().size(), 3u);
  EXPECT_EQ((*view)->Snapshot().size(), 3u);
  graph.AddVertex({"A"});
  EXPECT_EQ((*view)->Snapshot().size(), 3u);
}

}  // namespace
}  // namespace pgivm
