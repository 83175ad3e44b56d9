// End-to-end stress: a portfolio of views spanning every engine feature is
// maintained across a long randomized SNB-style update stream, with exact
// differential verification against the from-scratch evaluator at
// checkpoints. This is the closest thing to the paper's envisioned
// deployment: many concurrent standing queries over a living social graph.

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "scoped_env_var.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

std::vector<std::string> ViewPortfolio() {
  return {
      // The running example (transitive paths + property join).
      "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang "
      "RETURN p, t",
      // Aggregation with grouping.
      "MATCH (m:Comm) RETURN m.lang AS lang, count(*) AS n, "
      "min(m.length) AS shortest, max(m.length) AS longest",
      // OPTIONAL MATCH with IS NULL (negative constraint).
      "MATCH (p:Post) OPTIONAL MATCH (p)-[r:REPLY]->(:Comm) "
      "WITH p, r WHERE r IS NULL RETURN p",
      // exists() pattern predicate.
      "MATCH (u:Person) WHERE exists((u)-[:LIKES]->(:Post)) RETURN u",
      // NOT exists() pattern predicate.
      "MATCH (u:Person) WHERE NOT exists((u)-[:KNOWS]->(:Person)) "
      "RETURN u",
      // UNWIND of a collection property with aggregation (FGN path).
      "MATCH (u:Person) UNWIND u.speaks AS lang "
      "RETURN lang, count(*) AS speakers",
      // Quantifier over a collection property.
      "MATCH (u:Person) WHERE any(l IN u.speaks WHERE l = 'en') RETURN u",
      // CASE bucketing with aggregation.
      "MATCH (m:Post) RETURN CASE WHEN m.length > 1000 THEN 'long' "
      "WHEN m.length > 100 THEN 'mid' ELSE 'short' END AS bucket, "
      "count(*) AS n",
      // UNION ALL across labels.
      "MATCH (p:Post) RETURN p AS msg UNION ALL "
      "MATCH (c:Comm) RETURN c AS msg",
      // Two-hop friend-of-friend with property equality.
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "WHERE a.country = c.country RETURN a, c",
      // DISTINCT projection through joins.
      "MATCH (u:Person)-[:LIKES]->(m:Post)-[:REPLY]->(c:Comm) "
      "RETURN DISTINCT u",
      // Bounded variable-length with named path and path function.
      "MATCH t = (p:Post)-[:REPLY*1..3]->(c:Comm) "
      "RETURN p, length(t) AS hops, c",
  };
}

TEST(IntegrationStressTest, PortfolioStaysExactUnderLongStream) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 25;
  config.posts_per_person = 2;
  config.comments_per_post = 3;
  config.seed = 1234;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::string> queries = ViewPortfolio();
  std::vector<std::shared_ptr<View>> views;
  for (const std::string& query : queries) {
    Result<std::shared_ptr<View>> view = engine.Register(query);
    ASSERT_TRUE(view.ok()) << query << " -> " << view.status();
    views.push_back(view.value());
  }

  constexpr int kSteps = 400;
  constexpr int kCheckEvery = 40;
  for (int step = 1; step <= kSteps; ++step) {
    generator.ApplyRandomUpdate(&graph);
    if (step % kCheckEvery != 0) continue;
    for (size_t q = 0; q < queries.size(); ++q) {
      Result<std::vector<Tuple>> expected = engine.EvaluateOnce(queries[q]);
      ASSERT_TRUE(expected.ok()) << queries[q];
      ASSERT_EQ(views[q]->Snapshot(), expected.value())
          << "view " << q << " (" << queries[q] << ") diverged at step "
          << step;
    }
  }
}

TEST(IntegrationStressTest, ViewsSurviveChurnOfEverything) {
  // Aggressive delete-heavy stream: every person's content is repeatedly
  // torn down; bag counts must never go negative (asserted inside nodes)
  // and views must come back exact.
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 12;
  config.seed = 77;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto threads = engine
                     .Register("MATCH (p:Post)-[:REPLY*]->(c:Comm) "
                               "RETURN p, c")
                     .value();
  auto stats = engine
                   .Register("MATCH (c:Comm) RETURN c.lang AS l, "
                             "count(*) AS n")
                   .value();

  // Tear down every comment (leaves first), then verify empty views.
  bool removed_any = true;
  while (removed_any) {
    removed_any = false;
    std::vector<VertexId> comments = graph.VerticesWithLabel("Comm");
    for (VertexId c : comments) {
      bool leaf = true;
      for (EdgeId e : graph.OutEdges(c)) {
        if (graph.EdgeType(e) == "REPLY") leaf = false;
      }
      if (leaf) {
        ASSERT_TRUE(graph.DetachRemoveVertex(c).ok());
        removed_any = true;
      }
    }
  }
  EXPECT_EQ(threads->size(), 0);
  EXPECT_EQ(stats->size(), 0);

  // Rebuild some threads; views must resume exact maintenance.
  std::vector<VertexId> posts = graph.VerticesWithLabel("Post");
  ASSERT_FALSE(posts.empty());
  VertexId parent = posts[0];
  for (int i = 0; i < 5; ++i) {
    VertexId c = graph.AddVertex({"Comm"}, {{"lang", Value::String("en")}});
    (void)graph.AddEdge(parent, c, "REPLY").value();
    parent = c;
  }
  EXPECT_EQ(threads->size(), 5);  // Chain of 5 below one post.
  EXPECT_EQ(stats->Snapshot()[0].at(1), Value::Int(5));

  EXPECT_EQ(threads->Snapshot(),
            engine.EvaluateOnce("MATCH (p:Post)-[:REPLY*]->(c:Comm) "
                                "RETURN p, c")
                .value());
}

// The multi-view serving regime the parallel executor targets: the whole
// portfolio shares one catalog network, every wave is fanned out over a
// worker pool, and views keep registering/dropping mid-stream (scheduler
// state is rebuilt around a live pool). Checkpoints are exact differential
// verification, plus a serial twin engine that must stay bit-identical
// after every delta.
TEST(IntegrationStressTest, SharedCatalogStaysExactUnderParallelWaves) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 20;
  config.seed = 4321;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  EngineOptions parallel_options;
  parallel_options.network.num_threads = 8;
  // Both engines are constructed with PGIVM_THREADS pinned away (the
  // override is read at construction), so this is a real parallel-8 vs
  // serial comparison in every environment, including the TSAN job's
  // PGIVM_THREADS=8 and a developer's PGIVM_THREADS=1.
  std::unique_ptr<QueryEngine> engine_holder;
  std::unique_ptr<QueryEngine> twin_holder;
  {
    ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
    engine_holder = std::make_unique<QueryEngine>(&graph, parallel_options);
    twin_holder = std::make_unique<QueryEngine>(&graph);
  }
  QueryEngine& engine = *engine_holder;
  QueryEngine& twin = *twin_holder;

  std::vector<std::string> queries = ViewPortfolio();
  std::vector<std::shared_ptr<View>> views;
  std::vector<std::shared_ptr<View>> twin_views;
  for (const std::string& query : queries) {
    views.push_back(engine.Register(query).value());
    twin_views.push_back(twin.Register(query).value());
  }
  EXPECT_EQ(engine.catalog().network().executor_parallelism(), 8);

  Rng rng(31337);
  std::vector<std::shared_ptr<View>> churn;
  constexpr int kSteps = 250;
  for (int step = 1; step <= kSteps; ++step) {
    if (rng.NextBool(0.3)) {
      graph.BeginBatch();
      int burst = static_cast<int>(rng.NextInRange(2, 10));
      for (int i = 0; i < burst; ++i) generator.ApplyRandomUpdate(&graph);
      graph.CommitBatch();
    } else {
      generator.ApplyRandomUpdate(&graph);
    }
    // Register/drop extra copies mid-stream: registration replay-primes
    // into the live shared network (and recomputes wave levels) around the
    // pool.
    if (rng.NextBool(0.1)) {
      const std::string& query = queries[rng.NextBelow(queries.size())];
      auto view = engine.Register(query).value();
      EXPECT_EQ(view->Snapshot(), engine.EvaluateOnce(query).value())
          << query;
      churn.push_back(std::move(view));
    }
    if (!churn.empty() && rng.NextBool(0.08)) {
      churn.erase(churn.begin() +
                  static_cast<ptrdiff_t>(rng.NextBelow(churn.size())));
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(views[q]->Snapshot(), twin_views[q]->Snapshot())
          << queries[q] << " diverged from the serial twin at step " << step;
    }
    if (step % 50 != 0) continue;
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(views[q]->Snapshot(), engine.EvaluateOnce(queries[q]).value())
          << "view " << q << " (" << queries[q] << ") diverged at step "
          << step;
    }
  }
}

TEST(IntegrationStressTest, RegisterAndDropViewsMidStream) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 15;
  config.seed = 5;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::string> queries = ViewPortfolio();
  std::vector<std::shared_ptr<View>> active;
  Rng rng(99);
  for (int step = 0; step < 150; ++step) {
    generator.ApplyRandomUpdate(&graph);
    if (rng.NextBool(0.15)) {
      // Register a random view mid-stream: it must prime correctly from
      // live state.
      const std::string& query = queries[rng.NextBelow(queries.size())];
      auto view = engine.Register(query).value();
      EXPECT_EQ(view->Snapshot(), engine.EvaluateOnce(query).value())
          << query;
      active.push_back(std::move(view));
    }
    if (!active.empty() && rng.NextBool(0.1)) {
      // Drop one: later updates must not crash or leak into it.
      active.erase(active.begin() +
                   static_cast<ptrdiff_t>(rng.NextBelow(active.size())));
    }
  }
  // Whatever survived is still exact.
  for (const auto& view : active) {
    EXPECT_EQ(view->Snapshot(), engine.EvaluateOnce(view->query()).value());
  }
}

}  // namespace
}  // namespace pgivm
