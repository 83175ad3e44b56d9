// Tests of incremental priming (memory replay on live-catalog
// registration): replay-vs-graph accounting, registration cost independent
// of catalog size, register-mid-churn parity, re-sharing nodes freed by a
// prior drop, listener silence during replay, and the engine-wide thread
// pool.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "scoped_threads_env.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

const char* kLikesQuery = "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m";
const char* kLikesAlias = "MATCH (x:Person)-[:LIKES]->(y:Post) RETURN x, y";

TEST(IncrementalPriming, FullySharedRegistrationReplaysWithoutGraphReads) {
  SocialNetworkConfig config;
  config.persons = 40;
  SocialNetworkGenerator generator(config);
  PropertyGraph graph;
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto first = engine.Register(kLikesQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  ReteNetwork::PrimeStats boot = engine.catalog().last_prime_stats();
  EXPECT_EQ(boot.replayed_entries, 0);
  EXPECT_GT(boot.graph_primed_entries, 0);
  EXPECT_GT(boot.primed_sources, 0u);

  for (int i = 0; i < 30; ++i) generator.ApplyRandomUpdate(&graph);

  // An alias-renamed duplicate hits the registry for the whole plan: the
  // only fresh node is the production, primed by one replay edge, and the
  // graph is never read.
  auto second = engine.Register(kLikesAlias);
  ASSERT_TRUE(second.ok()) << second.status();
  ReteNetwork::PrimeStats replay = engine.catalog().last_prime_stats();
  EXPECT_EQ(replay.graph_primed_entries, 0);
  EXPECT_EQ(replay.primed_sources, 0u);
  EXPECT_EQ(replay.fresh_nodes, 1u);  // just the production
  EXPECT_EQ(replay.replay_edges, 1u);
  // Replay work is the new view's result size — every row once.
  EXPECT_EQ(replay.replayed_entries, (*second)->size());
  EXPECT_EQ((*second)->prime_stats().replayed_entries,
            replay.replayed_entries);

  // And the replay-primed view is correct, now and after further churn.
  auto expected = engine.EvaluateOnce(kLikesQuery);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*second)->Snapshot().size(), expected.value().size());
  for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);
  expected = engine.EvaluateOnce(kLikesQuery);
  ASSERT_TRUE(expected.ok());
  std::vector<Tuple> rows = (*second)->Snapshot();
  ASSERT_EQ(rows.size(), expected.value().size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(Tuple::Compare(rows[i], expected.value()[i]), 0) << "row " << i;
  }
}

// The acceptance criterion: registering a fully sharing view into a live
// catalog costs the same whether the catalog holds 2 views or 10 — replay
// work tracks the *new view's* result size, never the catalog's.
TEST(IncrementalPriming, RegistrationCostIsIndependentOfCatalogSize) {
  SocialNetworkConfig config;
  config.persons = 40;
  SocialNetworkGenerator generator_small(config);
  PropertyGraph small_graph;
  generator_small.Populate(&small_graph);
  SocialNetworkGenerator generator_large(config);
  PropertyGraph large_graph;
  generator_large.Populate(&large_graph);

  std::vector<std::string> extra = {
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = b.country "
      "RETURN a, b",
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
      "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
      "MATCH (c:Comm)-[:HAS_CREATOR]->(u:Person) RETURN u, count(*) AS m",
      "MATCH (m:Comm) RETURN m.lang AS lang, count(*) AS n",
      "MATCH (m:Post) WHERE m.length > 1000 RETURN m",
      "MATCH (u:Person)-[:LIKES]->(m:Post)-[:REPLY]->(c:Comm) RETURN u, c",
      "MATCH (a:Person)-[:KNOWS]-(b:Person) RETURN a, count(*) AS degree",
  };

  QueryEngine small_engine(&small_graph);
  QueryEngine large_engine(&large_graph);
  std::vector<std::shared_ptr<View>> keep;
  keep.push_back(*small_engine.Register(kLikesQuery));
  keep.push_back(*large_engine.Register(kLikesQuery));
  for (const std::string& query : extra) {
    keep.push_back(*large_engine.Register(query));
  }
  ASSERT_EQ(large_engine.catalog().view_count(), extra.size() + 1);

  const ReteNetwork* small_net = &small_engine.catalog().network();
  const ReteNetwork* large_net = &large_engine.catalog().network();
  int64_t small_emitted_before = small_net->TotalEmittedEntries();
  int64_t large_emitted_before = large_net->TotalEmittedEntries();

  keep.push_back(*small_engine.Register(kLikesAlias));
  keep.push_back(*large_engine.Register(kLikesAlias));
  ReteNetwork::PrimeStats small_stats =
      small_engine.catalog().last_prime_stats();
  ReteNetwork::PrimeStats large_stats =
      large_engine.catalog().last_prime_stats();

  // Identical registration work despite the 9-view difference in catalog
  // size: same replay volume, zero graph reads in both.
  EXPECT_EQ(small_stats.replayed_entries, large_stats.replayed_entries);
  EXPECT_EQ(small_stats.graph_primed_entries, 0);
  EXPECT_EQ(large_stats.graph_primed_entries, 0);
  EXPECT_EQ(small_stats.fresh_nodes, large_stats.fresh_nodes);

  // Delivery stats agree: the only node that emitted during registration
  // is the new production (replay bypasses reused nodes' Emit paths), so
  // the network-wide emission delta is the new view's result size — in a
  // 10-view catalog just as in a 2-view one.
  int64_t small_emitted =
      small_net->TotalEmittedEntries() - small_emitted_before;
  int64_t large_emitted =
      large_net->TotalEmittedEntries() - large_emitted_before;
  EXPECT_EQ(small_emitted, large_emitted);
  EXPECT_LE(large_emitted, keep.back()->size());
}

// Registering between update bursts must splice the new consumers into a
// warm, mid-churn network without corrupting it — serially, and with
// replay running through the parallel wave executor, with every wave
// dispatched or with the default work-size gate.
struct MidChurnShape {
  const char* name;
  int threads;  // 0 = serial executor
  bool gated = false;  // keep the default parallel_min_wave_entries
};

class MidChurnTest : public ::testing::TestWithParam<MidChurnShape> {};

TEST_P(MidChurnTest, RegisterBetweenBurstsStaysConsistent) {
  ScopedThreadsEnv no_env(nullptr);  // pin: the shape sets the executor
  const MidChurnShape& shape = GetParam();
  EngineOptions options;
  if (shape.threads > 0) {
    options.network.executor = ExecutorKind::kParallel;
    options.network.num_threads = shape.threads;
    if (!shape.gated) options.network.parallel_min_wave_entries = 0;
  }

  SocialNetworkConfig config;
  config.persons = 30;
  SocialNetworkGenerator generator(config);
  PropertyGraph graph;
  generator.Populate(&graph);

  QueryEngine engine(&graph, options);
  std::vector<std::string> queries = {
      kLikesQuery,
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
      kLikesAlias,
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN m AS msg, count(*) AS l",
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN a, b, c",
      "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
  };
  std::vector<std::shared_ptr<View>> views;
  for (size_t next = 0; next < queries.size(); ++next) {
    // Burst of churn, then a registration into the live catalog.
    graph.BeginBatch();
    for (int i = 0; i < 6; ++i) generator.ApplyRandomUpdate(&graph);
    graph.CommitBatch();
    auto view = engine.Register(queries[next]);
    ASSERT_TRUE(view.ok()) << queries[next] << ": " << view.status();
    views.push_back(*view);

    for (size_t q = 0; q <= next; ++q) {
      auto expected = engine.EvaluateOnce(queries[q]);
      ASSERT_TRUE(expected.ok());
      std::vector<Tuple> rows = views[q]->Snapshot();
      ASSERT_EQ(rows.size(), expected.value().size())
          << queries[q] << " after registration " << next;
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(Tuple::Compare(rows[i], expected.value()[i]), 0)
            << queries[q] << " row " << i;
      }
    }
  }

  // One more burst: everything keeps maintaining together.
  graph.BeginBatch();
  for (int i = 0; i < 6; ++i) generator.ApplyRandomUpdate(&graph);
  graph.CommitBatch();
  for (size_t q = 0; q < queries.size(); ++q) {
    auto expected = engine.EvaluateOnce(queries[q]);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(views[q]->Snapshot().size(), expected.value().size())
        << queries[q];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MidChurnTest,
    ::testing::Values(
        MidChurnShape{"batched", 0},
        MidChurnShape{"batched_parallel4", 4},
        MidChurnShape{"batched_parallel4_gated", 4, /*gated=*/true}),
    [](const auto& info) { return std::string(info.param.name); });

// A dropped view's exclusive nodes are freed and leave the registry; a
// later registration of the same plan must rebuild them fresh (graph-
// primed) without perturbing surviving siblings.
TEST(IncrementalPriming, ReRegisteringAfterDropRebuildsFreedNodes) {
  SocialNetworkConfig config;
  config.persons = 30;
  SocialNetworkGenerator generator(config);
  PropertyGraph graph;
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto doomed = engine.Register(kLikesQuery);
  auto survivor = engine.Register(
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c");
  ASSERT_TRUE(doomed.ok() && survivor.ok());

  for (int i = 0; i < 15; ++i) generator.ApplyRandomUpdate(&graph);
  doomed->reset();  // frees the LIKES sub-network (survivor shares none)

  size_t survivor_bytes = (*survivor)->ApproxMemoryBytes();
  auto back = engine.Register(kLikesAlias);
  ASSERT_TRUE(back.ok());
  ReteNetwork::PrimeStats stats = engine.catalog().last_prime_stats();
  // The freed sub-plan is a registry miss again: primed from the graph
  // through fresh sources, nothing to replay from.
  EXPECT_GT(stats.graph_primed_entries, 0);
  EXPECT_GT(stats.primed_sources, 0u);
  EXPECT_GT(stats.fresh_nodes, 1u);

  auto expected = engine.EvaluateOnce(kLikesQuery);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*back)->Snapshot().size(), expected.value().size());

  // The survivor was neither re-primed nor perturbed: same memories, same
  // (still correct) rows.
  EXPECT_EQ((*survivor)->ApproxMemoryBytes(), survivor_bytes);
  auto survivor_expected = engine.EvaluateOnce((*survivor)->query());
  ASSERT_TRUE(survivor_expected.ok());
  EXPECT_EQ((*survivor)->Snapshot().size(), survivor_expected.value().size());
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

// Replay rebuilds the new consumers to steady state; it is not a change to
// any existing view, so listeners — on old views *and* on the freshly
// returned one — stay silent, mid-churn included.
TEST(IncrementalPriming, ListenersStaySilentDuringReplay) {
  SocialNetworkConfig config;
  config.persons = 30;
  SocialNetworkGenerator generator(config);
  PropertyGraph graph;
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  // Watch a view every vertex insertion visibly changes, plus the join the
  // replayed registrations actually share.
  auto watched = engine.Register("MATCH (n:Person) RETURN n");
  auto join_view = engine.Register(kLikesQuery);
  ASSERT_TRUE(watched.ok() && join_view.ok());
  RecordingListener listener;
  RecordingListener join_listener;
  (*watched)->AddListener(&listener);
  (*join_view)->AddListener(&join_listener);

  for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);
  int calls_after_churn = listener.calls;
  int join_calls_after_churn = join_listener.calls;

  // Fully shared (pure replay), partially shared (replay + fresh suffix)
  // and disjoint (pure graph prime) registrations: none of them may leak a
  // delta to the existing views' listeners.
  auto dup = engine.Register(kLikesAlias);
  auto partial = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN m AS msg, count(*) AS l");
  auto disjoint = engine.Register(
      "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c");
  ASSERT_TRUE(dup.ok() && partial.ok() && disjoint.ok());
  EXPECT_EQ(listener.calls, calls_after_churn);
  EXPECT_EQ(join_listener.calls, join_calls_after_churn);

  // A real change still notifies exactly once.
  graph.AddVertex({"Person"});
  EXPECT_EQ(listener.calls, calls_after_churn + 1);
  (*watched)->RemoveListener(&listener);
  (*join_view)->RemoveListener(&join_listener);
}

TEST(NetworkPool, ParallelCatalogNetworkOwnsItsPool) {
  ScopedThreadsEnv no_env(nullptr);  // pin: the case needs exactly kParallel
  PropertyGraph graph;
  graph.AddVertex({"A"});
  EngineOptions options;
  options.network.executor = ExecutorKind::kParallel;
  options.network.num_threads = 2;
  QueryEngine engine(&graph, options);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok());
  ASSERT_NE((*view)->network().thread_pool(), nullptr);
  EXPECT_EQ((*view)->network().thread_pool()->parallelism(), 2);
  EXPECT_EQ((*view)->size(), 1);
}

// The default serial catalog never builds a pool: its network drains on
// the writer thread and reports a parallelism of one.
TEST(NetworkPool, SerialCatalogNetworkHasNoPool) {
  ScopedThreadsEnv no_env(nullptr);  // pin: the case needs exactly kSerial
  PropertyGraph graph;
  graph.AddVertex({"A"});
  QueryEngine engine(&graph);
  const ReteNetwork& network = engine.catalog().network();
  EXPECT_EQ(network.executor(), ExecutorKind::kSerial);
  EXPECT_EQ(network.thread_pool(), nullptr);
  EXPECT_EQ(network.executor_parallelism(), 1);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(&(*view)->network(), &network);
  EXPECT_EQ((*view)->size(), 1);
  EXPECT_EQ(network.parallel_waves_dispatched(), 0);
}

// The network and its pool live as long as the catalog: dropping the last
// view leaves both in place, and the next registration runs on the same
// workers.
TEST(NetworkPool, LastViewDropKeepsNetworkAndPool) {
  ScopedThreadsEnv no_env(nullptr);  // pin: the case needs exactly kParallel
  SocialNetworkConfig config;
  config.persons = 15;
  SocialNetworkGenerator generator(config);
  PropertyGraph graph;
  generator.Populate(&graph);

  EngineOptions options;
  options.network.executor = ExecutorKind::kParallel;
  options.network.num_threads = 2;
  QueryEngine engine(&graph, options);
  auto first = engine.Register(kLikesQuery);
  ASSERT_TRUE(first.ok());
  const ThreadPool* pool = (*first)->network().thread_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->parallelism(), 2);

  first->reset();
  ASSERT_EQ(engine.catalog().network().thread_pool(), pool);
  for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);

  auto second = engine.Register(
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->network().thread_pool(), pool);

  // The network keeps maintaining correctly on the same pool.
  for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);
  auto expected = engine.EvaluateOnce((*second)->query());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*second)->Snapshot().size(), expected.value().size());
}

// Replay priming under the parallel executor: registrations into a live
// parallel catalog go through the same barrier/deferred-notification
// machinery as graph deltas (the TSAN CI job re-runs this at 8 threads).
TEST(IncrementalPriming, ReplayUnderParallelExecutorStaysCorrect) {
  ScopedThreadsEnv no_env(nullptr);
  SocialNetworkConfig config;
  config.persons = 30;
  SocialNetworkGenerator generator(config);
  PropertyGraph graph;
  generator.Populate(&graph);

  EngineOptions options;
  options.network.executor = ExecutorKind::kParallel;
  options.network.num_threads = 4;
  QueryEngine engine(&graph, options);
  auto first = engine.Register(kLikesQuery);
  ASSERT_TRUE(first.ok());
  RecordingListener listener;
  (*first)->AddListener(&listener);
  for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);
  int calls_before = listener.calls;

  auto second = engine.Register(kLikesAlias);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(listener.calls, calls_before);
  EXPECT_EQ(engine.catalog().last_prime_stats().graph_primed_entries, 0);

  for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);
  auto expected = engine.EvaluateOnce(kLikesQuery);
  ASSERT_TRUE(expected.ok());
  std::vector<Tuple> rows = (*second)->Snapshot();
  ASSERT_EQ(rows.size(), expected.value().size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(Tuple::Compare(rows[i], expected.value()[i]), 0) << "row " << i;
  }
  (*first)->RemoveListener(&listener);
}

}  // namespace
}  // namespace pgivm
