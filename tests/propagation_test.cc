// Tests of the batched, topologically scheduled propagation pipeline:
// correctness against from-scratch evaluation under mixed single/batch
// updates, consolidation (inverse pairs cancel before they reach the
// production), per-(node, port) queue ordering across the binary node
// types, and the network lifecycle (construct, prime, maintain).

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "scoped_threads_env.h"
#include "rete/antijoin_node.h"
#include "rete/join_node.h"
#include "rete/network.h"
#include "rete/semijoin_node.h"
#include "rete/union_node.h"
#include "support/rng.h"
#include "workload/random_graph.h"

namespace pgivm {
namespace {

class RecordingListener : public ViewChangeListener {
 public:
  void OnViewDelta(const Delta& delta) override {
    ++calls;
    for (const DeltaEntry& entry : delta) {
      (void)entry;
      ++entries;
    }
  }
  int calls = 0;
  int64_t entries = 0;
};

// ---- correctness under mixed single and batch updates ----------------------

TEST(PropagationParity, SnapshotsMatchUnderMixedSingleAndBatchUpdates) {
  const std::vector<std::string> queries = {
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
      "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
      "MATCH (a:A) WHERE NOT exists((a)-[:S]->()) RETURN a",
      "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c, sum(a.x) AS s",
      "MATCH (a:A)-[:R]->(b) RETURN DISTINCT b",
      "MATCH (n:B) UNWIND n.tags AS t RETURN t, count(*) AS c",
      "MATCH (a:A)-[:R*1..3]->(b) RETURN a, b",
      "MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b:B) RETURN a, b",
  };

  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 77;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  for (const std::string& query : queries) {
    auto view = engine.Register(query);
    ASSERT_TRUE(view.ok()) << query << ": " << view.status();
    views.push_back(*view);
  }

  // Every third step commits a 5-change batch, the rest single changes; the
  // maintained views must equal a from-scratch evaluation after each one.
  for (int step = 0; step < 60; ++step) {
    if (step % 3 == 2) {
      graph.BeginBatch();
      for (int i = 0; i < 5; ++i) generator.ApplyRandomUpdate(&graph);
      graph.CommitBatch();
    } else {
      generator.ApplyRandomUpdate(&graph);
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      Result<std::vector<Tuple>> expected = engine.EvaluateOnce(queries[q]);
      ASSERT_TRUE(expected.ok()) << queries[q] << ": " << expected.status();
      ASSERT_EQ(views[q]->Snapshot(), expected.value())
          << queries[q] << " diverged at step " << step;
    }
  }
}

// ---- consolidation: inverse pairs cancel -----------------------------------

TEST(Consolidation, AddRemoveEdgeBatchReachesProductionAsEmptyDelta) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({"B"});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (a:A)-[r:R]->(b:B) RETURN a, b");
  ASSERT_TRUE(view.ok()) << view.status();

  RecordingListener listener;
  (*view)->AddListener(&listener);
  int64_t before = (*view)->network().TotalEmittedEntries();

  graph.BeginBatch();
  EdgeId e = graph.AddEdge(a, b, "R").value();
  ASSERT_TRUE(graph.RemoveEdge(e).ok());
  graph.CommitBatch();

  // The +tuple/−tuple pair cancels at the source: nothing propagates.
  EXPECT_EQ((*view)->network().TotalEmittedEntries(), before);
  EXPECT_EQ(listener.calls, 0);
  EXPECT_EQ((*view)->size(), 0);
  (*view)->RemoveListener(&listener);
}

TEST(Consolidation, AddRemoveVertexBatchPropagatesNothing) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok()) << view.status();
  int64_t before = (*view)->network().TotalEmittedEntries();

  graph.BeginBatch();
  VertexId v = graph.AddVertex({"A"});
  ASSERT_TRUE(graph.RemoveVertex(v).ok());
  graph.CommitBatch();

  EXPECT_EQ((*view)->network().TotalEmittedEntries(), before);
  EXPECT_EQ((*view)->size(), 0);
}

TEST(Consolidation, PropertyFlipFlopInBatchPropagatesNothing) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({"A"}, {{"x", Value::Int(1)}});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n, n.x AS x");
  ASSERT_TRUE(view.ok()) << view.status();
  int64_t before = (*view)->network().TotalEmittedEntries();

  graph.BeginBatch();
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(2)).ok());
  ASSERT_TRUE(graph.SetVertexProperty(v, "x", Value::Int(1)).ok());
  graph.CommitBatch();

  EXPECT_EQ((*view)->network().TotalEmittedEntries(), before);
  EXPECT_EQ((*view)->size(), 1);
}

// The same update stream committed change by change and in 6-change
// batches ends in the same views; consolidation can only shrink the
// propagation volume of the batched commits.
TEST(Consolidation, BatchesEmitNoMoreThanTheSameChangesOneByOne) {
  const std::vector<std::string> queries = {
      "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
      "MATCH (a:A) WHERE NOT exists((a)-[:S]->()) RETURN a",
      "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c, sum(a.x) AS s",
  };
  RandomGraphConfig config;
  config.seed = 31;
  PropertyGraph single_graph, batch_graph;
  RandomGraphGenerator single_gen(config), batch_gen(config);
  single_gen.Populate(&single_graph);
  batch_gen.Populate(&batch_graph);
  QueryEngine single_engine(&single_graph);
  QueryEngine batch_engine(&batch_graph);
  std::vector<std::shared_ptr<View>> single_views, batch_views;
  for (const std::string& query : queries) {
    single_views.push_back(single_engine.Register(query).value());
    batch_views.push_back(batch_engine.Register(query).value());
  }

  for (int step = 0; step < 10; ++step) {
    batch_graph.BeginBatch();
    for (int i = 0; i < 6; ++i) {
      single_gen.ApplyRandomUpdate(&single_graph);
      batch_gen.ApplyRandomUpdate(&batch_graph);
    }
    batch_graph.CommitBatch();
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(batch_views[q]->Snapshot(), single_views[q]->Snapshot())
          << queries[q] << " diverged at step " << step;
    }
  }
  // Both networks primed identical graphs, so their totals differ only by
  // what the commits propagated.
  EXPECT_LE(batch_engine.catalog().network().TotalEmittedEntries(),
            single_engine.catalog().network().TotalEmittedEntries());
}

TEST(Consolidation, BatchOfInsertsCoalescesToOneListenerCall) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok()) << view.status();
  RecordingListener listener;
  (*view)->AddListener(&listener);

  graph.BeginBatch();
  for (int i = 0; i < 10; ++i) graph.AddVertex({"A"});
  graph.CommitBatch();

  EXPECT_EQ(listener.calls, 1);
  EXPECT_EQ(listener.entries, 10);
  EXPECT_EQ((*view)->size(), 10);
  (*view)->RemoveListener(&listener);
}

// ---- per-(node, port) queues across the binary node types ------------------

/// A two-source network: [:A] vertices feed port 0 and [:B] vertices feed
/// port 1 of one binary node, whose output is materialized by a production.
/// Both input schemas are [v], so the natural-join key is the vertex itself
/// — a vertex labelled both :A and :B reaches both ports in the same wave.
struct BinaryFixture {
  static Schema VSchema() {
    return Schema({{"v", Attribute::Kind::kVertex}});
  }

  void Build(std::unique_ptr<ReteNode> node) {
    Schema vs = VSchema();
    auto* left = network.Add(std::make_unique<VertexInputNode>(
        vs, &graph, std::vector<std::string>{"A"},
        std::vector<PropertyExtract>{}));
    network.RegisterSource(left);
    auto* right = network.Add(std::make_unique<VertexInputNode>(
        vs, &graph, std::vector<std::string>{"B"},
        std::vector<PropertyExtract>{}));
    network.RegisterSource(right);
    binary = network.Add(std::move(node));
    left->AddOutput(binary, 0);
    right->AddOutput(binary, 1);
    production = network.Add(std::make_unique<ProductionNode>(vs));
    binary->AddOutput(production, 0);
    network.RegisterProduction(production);
    network.PrimeNewNodes({left, right, binary, production}, {}, {});
    left_node = left;
    right_node = right;
  }

  PropertyGraph graph;
  ReteNetwork network{&graph, NetworkOptions{}};
  ReteNode* left_node = nullptr;
  ReteNode* right_node = nullptr;
  ReteNode* binary = nullptr;
  ProductionNode* production = nullptr;
};

TEST(QueueOrdering, SchedulerAssignsTopologicalLevels) {
  BinaryFixture fixture;
  Schema vs = BinaryFixture::VSchema();
  fixture.Build(std::make_unique<JoinNode>(vs, vs, vs));
  EXPECT_EQ(fixture.network.node_level(fixture.left_node), 0);
  EXPECT_EQ(fixture.network.node_level(fixture.right_node), 0);
  EXPECT_EQ(fixture.network.node_level(fixture.binary), 1);
  EXPECT_EQ(fixture.network.node_level(fixture.production), 2);
}

TEST(QueueOrdering, JoinReceivesBothPortsOnceAndProducesOneRow) {
  BinaryFixture fixture;
  Schema vs = BinaryFixture::VSchema();
  fixture.Build(std::make_unique<JoinNode>(vs, vs, vs));
  RecordingListener listener;
  fixture.production->AddListener(&listener);

  // One wave delivers port 0 (ΔL ⋈ R_old) then port 1 (L_new ⋈ ΔR): the
  // new row must be produced exactly once, not zero or two times.
  fixture.graph.BeginBatch();
  VertexId v = fixture.graph.AddVertex({"A", "B"});
  fixture.graph.CommitBatch();

  EXPECT_EQ(fixture.production->results().total_count(), 1);
  EXPECT_EQ(listener.calls, 1);
  EXPECT_EQ(listener.entries, 1);

  fixture.graph.BeginBatch();
  ASSERT_TRUE(fixture.graph.RemoveVertex(v).ok());
  fixture.graph.CommitBatch();
  EXPECT_EQ(fixture.production->results().total_count(), 0);
  fixture.production->RemoveListener(&listener);
}

TEST(QueueOrdering, AntiJoinCancelsTransientAssertAcrossPorts) {
  BinaryFixture fixture;
  Schema vs = BinaryFixture::VSchema();
  fixture.Build(std::make_unique<AntiJoinNode>(vs, vs, vs));

  // Port 0 (left insert, no right support yet) asserts +v; port 1 (right
  // insert) retracts it in the same wave. The node's flush consolidates the
  // pair away, so the anti-join emits nothing at all.
  fixture.graph.BeginBatch();
  fixture.graph.AddVertex({"A", "B"});
  fixture.graph.CommitBatch();

  EXPECT_EQ(fixture.binary->emitted_entries(), 0);
  EXPECT_EQ(fixture.production->results().total_count(), 0);

  // A left-only vertex must still pass through.
  fixture.graph.AddVertex({"A"});
  EXPECT_EQ(fixture.production->results().total_count(), 1);
}

TEST(QueueOrdering, SemiJoinTogglesOnWithinOneWave) {
  BinaryFixture fixture;
  Schema vs = BinaryFixture::VSchema();
  fixture.Build(std::make_unique<SemiJoinNode>(vs, vs, vs));

  fixture.graph.BeginBatch();
  VertexId v = fixture.graph.AddVertex({"A", "B"});
  fixture.graph.CommitBatch();

  // Port 0 inserts the left row (no support yet, no emission); port 1's
  // support toggle then asserts it exactly once.
  EXPECT_EQ(fixture.binary->emitted_entries(), 1);
  EXPECT_EQ(fixture.production->results().total_count(), 1);

  fixture.graph.BeginBatch();
  ASSERT_TRUE(fixture.graph.RemoveVertexLabel(v, "B").ok());
  fixture.graph.CommitBatch();
  EXPECT_EQ(fixture.production->results().total_count(), 0);
}

TEST(QueueOrdering, UnionCoalescesBothPortsIntoOneDelta) {
  BinaryFixture fixture;
  fixture.Build(std::make_unique<UnionNode>(BinaryFixture::VSchema()));
  RecordingListener listener;
  fixture.production->AddListener(&listener);

  fixture.graph.BeginBatch();
  fixture.graph.AddVertex({"A"});
  fixture.graph.AddVertex({"B"});
  fixture.graph.CommitBatch();

  // Two sources, one wave, one consolidated delta at the production.
  EXPECT_EQ(listener.calls, 1);
  EXPECT_EQ(listener.entries, 2);
  EXPECT_EQ(fixture.production->results().total_count(), 2);
  fixture.production->RemoveListener(&listener);
}

// A trail running through several edges added in the same graph delta is
// enumerated once per such edge (each kAddEdge translates against the final
// graph state); the path store must assert it exactly once. Regression test
// for the double-count this caused under multi-change batches.
TEST(PathBatchTest, ChainedEdgesAddedInOneBatchAssertTrailsOnce) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A"});
  VertexId b = graph.AddVertex({"B"});
  VertexId c = graph.AddVertex({"B"});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (x:A)-[:R*1..3]->(y) RETURN x, y");
  ASSERT_TRUE(view.ok()) << view.status();

  graph.BeginBatch();
  ASSERT_TRUE(graph.AddEdge(a, b, "R").ok());
  ASSERT_TRUE(graph.AddEdge(b, c, "R").ok());
  graph.CommitBatch();

  // Trails from the :A anchor: a→b and a→b→c — exactly two rows.
  EXPECT_EQ((*view)->size(), 2);
  auto expected = engine.EvaluateOnce("MATCH (x:A)-[:R*1..3]->(y) RETURN x, y");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*view)->Snapshot().size(), expected.value().size());

  // And the batch removal retracts both trails.
  graph.BeginBatch();
  for (EdgeId e : graph.OutEdges(b)) {
    ASSERT_TRUE(graph.RemoveEdge(e).ok());
    break;
  }
  graph.CommitBatch();
  EXPECT_EQ((*view)->size(), 1);
}

// ---- wave executor ---------------------------------------------------------

TEST(WaveExecutor, OptionsThreadThroughTheEngineStack) {
  ScopedThreadsEnv env(nullptr);  // isolate from the ambient environment
  PropertyGraph graph;

  QueryEngine serial_engine(&graph);
  auto serial = serial_engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ((*serial)->executor(), ExecutorKind::kSerial);
  EXPECT_EQ((*serial)->network().executor_parallelism(), 1);

  EngineOptions options;
  options.network.executor = ExecutorKind::kParallel;
  options.network.num_threads = 3;
  QueryEngine parallel_engine(&graph, options);
  auto parallel = parallel_engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ((*parallel)->executor(), ExecutorKind::kParallel);
  EXPECT_EQ((*parallel)->network().executor_parallelism(), 3);
}

TEST(WaveExecutor, EnvOverrideWinsOverProgrammaticConfiguration) {
  PropertyGraph graph;
  {
    ScopedThreadsEnv env("4");
    QueryEngine engine(&graph);  // default-serial options
    auto view = engine.Register("MATCH (n:A) RETURN n");
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_EQ((*view)->executor(), ExecutorKind::kParallel);
    EXPECT_EQ((*view)->network().executor_parallelism(), 4);
  }
  {
    ScopedThreadsEnv env("1");
    EngineOptions options;
    options.network.executor = ExecutorKind::kParallel;
    options.network.num_threads = 8;
    QueryEngine engine(&graph, options);
    auto view = engine.Register("MATCH (n:A) RETURN n");
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_EQ((*view)->executor(), ExecutorKind::kSerial);
  }
  {
    ScopedThreadsEnv env("not-a-number");
    QueryEngine engine(&graph);
    auto view = engine.Register("MATCH (n:A) RETURN n");
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_EQ((*view)->executor(), ExecutorKind::kSerial);  // ignored
  }
}

/// Regression: PGIVM_THREADS used to accept trailing garbage ("8abc" read
/// as 8), silently saturate out-of-range values, and take any thread count
/// a pool would then try to start. Malformed values and counts above
/// ThreadPool::kMaxThreads must now leave the programmatic configuration
/// untouched; in-range values — including 0 and negatives — still apply.
/// Applying the override starts no threads.
TEST(WaveExecutor, EnvOverrideRejectsMalformedValues) {
  NetworkOptions programmatic;
  programmatic.executor = ExecutorKind::kParallel;
  programmatic.num_threads = 3;

  auto with_env = [&programmatic](const char* value) {
    ScopedThreadsEnv env(value);
    return ApplyEnvExecutorOverride(programmatic);
  };

  for (const char* rejected :
       {"", "abc", "8abc", "99999999999", "257", "100000"}) {
    NetworkOptions applied = with_env(rejected);
    EXPECT_EQ(applied.executor, ExecutorKind::kParallel)
        << "PGIVM_THREADS=\"" << rejected << "\"";
    EXPECT_EQ(applied.num_threads, 3)
        << "PGIVM_THREADS=\"" << rejected << "\"";
  }

  for (const char* serial : {"0", "-1", "1"}) {
    NetworkOptions applied = with_env(serial);
    EXPECT_EQ(applied.executor, ExecutorKind::kSerial)
        << "PGIVM_THREADS=\"" << serial << "\"";
  }

  NetworkOptions applied = with_env("8");
  EXPECT_EQ(applied.executor, ExecutorKind::kParallel);
  EXPECT_EQ(applied.num_threads, 8);

  applied = with_env("256");  // the cap itself is accepted
  EXPECT_EQ(applied.executor, ExecutorKind::kParallel);
  EXPECT_EQ(applied.num_threads, ThreadPool::kMaxThreads);
}

/// Drives identical random update streams through a serial and a parallel
/// engine over the same graph and requires bit-identical snapshots after
/// every delta — the wave barrier's determinism contract, at the unit
/// level (the differential harness covers the full query pool).
TEST(WaveExecutor, ParallelWavesAreBitIdenticalToSerial) {
  const std::vector<std::string> queries = {
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
      "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
      "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c, sum(a.x) AS s",
      "MATCH (a:A) WHERE NOT exists((a)-[:S]->()) RETURN a",
      "MATCH (a:A)-[:R*1..3]->(b) RETURN a, b",
  };

  ScopedThreadsEnv env(nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 4242;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  EngineOptions parallel_options;
  parallel_options.network.executor = ExecutorKind::kParallel;
  parallel_options.network.num_threads = 4;
  QueryEngine serial_engine(&graph);
  QueryEngine parallel_engine(&graph, parallel_options);
  std::vector<std::shared_ptr<View>> serial_views;
  std::vector<std::shared_ptr<View>> parallel_views;
  // One listener object shared by all of an engine's views: under the
  // parallel executor notifications are deferred to the wave barrier, so
  // even a shared (thread-unsafe) listener is safe and sees exactly the
  // serial executor's call sequence.
  RecordingListener serial_listener;
  RecordingListener parallel_listener;
  for (const std::string& query : queries) {
    auto serial = serial_engine.Register(query);
    ASSERT_TRUE(serial.ok()) << query << ": " << serial.status();
    (*serial)->AddListener(&serial_listener);
    serial_views.push_back(*serial);
    auto parallel = parallel_engine.Register(query);
    ASSERT_TRUE(parallel.ok()) << query << ": " << parallel.status();
    (*parallel)->AddListener(&parallel_listener);
    parallel_views.push_back(*parallel);
  }

  for (int step = 0; step < 50; ++step) {
    if (step % 2 == 0) {
      graph.BeginBatch();
      for (int i = 0; i < 6; ++i) generator.ApplyRandomUpdate(&graph);
      graph.CommitBatch();
    } else {
      generator.ApplyRandomUpdate(&graph);
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(serial_views[q]->Snapshot(), parallel_views[q]->Snapshot())
          << queries[q] << " diverged at step " << step;
    }
  }

  // Consolidated emission counts are part of the determinism contract too:
  // the barrier merge must not change what is delivered, only when.
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(serial_views[q]->network().TotalEmittedEntries(),
              parallel_views[q]->network().TotalEmittedEntries())
        << queries[q];
  }
  // And so are listener notifications (same calls, same total entries).
  EXPECT_EQ(parallel_listener.calls, serial_listener.calls);
  EXPECT_EQ(parallel_listener.entries, serial_listener.entries);
  for (size_t q = 0; q < queries.size(); ++q) {
    serial_views[q]->RemoveListener(&serial_listener);
    parallel_views[q]->RemoveListener(&parallel_listener);
  }
}

/// Records the thread of every notification. Locked, so that a
/// notification from a pool worker shows as a failed expectation rather
/// than as a data race.
class ThreadRecordingListener : public ViewChangeListener {
 public:
  void OnViewDelta(const Delta& /*delta*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++calls_;
    threads_.insert(std::this_thread::get_id());
  }
  int calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  mutable std::mutex mu_;
  int calls_ = 0;
  std::set<std::thread::id> threads_;
};

/// Parallel waves run node deliveries on pool workers, but listener
/// notifications are deferred to the wave barrier: every one of them runs
/// on the thread that committed the graph change.
TEST(WaveExecutor, ListenersRunOnTheCommittingThread) {
  ScopedThreadsEnv env(nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 5151;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  EngineOptions options;
  options.network.executor = ExecutorKind::kParallel;
  options.network.num_threads = 4;
  options.network.parallel_min_wave_entries = 0;
  QueryEngine engine(&graph, options);
  ThreadRecordingListener listener;
  std::vector<std::shared_ptr<View>> views;
  const char* const queries[] = {
      "MATCH (a:A)-[:R]->(b) RETURN a, b",
      "MATCH (a:A) RETURN a",
      "MATCH (b:B) RETURN b",
      "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c",
  };
  for (const char* query : queries) {
    auto view = engine.Register(query);
    ASSERT_TRUE(view.ok()) << query << ": " << view.status();
    (*view)->AddListener(&listener);
    views.push_back(*view);
  }

  for (int step = 0; step < 20; ++step) {
    graph.BeginBatch();
    for (int i = 0; i < 6; ++i) generator.ApplyRandomUpdate(&graph);
    graph.CommitBatch();
  }

  EXPECT_GT(engine.MetricsSnapshot().parallel_waves_dispatched, 0);
  EXPECT_GT(listener.calls(), 0);
  EXPECT_EQ(listener.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
  for (const std::shared_ptr<View>& view : views) {
    view->RemoveListener(&listener);
  }
}

// ---- work-size-aware wave gating -------------------------------------------

/// A prohibitive gate must keep every wave inline (zero pool dispatches)
/// and a zero gate must dispatch — while both deliver exactly the serial
/// executor's results. The knob moves only *where* delivery runs.
TEST(WaveGating, GateDecidesDispatchWithoutChangingResults) {
  const std::vector<std::string> queries = {
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
      "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
      "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c, sum(a.x) AS s",
  };

  ScopedThreadsEnv env(nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 6161;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  auto parallel_options = [](size_t min_wave_entries) {
    EngineOptions options;
    options.network.executor = ExecutorKind::kParallel;
    options.network.num_threads = 4;
    options.network.parallel_min_wave_entries = min_wave_entries;
    return options;
  };
  QueryEngine serial_engine(&graph);
  QueryEngine ungated_engine(&graph, parallel_options(0));
  QueryEngine gated_engine(&graph,
                           parallel_options(1u << 30));  // prohibitive
  std::vector<std::vector<std::shared_ptr<View>>> views(3);
  for (const std::string& query : queries) {
    for (auto* engine :
         {&serial_engine, &ungated_engine, &gated_engine}) {
      size_t slot = engine == &serial_engine    ? 0
                    : engine == &ungated_engine ? 1
                                                : 2;
      auto view = engine->Register(query);
      ASSERT_TRUE(view.ok()) << query << ": " << view.status();
      views[slot].push_back(*view);
    }
  }

  for (int step = 0; step < 30; ++step) {
    graph.BeginBatch();
    for (int i = 0; i < 6; ++i) generator.ApplyRandomUpdate(&graph);
    graph.CommitBatch();
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(views[1][q]->Snapshot(), views[0][q]->Snapshot())
          << queries[q] << " (gate 0) diverged at step " << step;
      ASSERT_EQ(views[2][q]->Snapshot(), views[0][q]->Snapshot())
          << queries[q] << " (prohibitive gate) diverged at step " << step;
    }
  }

  const ReteNetwork* ungated_net = &ungated_engine.catalog().network();
  const ReteNetwork* gated_net = &gated_engine.catalog().network();
  EXPECT_GT(ungated_net->parallel_waves_dispatched(), 0)
      << "gate 0 never reached the pool";
  EXPECT_EQ(gated_net->parallel_waves_dispatched(), 0)
      << "prohibitive gate still dispatched";
  // Emission counts are part of the bit-parity contract.
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(views[1][q]->network().TotalEmittedEntries(),
              views[0][q]->network().TotalEmittedEntries());
    EXPECT_EQ(views[2][q]->network().TotalEmittedEntries(),
              views[0][q]->network().TotalEmittedEntries());
  }
}

TEST(WaveGating, OptionThreadsThroughEngineAndDefaultsNonZero) {
  ScopedThreadsEnv env(nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok()) << view.status();
  // The default gate keeps single-change waves (the steady state this
  // knob exists for) off the pool.
  EXPECT_GT((*view)->network().parallel_min_wave_entries(), 0u);

  EngineOptions options;
  options.network.parallel_min_wave_entries = 123;
  QueryEngine tuned(&graph, options);
  auto tuned_view = tuned.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(tuned_view.ok()) << tuned_view.status();
  EXPECT_EQ((*tuned_view)->network().parallel_min_wave_entries(), 123u);
}

// ---- consolidation cutoff --------------------------------------------------

TEST(ConsolidationCutoff, SmallPathMatchesSortPathExactly) {
  // Mixed-sign payloads over a small tuple pool, every size around the
  // cutoff: the fast path must produce byte-identical canonical output
  // (same entries, same order) as the sort path.
  std::vector<Tuple> pool;
  for (int64_t i = 0; i < 4; ++i) {
    pool.push_back(Tuple({Value::Int(i), Value::String("p")}));
  }
  uint64_t lcg = 12345;
  auto next = [&lcg](uint64_t bound) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % bound;
  };
  for (size_t size = 0; size <= 6; ++size) {
    for (int round = 0; round < 50; ++round) {
      Delta original;
      for (size_t i = 0; i < size; ++i) {
        int64_t multiplicity = static_cast<int64_t>(next(5)) - 2;
        original.push_back({pool[next(pool.size())], multiplicity});
      }
      Delta sorted = original;
      Consolidate(sorted, /*small_cutoff=*/0);
      for (size_t cutoff : {size_t{1}, size_t{2}, size_t{6}, size_t{64}}) {
        Delta fast = original;
        Consolidate(fast, cutoff);
        ASSERT_TRUE(IsConsolidated(fast))
            << "size=" << size << " cutoff=" << cutoff;
        ASSERT_EQ(fast.size(), sorted.size())
            << "size=" << size << " cutoff=" << cutoff;
        for (size_t i = 0; i < fast.size(); ++i) {
          ASSERT_EQ(Tuple::Compare(fast[i].tuple, sorted[i].tuple), 0);
          ASSERT_EQ(fast[i].multiplicity, sorted[i].multiplicity);
        }
      }
    }
  }
}

TEST(ConsolidationCutoff, EqualRepresentationsMergeToFirstArrivalOnBothPaths) {
  // Int(1) and Double(1.0) compare (and hash) equal, so they merge into
  // one entry — and *which representation survives* must not depend on
  // the consolidation path, or the cutoff would change stored view rows.
  // Both paths keep the first arrival.
  const Tuple as_double({Value::Double(1.0)});
  const Tuple as_int({Value::Int(1)});
  for (bool double_first : {true, false}) {
    Delta original{{double_first ? as_double : as_int, 1},
                   {double_first ? as_int : as_double, 1}};
    for (size_t cutoff : {size_t{0}, size_t{2}}) {
      Delta delta = original;
      Consolidate(delta, cutoff);
      ASSERT_EQ(delta.size(), 1u);
      EXPECT_EQ(delta[0].multiplicity, 2);
      EXPECT_EQ(delta[0].tuple.at(0).is_double(), double_first)
          << "cutoff=" << cutoff << " double_first=" << double_first;
    }
  }
}

TEST(ConsolidationCutoff, DefaultSkipsSortForTinyPayloadsOnly) {
  EXPECT_EQ(kDefaultConsolidationCutoff, 2u);
}

// ---- publish merge ---------------------------------------------------------

using PublishPath = ProductionNode::PublishPath;

/// Delivers `delta` to a free-standing production, which applies it to its
/// results and appends nothing to its output.
void Deliver(ProductionNode& production, const Delta& delta) {
  Delta out;
  production.OnDelta(0, delta, out);
}

/// Drives one free-standing production with a seeded stream of raw deltas
/// over a pool of Int rows (no Compare ties; counts up to 3) and checks
/// after every publish that the merged rows equal a fresh sort of the bag,
/// element for element, and that every epoch a reader still holds did not
/// change. Step 0 fills about 3,000 rows; later steps bring 1–3 deliveries
/// of up to 6 entries each, so the buffer spans several deltas, may net a
/// row to zero, and stays small enough for the spare to be kept. Readers
/// pin and release epochs at random, so a spare is sometimes free to
/// reuse and sometimes pinned: all three publish paths run, and the
/// stream asserts each did. At step `wipe_at` it retracts all but one row
/// in a single delta — more entries than the view keeps, so the buffer
/// outgrows its bound and the publish sorts again (-1: never).
void DrivePublishStream(uint64_t seed, int wipe_at) {
  ProductionNode production(Schema({{"x", Attribute::Kind::kValue}}));
  auto row = [](int64_t k) { return Tuple({Value::Int(k)}); };
  Rng rng(seed);
  std::map<int64_t, int64_t> model;
  struct Held {
    ProductionNode::EpochPtr epoch;
    std::vector<Tuple> frozen;
  };
  std::vector<Held> held;
  std::map<PublishPath, int> paths;
  uint64_t epoch = 0;
  for (int step = 0; step < 200; ++step) {
    const uint64_t deliveries =
        step == 0 || step == wipe_at ? 1 : 1 + rng.NextBelow(3);
    for (uint64_t d = 0; d < deliveries; ++d) {
      Delta delta;
      if (step == 0) {
        for (int64_t k = 0; k < 1536; ++k) {
          delta.push_back({row(k), rng.NextInRange(1, 3)});
        }
      } else if (step == wipe_at) {
        for (auto it = std::next(model.begin()); it != model.end(); ++it) {
          delta.push_back({row(it->first), -it->second});
        }
      } else {
        std::set<int64_t> touched;
        const uint64_t entries = 1 + rng.NextBelow(6);
        for (uint64_t e = 0; e < entries; ++e) {
          const int64_t k = static_cast<int64_t>(rng.NextBelow(2048));
          if (!touched.insert(k).second) continue;
          auto have = model.find(k);
          const int64_t m = have != model.end() && rng.NextBool(0.5)
                                ? -rng.NextInRange(1, have->second)
                                : rng.NextInRange(1, 3);
          delta.push_back({row(k), m});
        }
      }
      for (const DeltaEntry& entry : delta) {
        const int64_t k = entry.tuple.at(0).AsInt();
        if ((model[k] += entry.multiplicity) == 0) model.erase(k);
      }
      Deliver(production, delta);
    }
    if (rng.NextBool(0.5)) {
      ProductionNode::EpochPtr pinned = production.PinSnapshot();
      std::vector<Tuple> frozen = pinned->rows;
      held.push_back({std::move(pinned), std::move(frozen)});
    }
    ++paths[production.PublishSnapshot(++epoch)];
    ASSERT_EQ(production.PinSnapshot()->rows,
              ProductionNode::SortedRows(production.results()))
        << "seed " << seed << " step " << step;
    for (const Held& h : held) {
      ASSERT_EQ(h.epoch->rows, h.frozen) << "seed " << seed << " step " << step;
    }
    held.erase(
        std::remove_if(held.begin(), held.end(),
                       [&rng](const Held&) { return rng.NextBool(0.4); }),
        held.end());
    int64_t total = 0;
    for (const auto& [k, count] : model) total += count;
    ASSERT_EQ(production.results().total_count(), total);
  }
  EXPECT_GT(paths[PublishPath::kRecycled], 0) << "seed " << seed;
  EXPECT_GT(paths[PublishPath::kCopied], 0) << "seed " << seed;
  EXPECT_GT(paths[PublishPath::kSorted], 0) << "seed " << seed;
  EXPECT_EQ(paths[PublishPath::kKept], 0) << "seed " << seed;
}

TEST(PublishMerge, RandomStreamMatchesSortedBag) {
  for (uint64_t seed : {1, 2, 3, 4}) DrivePublishStream(seed, -1);
}

TEST(PublishMerge, DeltaLargerThanTheViewRebuildsThenMerges) {
  for (uint64_t seed : {7, 8}) DrivePublishStream(seed, 120);
}

/// Equal as rows and stored alike: Int(1) == Double(1.0), so a tied run
/// can hold either, and the merge must keep the one it kept before.
bool IdenticalRows(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i]) || a[i].at(0).type() != b[i].at(0).type()) {
      return false;
    }
  }
  return true;
}

// Reusing the spare publishes exactly the rows the copy merge publishes,
// the order inside Int/Double tied runs included. Two productions take the
// same stream; the second's spare is always pinned, so it always copies.
// Keys come from a small hot range half the time, so consecutive commits
// often touch the same tied run (the reuse then merges the two change sets
// in turn) and sometimes disjoint ones (one merge of both).
TEST(PublishMerge, RecycledRowsMatchTheCopyMerge) {
  const Schema schema({{"x", Attribute::Kind::kValue}});
  for (uint64_t seed : {11, 12, 13}) {
    ProductionNode recycling(schema);
    ProductionNode copying(schema);
    Rng rng(seed);
    // (key, is_double) -> live copies; Int(k) and Double(k) tie.
    std::map<std::pair<int64_t, bool>, int64_t> model;
    auto row = [](int64_t k, bool as_double) {
      return Tuple({as_double ? Value::Double(static_cast<double>(k))
                              : Value::Int(k)});
    };
    auto deliver = [&](const Delta& delta) {
      for (const DeltaEntry& entry : delta) {
        const Value& v = entry.tuple.at(0);
        const auto key = std::make_pair(
            v.is_double() ? static_cast<int64_t>(v.AsDouble()) : v.AsInt(),
            v.is_double());
        if ((model[key] += entry.multiplicity) == 0) model.erase(key);
      }
      Deliver(recycling, delta);
      Deliver(copying, delta);
    };
    Delta fill;
    for (int64_t k = 0; k < 1024; ++k) fill.push_back({row(k, k % 3 == 0), 1});
    deliver(fill);
    std::vector<ProductionNode::EpochPtr> copying_pins;
    int recycled = 0;
    for (uint64_t epoch = 1; epoch <= 400; ++epoch) {
      if (epoch > 1) {
        const uint64_t deliveries = 1 + rng.NextBelow(3);
        for (uint64_t d = 0; d < deliveries; ++d) {
          Delta delta;
          const uint64_t entries = 1 + rng.NextBelow(3);
          for (uint64_t e = 0; e < entries; ++e) {
            const int64_t k = static_cast<int64_t>(
                rng.NextBool(0.5) ? rng.NextBelow(4) : rng.NextBelow(1024));
            const auto tuple = row(k, rng.NextBool(0.5));
            // Retract any live copy of the tied pair, or add one.
            auto live = model.find({k, rng.NextBool(0.5)});
            if (live != model.end() && rng.NextBool(0.5)) {
              delta.push_back({row(k, live->first.second), -1});
            } else {
              delta.push_back({tuple, 1});
            }
          }
          deliver(delta);
        }
      }
      copying_pins.push_back(copying.PinSnapshot());
      if (copying_pins.size() > 2) copying_pins.erase(copying_pins.begin());
      const PublishPath path = recycling.PublishSnapshot(epoch);
      EXPECT_NE(copying.PublishSnapshot(epoch), PublishPath::kRecycled);
      if (epoch > 1) {
        EXPECT_NE(path, PublishPath::kSorted) << epoch;
      }
      if (path == PublishPath::kRecycled) ++recycled;
      ASSERT_TRUE(IdenticalRows(recycling.PinSnapshot()->rows,
                                copying.PinSnapshot()->rows))
          << "seed " << seed << " epoch " << epoch;
    }
    EXPECT_GT(recycled, 300) << "seed " << seed;
    int64_t total = 0;
    for (const auto& [key, count] : model) total += count;
    EXPECT_EQ(recycling.results().total_count(), total);
    EXPECT_EQ(recycling.PinSnapshot()->rows.size(),
              static_cast<size_t>(total));
  }
}

/// A free-standing production over `rows` Int rows, published once (the
/// sort), for the lifetime tests: a view of at least
/// kRowsPerSpareChange rows keeps a one-row change's spare.
struct LifetimeFixture {
  explicit LifetimeFixture(int64_t rows)
      : production(Schema({{"x", Attribute::Kind::kValue}})) {
    Delta fill;
    for (int64_t k = 0; k < rows; ++k) {
      fill.push_back({Tuple({Value::Int(1000 + k)}), 1});
    }
    Deliver(production, fill);
    EXPECT_EQ(production.PublishSnapshot(++epoch), PublishPath::kSorted);
  }
  PublishPath PublishRow(int64_t k) {
    Deliver(production, Delta{{Tuple({Value::Int(k)}), 1}});
    return production.PublishSnapshot(++epoch);
  }
  ProductionNode production;
  uint64_t epoch = 0;
};

// A superseded epoch is freed by the writer, never by a reader dropping
// its pin. The one just superseded is the spare: the writer holds it until
// the next changed publish, which reuses its rows once no reader pins it.
TEST(PublishMerge, SupersededEpochsRetireOnTheWriter) {
  LifetimeFixture f(static_cast<int64_t>(ProductionNode::kRowsPerSpareChange));
  ProductionNode::EpochPtr pinned = f.production.PinSnapshot();
  std::weak_ptr<const PublishedEpoch> first = pinned;
  EXPECT_EQ(f.PublishRow(1), PublishPath::kCopied);  // no spare yet
  pinned.reset();  // the reader moves on: the writer holds the spare
  EXPECT_FALSE(first.expired());
  EXPECT_EQ(f.production.PublishSnapshot(++f.epoch), PublishPath::kKept);
  EXPECT_FALSE(first.expired());  // unchanged: the spare waits
  EXPECT_EQ(f.PublishRow(2), PublishPath::kRecycled);
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(f.production.PinSnapshot()->rows,
            ProductionNode::SortedRows(f.production.results()));

  // A view too small for a one-row change's spare retires each superseded
  // epoch: the first publish after its last reader lets go frees it.
  LifetimeFixture small(1);
  pinned = small.production.PinSnapshot();
  first = pinned;
  EXPECT_EQ(small.PublishRow(1), PublishPath::kCopied);
  pinned.reset();
  EXPECT_FALSE(first.expired());
  EXPECT_EQ(small.production.PublishSnapshot(++small.epoch),
            PublishPath::kKept);  // unchanged, still sweeps
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(small.PublishRow(2), PublishPath::kCopied);
  EXPECT_EQ(small.production.PinSnapshot()->rows.size(), 3u);
}

// No retention window: the spare lives until the next changed publish,
// and every older superseded epoch until the first publish after its last
// reader lets go, whatever order readers release in.
TEST(PublishMerge, EachSupersededEpochLivesUntilItsLastReaderLetsGo) {
  LifetimeFixture f(static_cast<int64_t>(ProductionNode::kRowsPerSpareChange));
  const size_t rows = ProductionNode::kRowsPerSpareChange;
  ProductionNode::EpochPtr first = f.production.PinSnapshot();
  EXPECT_EQ(f.PublishRow(1), PublishPath::kCopied);  // spare: first
  ProductionNode::EpochPtr second = f.production.PinSnapshot();
  EXPECT_EQ(f.PublishRow(2), PublishPath::kCopied);  // first pinned
  ProductionNode::EpochPtr third = f.production.PinSnapshot();
  std::weak_ptr<const PublishedEpoch> first_alive = first;
  std::weak_ptr<const PublishedEpoch> second_alive = second;
  std::weak_ptr<const PublishedEpoch> third_alive = third;

  // The oldest and the newest readers leave; the middle one stays.
  first.reset();
  third.reset();
  EXPECT_EQ(f.PublishRow(3), PublishPath::kCopied);  // second pinned
  EXPECT_TRUE(first_alive.expired());
  EXPECT_FALSE(second_alive.expired());
  EXPECT_FALSE(third_alive.expired());  // the spare now
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(second->rows.size(), rows + 1);

  second.reset();
  EXPECT_FALSE(second_alive.expired());  // the writer frees it, not the reader
  EXPECT_EQ(f.production.PublishSnapshot(++f.epoch), PublishPath::kKept);
  EXPECT_TRUE(second_alive.expired());
  EXPECT_FALSE(third_alive.expired());
  EXPECT_EQ(f.PublishRow(4), PublishPath::kRecycled);
  EXPECT_TRUE(third_alive.expired());
  EXPECT_EQ(f.production.PinSnapshot()->epoch, 6u);
  EXPECT_EQ(f.production.PinSnapshot()->rows.size(), rows + 4);
}

// ---- network lifecycle -----------------------------------------------------

/// One source feeding one production, wired by hand into a network that
/// is subscribed to `graph` from construction.
struct SingleSourceFixture {
  ProductionNode* AddView(const std::string& label) {
    Schema vs({{"v", Attribute::Kind::kVertex}});
    auto* source = network.Add(std::make_unique<VertexInputNode>(
        vs, &graph, std::vector<std::string>{label},
        std::vector<PropertyExtract>{}));
    network.RegisterSource(source);
    auto* production = network.Add(std::make_unique<ProductionNode>(vs));
    source->AddOutput(production, 0);
    network.RegisterProduction(production);
    fresh = {source, production};
    return production;
  }

  PropertyGraph graph;
  ReteNetwork network{&graph, NetworkOptions{}};
  std::vector<ReteNode*> fresh;
};

TEST(NetworkLifecycle, PrimeLevelsTheNodesAndPublishesOneEpoch) {
  SingleSourceFixture fixture;
  fixture.graph.AddVertex({"A", "B"});
  ProductionNode* production = fixture.AddView("A");
  EXPECT_EQ(fixture.network.node_level(production), -1);  // not primed yet

  ReteNetwork::PrimeStats stats =
      fixture.network.PrimeNewNodes(fixture.fresh, {}, fixture.fresh);
  EXPECT_EQ(fixture.network.node_level(fixture.fresh[0]), 0);
  EXPECT_EQ(fixture.network.node_level(production), 1);
  EXPECT_EQ(fixture.network.DebugString().rfind("executor=serial\n", 0), 0u);
  EXPECT_EQ(stats.primed_sources, 1u);
  EXPECT_EQ(stats.graph_primed_entries, 1);
  EXPECT_EQ(production->results().total_count(), 1);

  // The subscribed network committed the graph delta before the prime
  // (epoch 1); the prime drains once and publishes one epoch (2), as does
  // each graph delta after it.
  EXPECT_EQ(fixture.network.commit_epoch(), 2u);
  EXPECT_EQ(production->PinSnapshot()->epoch, 2u);
  fixture.graph.AddVertex({"A"});
  EXPECT_EQ(fixture.network.commit_epoch(), 3u);
  EXPECT_EQ(production->results().total_count(), 2);

  // A second view primes through the same call: its own nodes are levelled
  // and one more epoch is published; the first view is untouched.
  ProductionNode* second = fixture.AddView("B");
  fixture.network.PrimeNewNodes(fixture.fresh, {}, fixture.fresh);
  EXPECT_EQ(fixture.network.node_level(second), 1);
  EXPECT_EQ(fixture.network.commit_epoch(), 4u);
  EXPECT_EQ(second->results().total_count(), 1);
  EXPECT_EQ(second->PinSnapshot()->epoch, 4u);
  EXPECT_EQ(production->PinSnapshot()->epoch, 3u);
}

TEST(NetworkLifecycle, SubscriptionLastsFromConstructionToDestruction) {
  PropertyGraph graph;
  {
    ReteNetwork network(&graph, NetworkOptions{});
    graph.AddVertex({"A"});
    EXPECT_EQ(network.deltas_processed(), 1);
    EXPECT_EQ(network.changes_processed(), 1);
  }
  // Unsubscribed: the graph no longer notifies the destroyed network.
  graph.AddVertex({"A"});
  EXPECT_EQ(graph.vertex_count(), 2u);
}

// Dropping a view's nodes and priming a new one reads the graph as it is
// now: mutations made while no view was live are not lost, and the commit
// epoch keeps counting across the gap.
TEST(NetworkLifecycle, RemovedViewRePrimesFromTheCurrentGraph) {
  SingleSourceFixture fixture;
  fixture.AddView("A");
  fixture.network.PrimeNewNodes(fixture.fresh, {}, fixture.fresh);  // 1
  fixture.graph.AddVertex({"A"});                                   // 2

  fixture.network.RemoveNodes(fixture.fresh);
  EXPECT_EQ(fixture.network.node_count(), 0u);
  EXPECT_EQ(fixture.network.source_count(), 0u);
  fixture.graph.AddVertex({"A"});  // 3
  fixture.graph.AddVertex({"B"});  // 4

  ProductionNode* again = fixture.AddView("A");
  ReteNetwork::PrimeStats stats =
      fixture.network.PrimeNewNodes(fixture.fresh, {}, fixture.fresh);  // 5
  EXPECT_EQ(stats.graph_primed_entries, 2);
  EXPECT_EQ(again->results().total_count(), 2);
  EXPECT_EQ(fixture.network.node_level(again), 1);
  EXPECT_EQ(fixture.network.commit_epoch(), 5u);
  EXPECT_EQ(again->PinSnapshot()->epoch, 5u);

  fixture.graph.AddVertex({"A"});
  EXPECT_EQ(again->results().total_count(), 3);
  EXPECT_EQ(again->PinSnapshot()->epoch, 6u);
}

// The constructor builds the pool the executor needs, once: kParallel with
// more than one thread gets a pool of that size, a single thread keeps the
// serial fast path (no pool, no dispatch), and kSerial never builds one.
TEST(NetworkLifecycle, ConstructorBuildsThePoolTheExecutorNeeds) {
  PropertyGraph graph;
  NetworkOptions parallel;
  parallel.executor = ExecutorKind::kParallel;
  parallel.num_threads = 2;
  ReteNetwork pooled(&graph, parallel);
  ASSERT_NE(pooled.thread_pool(), nullptr);
  EXPECT_EQ(pooled.thread_pool()->parallelism(), 2);
  EXPECT_EQ(pooled.executor_parallelism(), 2);
  EXPECT_EQ(pooled.DebugString().rfind("executor=parallel(2)\n", 0), 0u);

  NetworkOptions single = parallel;
  single.num_threads = 1;
  ReteNetwork unpooled(&graph, single);
  EXPECT_EQ(unpooled.executor(), ExecutorKind::kParallel);
  EXPECT_EQ(unpooled.thread_pool(), nullptr);
  EXPECT_EQ(unpooled.executor_parallelism(), 1);

  ReteNetwork serial(&graph, NetworkOptions{});
  EXPECT_EQ(serial.thread_pool(), nullptr);
  EXPECT_EQ(serial.executor_parallelism(), 1);
}

// Productions register beside sources: a second view root on an already
// primed source is primed by replay alone, both roots publish at every
// commit, and removing one leaves the other maintained.
TEST(NetworkLifecycle, ProductionsOnOneSourceEachPublish) {
  PropertyGraph graph;
  graph.AddVertex({"A"});
  ReteNetwork network(&graph, NetworkOptions{});
  Schema vs({{"v", Attribute::Kind::kVertex}});
  auto* source = network.Add(std::make_unique<VertexInputNode>(
      vs, &graph, std::vector<std::string>{"A"},
      std::vector<PropertyExtract>{}));
  network.RegisterSource(source);
  auto* first = network.Add(std::make_unique<ProductionNode>(vs));
  source->AddOutput(first, 0);
  network.RegisterProduction(first);
  network.PrimeNewNodes({source, first}, {}, {source, first});
  ASSERT_EQ(first->results().total_count(), 1);

  auto* second = network.Add(std::make_unique<ProductionNode>(vs));
  source->AddOutput(second, 0);
  network.RegisterProduction(second);
  ReteNetwork::PrimeStats stats =
      network.PrimeNewNodes({second}, {{source, second, 0}}, {source, second});
  EXPECT_EQ(stats.replayed_entries, 1);
  EXPECT_EQ(stats.graph_primed_entries, 0);
  EXPECT_EQ(stats.primed_sources, 0u);
  EXPECT_EQ(second->results().total_count(), 1);
  EXPECT_EQ(first->results().total_count(), 1);  // not replayed into

  graph.AddVertex({"A"});
  for (ProductionNode* production : {first, second}) {
    EXPECT_EQ(production->PinSnapshot()->rows.size(), 2u);
    EXPECT_EQ(production->PinSnapshot()->epoch, network.commit_epoch());
  }

  network.RemoveNodes({first});
  EXPECT_EQ(network.node_count(), 2u);
  EXPECT_EQ(network.source_count(), 1u);
  graph.AddVertex({"A"});
  EXPECT_EQ(second->PinSnapshot()->rows.size(), 3u);
  EXPECT_EQ(second->PinSnapshot()->epoch, network.commit_epoch());
}

// Profiling switched on before a view exists carries to the nodes added
// later, and the trace it starts is capped at the one trace capacity.
TEST(NetworkLifecycle, NodesAddedLaterInheritProfiling) {
  SingleSourceFixture fixture;
  fixture.network.set_profiling(true);
  ASSERT_NE(fixture.network.trace(), nullptr);
  EXPECT_EQ(fixture.network.trace()->capacity(), kTraceCapacity);

  fixture.AddView("A");
  fixture.network.PrimeNewNodes(fixture.fresh, {}, fixture.fresh);
  fixture.graph.AddVertex({"A"});
  int64_t production_out = 0;
  for (const ReteNetwork::NodeMetrics& node :
       fixture.network.NodeMetricsSnapshot()) {
    if (std::string(node.kind) == "Production") {
      production_out += node.output_entries;
    }
  }
  EXPECT_EQ(production_out, 1);
  int drains = 0;
  for (const TraceEvent& event : fixture.network.trace()->events()) {
    drains += event.name == "drain" ? 1 : 0;
  }
  EXPECT_EQ(drains, 2);  // the prime and the graph delta
}

}  // namespace
}  // namespace pgivm
