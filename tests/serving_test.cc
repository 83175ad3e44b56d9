// Serving-path tests: epoch-published snapshots under concurrent readers.
//
// The contract under test (see the View class comment): Pin(), Snapshot()
// and size() are safe from any number of reader threads while
// the writer thread propagates changes, and every pinned snapshot is the
// bit-exact state of some committed epoch — never a torn or mid-drain
// state. The differential harness here drives a serial reference engine
// over the same graph and requires each concurrently pinned snapshot to
// equal the reference rows recorded at that snapshot's commit epoch.
//
// Run these under the TSAN configuration (-DPGIVM_SANITIZE_THREAD=ON) to
// turn the regression tests into data-race proofs; they are labelled
// `serving` in CMake so CI's TSAN job picks them up.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "scoped_env_var.h"
#include "support/rng.h"
#include "workload/random_graph.h"

namespace pgivm {
namespace {

/// The harness query pool: scans, a two-hop join, aggregation, an
/// undirected pattern and DISTINCT — enough operator coverage that a
/// publication bug anywhere in the network surfaces as a mismatch.
const std::vector<const char*>& ServingQueries() {
  static const std::vector<const char*> queries = {
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
      "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
      "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c, sum(a.x) AS s",
      "MATCH (a:A)-[r:R]-(b) RETURN a, b",
      "MATCH (a:A)-[:R]->(b) RETURN DISTINCT b",
  };
  return queries;
}

/// Regression for the original reader race: Snapshot() used to rebuild a
/// mutable per-view sort cache without synchronization, so two concurrent
/// Snapshot() calls on one view raced on the cache members. Under TSAN
/// this test is a proof that the epoch-pinned rendering cache is safe.
TEST(ServingSnapshot, ConcurrentSnapshotsOnOneViewAreSafe) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 7;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b");
  ASSERT_TRUE(view.ok()) << view.status();
  const std::vector<Tuple> expected = (*view)->Snapshot();

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&view, &expected] {
      for (int i = 0; i < 500; ++i) {
        EXPECT_EQ((*view)->Snapshot(), expected);
        EXPECT_EQ((*view)->size(),
                  static_cast<int64_t>(expected.size()));
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
}

/// Readers pin while the writer churns: every snapshot must be internally
/// consistent (its rows sorted, all of them covered) and frozen (two reads
/// of one pinned object agree), even though commits land between and
/// during the reads.
TEST(ServingSnapshot, ReadersStayConsistentDuringWriterChurn) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 21;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  for (const char* query : ServingQueries()) {
    auto view = engine.Register(query);
    ASSERT_TRUE(view.ok()) << query << ": " << view.status();
    views.push_back(*view);
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&views, &done, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const View& view = *views[i++ % views.size()];
        std::shared_ptr<const ViewSnapshot> snap = view.Pin();
        // No SKIP/LIMIT registered, so the rows cover the whole result.
        EXPECT_EQ(static_cast<int64_t>(snap->rows().size()),
                  snap->total_rows());
        EXPECT_TRUE(std::is_sorted(snap->rows().begin(), snap->rows().end(),
                                   [](const Tuple& a, const Tuple& b) {
                                     return Tuple::Compare(a, b) < 0;
                                   }));
        // Two pins of the same epoch agree, whichever thread built the
        // cached rendering first.
        std::shared_ptr<const ViewSnapshot> again = view.Pin();
        if (again->epoch() == snap->epoch()) {
          EXPECT_EQ(again->rows(), snap->rows());
        }
        EXPECT_GE(view.size(), 0);
      }
    });
  }

  for (int step = 0; step < 200; ++step) {
    if (step % 4 == 0) {
      graph.BeginBatch();
      for (int i = 0; i < 3; ++i) generator.ApplyRandomUpdate(&graph);
      graph.CommitBatch();
    } else {
      generator.ApplyRandomUpdate(&graph);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
}

/// The spare-epoch handoff under contention: readers pin and unpin in a
/// tight loop while the writer commits single-row changes to a view large
/// enough to keep its spare, so the writer keeps reusing epochs readers
/// have only just let go of. A reader's pinned rows must not change while
/// it holds them, and the reuse path must actually run — under TSAN this
/// test races the handoff.
TEST(ServingSnapshot, RecycledEpochsNeverChangeUnderAReader) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  static constexpr int64_t kRows = 512;
  std::vector<VertexId> vertices;
  for (int64_t i = 0; i < kRows; ++i) {
    vertices.push_back(graph.AddVertex({"A"}, {{"x", Value::Int(i)}}));
  }
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n.x AS x");
  ASSERT_TRUE(view.ok()) << view.status();

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&view, &done] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const ViewSnapshot> snap = (*view)->Pin();
        const std::vector<Tuple> frozen = snap->rows();
        EXPECT_EQ(static_cast<int64_t>(frozen.size()), kRows);
        EXPECT_EQ((*view)->size(), kRows);
        EXPECT_EQ(snap->rows(), frozen);
      }
    });
  }
  Rng rng(5);
  for (int step = 0; step < 2000; ++step) {
    ASSERT_TRUE(graph
                    .SetVertexProperty(
                        vertices[rng.NextBelow(vertices.size())], "x",
                        Value::Int(static_cast<int64_t>(rng.NextBelow(4096))))
                    .ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  const EngineMetricsSnapshot metrics = engine.MetricsSnapshot();
  EXPECT_GT(metrics.epochs_recycled, 0);
  EXPECT_EQ(metrics.epochs_recycled + metrics.epochs_copied +
                metrics.epochs_sorted,
            metrics.epochs_published);
  std::vector<Tuple> expected = (*view)->Snapshot();
  auto fresh = engine.EvaluateOnce((*view)->query());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(expected, *fresh);
}

/// One reader's record of a concurrently pinned state.
struct PinnedState {
  size_t view = 0;
  uint64_t epoch = 0;
  std::vector<Tuple> rows;
};

/// The concurrent-reader differential harness. A serial reference engine
/// shares the graph with the engine under test; the writer records the
/// reference rows for every view keyed by the test view's published epoch
/// after each commit, while reader threads pin snapshots concurrently.
/// After the run, every pinned (view, epoch, rows) triple must equal the
/// reference rows recorded for that epoch — i.e. every concurrently
/// observed state is a committed serial state, bit for bit.
void RunConcurrentReaderHarness(const EngineOptions& options, uint64_t seed,
                                int reader_count) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = seed;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine test_engine(&graph, options);
  QueryEngine reference_engine(&graph);  // default: batched, serial
  std::vector<std::shared_ptr<View>> test_views;
  std::vector<std::shared_ptr<View>> reference_views;
  for (const char* query : ServingQueries()) {
    auto test_view = test_engine.Register(query);
    ASSERT_TRUE(test_view.ok()) << query << ": " << test_view.status();
    test_views.push_back(*test_view);
    auto reference_view = reference_engine.Register(query);
    ASSERT_TRUE(reference_view.ok())
        << query << ": " << reference_view.status();
    reference_views.push_back(*reference_view);
  }

  // history[v][epoch] = the serial reference rows when the test view's
  // published epoch was `epoch`. Written only by the writer (this)
  // thread; readers never touch it until after they are joined.
  std::vector<std::map<uint64_t, std::vector<Tuple>>> history(
      test_views.size());
  auto record_commit = [&](int step) {
    for (size_t v = 0; v < test_views.size(); ++v) {
      std::shared_ptr<const ViewSnapshot> pin = test_views[v]->Pin();
      std::vector<Tuple> reference = reference_views[v]->Snapshot();
      ASSERT_EQ(pin->rows(), reference)
          << ServingQueries()[v] << " diverged from the serial reference"
          << " at step " << step;
      history[v][pin->epoch()] = std::move(reference);
    }
  };
  record_commit(-1);  // the post-registration (primed) state

  std::atomic<bool> done{false};
  std::atomic<int> readers_pinned{0};
  constexpr size_t kMaxPinsPerReader = 300;
  std::vector<std::vector<PinnedState>> pinned(
      static_cast<size_t>(reader_count));
  std::vector<std::thread> readers;
  for (int t = 0; t < reader_count; ++t) {
    readers.emplace_back([&test_views, &done, &pinned, &readers_pinned, t] {
      std::vector<PinnedState>& mine = pinned[static_cast<size_t>(t)];
      size_t i = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        size_t v = i++ % test_views.size();
        std::shared_ptr<const ViewSnapshot> snap = test_views[v]->Pin();
        if (mine.size() < kMaxPinsPerReader) {
          mine.push_back({v, snap->epoch(), snap->rows()});
          if (mine.size() == 1) {
            readers_pinned.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Exercise the other reader entry point too.
        (void)test_views[v]->size();
      }
    });
  }

  for (int step = 0; step < 30; ++step) {
    graph.BeginBatch();
    for (int i = 0; i < 3; ++i) generator.ApplyRandomUpdate(&graph);
    graph.CommitBatch();
    record_commit(step);
  }
  // On an oversubscribed machine (ctest -j on few cores) the readers may
  // not have been scheduled at all yet; the race being tested needs them
  // to actually overlap some committed state, so wait until every reader
  // has recorded at least one pin before stopping them.
  while (readers_pinned.load(std::memory_order_relaxed) < reader_count) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // Every concurrently pinned state is some committed serial state.
  size_t verified = 0;
  for (const std::vector<PinnedState>& mine : pinned) {
    for (const PinnedState& pin : mine) {
      auto it = history[pin.view].find(pin.epoch);
      ASSERT_NE(it, history[pin.view].end())
          << ServingQueries()[pin.view] << ": pinned epoch " << pin.epoch
          << " was never recorded at a commit";
      EXPECT_EQ(pin.rows, it->second)
          << ServingQueries()[pin.view] << ": pinned epoch " << pin.epoch
          << " differs from the committed serial state";
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
}

struct HarnessConfig {
  const char* name;
  int num_threads;
  /// Keep the default work-size gate: epochs then publish after drains
  /// that mix serial and dispatched waves.
  bool gated = false;
};

class ServingDifferentialTest
    : public ::testing::TestWithParam<HarnessConfig> {};

TEST_P(ServingDifferentialTest, PinnedSnapshotsMatchCommittedEpochs) {
  const HarnessConfig& harness = GetParam();
  EngineOptions options;
  options.network.num_threads = harness.num_threads;
  // Parallelize every wave, however small, to maximize barrier traffic.
  if (!harness.gated) options.network.parallel_min_wave_entries = 0;
  for (uint64_t seed : {uint64_t{101}, uint64_t{202}, uint64_t{303}}) {
    RunConcurrentReaderHarness(options, seed, /*reader_count=*/8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ServingDifferentialTest,
    ::testing::Values(
        HarnessConfig{"batched_serial", 1},
        HarnessConfig{"batched_parallel2", 2},
        HarnessConfig{"batched_parallel8", 8},
        HarnessConfig{"batched_parallel2_gated", 2, /*gated=*/true},
        HarnessConfig{"batched_parallel8_gated", 8, /*gated=*/true}),
    [](const auto& info) { return std::string(info.param.name); });

/// SubmitAsync: mutations from several producer threads are coalesced by
/// the ingest thread into BeginBatch/CommitBatch batches; StopIngest
/// drains everything still queued. The tiny queue depth forces the
/// backpressure path (producers block until the ingest thread catches up).
TEST(ServingIngest, SubmitAsyncCoalescesAndDrains) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  EngineOptions options;
  options.ingest_queue_depth = 2;
  QueryEngine engine(&graph, options);
  auto view = engine.Register("MATCH (n:A) RETURN count(*) AS c");
  ASSERT_TRUE(view.ok()) << view.status();

  EXPECT_FALSE(engine.ingest_running());
  // Not running yet: submissions are refused, not queued.
  EXPECT_FALSE(engine.SubmitAsync(
      [](PropertyGraph& g) { g.AddVertex({"A"}); }));

  engine.StartIngest();
  EXPECT_TRUE(engine.ingest_running());

  constexpr int kProducers = 2;
  constexpr int kPerProducer = 100;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(engine.SubmitAsync([](PropertyGraph& g) {
          g.AddVertex({"A"}, {{"x", Value::Int(1)}});
        }));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  engine.StopIngest();
  EXPECT_FALSE(engine.ingest_running());

  constexpr int64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(engine.ingest_mutations(), kTotal);
  EXPECT_GE(engine.ingest_batches(), 1);
  EXPECT_LE(engine.ingest_batches(), kTotal);

  // The maintained view agrees with one-shot evaluation of the final
  // graph: nothing was lost or double-applied.
  std::vector<Tuple> expected =
      engine.EvaluateOnce("MATCH (n:A) RETURN count(*) AS c").value();
  EXPECT_EQ((*view)->Snapshot(), expected);
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(expected[0].at(0), Value::Int(kTotal));

  // After StopIngest the session is over: submissions are refused again.
  EXPECT_FALSE(engine.SubmitAsync(
      [](PropertyGraph& g) { g.AddVertex({"A"}); }));
}

/// Destroying an engine with a live ingest session stops it cleanly and
/// applies everything already queued (views outlive the engine).
TEST(ServingIngest, DestructorStopsIngestAndDrains) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  std::shared_ptr<View> view;
  {
    QueryEngine engine(&graph);
    auto registered = engine.Register("MATCH (n:A) RETURN count(*) AS c");
    ASSERT_TRUE(registered.ok()) << registered.status();
    view = *registered;
    engine.StartIngest();
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(engine.SubmitAsync(
          [](PropertyGraph& g) { g.AddVertex({"A"}); }));
    }
  }  // ~QueryEngine → StopIngest: drains the queue, joins the thread.
  std::vector<Tuple> rows = view->Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at(0), Value::Int(25));
}

/// Regression for the lifetime-counter races: ingest_mutations()/
/// ingest_batches() (engine) and the network's diagnostic counters
/// (TotalEmittedEntries, SourceEmittedEntries, commit_epoch,
/// deltas_processed, changes_processed, parallel_waves_dispatched,
/// epochs_published) used to be plain int64 fields written by the
/// ingest/draining thread — reading them from a monitoring thread
/// mid-session was a data race. They are atomics now; under TSAN this
/// test is the proof.
TEST(ServingIngest, CounterReadsDuringIngestAreRaceFree) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN count(*) AS c");
  ASSERT_TRUE(view.ok()) << view.status();
  const ReteNetwork* network = &engine.catalog().network();

  engine.StartIngest();
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 150;
  std::atomic<bool> done{false};

  std::vector<std::thread> monitors;
  for (int t = 0; t < 4; ++t) {
    monitors.emplace_back([&engine, network, &done] {
      int64_t last_mutations = 0;
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        // Engine counters: monotone while the session runs.
        int64_t mutations = engine.ingest_mutations();
        EXPECT_GE(mutations, last_mutations);
        last_mutations = mutations;
        EXPECT_GE(engine.ingest_batches(), 0);
        // Network counters, racing the ingest thread's drains.
        EXPECT_GE(network->TotalEmittedEntries(), 0);
        EXPECT_GE(network->SourceEmittedEntries(), 0);
        EXPECT_GE(network->deltas_processed(), 0);
        EXPECT_GE(network->changes_processed(), 0);
        EXPECT_GE(network->parallel_waves_dispatched(), 0);
        EXPECT_GE(network->epochs_published(), 0);
        uint64_t epoch = network->commit_epoch();
        EXPECT_GE(epoch, last_epoch);
        last_epoch = epoch;
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(engine.SubmitAsync(
            [](PropertyGraph& g) { g.AddVertex({"A"}); }));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  engine.StopIngest();
  done.store(true, std::memory_order_release);
  for (std::thread& monitor : monitors) monitor.join();

  constexpr int64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(engine.ingest_mutations(), kTotal);
  EXPECT_GE(engine.ingest_batches(), 1);
  EXPECT_EQ((*view)->size(), 1);
  EXPECT_EQ((*view)->Snapshot()[0].at(0), Value::Int(kTotal));
}

/// `rows` as a bag: a multiset under Tuple ==, for comparisons that must
/// not depend on the order of Compare-equal rows.
Bag AsBag(const std::vector<Tuple>& rows) {
  Bag bag;
  for (const Tuple& row : rows) bag.Apply(row, 1);
  return bag;
}

std::string Render(const std::vector<Tuple>& rows) {
  std::string out;
  for (const Tuple& row : rows) out += row.ToString() + " ";
  return out;
}

bool SortedByCompare(const std::vector<Tuple>& rows) {
  return std::is_sorted(rows.begin(), rows.end(),
                        [](const Tuple& a, const Tuple& b) {
                          return Tuple::Compare(a, b) < 0;
                        });
}

/// Rows that tie under Tuple::Compare go through the publish merge one
/// commit at a time. Int(1) and Double(1.0) tie and are also == (numbers
/// compare by exact value and hash alike), so either may stand for the
/// other. Int(2^53 + 1) and Double(2^53) round to the same double but are
/// neither tied nor == (an int compares exactly against a double), so
/// they must sort apart and each must survive the other's retraction.
TEST(ServingSnapshot, TiedRowsMergeByEquality) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  graph.AddVertex({"N"}, {{"x", Value::Int(0)}});
  graph.AddVertex({"N"}, {{"x", Value::Int(int64_t{1} << 54)}});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:N) RETURN n.x AS x");
  ASSERT_TRUE(view.ok()) << view.status();

  const int64_t big = int64_t{1} << 53;
  const std::vector<Value> tied = {Value::Int(1),
                                   Value::Double(1.0),
                                   Value::Int(1),
                                   Value::Int(big + 1),
                                   Value::Double(static_cast<double>(big)),
                                   Value::Int(big + 1)};
  ASSERT_GT(Value::Compare(tied[3], tied[4]), 0);
  ASSERT_FALSE(Tuple({tied[3]}) == Tuple({tied[4]}));

  auto check = [&](const std::string& step) {
    std::shared_ptr<const ViewSnapshot> snap = (*view)->Pin();
    auto expected = engine.EvaluateOnce((*view)->query());
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_TRUE(SortedByCompare(snap->rows()))
        << step << ": " << Render(snap->rows());
    EXPECT_TRUE(AsBag(snap->rows()).counts() == AsBag(*expected).counts())
        << step << ": " << Render(snap->rows()) << "vs EvaluateOnce "
        << Render(*expected);
    EXPECT_EQ(snap->total_rows(), static_cast<int64_t>(expected->size()))
        << step;
  };

  std::vector<VertexId> added;
  for (size_t i = 0; i < tied.size(); ++i) {
    added.push_back(graph.AddVertex({"N"}, {{"x", tied[i]}}));
    check("after adding " + tied[i].ToString() + " (#" + std::to_string(i) +
          ")");
  }
  // Retract in an order that leaves each tie's other members behind.
  for (size_t i : {size_t{4}, size_t{1}, size_t{3}, size_t{0}, size_t{5},
                   size_t{2}}) {
    ASSERT_TRUE(graph.RemoveVertex(added[i]).ok());
    check("after retracting " + tied[i].ToString() + " (#" +
          std::to_string(i) + ")");
  }
  EXPECT_EQ((*view)->size(), 2);
}

/// A view with SKIP/LIMIT slices the epoch's sorted rows exactly as
/// EvaluateOnce slices a fresh evaluation, commit after commit, while
/// total_rows() keeps counting the whole result.
TEST(ServingSnapshot, SkipLimitSliceMatchesEvaluateOnce) {
  ScopedEnvVar no_env("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  const std::vector<const char*> queries = {
      "MATCH (n:A) RETURN n.x AS x SKIP 2 LIMIT 3",
      "MATCH (n:A) RETURN n.x AS x SKIP 4",
      "MATCH (n:A) RETURN n.x AS x LIMIT 2",
      "MATCH (n:A) RETURN n.x AS x LIMIT 0",
  };
  std::vector<std::shared_ptr<View>> views;
  for (const char* query : queries) {
    auto view = engine.Register(query);
    ASSERT_TRUE(view.ok()) << query << ": " << view.status();
    views.push_back(*view);
  }
  std::vector<VertexId> added;
  for (int step = 0; step < 12; ++step) {
    if (step % 4 == 3) {
      ASSERT_TRUE(graph.RemoveVertex(added[added.size() / 2]).ok());
      added.erase(added.begin() + static_cast<ptrdiff_t>(added.size() / 2));
    } else {
      added.push_back(
          graph.AddVertex({"A"}, {{"x", Value::Int((step * 7) % 5)}}));
    }
    for (size_t v = 0; v < views.size(); ++v) {
      std::shared_ptr<const ViewSnapshot> snap = views[v]->Pin();
      auto expected = engine.EvaluateOnce(queries[v]);
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(snap->rows(), *expected) << queries[v] << " step " << step;
      EXPECT_EQ(snap->total_rows(), static_cast<int64_t>(added.size()))
          << queries[v] << " step " << step;
      EXPECT_EQ(views[v]->size(), snap->total_rows()) << queries[v];
    }
  }
}

}  // namespace
}  // namespace pgivm
