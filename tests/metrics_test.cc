// Observability-layer tests: metrics primitives (counters, log2-bucket
// latency histograms, the engine-wide registry), trace export, per-node
// propagation profiling, EXPLAIN ANALYZE and the unified
// EngineMetricsSnapshot surface.
//
// The invariants under test:
//  * histogram bucket math and percentiles match exact first-principles
//    references (HistogramSnapshot::Percentile is specified bucket-exactly);
//  * profiling never changes results, and the per-node counters it collects
//    are identical under the serial and parallel wave executors;
//  * EXPLAIN ANALYZE annotates every resolvable operator with live node
//    statistics, is structurally stable across calls, and leaves the
//    catalog exactly as it found it;
//  * DumpTrace writes a Chrome-tracing-compatible JSON file;
//  * the snapshot surface agrees with the per-component accessors it
//    gathers (the catalog stats and the network and ingest counters).
//
// Labelled `observability` in CMake; CI's TSAN job runs it too (histogram
// and counter reads race real writers here).

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "scoped_threads_env.h"
#include "support/metrics.h"
#include "workload/random_graph.h"

namespace pgivm {
namespace {

/// Scoped PGIVM_PROFILE manipulation, mirroring ScopedThreadsEnv: the
/// override is read once at engine construction, so guarding the
/// constructor call is sufficient.
class ScopedProfileEnv {
 public:
  explicit ScopedProfileEnv(const char* value) {
    const char* old = getenv("PGIVM_PROFILE");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value == nullptr) {
      unsetenv("PGIVM_PROFILE");
    } else {
      setenv("PGIVM_PROFILE", value, 1);
    }
  }
  ~ScopedProfileEnv() {
    if (had_) {
      setenv("PGIVM_PROFILE", saved_.c_str(), 1);
    } else {
      unsetenv("PGIVM_PROFILE");
    }
  }

  ScopedProfileEnv(const ScopedProfileEnv&) = delete;
  ScopedProfileEnv& operator=(const ScopedProfileEnv&) = delete;

 private:
  std::string saved_;
  bool had_ = false;
};

// ---- histogram bucket math --------------------------------------------------

TEST(Histogram, BucketIndexMatchesLog2Definition) {
  // Bucket 0 holds <= 0; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(LatencyHistogram::BucketIndex(-5), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(7), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 4u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1023), 10u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1024), 11u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(INT64_MAX),
            kHistogramBuckets - 1);
  // Exhaustive spot check against the definition for a dense range.
  for (int64_t v = 1; v <= 4096; ++v) {
    size_t expected = 1;
    while ((int64_t{1} << expected) <= v) ++expected;
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), expected) << "v=" << v;
  }
}

TEST(Histogram, BucketUpperBounds) {
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 0);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(1), 1);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(2), 3);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(3), 7);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(10), 1023);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(kHistogramBuckets - 1),
            INT64_MAX);
}

TEST(Histogram, PercentilesAgainstExactReference) {
  LatencyHistogram hist;
  for (int64_t v = 1; v <= 100; ++v) hist.Record(v);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_EQ(snap.sum, 5050);
  EXPECT_EQ(snap.max, 100);
  EXPECT_DOUBLE_EQ(snap.Mean(), 50.5);
  // Rank ceil(0.5 * 100) = 50 → value 50 → bucket 6 ([32, 63]) → upper
  // bound 63 (below the observed max, no clamp).
  EXPECT_EQ(snap.P50(), 63);
  // Rank 95 → value 95 → bucket 7 ([64, 127]) → 127, clamped to max 100.
  EXPECT_EQ(snap.P95(), 100);
  EXPECT_EQ(snap.P99(), 100);
  // Rank ceil(0.25 * 100) = 25 → bucket 5 ([16, 31]) → 31.
  EXPECT_EQ(snap.Percentile(0.25), 31);
  EXPECT_EQ(snap.Percentile(1.0), 100);
}

TEST(Histogram, EmptyAndSingleSample) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Snapshot().P50(), 0);
  EXPECT_EQ(hist.Snapshot().count, 0);
  hist.Record(42);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.P50(), 42);  // bucket bound 63 clamps to the observed max
  EXPECT_EQ(snap.P99(), 42);
}

TEST(Histogram, ConcurrentRecordersLoseNothing) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 10000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist] {
      for (int64_t i = 1; i <= kPerThread; ++i) hist.Record(i);
    });
  }
  // A racing reader: snapshots must never tear (TSAN-checked) and counts
  // only grow.
  int64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    int64_t count = hist.Snapshot().count;
    EXPECT_GE(count, last);
    last = count;
  }
  for (std::thread& writer : writers) writer.join();
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.sum, kThreads * (kPerThread * (kPerThread + 1) / 2));
  EXPECT_EQ(snap.max, kPerThread);
}

TEST(MetricsRegistry, StableRefsAndOrderedSnapshots) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("b.second");
  Counter& b = registry.GetCounter("a.first");
  EXPECT_EQ(&a, &registry.GetCounter("b.second"));  // stable address
  a.Add(2);
  b.Increment();
  registry.GetHistogram("lat").Record(5);

  auto counters = registry.CounterValues();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.first");  // name order
  EXPECT_EQ(counters[0].second, 1);
  EXPECT_EQ(counters[1].first, "b.second");
  EXPECT_EQ(counters[1].second, 2);
  auto histograms = registry.HistogramValues();
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].second.count, 1);
}

// ---- trace buffer / export --------------------------------------------------

TEST(Trace, BufferDropsBeyondCapacityAndCounts) {
  TraceBuffer buffer(2);
  EXPECT_TRUE(buffer.Append({"a", "c", 0, 1, 1, ""}));
  EXPECT_TRUE(buffer.Append({"b", "c", 1, 1, 1, ""}));
  EXPECT_FALSE(buffer.Append({"c", "c", 2, 1, 1, ""}));
  EXPECT_EQ(buffer.events().size(), 2u);
  EXPECT_EQ(buffer.dropped(), 1);
}

TEST(Trace, WriteChromeTraceEscapesAndFormats) {
  TraceBuffer buffer(8);
  TraceEvent event;
  event.name = "weird \"name\"\nwith\tcontrol";
  event.start_ns = 1234567;  // 1234.567 us
  event.dur_ns = 890;
  event.tid = 7;
  event.args = "\"entries\":3";
  ASSERT_TRUE(buffer.Append(std::move(event)));

  std::string path = testing::TempDir() + "/pgivm_trace_test.json";
  Status status = WriteChromeTrace(path, {&buffer, nullptr});
  ASSERT_TRUE(status.ok()) << status;

  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  std::string json = contents.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1234.567"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.890"), std::string::npos);
  EXPECT_NE(json.find("\\\"name\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"entries\":3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, WriteToUnwritablePathFails) {
  TraceBuffer buffer(1);
  EXPECT_FALSE(WriteChromeTrace("/nonexistent-dir/trace.json", {&buffer})
                   .ok());
}

// ---- engine-level profiling -------------------------------------------------

/// Queries covering joins, aggregation, DISTINCT and undirected edges —
/// enough shared structure that the sharing registry resolves interior
/// operators for the EXPLAIN ANALYZE tests.
const std::vector<const char*>& ProfiledQueries() {
  static const std::vector<const char*> queries = {
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
      "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
      "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c",
      "MATCH (a:A)-[:R]->(b) RETURN DISTINCT b",
  };
  return queries;
}

struct ProfiledRun {
  std::vector<std::vector<Tuple>> rows;
  std::vector<ReteNetwork::NodeMetrics> nodes;
  EngineMetricsSnapshot snapshot;
};

/// Registers the query pool, churns the graph, and returns results plus
/// per-node metrics.
ProfiledRun RunProfiledWorkload(ExecutorKind executor, bool profiling) {
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 99;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  EngineOptions options;
  options.network.executor = executor;
  options.network.num_threads = 4;
  // Dispatch every multi-node wave so serial-vs-parallel actually differs
  // in execution, not just configuration.
  options.network.parallel_min_wave_entries = 0;
  options.network.profiling = profiling;
  QueryEngine engine(&graph, options);

  std::vector<std::shared_ptr<View>> views;
  for (const char* query : ProfiledQueries()) {
    views.push_back(engine.Register(query).value());
  }
  for (int i = 0; i < 40; ++i) generator.ApplyRandomUpdate(&graph);

  ProfiledRun run;
  for (const auto& view : views) run.rows.push_back(view->Snapshot());
  run.snapshot = engine.MetricsSnapshot();
  run.nodes = run.snapshot.nodes;
  return run;
}

TEST(Profiling, ResultsIdenticalOnAndOff) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  ProfiledRun off = RunProfiledWorkload(ExecutorKind::kSerial, false);
  ProfiledRun on = RunProfiledWorkload(ExecutorKind::kSerial, true);
  EXPECT_EQ(off.rows, on.rows);
  // Off: no clocks ran, so no node accumulated profile state.
  for (const auto& node : off.nodes) {
    EXPECT_EQ(node.activations, 0) << node.name;
    EXPECT_EQ(node.busy_ns, 0) << node.name;
  }
  // On: the workload drained through every level, so productions (at
  // least) activated.
  int64_t total_activations = 0;
  for (const auto& node : on.nodes) total_activations += node.activations;
  EXPECT_GT(total_activations, 0);
}

TEST(Profiling, NodeCountersIdenticalSerialVsParallel) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  ProfiledRun serial = RunProfiledWorkload(ExecutorKind::kSerial, true);
  ProfiledRun parallel = RunProfiledWorkload(ExecutorKind::kParallel, true);
  EXPECT_EQ(serial.rows, parallel.rows);
  ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
  // Wave scheduling is bit-identical, so the *logical* per-node counters
  // must agree exactly; only timings (busy_ns/last_ns) may differ.
  for (size_t i = 0; i < serial.nodes.size(); ++i) {
    const auto& s = serial.nodes[i];
    const auto& p = parallel.nodes[i];
    EXPECT_EQ(s.name, p.name);
    EXPECT_EQ(s.emitted_entries, p.emitted_entries) << s.name;
    EXPECT_EQ(s.activations, p.activations) << s.name;
    EXPECT_EQ(s.input_entries, p.input_entries) << s.name;
    EXPECT_EQ(s.output_entries, p.output_entries) << s.name;
    EXPECT_EQ(s.memory_bytes, p.memory_bytes) << s.name;
  }
  EXPECT_GT(parallel.snapshot.parallel_waves_dispatched, 0);
  EXPECT_EQ(serial.snapshot.parallel_waves_dispatched, 0);
}

TEST(Profiling, HistogramsAndTracePopulateWhileOn) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  ProfiledRun on = RunProfiledWorkload(ExecutorKind::kSerial, true);
  bool saw_drain = false;
  for (const auto& [name, hist] : on.snapshot.histograms) {
    if (name == "propagation.drain_ns") {
      saw_drain = hist.count > 0;
    }
  }
  EXPECT_TRUE(saw_drain);
  EXPECT_TRUE(on.snapshot.profiling);
  EXPECT_GT(on.snapshot.epochs_published, 0);
  // ToString renders every section without crashing and mentions nodes.
  std::string rendered = on.snapshot.ToString();
  EXPECT_NE(rendered.find("propagation:"), std::string::npos);
  EXPECT_NE(rendered.find("node "), std::string::npos);
}

TEST(Profiling, PinLatencyRecordedWhileOn) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN count(*) AS c");
  ASSERT_TRUE(view.ok()) << view.status();

  (void)(*view)->Pin();  // profiling off: not recorded
  engine.set_profiling(true);
  (void)(*view)->Pin();  // cached epoch
  graph.AddVertex({"A"});
  (void)(*view)->Pin();  // fresh epoch: builds the rendering
  engine.set_profiling(false);
  (void)(*view)->Pin();  // off again: not recorded

  HistogramSnapshot pin =
      engine.metrics().GetHistogram("serving.pin_ns").Snapshot();
  EXPECT_EQ(pin.count, 2);
}

TEST(Profiling, RuntimeToggleCoversLateNetworks) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  engine.set_profiling(true);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok()) << view.status();
  // The shared network was created after the toggle and must inherit it.
  graph.AddVertex({"A"});
  EngineMetricsSnapshot snap = engine.MetricsSnapshot();
  int64_t activations = 0;
  for (const auto& node : snap.nodes) activations += node.activations;
  EXPECT_GT(activations, 0);
}

// The toggle belongs to the network, which outlives its views: after the
// last view is dropped, the trace and the drain histogram keep counting
// every commit, and a view registered later is profiled without a new
// toggle.
TEST(Profiling, ToggleOutlivesTheLastView) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  engine.set_profiling(true);
  auto first = engine.Register("MATCH (n:A) RETURN n");  // commit 1
  ASSERT_TRUE(first.ok()) << first.status();
  graph.AddVertex({"A"});  // 2
  const TraceBuffer* trace = engine.catalog().network().trace();
  ASSERT_NE(trace, nullptr);

  first->reset();
  graph.AddVertex({"A"});  // 3, no view live
  auto second = engine.Register("MATCH (n:A) RETURN n");  // 4
  ASSERT_TRUE(second.ok()) << second.status();
  graph.AddVertex({"A"});  // 5
  EXPECT_TRUE(engine.profiling());
  EXPECT_EQ((*second)->size(), 3);

  EXPECT_EQ(engine.catalog().network().trace(), trace);
  int drains = 0;
  for (const TraceEvent& event : trace->events()) {
    drains += event.name == "drain" ? 1 : 0;
  }
  EXPECT_EQ(drains, 5);
  EXPECT_EQ(
      engine.metrics().GetHistogram("propagation.drain_ns").Snapshot().count,
      5);
  int64_t activations = 0;
  for (const auto& node : engine.MetricsSnapshot().nodes) {
    activations += node.activations;
  }
  EXPECT_GT(activations, 0);
}

// propagation.wave_imbalance records, per wave with queued entries, the
// share (percent) of them held by the wave's hottest node: 100 when one
// node holds the whole wave — which a parallel wave cannot spread — and 50
// when two nodes split it evenly.
TEST(Profiling, WaveImbalanceReadsTheHottestNodesShare) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  EngineOptions options;
  options.network.executor = ExecutorKind::kParallel;
  options.network.num_threads = 2;
  options.network.parallel_min_wave_entries = 0;
  QueryEngine engine(&graph, options);
  engine.set_profiling(true);
  auto a = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = engine.Register("MATCH (n:B) RETURN n");
  ASSERT_TRUE(b.ok()) << b.status();
  auto imbalance = [&engine] {
    return engine.metrics()
        .GetHistogram("propagation.wave_imbalance")
        .Snapshot();
  };

  const HistogramSnapshot before = imbalance();
  graph.AddVertex({"A"});  // only the A view's nodes receive entries
  const HistogramSnapshot one = imbalance();
  const int64_t one_waves = one.count - before.count;
  EXPECT_GT(one_waves, 0);
  EXPECT_EQ(one.sum - before.sum, 100 * one_waves);

  graph.AddVertex({"A", "B"});  // both views receive one entry per wave
  const HistogramSnapshot two = imbalance();
  const int64_t two_waves = two.count - one.count;
  EXPECT_GT(two_waves, 0);
  EXPECT_EQ(two.sum - one.sum, 50 * two_waves);
  // The split waves ran on the pool; the metric reads them all the same.
  EXPECT_GT(engine.MetricsSnapshot().parallel_waves_dispatched, 0);
}

// Every commit takes the one path DrainWaves → PublishEpochs: a graph delta
// records one translate span and one drain, a registration into the live
// network one drain and no translate, and each bumps the commit epoch once.
TEST(Profiling, EveryCommitRecordsOneDrainAndOneEpoch) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  EngineOptions options;
  options.network.profiling = true;
  QueryEngine engine(&graph, options);
  auto first = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(first.ok()) << first.status();
  graph.AddVertex({"A"});
  graph.BeginBatch();
  graph.AddVertex({"A"});
  graph.AddVertex({"B"});
  graph.CommitBatch();
  auto second = engine.Register("MATCH (n:B) RETURN n");
  ASSERT_TRUE(second.ok()) << second.status();

  // Four commits: the first prime, two graph deltas, the second prime.
  auto count = [&engine](const char* name) {
    return engine.metrics().GetHistogram(name).Snapshot().count;
  };
  EXPECT_EQ(count("propagation.translate_ns"), 2);
  EXPECT_EQ(count("propagation.drain_ns"), 4);
  EXPECT_EQ(count("propagation.publish_ns"), 4);
  const ReteNetwork* network = &engine.catalog().network();
  EXPECT_EQ(network->commit_epoch(), 4u);
  int translate_spans = 0;
  int drain_spans = 0;
  for (const TraceEvent& event : network->trace()->events()) {
    translate_spans += event.name == "translate" ? 1 : 0;
    drain_spans += event.name == "drain" ? 1 : 0;
  }
  EXPECT_EQ(translate_spans, 2);
  EXPECT_EQ(drain_spans, 4);
  // The productions are terminal: they account their output themselves
  // (two :A rows, one primed :B row), and their profiles still see it.
  int64_t production_out = 0;
  for (const auto& node : engine.MetricsSnapshot().nodes) {
    if (std::string(node.kind) == "Production") {
      production_out += node.output_entries;
    }
  }
  EXPECT_EQ(production_out, 3);
}

// The publish stage is timed apart from the drain: one
// "propagation.publish_ns" sample per commit while profiling is on, none
// while it is off.
TEST(Profiling, EveryProfiledCommitRecordsOnePublish) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok()) << view.status();
  graph.AddVertex({"A"});
  auto publishes = [&engine] {
    return engine.metrics()
        .GetHistogram("propagation.publish_ns")
        .Snapshot()
        .count;
  };
  EXPECT_EQ(publishes(), 0);

  engine.set_profiling(true);
  graph.AddVertex({"A"});
  graph.BeginBatch();
  graph.AddVertex({"A"});
  graph.AddVertex({"B"});
  graph.CommitBatch();
  graph.AddVertex({"B"});  // no view changes: the commit still publishes
  EXPECT_EQ(publishes(), 3);
  EXPECT_EQ(engine.metrics().GetHistogram("propagation.drain_ns").Snapshot()
                .count,
            3);

  engine.set_profiling(false);
  graph.AddVertex({"A"});
  EXPECT_EQ(publishes(), 3);
  EXPECT_EQ((*view)->size(), 4);
}

// ---- EXPLAIN ANALYZE --------------------------------------------------------

std::string StripDigits(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (!isdigit(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

TEST(ExplainAnalyze, AnnotatesOperatorsAndRestoresState) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 5;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  // A sibling view first, so the probe's interior operators resolve to
  // *shared* live nodes through the registry.
  auto sibling = engine.Register("MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b");
  ASSERT_TRUE(sibling.ok()) << sibling.status();
  const size_t views_before = engine.catalog().view_count();
  const bool profiling_before = engine.profiling();

  auto report = engine.ExplainAnalyze(
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b");
  ASSERT_TRUE(report.ok()) << report.status();
  // The production root and the shared interior both annotated, with the
  // full stat set.
  EXPECT_NE(report->find("[Production"), std::string::npos) << *report;
  EXPECT_NE(report->find("entries="), std::string::npos);
  EXPECT_NE(report->find("mem="), std::string::npos);
  EXPECT_NE(report->find("act="), std::string::npos);
  EXPECT_NE(report->find("time="), std::string::npos);
  EXPECT_NE(report->find("fp="), std::string::npos);
  // Interior operators resolved via the sibling's nodes: at least one
  // non-production kind appears in an annotation.
  EXPECT_TRUE(report->find("[Join") != std::string::npos ||
              report->find("[VertexInput") != std::string::npos ||
              report->find("[EdgeInput") != std::string::npos)
      << *report;

  // The probe view is gone and the profiling flag restored.
  EXPECT_EQ(engine.catalog().view_count(), views_before);
  EXPECT_EQ(engine.profiling(), profiling_before);

  // Structurally stable: a second run differs only in the live numbers.
  auto again = engine.ExplainAnalyze(
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(StripDigits(*report), StripDigits(*again));
  EXPECT_EQ(engine.catalog().view_count(), views_before);
}

TEST(ExplainAnalyze, CompileErrorsPropagateAndRestoreProfiling) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  EXPECT_FALSE(engine.ExplainAnalyze("MATCH (n RETURN n").ok());
  EXPECT_FALSE(engine.profiling());
}

// ---- unified snapshot vs. per-component accessors --------------------------

TEST(MetricsSnapshot, AgreesWithLegacyAccessors) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 11;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  for (const char* query : ProfiledQueries()) {
    views.push_back(engine.Register(query).value());
  }
  for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);

  EngineMetricsSnapshot snap = engine.MetricsSnapshot();
  CatalogStats stats = engine.catalog().Stats();
  EXPECT_EQ(snap.catalog.views, stats.views);
  EXPECT_EQ(snap.catalog.total_nodes, stats.total_nodes);
  EXPECT_EQ(snap.catalog.registry_hits, stats.registry_hits);
  EXPECT_EQ(snap.catalog.memory_bytes, stats.memory_bytes);
  EXPECT_EQ(snap.last_prime.replayed_entries,
            engine.catalog().last_prime_stats().replayed_entries);

  const ReteNetwork* network = &engine.catalog().network();
  EXPECT_EQ(snap.deltas_processed, network->deltas_processed());
  EXPECT_EQ(snap.changes_processed, network->changes_processed());
  EXPECT_EQ(snap.total_emitted_entries, network->TotalEmittedEntries());
  EXPECT_EQ(snap.source_emitted_entries, network->SourceEmittedEntries());
  EXPECT_EQ(snap.commit_epoch, network->commit_epoch());
  EXPECT_EQ(snap.epochs_published, network->epochs_published());
  EXPECT_EQ(snap.ingest_mutations, engine.ingest_mutations());
  EXPECT_EQ(snap.ingest_batches, engine.ingest_batches());
  EXPECT_FALSE(snap.ingest_running);
  EXPECT_EQ(snap.nodes.size(), network->node_count());
}

// The network lives as long as the engine, so dropping the last view
// keeps it: no lifetime counter and no commit epoch ever goes backwards,
// and a view registered after the drop pins a later epoch than any before.
// The emitted-entry totals sum over the live nodes, so they are monotone
// only while the node set stands (across updates).
TEST(MetricsSnapshot, LifetimeCountersNeverDecreaseAcrossLastViewDrop) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 23;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);
  QueryEngine engine(&graph);
  const char* query = ProfiledQueries()[0];

  EngineMetricsSnapshot last = engine.MetricsSnapshot();
  uint64_t last_pinned = 0;
  auto check = [&](const std::string& stage,
                   const std::shared_ptr<View>& view, bool same_nodes) {
    const EngineMetricsSnapshot now = engine.MetricsSnapshot();
    EXPECT_GE(now.deltas_processed, last.deltas_processed) << stage;
    EXPECT_GE(now.changes_processed, last.changes_processed) << stage;
    if (same_nodes) {
      EXPECT_GE(now.total_emitted_entries, last.total_emitted_entries)
          << stage;
      EXPECT_GE(now.source_emitted_entries, last.source_emitted_entries)
          << stage;
    }
    EXPECT_GE(now.epochs_published, last.epochs_published) << stage;
    EXPECT_GE(now.commit_epoch, last.commit_epoch) << stage;
    last = now;
    if (view != nullptr) {
      const uint64_t pinned = view->Pin()->epoch();
      EXPECT_GE(pinned, last_pinned) << stage;
      last_pinned = pinned;
    }
  };
  auto update = [&generator, &graph] {
    for (int i = 0; i < 10; ++i) generator.ApplyRandomUpdate(&graph);
  };

  std::shared_ptr<View> view = engine.Register(query).value();
  check("first register", view, false);
  update();
  check("updates", view, true);
  view.reset();
  check("last view dropped", nullptr, false);
  update();
  check("updates without views", nullptr, true);
  view = engine.Register(query).value();
  EXPECT_GT(view->Pin()->epoch(), last_pinned);
  check("second register", view, false);
  update();
  check("updates after re-register", view, true);
  EXPECT_GT(last.total_emitted_entries, 0);
}

// ---- trace export through the engine ---------------------------------------

TEST(DumpTrace, WritesChromeJsonCoveringIngestAndDrains) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv no_profile_env(nullptr);
  PropertyGraph graph;
  EngineOptions options;
  options.network.profiling = true;
  QueryEngine engine(&graph, options);
  auto view = engine.Register("MATCH (n:A) RETURN count(*) AS c");
  ASSERT_TRUE(view.ok()) << view.status();

  engine.StartIngest();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.SubmitAsync(
        [](PropertyGraph& g) { g.AddVertex({"A"}); }));
  }
  engine.StopIngest();

  std::string path = testing::TempDir() + "/pgivm_engine_trace.json";
  Status status = engine.DumpTrace(path);
  ASSERT_TRUE(status.ok()) << status;
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  std::string json = contents.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"drain\""), std::string::npos);
  EXPECT_NE(json.find("\"ingest.batch\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- PGIVM_PROFILE environment override ------------------------------------

TEST(ProfileEnv, IntegerValuesForceTheFlag) {
  ScopedThreadsEnv no_env(nullptr);
  NetworkOptions options;
  {
    ScopedProfileEnv env("1");
    EXPECT_TRUE(ApplyEnvProfilingOverride(options).profiling);
  }
  {
    ScopedProfileEnv env("0");
    options.profiling = true;
    EXPECT_FALSE(ApplyEnvProfilingOverride(options).profiling);
  }
}

TEST(ProfileEnv, MalformedValuesAreRejectedUnchanged) {
  ScopedThreadsEnv no_env(nullptr);
  NetworkOptions options;
  for (const char* bad : {"abc", "2x", "", "99999999999999999999"}) {
    ScopedProfileEnv env(bad);
    EXPECT_FALSE(ApplyEnvProfilingOverride(options).profiling) << bad;
    options.profiling = true;
    EXPECT_TRUE(ApplyEnvProfilingOverride(options).profiling) << bad;
    options.profiling = false;
  }
}

TEST(ProfileEnv, AppliedAtEngineConstruction) {
  ScopedThreadsEnv no_env(nullptr);
  ScopedProfileEnv env("1");
  PropertyGraph graph;
  QueryEngine engine(&graph);
  EXPECT_TRUE(engine.profiling());
}

TEST(MetricsSnapshot, FindCounterAndHistogramPointLookups) {
  ScopedThreadsEnv no_env(nullptr);
  PropertyGraph graph;
  QueryEngine engine(&graph);
  engine.metrics().GetCounter("test.alpha").Add(3);
  engine.metrics().GetCounter("test.beta").Add(7);
  engine.metrics().GetHistogram("test.lat_ns").Record(1000);
  engine.metrics().GetHistogram("test.lat_ns").Record(3000);

  const EngineMetricsSnapshot snap = engine.MetricsSnapshot();
  const int64_t* alpha = snap.FindCounter("test.alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(*alpha, 3);
  const int64_t* beta = snap.FindCounter("test.beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(*beta, 7);
  EXPECT_EQ(snap.FindCounter("test.gamma"), nullptr);
  EXPECT_EQ(snap.FindCounter(""), nullptr);

  const HistogramSnapshot* hist = snap.FindHistogram("test.lat_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2);
  EXPECT_EQ(snap.FindHistogram("test.nope"), nullptr);

  // The pointers are into the snapshot copy: later recordings do not move
  // what an already-taken snapshot reports.
  engine.metrics().GetCounter("test.alpha").Add(100);
  EXPECT_EQ(*alpha, 3);
}

}  // namespace
}  // namespace pgivm
