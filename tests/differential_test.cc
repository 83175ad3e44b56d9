// Differential (fuzz) tests: the Rete-maintained view and the independent
// baseline evaluator implement the same semantics, so after every random
// update their results must coincide — across the paper's plan ablations
// (naive property maps, coarse unnest) and every wave executor and thread
// count of the batched propagation pipeline.

#include <gtest/gtest.h>

#include "baseline/baseline_evaluator.h"
#include "engine/query_engine.h"
#include "rete/production_node.h"
#include "scoped_threads_env.h"
#include "support/repro.h"
#include "workload/random_graph.h"

namespace pgivm {
namespace {

struct DifferentialCase {
  const char* name;
  const char* query;
  uint64_t seed;
  bool naive_maps;
  bool coarse_unnest;
};

class DifferentialTest : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(DifferentialTest, ViewMatchesBaselineAfterEveryUpdate) {
  const DifferentialCase& param = GetParam();

  EngineOptions options;
  options.plan.naive_property_maps = param.naive_maps;
  if (param.coarse_unnest) {
    options.plan.narrow_unnest_outputs = false;
    options.network.fine_grained_unnest = false;
  }

  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = param.seed;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph, options);
  Result<std::shared_ptr<View>> view = engine.Register(param.query);
  ASSERT_TRUE(view.ok()) << view.status();
  Result<OpPtr> plan = engine.Compile(param.query);
  ASSERT_TRUE(plan.ok());

  BaselineEvaluator baseline(&graph);
  constexpr int kUpdates = 120;
  for (int step = 0; step < kUpdates; ++step) {
    generator.ApplyRandomUpdate(&graph);
    Result<Bag> expected = baseline.Evaluate(plan.value());
    ASSERT_TRUE(expected.ok()) << expected.status();
    std::vector<Tuple> expected_rows =
        ProductionNode::SortedRows(expected.value());
    std::vector<Tuple> actual_rows = (*view)->Snapshot();
    ASSERT_EQ(actual_rows.size(), expected_rows.size())
        << param.name << " diverged at step " << step;
    for (size_t i = 0; i < actual_rows.size(); ++i) {
      ASSERT_EQ(Tuple::Compare(actual_rows[i], expected_rows[i]), 0)
          << param.name << " step " << step << " row " << i << ": "
          << actual_rows[i].ToString() << " vs "
          << expected_rows[i].ToString();
    }
  }
}

// ---- Randomized harness ----------------------------------------------------
//
// For several RNG seeds × {1, 2, 8} wave threads, drive a mixed stream of single-change updates and
// BeginBatch/CommitBatch bursts through a pool of standing views covering
// joins, anti-joins, aggregation, DISTINCT, unnest and variable-length
// paths. A serial reference engine maintains the same views over the same
// graph: after *every* delta each view's Snapshot() must be bit-identical
// to the reference (the parallel determinism contract), and periodically
// both are checked against a fresh EvaluateOnce() so the pair can't drift
// together.
//
// Registrations into the engine under test are *staggered*: half the views
// are registered up front, the rest one at a time between deltas, so every
// late registration exercises incremental priming (memory replay) into a
// live, mid-churn catalog — while the reference registers everything up
// front (graph-primed). The bit-identity assertions therefore also prove
// that a replay-primed catalog equals a freshly built one, across seeds ×
// thread counts; a final fresh engine built after the stream
// re-checks the same equivalence end-state against graph priming alone.

const char* const kHarnessQueries[] = {
    "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
    "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
    "MATCH (a:A) WHERE exists((a)-[:R]->(:B)) RETURN a",
    "MATCH (a:A) WHERE NOT exists((a)-[:S]->()) RETURN a",
    "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c, sum(a.x) AS s",
    "MATCH (a:A)-[:R]->(b) RETURN DISTINCT b",
    "MATCH (n:B) UNWIND n.tags AS t RETURN t, count(*) AS c",
    "MATCH (a:A)-[:R*1..3]->(b) RETURN a, b",
    "MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b:B) RETURN a, b",
    "MATCH (n:A) WHERE n.x > 1 RETURN n, n.x AS x",
};

struct HarnessCase {
  uint64_t seed;
  int threads;  // 1 = serial executor, otherwise kParallel with n threads
  /// Keep the default work-size gate, so small waves run serially on the
  /// calling thread between dispatched ones — the mix an engine under
  /// PGIVM_THREADS runs. Otherwise every multi-node wave is dispatched.
  bool gated = false;
};

class RandomizedDifferentialTest
    : public ::testing::TestWithParam<HarnessCase> {};

TEST_P(RandomizedDifferentialTest, AllViewsMatchSerialReferenceAndBaseline) {
  const HarnessCase& param = GetParam();

  // Replay filter: exporting the PGIVM_REPRO recipe a parity failure
  // prints makes the harness run *only* the recorded case — one
  // `ctest -R Randomized` reruns exactly the flake (with its gated or
  // ungated twin of the same seed and thread count).
  ReproSpec this_case;
  this_case.seed = param.seed;
  this_case.threads = param.threads;
  if (std::optional<ReproSpec> filter = ReproSpec::FromEnv()) {
    if (!filter->SameCase(this_case)) {
      GTEST_SKIP() << "PGIVM_REPRO pins " << filter->Format();
    }
  }
  // One-line replay recipe stamped into every divergence message below.
  auto recipe = [&this_case](int step) {
    ReproSpec spec = this_case;
    spec.step = step;
    return spec.EnvLine();
  };

  EngineOptions options;
  if (param.threads > 1) {
    options.network.executor = ExecutorKind::kParallel;
    options.network.num_threads = param.threads;
    // The harness exists to race the parallel machinery (and is what the
    // TSAN job runs), so the work-size gate must not quietly turn small
    // waves serial here; WaveGating covers the gate's own parity. Gated
    // cases keep the default gate and interleave serial and dispatched
    // waves in one executor.
    if (!param.gated) options.network.parallel_min_wave_entries = 0;
  }
  // The engine under test runs fully profiled while the reference does
  // not: every bit-identity assertion below then also proves profiling
  // changes no result, across seeds × thread counts — and
  // the TSAN cases race the profile/histogram writes for free.
  options.network.profiling = true;

  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = param.seed;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  // Both engines are constructed with PGIVM_THREADS pinned away (the
  // override is read at construction): the engine under test must really
  // run the case's executor — an ambient PGIVM_THREADS=1 would silently
  // turn the t2/t8 cases serial — and the reference must really be the
  // serial baseline even under the TSAN job's PGIVM_THREADS=8.
  //
  // The reference additionally runs with plan canonicalization *disabled*:
  // every per-step bit-identity assertion below therefore also proves the
  // canonical normal form computes exactly what the un-normalized plan
  // does, across seeds × thread counts.
  ScopedThreadsEnv no_env(nullptr);
  QueryEngine engine(&graph, options);
  EngineOptions reference_options;
  reference_options.plan.canonicalize = false;
  QueryEngine reference_engine(&graph, reference_options);
  constexpr size_t kNumQueries =
      sizeof(kHarnessQueries) / sizeof(kHarnessQueries[0]);
  constexpr size_t kUpfront = kNumQueries / 2;
  std::vector<std::shared_ptr<View>> views;
  std::vector<std::shared_ptr<View>> reference_views;
  for (const char* query : kHarnessQueries) {
    Result<std::shared_ptr<View>> reference = reference_engine.Register(query);
    ASSERT_TRUE(reference.ok()) << query << ": " << reference.status();
    reference_views.push_back(*reference);
  }
  for (size_t q = 0; q < kUpfront; ++q) {
    Result<std::shared_ptr<View>> view = engine.Register(kHarnessQueries[q]);
    ASSERT_TRUE(view.ok()) << kHarnessQueries[q] << ": " << view.status();
    views.push_back(*view);
  }

  Rng control(param.seed * 7919 + 13);
  constexpr int kDeltas = 40;
  for (int step = 0; step < kDeltas; ++step) {
    // Alternate randomly between single-change deltas and bursts of 2–8
    // changes committed as one atomic batch.
    if (control.NextBool(0.4)) {
      int burst = static_cast<int>(control.NextInRange(2, 8));
      graph.BeginBatch();
      for (int i = 0; i < burst; ++i) generator.ApplyRandomUpdate(&graph);
      graph.CommitBatch();
    } else {
      generator.ApplyRandomUpdate(&graph);
    }
    // Stagger the remaining registrations through the stream: each one
    // replay-primes into the live catalog and must land bit-identical to
    // the reference's graph-primed twin immediately.
    if (step % 3 == 1 && views.size() < kNumQueries) {
      const char* query = kHarnessQueries[views.size()];
      Result<std::shared_ptr<View>> view = engine.Register(query);
      ASSERT_TRUE(view.ok()) << query << ": " << view.status();
      views.push_back(*view);
    }
    const bool check_baseline = step % 8 == 7 || step == kDeltas - 1;
    for (size_t q = 0; q < views.size(); ++q) {
      std::vector<Tuple> actual = views[q]->Snapshot();
      std::vector<Tuple> reference = reference_views[q]->Snapshot();
      ASSERT_EQ(actual.size(), reference.size())
          << kHarnessQueries[q] << " diverged from serial at step " << step
          << "\n  replay with: " << recipe(step);
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(Tuple::Compare(actual[i], reference[i]), 0)
            << kHarnessQueries[q] << " step " << step << " row " << i
            << ": " << actual[i].ToString() << " vs "
            << reference[i].ToString()
            << "\n  replay with: " << recipe(step);
      }
      if (!check_baseline) continue;
      Result<std::vector<Tuple>> expected =
          engine.EvaluateOnce(kHarnessQueries[q]);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_EQ(actual.size(), expected.value().size())
          << kHarnessQueries[q] << " diverged from baseline at step " << step
          << "\n  replay with: " << recipe(step);
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(Tuple::Compare(actual[i], expected.value()[i]), 0)
            << kHarnessQueries[q] << " step " << step << " row " << i
            << ": " << actual[i].ToString() << " vs "
            << expected.value()[i].ToString()
            << "\n  replay with: " << recipe(step);
      }
    }
  }
  ASSERT_EQ(views.size(), kNumQueries) << "stagger schedule exhausted early";
  if (param.gated) {
    // The gate really mixed the two kinds of wave in this run.
    const int64_t waves =
        engine.metrics().GetHistogram("propagation.wave_ns").Snapshot().count;
    const int64_t dispatched =
        engine.MetricsSnapshot().parallel_waves_dispatched;
    EXPECT_GT(dispatched, 0);
    EXPECT_LT(dispatched, waves);
  }

  // End state: a brand-new engine built over the final graph (pure graph
  // priming, no replay anywhere) must agree bit-for-bit with the engine
  // whose catalog grew by staggered replay-primed registrations.
  QueryEngine fresh_engine(&graph, options);
  for (size_t q = 0; q < kNumQueries; ++q) {
    Result<std::shared_ptr<View>> fresh =
        fresh_engine.Register(kHarnessQueries[q]);
    ASSERT_TRUE(fresh.ok()) << kHarnessQueries[q] << ": " << fresh.status();
    std::vector<Tuple> actual = views[q]->Snapshot();
    std::vector<Tuple> rebuilt = (*fresh)->Snapshot();
    ASSERT_EQ(actual.size(), rebuilt.size())
        << kHarnessQueries[q] << ": replay-primed catalog != fresh build"
        << "\n  replay with: " << recipe(-1);
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(Tuple::Compare(actual[i], rebuilt[i]), 0)
          << kHarnessQueries[q] << " row " << i
          << "\n  replay with: " << recipe(-1);
    }
  }
}

std::vector<HarnessCase> HarnessCases() {
  std::vector<HarnessCase> cases;
  for (uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    for (int threads : {1, 2, 8}) cases.push_back({seed, threads});
    for (int threads : {2, 8}) {
      cases.push_back({seed, threads, /*gated=*/true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndStrategies, RandomizedDifferentialTest,
    ::testing::ValuesIn(HarnessCases()),
    [](const ::testing::TestParamInfo<HarnessCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_batched_t" +
             std::to_string(info.param.threads) +
             (info.param.gated ? "_gated" : "");
    });

INSTANTIATE_TEST_SUITE_P(
    Queries, DifferentialTest,
    ::testing::Values(
        DifferentialCase{"label_scan", "MATCH (n:A) RETURN n", 11, false,
                         false},
        DifferentialCase{"property_filter",
                         "MATCH (n:A) WHERE n.x > 1 RETURN n, n.x AS x", 12,
                         false, false},
        DifferentialCase{"edge_join",
                         "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b", 13,
                         false, false},
        DifferentialCase{"two_hops",
                         "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
                         14, false, false},
        DifferentialCase{"undirected",
                         "MATCH (a:A)-[r:R]-(b) RETURN a, b", 15, false,
                         false},
        DifferentialCase{"cross_property_join",
                         "MATCH (a:A), (b:B) WHERE a.x = b.y RETURN a, b",
                         16, false, false},
        DifferentialCase{"distinct",
                         "MATCH (a:A)-[:R]->(b) RETURN DISTINCT b", 17,
                         false, false},
        DifferentialCase{"aggregation",
                         "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) "
                         "AS c, sum(a.x) AS s",
                         18, false, false},
        DifferentialCase{"optional_match",
                         "MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b:B) "
                         "RETURN a, b",
                         19, false, false},
        DifferentialCase{"unwind_tags",
                         "MATCH (n:B) UNWIND n.tags AS t RETURN t, "
                         "count(*) AS c",
                         20, false, false},
        DifferentialCase{"var_length",
                         "MATCH (a:A)-[:R*1..3]->(b) RETURN a, b", 21,
                         false, false},
        DifferentialCase{"var_length_path",
                         "MATCH t = (a:A)-[:R*1..2]->(b:B) RETURN t", 22,
                         false, false},
        DifferentialCase{"labels_fn",
                         "MATCH (n:A) RETURN n, size(labels(n)) AS l", 23,
                         false, false},
        DifferentialCase{"naive_maps_filter",
                         "MATCH (n:A) WHERE n.x > 1 RETURN n, n.y AS y",
                         24, true, false},
        DifferentialCase{"naive_maps_join",
                         "MATCH (a:A)-[r:R]->(b:B) WHERE a.x = b.x "
                         "RETURN a, b",
                         25, true, false},
        DifferentialCase{"coarse_unwind",
                         "MATCH (n:B) UNWIND n.tags AS t RETURN t, "
                         "count(*) AS c",
                         26, false, true},
        DifferentialCase{"where_in_list",
                         "MATCH (n:A) WHERE n.x IN [1, 3] RETURN n", 27,
                         false, false},
        DifferentialCase{"with_pipeline",
                         "MATCH (a:A)-[:R]->(b) WITH b, count(*) AS c "
                         "WHERE c > 1 RETURN b, c",
                         28, false, false},
        DifferentialCase{"exists_positive",
                         "MATCH (a:A) WHERE exists((a)-[:R]->(:B)) "
                         "RETURN a",
                         29, false, false},
        DifferentialCase{"exists_negated",
                         "MATCH (a:A) WHERE NOT exists((a)-[:S]->()) "
                         "RETURN a",
                         30, false, false},
        DifferentialCase{"exists_mixed",
                         "MATCH (a:A) WHERE a.x > 0 AND "
                         "NOT exists((a)-[:R]->(:C)) RETURN a, a.x AS x",
                         31, false, false},
        DifferentialCase{"union_all",
                         "MATCH (a:A) RETURN a AS n UNION ALL "
                         "MATCH (b:B) RETURN b AS n",
                         32, false, false},
        DifferentialCase{"union_distinct",
                         "MATCH (a:A) RETURN a AS n UNION "
                         "MATCH (b:B) RETURN b AS n",
                         33, false, false},
        DifferentialCase{"case_expression",
                         "MATCH (n:A) RETURN CASE WHEN n.x > 2 THEN 'hi' "
                         "WHEN n.x > 0 THEN 'mid' ELSE 'lo' END AS bucket, "
                         "count(*) AS c",
                         34, false, false},
        DifferentialCase{"self_loop_churn",
                         "MATCH (a:A)-[r:R]->(a) RETURN a, r", 35, false,
                         false},
        DifferentialCase{"optional_var_length",
                         "MATCH (a:A) OPTIONAL MATCH (a)-[:R*1..2]->(b:B) "
                         "RETURN a, b",
                         36, false, false}),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pgivm
