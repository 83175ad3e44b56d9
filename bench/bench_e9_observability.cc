// E9 — the observability layer's overhead contract and its profiled cost.
//
// The contract (ReteNetwork::set_profiling doc): with profiling *off* —
// the default — every hot path is free of clock reads, so the whole layer
// must cost under 2% on the e3 burst workload (8 standing views, 64-change
// BeginBatch/CommitBatch bursts). BM_E9_BurstLatency measures the off/on
// pair under google-benchmark timing; BM_E9_ProfilingOverhead computes the
// ratio explicitly in one process (manual timing, runtime toggle between
// halves, identical update streams) and reports it as the
// `profiling_overhead_ratio` counter, which CI's bench smoke uploads.
// Expect the *on* configuration to cost a few percent: two clock reads
// per node-wave plus histogram/trace appends at the barrier.

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_main.h"

#include "engine/query_engine.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

constexpr int kChangesPerBurst = 64;

/// The e3 standing-query deployment: joins, aggregation, filters, UNWIND,
/// a transitive pattern — every node kind the profiler instruments.
std::vector<std::string> StandingQueries() {
  return {
      "MATCH (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang "
      "RETURN p, c",
      "MATCH (m:Comm) RETURN m.lang AS lang, count(*) AS n",
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN m AS msg, count(*) AS l",
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "WHERE a.country = c.country RETURN a, c",
      "MATCH (m:Post) WHERE m.length > 1000 RETURN m",
      "MATCH (u:Person) UNWIND u.speaks AS lang "
      "RETURN lang, count(*) AS speakers",
      "MATCH (c:Comm)-[:HAS_CREATOR]->(u:Person) RETURN u AS a, count(*) "
      "AS msgs",
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang <> c.lang "
      "RETURN p, c",
  };
}

struct BurstFixture {
  PropertyGraph graph;
  SocialNetworkGenerator generator;
  std::unique_ptr<QueryEngine> engine;
  std::vector<std::shared_ptr<View>> views;

  explicit BurstFixture(bool profiling)
      : generator([] {
          SocialNetworkConfig config;
          config.persons = 60;
          return config;
        }()) {
    generator.Populate(&graph);
    engine = std::make_unique<QueryEngine>(&graph);
    engine->set_profiling(profiling);
    for (const std::string& query : StandingQueries()) {
      views.push_back(engine->Register(query).value());
    }
  }

  void ApplyBurst() {
    graph.BeginBatch();
    for (int i = 0; i < kChangesPerBurst; ++i) {
      generator.ApplyRandomUpdate(&graph);
    }
    graph.CommitBatch();
  }
};

// range(0): 0 = profiling off (the overhead-contract configuration),
// 1 = profiling on (the cost of actually observing).
void BM_E9_BurstLatency(benchmark::State& state) {
  BurstFixture fixture(state.range(0) == 1);
  for (auto _ : state) {
    fixture.ApplyBurst();
  }
  state.SetItemsProcessed(state.iterations() * kChangesPerBurst);
  int64_t rows = 0;
  for (const auto& view : fixture.views) rows += view->size();
  state.counters["total_rows"] = static_cast<double>(rows);
  state.SetLabel(state.range(0) == 1 ? "profiling_on" : "profiling_off");
}
BENCHMARK(BM_E9_BurstLatency)->Arg(0)->Arg(1)->Iterations(150);

/// The overhead numbers, computed in one process so machine noise between
/// runs cannot fake a regression: one engine, one update stream,
/// alternating off/on bursts interleaved per round to cancel graph-growth
/// drift. `off_ns_per_burst` is the <2% contract's number — it tracks the
/// instrumented-but-disabled hot path across PRs via the uploaded BENCH
/// json (the disabled checks are single relaxed bool loads, so it must sit
/// on top of the pre-observability e3 trajectory). The on/off ratio
/// (`profiling_overhead_ratio`) prices what actually observing costs.
void BM_E9_ProfilingOverhead(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  BurstFixture fixture(false);
  // Warm both paths (first drains populate memories, first toggle
  // resolves histograms) before timing anything.
  fixture.ApplyBurst();
  fixture.engine->set_profiling(true);
  fixture.ApplyBurst();
  fixture.engine->set_profiling(false);

  int64_t off_ns = 0;
  int64_t on_ns = 0;
  int64_t bursts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fixture.engine->set_profiling(false);
    state.ResumeTiming();
    Clock::time_point t0 = Clock::now();
    fixture.ApplyBurst();
    Clock::time_point t1 = Clock::now();
    state.PauseTiming();
    fixture.engine->set_profiling(true);
    state.ResumeTiming();
    Clock::time_point t2 = Clock::now();
    fixture.ApplyBurst();
    Clock::time_point t3 = Clock::now();
    off_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count();
    on_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2)
                 .count();
    ++bursts;
  }
  fixture.engine->set_profiling(false);
  state.SetItemsProcessed(state.iterations() * 2 * kChangesPerBurst);
  state.counters["off_ns_per_burst"] =
      static_cast<double>(off_ns) / static_cast<double>(bursts);
  state.counters["on_ns_per_burst"] =
      static_cast<double>(on_ns) / static_cast<double>(bursts);
  state.counters["profiling_overhead_ratio"] =
      off_ns == 0 ? 0.0
                  : static_cast<double>(on_ns) / static_cast<double>(off_ns);
}
BENCHMARK(BM_E9_ProfilingOverhead)->Iterations(150);

}  // namespace
}  // namespace pgivm

PGIVM_BENCHMARK_MAIN();
