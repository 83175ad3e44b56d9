// E2 — incremental view maintenance vs. full re-evaluation (the paper's
// core motivating claim, on the Train-Benchmark-style workload it cites).
//
// For model sizes from small to large, we measure the cost of keeping the
// four well-formedness constraints current across one random repair/break
// operation:
//   * IVM:    apply the update; registered views absorb the delta.
//   * ReEval: apply the update; re-run all four queries from scratch.
// Expected shape: IVM latency is roughly flat in model size, re-evaluation
// grows linearly — the gap widens with scale.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "baseline/baseline_evaluator.h"
#include "engine/query_engine.h"
#include "workload/railway.h"

namespace pgivm {
namespace {

std::vector<std::string> ConstraintQueries() {
  return {
      RailwayGenerator::PosLengthQuery(),
      RailwayGenerator::SwitchMonitoredQuery(),
      RailwayGenerator::RouteSensorQuery(),
      RailwayGenerator::SwitchSetQuery(),
  };
}

void BM_E2_IVM(benchmark::State& state) {
  PropertyGraph graph;
  RailwayConfig config;
  config.routes = state.range(0);
  RailwayGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  int64_t violations = 0;
  for (const std::string& query : ConstraintQueries()) {
    views.push_back(engine.Register(query).value());
  }
  for (auto _ : state) {
    generator.ApplyRandomUpdate(&graph);
    for (const auto& view : views) violations += view->size();
  }
  benchmark::DoNotOptimize(violations);
  state.counters["elements"] =
      static_cast<double>(graph.vertex_count() + graph.edge_count());
}
BENCHMARK(BM_E2_IVM)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Iterations(200);

void BM_E2_ReEval(benchmark::State& state) {
  PropertyGraph graph;
  RailwayConfig config;
  config.routes = state.range(0);
  RailwayGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<OpPtr> plans;
  for (const std::string& query : ConstraintQueries()) {
    plans.push_back(engine.Compile(query).value());
  }
  BaselineEvaluator evaluator(&graph);
  int64_t violations = 0;
  for (auto _ : state) {
    generator.ApplyRandomUpdate(&graph);
    for (const OpPtr& plan : plans) {
      Result<Bag> result = evaluator.Evaluate(plan);
      violations += result.value().total_count();
    }
  }
  benchmark::DoNotOptimize(violations);
  state.counters["elements"] =
      static_cast<double>(graph.vertex_count() + graph.edge_count());
}
BENCHMARK(BM_E2_ReEval)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Iterations(200);

// ---- batch-size sweep ------------------------------------------------------
//
// Same four standing constraints, but updates arrive in BeginBatch/
// CommitBatch bursts of range(0) changes; each burst is translated once
// and drained through the network level by level with consolidation. The
// `emitted_per_batch`
// counter is the resulting propagation volume (TotalEmittedEntries delta),
// the FGN papers' cost metric.

void BM_E2_BatchSweep(benchmark::State& state) {
  int64_t batch_size = state.range(0);

  PropertyGraph graph;
  RailwayConfig config;
  config.routes = 64;
  RailwayGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  for (const std::string& query : ConstraintQueries()) {
    views.push_back(engine.Register(query).value());
  }

  auto total_emitted = [&views] {
    int64_t total = 0;
    for (const auto& view : views) {
      total += view->network().TotalEmittedEntries();
    }
    return total;
  };

  int64_t emitted_before = total_emitted();
  int64_t violations = 0;
  for (auto _ : state) {
    graph.BeginBatch();
    for (int64_t i = 0; i < batch_size; ++i) {
      generator.ApplyRandomUpdate(&graph);
    }
    graph.CommitBatch();
    for (const auto& view : views) violations += view->size();
  }
  benchmark::DoNotOptimize(violations);

  state.SetItemsProcessed(state.iterations() * batch_size);
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["emitted_per_batch"] =
      static_cast<double>(total_emitted() - emitted_before) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_E2_BatchSweep)->ArgsProduct({{1, 10, 100, 1000}})->Iterations(20);

}  // namespace
}  // namespace pgivm

PGIVM_BENCHMARK_MAIN();
