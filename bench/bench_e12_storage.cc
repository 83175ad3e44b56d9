// E12 — storage layer: interned symbols + typed property columns.
//
// Three sweeps, each over graph size × property mix:
//   * BM_E12_Load — bulk population. `storage_bytes`
//     (PropertyGraph::ApproxMemoryBytes) rides alongside the timing so the
//     footprint of the columnar lanes is tracked per PR, not just speed.
//   * BM_E12_UpdateBurst — batched mutation bursts over a populated graph
//     (the IVM ingest shape: BeginBatch / k updates / CommitBatch).
//   * BM_E12_FilterSweep — the filter-heavy read loop, string path
//     (per-read symbol lookup, the shim API) vs symbol path (resolve once,
//     SymbolId overloads). This is the pair CI diffs: the symbol path must
//     not be slower than the string path on any (size, mix) point.
//
// Property mixes: mix=0 is int-only (one packed Int64 lane per key — the
// columnar best case); mix=1 is mixed-type (ints + doubles + strings, and a
// per-key type flip on some elements to force the Value overflow map).

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <cstdint>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "support/rng.h"
#include "value/value.h"

namespace pgivm {
namespace {

constexpr int kMixIntOnly = 0;
constexpr int kMixMixed = 1;

Value MixedScalar(Rng& rng, int mix) {
  if (mix == kMixIntOnly) return Value::Int(rng.NextInRange(0, 99));
  switch (rng.NextBelow(4)) {
    case 0:
      return Value::Int(rng.NextInRange(0, 99));
    case 1:
      return Value::Double(rng.NextDouble() * 100.0);
    case 2:
      return Value::String("s" + std::to_string(rng.NextBelow(64)));
    default:
      // Same key, different scalar type than the Int most elements carry:
      // this lands in the column's overflow map.
      return Value::Bool(rng.NextBool(0.5));
  }
}

/// Deterministic loader: `vertices` vertices over three labels, each with
/// an always-Int64 "age" plus two mix-controlled keys, and ~2x edges over
/// two types with one mix-controlled key. Fixed seed, so every run does
/// comparable work.
void PopulateGraph(PropertyGraph* graph, int64_t vertices, int mix) {
  Rng rng(/*seed=*/42);
  static const char* kLabels[] = {"Person", "Post", "Comment"};
  std::vector<VertexId> ids;
  ids.reserve(static_cast<size_t>(vertices));
  graph->BeginBatch();
  for (int64_t i = 0; i < vertices; ++i) {
    ValueMap props;
    props["age"] = Value::Int(rng.NextInRange(0, 99));
    props["score"] = MixedScalar(rng, mix);
    props["flag"] = MixedScalar(rng, mix);
    ids.push_back(graph->AddVertex({kLabels[i % 3]}, std::move(props)));
  }
  for (int64_t i = 0; i < vertices * 2; ++i) {
    VertexId src = ids[rng.NextBelow(ids.size())];
    VertexId dst = ids[rng.NextBelow(ids.size())];
    ValueMap props;
    props["w"] = MixedScalar(rng, mix);
    benchmark::DoNotOptimize(
        graph->AddEdge(src, dst, i % 2 == 0 ? "KNOWS" : "LIKES",
                       std::move(props)));
  }
  graph->CommitBatch();
}

/// Bulk load. storage_bytes is the post-load footprint.
void BM_E12_Load(benchmark::State& state) {
  const int64_t vertices = state.range(0);
  const int mix = static_cast<int>(state.range(1));
  size_t bytes = 0;
  for (auto _ : state) {
    PropertyGraph graph;
    PopulateGraph(&graph, vertices, mix);
    bytes = graph.ApproxMemoryBytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * vertices * 3);  // elements
  state.counters["storage_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_E12_Load)
    ->ArgNames({"vertices", "mix"})
    ->ArgsProduct({{2000, 20000}, {kMixIntOnly, kMixMixed}})
    ->Unit(benchmark::kMillisecond);

/// Batched mutation bursts against a populated graph: property overwrites,
/// label churn, and edge churn — the shapes the ingest queue delivers.
void BM_E12_UpdateBurst(benchmark::State& state) {
  const int64_t vertices = state.range(0);
  const int mix = static_cast<int>(state.range(1));
  PropertyGraph graph;
  PopulateGraph(&graph, vertices, mix);
  std::vector<VertexId> ids;
  graph.ForEachVertex([&ids](VertexId v) { ids.push_back(v); });
  Rng rng(/*seed=*/7);
  constexpr int kBurst = 256;
  for (auto _ : state) {
    graph.BeginBatch();
    for (int i = 0; i < kBurst; ++i) {
      VertexId v = ids[rng.NextBelow(ids.size())];
      switch (rng.NextBelow(3)) {
        case 0:
          benchmark::DoNotOptimize(
              graph.SetVertexProperty(v, "score", MixedScalar(rng, mix)));
          break;
        case 1:
          benchmark::DoNotOptimize(graph.AddVertexLabel(v, "Hot"));
          break;
        default:
          benchmark::DoNotOptimize(graph.RemoveVertexLabel(v, "Hot"));
          break;
      }
    }
    graph.CommitBatch();
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
  state.counters["storage_bytes"] =
      static_cast<double>(graph.ApproxMemoryBytes());
}
BENCHMARK(BM_E12_UpdateBurst)
    ->ArgNames({"vertices", "mix"})
    ->Args({2000, kMixIntOnly})
    ->Args({20000, kMixMixed})
    ->Unit(benchmark::kMicrosecond);

/// The filter-heavy loop: scan every Person, read two properties, count
/// matches. symbol=0 goes through the string shims (hash + symbol lookup
/// per read); symbol=1 resolves each name once and runs on SymbolIds —
/// the per-tuple discipline input/path nodes use.
void BM_E12_FilterSweep(benchmark::State& state) {
  const int64_t vertices = state.range(0);
  const int mix = static_cast<int>(state.range(1));
  const bool symbol_path = state.range(2) != 0;
  PropertyGraph graph;
  PopulateGraph(&graph, vertices, mix);
  int64_t matched = 0;
  if (symbol_path) {
    const SymbolId person = graph.symbols().Lookup("Person").value();
    const SymbolId age = graph.symbols().Lookup("age").value();
    const SymbolId score = graph.symbols().Lookup("score").value();
    for (auto _ : state) {
      matched = 0;
      for (VertexId v : graph.VerticesWithLabelId(person)) {
        Value a = graph.GetVertexProperty(v, age);
        if (a.is_int() && a.AsInt() < 40) {
          benchmark::DoNotOptimize(graph.GetVertexProperty(v, score));
          ++matched;
        }
      }
      benchmark::DoNotOptimize(matched);
    }
  } else {
    for (auto _ : state) {
      matched = 0;
      for (VertexId v : graph.VerticesWithLabel("Person")) {
        Value a = graph.GetVertexProperty(v, "age");
        if (a.is_int() && a.AsInt() < 40) {
          benchmark::DoNotOptimize(graph.GetVertexProperty(v, "score"));
          ++matched;
        }
      }
      benchmark::DoNotOptimize(matched);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(
                              graph.VerticesWithLabel("Person").size()));
  state.counters["matched"] = static_cast<double>(matched);
  state.counters["storage_bytes"] =
      static_cast<double>(graph.ApproxMemoryBytes());
}
BENCHMARK(BM_E12_FilterSweep)
    ->ArgNames({"vertices", "mix", "symbol"})
    ->Args({2000, kMixIntOnly, 0})
    ->Args({2000, kMixIntOnly, 1})
    ->Args({2000, kMixMixed, 0})
    ->Args({2000, kMixMixed, 1})
    ->Args({20000, kMixIntOnly, 0})
    ->Args({20000, kMixIntOnly, 1})
    ->Args({20000, kMixMixed, 0})
    ->Args({20000, kMixMixed, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pgivm

PGIVM_BENCHMARK_MAIN();
