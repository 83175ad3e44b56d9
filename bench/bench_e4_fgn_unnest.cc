// E4 — FGN: fine-grained maintenance of nested collections.
//
// A view unnests a collection-valued property (UNWIND). One element is
// appended and removed per update. With fine-grained unnest (the paper's
// FGN property) the propagated delta is O(1) in the collection size; the
// naive mode retracts and re-asserts every element, O(n).
//
// Two benchmark families:
//  * the plain view reports `prop_entries` — delta entries propagated per
//    update (the direct FGN metric: flat for fine, linear for naive);
//  * the amplified view joins the unnested elements against a topic table,
//    so every propagated entry pays real downstream work and the entry gap
//    becomes a wall-clock gap.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "engine/query_engine.h"

namespace pgivm {
namespace {

constexpr char kPlainQuery[] =
    "MATCH (u:Person) UNWIND u.speaks AS lang "
    "RETURN lang, count(*) AS speakers";

constexpr char kAmplifiedQuery[] =
    "MATCH (u:Person) UNWIND u.speaks AS lang "
    "MATCH (t:Topic) WHERE t.lang = lang "
    "RETURN t AS topic, count(*) AS reach";

void RunCollectionChurn(benchmark::State& state, bool fine_grained,
                        bool amplified) {
  EngineOptions options;
  options.plan.fine_grained_unnest = fine_grained;

  PropertyGraph graph;
  int64_t collection_size = state.range(0);
  ValueList langs;
  for (int64_t i = 0; i < collection_size; ++i) {
    langs.push_back(Value::String("lang" + std::to_string(i)));
  }
  VertexId person =
      graph.AddVertex({"Person"}, {{"speaks", Value::List(langs)}});
  if (amplified) {
    // Topic table: one topic per language plus extras.
    for (int64_t i = 0; i < collection_size + 8; ++i) {
      graph.AddVertex({"Topic"},
                      {{"lang", Value::String("lang" + std::to_string(i))}});
    }
  }

  QueryEngine engine(&graph, options);
  auto view =
      engine.Register(amplified ? kAmplifiedQuery : kPlainQuery).value();

  int64_t entries_before = view->network().TotalEmittedEntries();
  for (auto _ : state) {
    (void)graph.ListAppend(person, "speaks", Value::String("extra"));
    (void)graph.ListRemoveFirst(person, "speaks", Value::String("extra"));
  }
  int64_t entries = view->network().TotalEmittedEntries() - entries_before;
  state.counters["collection"] = static_cast<double>(collection_size);
  state.counters["prop_entries"] =
      benchmark::Counter(static_cast<double>(entries),
                         benchmark::Counter::kAvgIterations);
  state.counters["rows"] = static_cast<double>(view->size());
}

void BM_E4_FineGrained(benchmark::State& state) {
  RunCollectionChurn(state, /*fine_grained=*/true, /*amplified=*/false);
}
BENCHMARK(BM_E4_FineGrained)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Iterations(500);

void BM_E4_Naive(benchmark::State& state) {
  RunCollectionChurn(state, /*fine_grained=*/false, /*amplified=*/false);
}
BENCHMARK(BM_E4_Naive)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Iterations(500);

void BM_E4_FineGrainedJoined(benchmark::State& state) {
  RunCollectionChurn(state, /*fine_grained=*/true, /*amplified=*/true);
}
BENCHMARK(BM_E4_FineGrainedJoined)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Iterations(100);

void BM_E4_NaiveJoined(benchmark::State& state) {
  RunCollectionChurn(state, /*fine_grained=*/false, /*amplified=*/true);
}
BENCHMARK(BM_E4_NaiveJoined)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Iterations(100);

}  // namespace
}  // namespace pgivm

PGIVM_BENCHMARK_MAIN();
