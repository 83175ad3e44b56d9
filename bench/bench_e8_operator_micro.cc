// E8 — operator-level delta throughput of the Rete substrate: how many
// delta entries per second each node kind absorbs. Grounds the macro
// results (E2/E3) in the per-operator costs.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "graph/property_graph.h"
#include "rete/aggregate_node.h"
#include "rete/distinct_node.h"
#include "rete/filter_node.h"
#include "rete/join_node.h"
#include "rete/network.h"
#include "rete/project_node.h"
#include "support/rng.h"

namespace pgivm {
namespace {

Schema TwoCols(const char* a, const char* b) {
  return Schema({{a, Attribute::Kind::kValue},
                 {b, Attribute::Kind::kValue}});
}

/// Delivers `delta` on `port` of `node` into `out`, emptied first — the
/// recycled staging buffer a network hands every delivery.
void Deliver(ReteNode& node, int port, const Delta& delta, Delta& out) {
  out.clear();
  node.OnDelta(port, delta, out);
  benchmark::DoNotOptimize(out.data());
  benchmark::ClobberMemory();
}

Delta MakeBatch(Rng& rng, int64_t n, int64_t key_range) {
  Delta delta;
  delta.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    delta.push_back(
        {Tuple({Value::Int(static_cast<int64_t>(rng.NextBelow(
              static_cast<uint64_t>(key_range)))),
                Value::Int(i)}),
         1});
  }
  return delta;
}

BoundExpression MustBind(const ExprPtr& expr, const Schema& schema) {
  Result<BoundExpression> bound = BoundExpression::Bind(expr, schema);
  return std::move(bound).value();
}

void BM_E8_Filter(benchmark::State& state) {
  Schema schema = TwoCols("k", "v");
  FilterNode node(schema,
                  MustBind(MakeBinary(BinaryOp::kGt, MakeVariable("v"),
                                      MakeLiteral(Value::Int(50))),
                           schema));
  Delta out;
  Rng rng(1);
  Delta batch = MakeBatch(rng, 100, 1000);
  for (auto _ : state) {
    Deliver(node, 0, batch, out);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_E8_Filter)->Iterations(2000);

void BM_E8_Project(benchmark::State& state) {
  Schema in = TwoCols("k", "v");
  std::vector<BoundExpression> columns;
  columns.push_back(MustBind(
      MakeBinary(BinaryOp::kAdd, MakeVariable("k"), MakeVariable("v")), in));
  ProjectNode node(Schema({{"s", Attribute::Kind::kValue}}),
                   std::move(columns));
  Delta out;
  Rng rng(2);
  Delta batch = MakeBatch(rng, 100, 1000);
  for (auto _ : state) {
    Deliver(node, 0, batch, out);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_E8_Project)->Iterations(2000);

void BM_E8_JoinProbe(benchmark::State& state) {
  // Right memory pre-loaded with `fanout` rows per key; measure left-side
  // probe throughput (insert + matching retraction keeps state stable).
  int64_t fanout = state.range(0);
  Schema left = TwoCols("k", "a");
  Schema right = TwoCols("k", "b");
  Schema out_schema({{"k", Attribute::Kind::kValue},
                     {"a", Attribute::Kind::kValue},
                     {"b", Attribute::Kind::kValue}});
  JoinNode node(out_schema, left, right);

  Delta out;
  Delta preload;
  for (int64_t k = 0; k < 100; ++k) {
    for (int64_t f = 0; f < fanout; ++f) {
      preload.push_back({Tuple({Value::Int(k), Value::Int(f)}), 1});
    }
  }
  Deliver(node, 1, preload, out);

  Rng rng(3);
  Delta add = MakeBatch(rng, 100, 100);
  Delta remove = add;
  for (DeltaEntry& entry : remove) entry.multiplicity = -1;
  for (auto _ : state) {
    Deliver(node, 0, add, out);
    Deliver(node, 0, remove, out);
  }
  state.SetItemsProcessed(state.iterations() * 200);
  state.counters["fanout"] = static_cast<double>(fanout);
}
BENCHMARK(BM_E8_JoinProbe)->Arg(1)->Arg(4)->Arg(16)->Iterations(500);

void BM_E8_Distinct(benchmark::State& state) {
  DistinctNode node(TwoCols("k", "v"));
  Delta out;
  Rng rng(4);
  Delta add = MakeBatch(rng, 100, 20);
  Delta remove = add;
  for (DeltaEntry& entry : remove) entry.multiplicity = -1;
  for (auto _ : state) {
    Deliver(node, 0, add, out);
    Deliver(node, 0, remove, out);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_E8_Distinct)->Iterations(1000);

void BM_E8_Aggregate(benchmark::State& state) {
  Schema in = TwoCols("k", "v");
  Schema out_schema({{"k", Attribute::Kind::kValue},
                     {"c", Attribute::Kind::kValue},
                     {"s", Attribute::Kind::kValue}});
  std::vector<BoundExpression> keys;
  keys.push_back(MustBind(MakeVariable("k"), in));
  std::vector<AggregateSpec> specs;
  specs.push_back(AggregateSpec::Make(MakeCountStar(), in, nullptr).value());
  specs.push_back(
      AggregateSpec::Make(MakeFunctionCall("sum", {MakeVariable("v")}), in,
                          nullptr)
          .value());
  AggregateNode node(out_schema, std::move(keys), std::move(specs));
  Delta out;
  Rng rng(5);
  Delta add = MakeBatch(rng, 100, 10);
  Delta remove = add;
  for (DeltaEntry& entry : remove) entry.multiplicity = -1;
  for (auto _ : state) {
    Deliver(node, 0, add, out);
    Deliver(node, 0, remove, out);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_E8_Aggregate)->Iterations(1000);

// ---- tuple derivation micro-benchmarks -------------------------------------
//
// Join delivery manufactures one output tuple per matched pair via
// Concat/Project-style combination; these isolate the per-tuple cost of
// that path (exact-width reservation + incremental hash continuation vs
// the former rebuild-and-rehash).

void BM_E8_TupleConcat(benchmark::State& state) {
  int64_t width = state.range(0);
  std::vector<Value> left_values;
  std::vector<Value> right_values;
  for (int64_t i = 0; i < width; ++i) {
    left_values.push_back(Value::Int(i));
    right_values.push_back(Value::String("col" + std::to_string(i)));
  }
  Tuple left(left_values);
  Tuple right(right_values);
  for (auto _ : state) {
    Tuple out = left.Concat(right);
    benchmark::DoNotOptimize(out.Hash());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["width"] = static_cast<double>(2 * width);
}
BENCHMARK(BM_E8_TupleConcat)->Arg(2)->Arg(4)->Arg(8)->Iterations(200000);

void BM_E8_TupleProject(benchmark::State& state) {
  std::vector<Value> values;
  for (int64_t i = 0; i < 8; ++i) {
    values.push_back(Value::String("payload" + std::to_string(i)));
  }
  Tuple tuple(values);
  std::vector<int> indices{6, 4, 2, 0};
  for (auto _ : state) {
    Tuple out = tuple.Project(indices);
    benchmark::DoNotOptimize(out.Hash());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_E8_TupleProject)->Iterations(200000);

void BM_E8_TupleConcatProjected(benchmark::State& state) {
  // The exact join-delivery combination: left row + right-only columns.
  Tuple left({Value::Int(1), Value::String("k"), Value::Int(2)});
  Tuple right({Value::String("k"), Value::Int(7), Value::String("rest"),
               Value::Double(2.5)});
  std::vector<int> right_rest{1, 2, 3};
  for (auto _ : state) {
    Tuple out = left.ConcatProjected(right, right_rest);
    benchmark::DoNotOptimize(out.Hash());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_E8_TupleConcatProjected)->Iterations(200000);

// Tiny-payload consolidation: the (node, port) queues of single-change
// waves carry 1–2 entries; range(0) is the payload size, range(1) selects
// the sort path (0) or the pairwise fast path (1, the default cutoff).
void BM_E8_ConsolidateTiny(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t cutoff = state.range(1) == 0 ? 0 : kDefaultConsolidationCutoff;
  Rng rng(7);
  Delta base;
  for (size_t i = 0; i < n; ++i) {
    base.push_back({Tuple({Value::Int(static_cast<int64_t>(rng.NextBelow(4))),
                           Value::Int(static_cast<int64_t>(i))}),
                    rng.NextBool(0.5) ? 1 : -1});
  }
  Delta work;
  for (auto _ : state) {
    work = base;
    Consolidate(work, cutoff);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(cutoff == 0 ? "sort" : "fastpath");
}
BENCHMARK(BM_E8_ConsolidateTiny)
    ->ArgsProduct({{1, 2}, {0, 1}})
    ->Iterations(500000);

void BM_E8_Consolidate(benchmark::State& state) {
  // Throughput of the between-wave consolidation primitive on a delta with
  // heavy duplication (each tuple appears ~8 times with mixed signs).
  int64_t n = state.range(0);
  Rng rng(6);
  Delta base;
  base.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    base.push_back({Tuple({Value::Int(static_cast<int64_t>(
                        rng.NextBelow(static_cast<uint64_t>(n / 8 + 1))))}),
                    rng.NextBool(0.5) ? 1 : -1});
  }
  for (auto _ : state) {
    Delta work = base;
    Consolidate(work);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_E8_Consolidate)->Arg(100)->Arg(1000)->Arg(10000);

// ---- batch-size sweep through a minimal end-to-end network -----------------
//
// ◯[:A] ⋈ ◯[:B] → production, driven by graph-level batches of range(0)
// add/remove-vertex pairs. The inverse pairs cancel at the sources and the
// join is never probed.

void BM_E8_NetworkChurnSweep(benchmark::State& state) {
  int64_t batch_size = state.range(0);

  PropertyGraph graph;
  ReteNetwork network(&graph, NetworkOptions{});
  Schema vs({{"v", Attribute::Kind::kVertex}});
  auto* left = network.Add(std::make_unique<VertexInputNode>(
      vs, &graph, std::vector<std::string>{"A"},
      std::vector<PropertyExtract>{}));
  network.RegisterSource(left);
  auto* right = network.Add(std::make_unique<VertexInputNode>(
      vs, &graph, std::vector<std::string>{"B"},
      std::vector<PropertyExtract>{}));
  network.RegisterSource(right);
  auto* join = network.Add(std::make_unique<JoinNode>(vs, vs, vs));
  left->AddOutput(join, 0);
  right->AddOutput(join, 1);
  auto* production = network.Add(std::make_unique<ProductionNode>(vs));
  join->AddOutput(production, 0);
  network.RegisterProduction(production);
  network.PrimeNewNodes({left, right, join, production}, {}, {});

  for (auto _ : state) {
    graph.BeginBatch();
    for (int64_t i = 0; i < batch_size; ++i) {
      VertexId v = graph.AddVertex({"A", "B"});
      (void)graph.RemoveVertex(v);
    }
    graph.CommitBatch();
  }

  state.SetItemsProcessed(state.iterations() * batch_size * 2);
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["emitted_total"] =
      static_cast<double>(network.TotalEmittedEntries());
}
BENCHMARK(BM_E8_NetworkChurnSweep)
    ->ArgsProduct({{10, 100, 1000}})
    ->Iterations(200);

}  // namespace
}  // namespace pgivm

PGIVM_BENCHMARK_MAIN();
