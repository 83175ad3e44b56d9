// E3 (serving) — reader throughput against epoch-published snapshots.
//
// Three angles on the serving path this library now exposes: the cost of
// pinning an unchanged view (the polling fast path — one atomic
// shared_ptr load), the cost of Snapshot()'s row copy on top of it, and
// reader throughput while a sustained writer churns the graph through
// the ingest queue (the contended path: every commit publishes new
// epochs while readers pin concurrently). A fourth sweeps view size ×
// delta size and splits one changed view's cost into its commit and its
// first pin of the new epoch.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace pgivm {
namespace {

constexpr char kQuery[] = "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c";

struct ServingFixture {
  explicit ServingFixture(int posts = 50, int replies = 4)
      : engine(&graph, Options()) {
    for (int p = 0; p < posts; ++p) {
      VertexId post = graph.AddVertex({"Post"});
      for (int r = 0; r < replies; ++r) {
        VertexId comment = graph.AddVertex({"Comm"});
        (void)graph.AddEdge(post, comment, "REPLY").value();
      }
    }
    view = engine.Register(kQuery).value();
  }

  static EngineOptions Options() {
    EngineOptions options;
    options.ingest_queue_depth = 128;
    return options;
  }

  PropertyGraph graph;
  QueryEngine engine;
  std::shared_ptr<View> view;
};

/// The polling fast path: Pin() on a view whose epoch has not moved is
/// one atomic load of the cached ViewSnapshot.
void BM_E3_PinUnchangedView(benchmark::State& state) {
  ServingFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.view->Pin());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_E3_PinUnchangedView);

/// Snapshot() = Pin() + copying the sorted rows out (the seed API shape,
/// kept for convenience). The gap to PinUnchangedView is the copy.
void BM_E3_SnapshotUnchangedView(benchmark::State& state) {
  ServingFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.view->Snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_E3_SnapshotUnchangedView);

/// Reader throughput while the ingest thread applies a sustained stream
/// of mutations: every batch commit publishes fresh epochs, so Pin()
/// alternates between the cached-epoch fast path and rebuilding the
/// rendering for a new epoch. items_per_second is pins per second seen
/// by one reader under full writer pressure.
void BM_E3_PinUnderIngestChurn(benchmark::State& state) {
  ServingFixture f;
  f.engine.StartIngest();
  std::atomic<bool> stop{false};
  std::thread writer([&f, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      f.engine.SubmitAsync([](PropertyGraph& g) {
        VertexId post = g.AddVertex({"Post"});
        VertexId comment = g.AddVertex({"Comm"});
        (void)g.AddEdge(post, comment, "REPLY");
      });
    }
  });
  int64_t rows = 0;
  for (auto _ : state) {
    std::shared_ptr<const ViewSnapshot> snap = f.view->Pin();
    rows += snap->total_rows();
    benchmark::DoNotOptimize(snap);
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  f.engine.StopIngest();
  state.SetItemsProcessed(state.iterations());
  state.counters["ingest_batches"] =
      static_cast<double>(f.engine.ingest_batches());
  state.counters["ingest_mutations"] =
      static_cast<double>(f.engine.ingest_mutations());
  benchmark::DoNotOptimize(rows);
}
BENCHMARK(BM_E3_PinUnderIngestChurn)->Iterations(20000);

/// Commit × first-pin sweep over view size (arg 0, rows) and delta size
/// (arg 1, changed rows per commit). Each iteration moves arg-1 random
/// rows of a one-label scan view to a new random sort key in one batch —
/// 2 × arg 1 delta entries, the view size unchanged — then pins the new
/// epoch once. commit_us (CommitBatch: drain plus epoch publish) and
/// pin_us (that first Pin) are per-iteration means; flat in view size
/// is the goal, growth with it is the O(n) left on the serving path.
void BM_E3_CommitPinSweep(benchmark::State& state) {
  const int64_t view_rows = state.range(0);
  const int64_t delta_rows = state.range(1);
  PropertyGraph graph;
  Rng rng(42);
  std::vector<VertexId> items;
  items.reserve(static_cast<size_t>(view_rows));
  for (int64_t i = 0; i < view_rows; ++i) {
    items.push_back(graph.AddVertex(
        {"Item"}, {{"k", Value::Int(static_cast<int64_t>(rng.NextBelow(
                              static_cast<uint64_t>(view_rows) * 4)))}}));
  }
  QueryEngine engine(&graph);
  std::shared_ptr<View> view =
      engine.Register("MATCH (n:Item) RETURN n.k AS k, n").value();
  (void)view->Pin();

  int64_t commit_ns = 0;
  int64_t pin_ns = 0;
  for (auto _ : state) {
    graph.BeginBatch();
    for (int64_t d = 0; d < delta_rows; ++d) {
      const VertexId item = items[rng.NextBelow(items.size())];
      (void)graph.SetVertexProperty(
          item, "k",
          Value::Int(static_cast<int64_t>(
              rng.NextBelow(static_cast<uint64_t>(view_rows) * 4))));
    }
    const int64_t commit_start = MonotonicNowNs();
    graph.CommitBatch();
    const int64_t pin_start = MonotonicNowNs();
    std::shared_ptr<const ViewSnapshot> snap = view->Pin();
    const int64_t pin_end = MonotonicNowNs();
    benchmark::DoNotOptimize(snap->rows().data());
    commit_ns += pin_start - commit_start;
    pin_ns += pin_end - pin_start;
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["commit_us"] =
      static_cast<double>(commit_ns) / 1e3 / iterations;
  state.counters["pin_us"] = static_cast<double>(pin_ns) / 1e3 / iterations;
  state.counters["view_rows"] = static_cast<double>(view->size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_E3_CommitPinSweep)
    ->ArgsProduct({{1000, 10000, 100000}, {1, 100}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pgivm

PGIVM_BENCHMARK_MAIN();
