// Serving a live view to concurrent readers while writes stream in.
//
// One engine, one graph. The writer side runs through the ingest queue
// (StartIngest + SubmitAsync): mutations submitted from this thread are
// coalesced into batches and applied by the ingest thread — one batch,
// one propagation drain, one committed epoch. Four reader threads poll
// the views the whole time via the epoch-pinned reader API (Pin /
// Snapshot / size), which never blocks propagation and never observes a
// mid-drain state. CI runs this under TSAN as an end-to-end race check.
//
// The whole session runs with profiling on: on exit it prints the unified
// metrics snapshot (per-drain histograms, ingest latency, per-node
// profiles) and writes serve_concurrent_trace.json — load it in
// chrome://tracing or https://ui.perfetto.dev to see the drains, waves
// and ingest batches on a timeline. CI validates the file parses as JSON.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "graph/property_graph.h"

using namespace pgivm;

int main() {
  PropertyGraph graph;
  EngineOptions options;
  options.ingest_queue_depth = 64;
  QueryEngine engine(&graph, options);
  engine.set_profiling(true);  // observe the whole session

  auto replies = engine.Register(
      "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c");
  auto counts = engine.Register(
      "MATCH (p:Post)-[:REPLY]->(c:Comm) "
      "RETURN p AS post, count(*) AS replies");
  if (!replies.ok() || !counts.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 (!replies.ok() ? replies : counts).status()
                     .ToString()
                     .c_str());
    return 1;
  }
  std::vector<std::shared_ptr<View>> views = {*replies, *counts};

  engine.StartIngest();

  // Readers: poll every view until the writer is done. Each Pin() is an
  // immutable committed epoch — rows and size always agree.
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&views, &done, &reads] {
      int64_t mine = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (const std::shared_ptr<View>& view : views) {
          std::shared_ptr<const ViewSnapshot> snap = view->Pin();
          if (static_cast<int64_t>(snap->rows().size()) !=
              snap->total_rows()) {
            std::fprintf(stderr, "torn snapshot at epoch %llu\n",
                         static_cast<unsigned long long>(snap->epoch()));
            std::abort();
          }
          ++mine;
        }
      }
      reads.fetch_add(mine, std::memory_order_relaxed);
    });
  }

  // Writer: stream a growing reply graph through the ingest queue. Each
  // post is one mutation; each reply another — the ingest thread batches
  // whatever has piled up.
  constexpr int kPosts = 200;
  constexpr int kRepliesPerPost = 5;
  for (int p = 0; p < kPosts; ++p) {
    engine.SubmitAsync([](PropertyGraph& g) {
      VertexId post = g.AddVertex({"Post"});
      for (int r = 0; r < kRepliesPerPost; ++r) {
        VertexId comment = g.AddVertex({"Comm"});
        (void)g.AddEdge(post, comment, "REPLY");
      }
    });
  }
  engine.StopIngest();  // drains the queue, joins the ingest thread
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  const int64_t expected = int64_t{kPosts} * kRepliesPerPost;
  if (views[0]->size() != expected) {
    std::fprintf(stderr, "expected %lld reply rows, got %lld\n",
                 static_cast<long long>(expected),
                 static_cast<long long>(views[0]->size()));
    return 1;
  }
  std::printf(
      "served %lld snapshot reads across 4 readers while ingesting %lld "
      "mutations in %lld batches; final view: %lld rows\n",
      static_cast<long long>(reads.load()),
      static_cast<long long>(engine.ingest_mutations()),
      static_cast<long long>(engine.ingest_batches()),
      static_cast<long long>(views[0]->size()));

  // The observability surface: one coherent snapshot of everything the
  // session measured, then the Chrome/Perfetto trace of its drains and
  // ingest batches.
  std::printf("\n-- metrics snapshot --\n%s",
              engine.MetricsSnapshot().ToString().c_str());
  Status trace = engine.DumpTrace("serve_concurrent_trace.json");
  if (!trace.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n",
                 trace.ToString().c_str());
    return 1;
  }
  std::printf("trace written to serve_concurrent_trace.json\n");
  return 0;
}
