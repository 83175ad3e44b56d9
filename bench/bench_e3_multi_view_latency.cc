// E3 — update latency as the number of registered views grows (the
// fraud-detection / monitoring deployment model from the paper's §1:
// many standing queries, every transaction must clear them all).
//
// Expected shape: latency grows roughly linearly with the number of views
// whose patterns the update touches, and stays near-flat for views it
// cannot affect (their input nodes filter the delta out immediately).

#include <benchmark/benchmark.h>

#include <thread>

#include "bench_main.h"

#include "engine/query_engine.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

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
      "MATCH (u:Person)-[:LIKES]->(m:Post)-[:REPLY]->(c:Comm) "
      "RETURN u, c",
      "MATCH (a:Person)-[:KNOWS]-(b:Person) RETURN a, count(*) AS degree",
      "MATCH (m:Comm) WHERE m.length < 50 RETURN m",
      "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = b.country "
      "RETURN a, b",
      "MATCH (c:Comm) WHERE c.lang IN ['en', 'de'] RETURN c",
      "MATCH (u:Person)-[:LIKES]->(m:Post) WHERE m.length > 500 "
      "RETURN u, m",
      "MATCH t = (p:Post)-[:REPLY*1..3]->(c:Comm) RETURN p, t",
  };
}

void BM_E3_UpdateWithViews(benchmark::State& state) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 60;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  std::vector<std::string> catalog = StandingQueries();
  for (int64_t i = 0; i < state.range(0); ++i) {
    views.push_back(
        engine.Register(catalog[static_cast<size_t>(i) % catalog.size()])
            .value());
  }
  for (auto _ : state) {
    generator.ApplyRandomUpdate(&graph);
  }
  int64_t total_rows = 0;
  for (const auto& view : views) total_rows += view->size();
  state.counters["views"] = static_cast<double>(views.size());
  state.counters["total_rows"] = static_cast<double>(total_rows);
}
BENCHMARK(BM_E3_UpdateWithViews)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Iterations(300);

// ---- batch-size sweep across a fixed view catalog --------------------------
//
// Fixed 8-view deployment; updates arrive as bursts of range(0) changes.
// This is the monitoring scenario where transactions are ingested in bulk:
// each burst is translated once and drained with consolidation.

void BM_E3_BatchSweep(benchmark::State& state) {
  int64_t batch_size = state.range(0);

  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 60;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  std::vector<std::string> catalog = StandingQueries();
  for (size_t i = 0; i < 8; ++i) {
    views.push_back(engine.Register(catalog[i]).value());
  }

  for (auto _ : state) {
    graph.BeginBatch();
    for (int64_t i = 0; i < batch_size; ++i) {
      generator.ApplyRandomUpdate(&graph);
    }
    graph.CommitBatch();
  }

  int64_t emitted = 0;
  for (const auto& view : views) {
    emitted += view->network().TotalEmittedEntries();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["emitted_total"] = static_cast<double>(emitted);
}
BENCHMARK(BM_E3_BatchSweep)->ArgsProduct({{1, 16, 128, 1024}})->Iterations(20);

// ---- operator-state sharing sweep: views × overlap × threads ---------------
//
// The catalog deployment scenario: range(0) standing views are registered,
// cycling over the first range(1) queries of the pool (so overlap factor =
// views / range(1): dashboards registering the same standing query are
// common in monitoring fleets). range(2) is the thread count: 1 =
// serial, n > 1 = parallel with n threads, 0 = the machine's hardware
// concurrency (resolved here). Each iteration commits one 64-change
// batch, so items/s is the catalog's propagation throughput — the number
// the thread sweep scales. Reported counters: live Rete nodes, multi-view shared nodes,
// node-memory bytes (each node once), wave parallelism actually in effect,
// and the propagation volume of the timed stream (identical across thread
// counts: parallel waves are bit-identical to serial).

void BM_E3_CatalogSharingSweep(benchmark::State& state) {
  int64_t num_views = state.range(0);
  size_t pool = static_cast<size_t>(state.range(1));
  int64_t threads = state.range(2);
  constexpr int kChangesPerBatch = 64;

  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 60;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  EngineOptions options;
  // The 0 row stands for the machine's hardware concurrency.
  options.network.num_threads =
      threads == 0 ? static_cast<int>(std::thread::hardware_concurrency())
                   : static_cast<int>(threads);
  QueryEngine engine(&graph, options);
  std::vector<std::shared_ptr<View>> views;
  std::vector<std::string> catalog = StandingQueries();
  for (int64_t i = 0; i < num_views; ++i) {
    views.push_back(
        engine.Register(catalog[static_cast<size_t>(i) % pool]).value());
  }

  const ReteNetwork& network = engine.catalog().network();

  int64_t emitted_before = network.TotalEmittedEntries();
  for (auto _ : state) {
    graph.BeginBatch();
    for (int i = 0; i < kChangesPerBatch; ++i) {
      generator.ApplyRandomUpdate(&graph);
    }
    graph.CommitBatch();
  }
  int64_t emitted = network.TotalEmittedEntries() - emitted_before;
  int parallelism = network.executor_parallelism();

  CatalogStats stats = engine.catalog().Stats();
  state.SetItemsProcessed(state.iterations() * kChangesPerBatch);
  state.counters["views"] = static_cast<double>(views.size());
  state.counters["nodes"] = static_cast<double>(stats.total_nodes);
  state.counters["shared_nodes"] = static_cast<double>(stats.shared_nodes);
  state.counters["mem_bytes"] = static_cast<double>(stats.memory_bytes);
  state.counters["emitted"] = static_cast<double>(emitted);
  state.counters["threads"] = static_cast<double>(parallelism);
  state.SetLabel(parallelism > 1 ? "parallel" : "serial");
}
BENCHMARK(BM_E3_CatalogSharingSweep)
    // The views × overlap matrix, serial executor.
    ->ArgsProduct({{4, 8, 16}, {2, 4, 8}, {1}})
    // The wave-executor thread sweep over the 16-view catalog (the
    // fleet-maintenance scenario parallel waves target): serial vs 2/4/8
    // workers vs hardware concurrency (0). Wall-clock timing, so items/s
    // is the actual propagation throughput, not summed thread time.
    ->ArgsProduct({{16}, {4, 8}, {2, 4, 8, 0}})
    ->UseRealTime()
    ->Iterations(20);

// ---- canonical-normalization sharing sweep ----------------------------------
//
// Real standing-query fleets register the same logical query in different
// spellings: dashboards rename aliases, templating reorders MATCH clauses,
// users commute WHERE conjuncts. Structural sharing alone (PR 2) misses all
// of that; canonical plan normalization (PlanOptions::canonicalize) folds
// the spellings into one normal form before fingerprinting. range(0) views
// are registered cycling over three permuted spellings of each of four base
// queries; range(1) toggles canonicalization. Counters record the registry
// hit rate and the shared-node ratio — with canonicalization on, every
// spelling beyond the first of a base query is a 100% registry hit, so
// hit_rate and shared_ratio jump while nodes/mem_bytes drop. The timed
// loop commits 64-change bursts, making items/s comparable with the other
// E3 sweeps (fewer live nodes also means less propagation work).

std::vector<std::string> PermutedStandingQueries() {
  return {
      // Base query 1: alias rename / commuted equality.
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang "
      "RETURN p, c",
      "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang "
      "RETURN x, y",
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = p.lang "
      "RETURN p, c",
      // Base query 2: MATCH part permutation / rename.
      "MATCH (u:Person)-[:LIKES]->(m:Post), (m)-[:REPLY]->(c:Comm) "
      "RETURN u, c",
      "MATCH (m)-[:REPLY]->(c:Comm), (u:Person)-[:LIKES]->(m:Post) "
      "RETURN u, c",
      "MATCH (fan:Person)-[:LIKES]->(msg:Post), (msg)-[:REPLY]->(r:Comm) "
      "RETURN fan AS u, r AS c",
      // Base query 3: commuted WHERE conjuncts / flipped literal side.
      "MATCH (m:Post) WHERE m.length > 100 AND m.lang = 'en' RETURN m",
      "MATCH (m:Post) WHERE m.lang = 'en' AND m.length > 100 RETURN m",
      "MATCH (q:Post) WHERE 'en' = q.lang AND q.length > 100 "
      "RETURN q AS m",
      // Base query 4: alias rename / commuted property equality.
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = b.country "
      "RETURN a, b",
      "MATCH (p:Person)-[:KNOWS]->(q:Person) WHERE p.country = q.country "
      "RETURN p, q",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.country = a.country "
      "RETURN a, b",
  };
}

void BM_E3_CanonicalSharingSweep(benchmark::State& state) {
  int64_t num_views = state.range(0);
  bool canonicalize = state.range(1) == 1;
  constexpr int kChangesPerBatch = 64;

  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 60;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  EngineOptions options;
  options.plan.canonicalize = canonicalize;
  QueryEngine engine(&graph, options);
  std::vector<std::shared_ptr<View>> views;
  std::vector<std::string> catalog = PermutedStandingQueries();
  for (int64_t i = 0; i < num_views; ++i) {
    views.push_back(
        engine.Register(catalog[static_cast<size_t>(i) % catalog.size()])
            .value());
  }

  for (auto _ : state) {
    graph.BeginBatch();
    for (int i = 0; i < kChangesPerBatch; ++i) {
      generator.ApplyRandomUpdate(&graph);
    }
    graph.CommitBatch();
  }

  CatalogStats stats = engine.catalog().Stats();
  double lookups =
      static_cast<double>(stats.registry_hits + stats.registry_misses);
  state.SetItemsProcessed(state.iterations() * kChangesPerBatch);
  state.counters["views"] = static_cast<double>(views.size());
  state.counters["nodes"] = static_cast<double>(stats.total_nodes);
  state.counters["shared_nodes"] = static_cast<double>(stats.shared_nodes);
  state.counters["mem_bytes"] = static_cast<double>(stats.memory_bytes);
  state.counters["hit_rate"] =
      lookups == 0.0 ? 0.0
                     : static_cast<double>(stats.registry_hits) / lookups;
  state.counters["shared_ratio"] = stats.SharingRatio();
  state.SetLabel(canonicalize ? "canonical" : "structural");
}
BENCHMARK(BM_E3_CanonicalSharingSweep)
    ->ArgsProduct({{6, 12, 24}, {0, 1}})
    ->Iterations(20);

// ---- registration latency into a live catalog ------------------------------
//
// The MV4PG concern: how long does Register() take once the catalog is
// already serving? range(0) standing views are registered and churned
// first; each timed iteration then registers one more view — a full
// structural duplicate of an existing one, the dashboard-clone case — and
// drops it again (untimed).
//
// Expected shape: registration latency is flat in catalog size (replay
// work ∝ the new view's result size; `replayed` counter) and reads nothing
// from the graph (`graph_primed` = 0).

void BM_E3_RegisterIntoLiveCatalog(benchmark::State& state) {
  int64_t catalog_size = state.range(0);

  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 60;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  std::vector<std::string> catalog = StandingQueries();
  for (int64_t i = 0; i < catalog_size; ++i) {
    views.push_back(
        engine.Register(catalog[static_cast<size_t>(i) % catalog.size()])
            .value());
  }
  // Warm the catalog: registration must splice into live, churned state.
  for (int i = 0; i < 64; ++i) generator.ApplyRandomUpdate(&graph);

  // A structural duplicate of the first standing query (fully shared).
  const std::string newcomer = catalog[0];
  int64_t replayed = 0;
  int64_t graph_primed = 0;
  for (auto _ : state) {
    auto view = engine.Register(newcomer).value();
    state.PauseTiming();
    replayed += engine.catalog().last_prime_stats().replayed_entries;
    graph_primed += engine.catalog().last_prime_stats().graph_primed_entries;
    view.reset();  // keep the catalog at range(0) views for every iteration
    state.ResumeTiming();
  }

  CatalogStats stats = engine.catalog().Stats();
  state.counters["views"] = static_cast<double>(catalog_size);
  state.counters["nodes"] = static_cast<double>(stats.total_nodes);
  state.counters["replayed"] =
      benchmark::Counter(static_cast<double>(replayed),
                         benchmark::Counter::kAvgIterations);
  state.counters["graph_primed"] =
      benchmark::Counter(static_cast<double>(graph_primed),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_E3_RegisterIntoLiveCatalog)
    // Catalog size sweep.
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Iterations(50);

}  // namespace
}  // namespace pgivm

PGIVM_BENCHMARK_MAIN();
