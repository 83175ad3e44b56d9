#ifndef PGIVM_ENGINE_QUERY_ENGINE_H_
#define PGIVM_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algebra/passes/pass_manager.h"
#include "catalog/view_catalog.h"
#include "engine/view.h"
#include "graph/property_graph.h"
#include "rete/network_builder.h"
#include "support/metrics.h"
#include "support/status.h"

namespace pgivm {

/// One coherent point-in-time copy of every statistic the engine keeps —
/// the unified observability surface, gathering ViewCatalog::Stats,
/// last_prime_stats, the shared network's counters and the ingest totals.
///
/// Obtain via QueryEngine::MetricsSnapshot() on the writer thread; the
/// returned value is a plain copy, safe to keep and read anywhere. Other
/// threads poll the counters whose own accessors are atomic instead
/// (QueryEngine::ingest_mutations/ingest_batches,
/// ReteNetwork::TotalEmittedEntries/SourceEmittedEntries).
struct EngineMetricsSnapshot {
  /// View/sharing/memory accounting (== ViewCatalog::Stats()).
  CatalogStats catalog;
  /// Priming split of the most recent registration.
  ReteNetwork::PrimeStats last_prime;

  // Lifetime propagation totals of the shared network, which lives as long
  // as the engine: they never decrease, across view registrations and
  // drops alike.
  int64_t deltas_processed = 0;
  int64_t changes_processed = 0;
  int64_t total_emitted_entries = 0;
  int64_t source_emitted_entries = 0;
  int64_t parallel_waves_dispatched = 0;
  int64_t epochs_published = 0;
  /// epochs_published split by how each epoch's rows were built; the
  /// three sum to it (see ProductionNode::PublishPath).
  int64_t epochs_recycled = 0;
  int64_t epochs_copied = 0;
  int64_t epochs_sorted = 0;
  /// The shared network's committed epoch.
  uint64_t commit_epoch = 0;

  // Serving-path ingest totals (== ingest_mutations()/ingest_batches()).
  int64_t ingest_mutations = 0;
  int64_t ingest_batches = 0;
  bool ingest_running = false;

  /// Whether profiling was on when the snapshot was taken. Node profiles
  /// and the registry instruments below only advance while it is on.
  bool profiling = false;

  /// Per-node propagation profiles (name, kind, level, entry counts,
  /// memory, busy time) of the shared network.
  std::vector<ReteNetwork::NodeMetrics> nodes;

  /// Engine-wide named counters and histograms (propagation.*, serving.*,
  /// ingest.*, and workload instruments like snb.*), in name order.
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Point lookups into the instrument lists (binary search — the lists
  /// are in name order). Null when no instrument of that name existed at
  /// snapshot time. Pointers are into this snapshot: they stay valid as
  /// long as the snapshot itself, and never see later updates.
  const int64_t* FindCounter(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// Multi-line human-readable rendering (totals, then instruments, then
  /// per-node profiles when profiling is on).
  std::string ToString() const;
};

/// Engine-wide configuration: plan lowering and runtime flags. Defaults are
/// the paper's full pipeline; the ablation benchmarks flip individual flags.
struct EngineOptions {
  PlanOptions plan;
  NetworkOptions network;

  /// Capacity of the serving ingest queue (see QueryEngine::SubmitAsync):
  /// mutations queued beyond this block their submitter until the ingest
  /// thread catches up — bounded-queue backpressure instead of unbounded
  /// buffering. Values below 1 are clamped to 1.
  size_t ingest_queue_depth = 256;
};

/// Front door of the library: compiles openCypher queries and keeps their
/// results incrementally maintained against one PropertyGraph.
///
/// Example:
///   PropertyGraph graph;
///   QueryEngine engine(&graph);
///   auto view = engine.Register(
///       "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) "
///       "WHERE p.lang = c.lang RETURN p, t");
///   ...mutate graph; (*view)->Snapshot() is always current...
///
/// The engine compiles queries and delegates view lifecycle to its
/// ViewCatalog: all registered views live inside one shared Rete network
/// whose structurally identical sub-plans are instantiated once. Views keep
/// the catalog alive, so they outlive the engine safely.
class QueryEngine {
 public:
  // Constructor and destructor are out of line: the ingest session member
  // is an incomplete type here.
  explicit QueryEngine(PropertyGraph* graph, EngineOptions options = {});

  /// Stops a running ingest session.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Compiles `cypher` through the paper's pipeline (parse → GRA → NRA →
  /// FRA → Rete) and attaches the resulting view to the graph, priming it
  /// with the current graph content. `$name` parameters are substituted
  /// from `parameters` at compile time (a view is specific to one binding).
  Result<std::shared_ptr<View>> Register(std::string_view cypher,
                                         const ValueMap& parameters = {});

  /// One-shot, non-incremental evaluation (the baseline strategy): compiles
  /// the same plan and interprets it against the current graph. Returns
  /// sorted rows with SKIP/LIMIT applied.
  Result<std::vector<Tuple>> EvaluateOnce(
      std::string_view cypher, const ValueMap& parameters = {}) const;

  /// Compiles without instantiating a network; returns the FRA plan (for
  /// plan inspection, tests and the baseline benchmarks).
  Result<OpPtr> Compile(std::string_view cypher,
                        const ValueMap& parameters = {}) const;

  /// Human-readable compilation report: the GRA tree (paper step 1) and the
  /// lowered FRA plan (steps 2–3) side by side.
  Result<std::string> Explain(std::string_view cypher,
                              const ValueMap& parameters = {}) const;

  /// EXPLAIN ANALYZE: registers `cypher` against the live catalog (with
  /// profiling temporarily enabled if it was off), then renders its FRA
  /// plan with each operator annotated by the *live* Rete node it resolved
  /// to — entries emitted, consolidated input/output entry counts,
  /// activations, memory bytes and busy time, all populated by the
  /// registration's priming propagation and whatever the catalog has
  /// processed since. Interior operators resolve through the sharing
  /// registry's fingerprints, so an operator served by a sibling view's
  /// node shows that node's lifetime statistics — the annotation makes
  /// sharing visible.
  ///
  /// The probe view is deregistered before returning (refcounts restore,
  /// sibling views are untouched), and the profiling flag is restored.
  /// Writer-thread only, like Register.
  Result<std::string> ExplainAnalyze(std::string_view cypher,
                                     const ValueMap& parameters = {});

  /// One coherent copy of every engine statistic — see
  /// EngineMetricsSnapshot. Writer-thread only (registration adds and
  /// removes the shared network's nodes); the ingest and emitted-entry
  /// counters it aggregates remain readable from any thread through their
  /// own atomic accessors.
  EngineMetricsSnapshot MetricsSnapshot() const;

  /// The one switch for propagation profiling across the whole engine
  /// (the shared network, the serving pin path and the ingest spans). Off
  /// by default; the constructor applies PGIVM_PROFILE through it (an
  /// integer: non-zero on, zero off; malformed values are rejected with a
  /// stderr warning). Writer-thread only — the flag must not change
  /// mid-drain. The flag itself lives in the shared network, where serving
  /// pins and the ingest thread read it.
  void set_profiling(bool on) { catalog_->network_.set_profiling(on); }
  bool profiling() const { return catalog_->network().profiling(); }

  /// The engine-wide metrics registry (counter/histogram reads are safe
  /// from any thread).
  MetricsRegistry& metrics() const { return catalog_->metrics(); }

  /// Writes every trace buffer the engine accumulated while profiling —
  /// the shared network's propagation spans plus the ingest thread's batch
  /// spans — as one Chrome tracing / Perfetto-compatible JSON file.
  /// Writer-thread only, and must not race a running ingest session
  /// (StopIngest first): trace buffers are single-writer.
  Status DumpTrace(const std::string& path) const;

  /// One graph mutation submitted through the ingest queue; runs on the
  /// ingest thread, inside a BeginBatch/CommitBatch bracket, against the
  /// engine's graph.
  using GraphMutation = std::function<void(PropertyGraph&)>;

  /// Starts the serving ingest thread: mutations submitted via
  /// SubmitAsync — from any number of threads — are coalesced into
  /// batches (everything queued when the thread comes around) and each
  /// batch is applied under one BeginBatch/CommitBatch, i.e. one graph
  /// delta, one propagation drain, one committed epoch. While ingest is
  /// running the ingest thread *is* the writer thread: the caller must
  /// not mutate the graph or register/deregister views directly until
  /// StopIngest() returns. Readers (View::Pin/Snapshot/size) are
  /// unaffected and free on any thread. No-op if already running.
  void StartIngest();

  /// Closes the queue, applies whatever is still queued, and joins the
  /// ingest thread. After it returns the calling thread is the writer
  /// thread again. No-op if not running. Called from the destructor.
  void StopIngest();

  bool ingest_running() const { return ingest_ != nullptr; }

  /// Queues `mutation` for the ingest thread, blocking while the queue is
  /// at EngineOptions::ingest_queue_depth (backpressure). Safe from any
  /// number of threads *within* an ingest session; submitters must be
  /// quiesced (joined or otherwise done) before StopIngest() or engine
  /// destruction tears the session down. Returns false — without running
  /// the mutation — when ingest is not running or is shutting down.
  bool SubmitAsync(GraphMutation mutation);

  /// Lifetime counts across ingest sessions: mutations applied, and the
  /// BeginBatch/CommitBatch batches they were coalesced into. Safe from
  /// any thread, including concurrently with a running ingest session —
  /// unlike MetricsSnapshot(), which reports the same totals but is
  /// writer-thread only. Monitor threads poll these.
  int64_t ingest_mutations() const;
  int64_t ingest_batches() const;

  PropertyGraph* graph() const { return graph_; }
  const EngineOptions& options() const { return options_; }

  /// The view catalog: registered-view bookkeeping, node-sharing registry
  /// statistics and per-view memory attribution.
  ViewCatalog& catalog() { return *catalog_; }
  const ViewCatalog& catalog() const { return *catalog_; }

 private:
  /// Live ingest state (queue + thread + counters); null while not
  /// serving. Defined in query_engine.cc.
  struct Ingest;

  PropertyGraph* graph_;
  EngineOptions options_;
  std::shared_ptr<ViewCatalog> catalog_;
  std::unique_ptr<Ingest> ingest_;
  /// Lifetime ingest volume, advanced by the ingest thread per committed
  /// batch. Lives on the engine (not on the Ingest session) and is atomic
  /// so any thread may poll ingest_mutations()/ingest_batches() while a
  /// session runs, starts, or stops on the writer thread.
  std::atomic<int64_t> ingest_mutations_done_{0};
  std::atomic<int64_t> ingest_batches_done_{0};
  /// Ingest-thread trace spans (one "batch" event per committed batch
  /// while profiling); created at the first StartIngest, appended only by
  /// the ingest thread, read by DumpTrace between sessions.
  std::unique_ptr<TraceBuffer> ingest_trace_;
};

}  // namespace pgivm

#endif  // PGIVM_ENGINE_QUERY_ENGINE_H_
