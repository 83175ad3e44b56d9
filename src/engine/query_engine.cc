#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/compiler.h"
#include "algebra/plan_fingerprint.h"
#include "algebra/plan_printer.h"
#include "baseline/baseline_evaluator.h"
#include "cypher/parser.h"
#include "support/bounded_queue.h"
#include "support/string_util.h"

namespace pgivm {

/// Queue and thread of one ingest session. Volume counters live on the
/// engine itself (ingest_mutations_done_/ingest_batches_done_), not here:
/// any thread may poll them mid-session, and the session object dies in
/// StopIngest while pollers are still reading.
struct QueryEngine::Ingest {
  /// One queued mutation plus its enqueue timestamp. The timestamp is
  /// stamped only while profiling is on (0 otherwise), so SubmitAsync
  /// stays clock-free when observability is off; when on, the ingest
  /// thread turns it into the "ingest.commit_latency_ns" histogram — the
  /// submitter-visible enqueue-to-commit serving latency.
  struct Item {
    GraphMutation fn;
    int64_t enqueue_ns = 0;
  };

  explicit Ingest(size_t depth) : queue(depth) {}

  BoundedQueue<Item> queue;
  std::thread thread;
};

QueryEngine::QueryEngine(PropertyGraph* graph, EngineOptions options)
    : graph_(graph),
      options_(std::move(options)),
      catalog_(ViewCatalog::Create(graph, options_.network)) {}

QueryEngine::~QueryEngine() { StopIngest(); }

void QueryEngine::StartIngest() {
  if (ingest_ != nullptr) return;
  size_t depth = options_.ingest_queue_depth < 1 ? 1
                                                 : options_.ingest_queue_depth;
  ingest_ = std::make_unique<Ingest>(depth);
  if (ingest_trace_ == nullptr) {
    ingest_trace_ = std::make_unique<TraceBuffer>(kTraceCapacity);
  }
  Ingest* ingest = ingest_.get();
  PropertyGraph* graph = graph_;
  // Instruments are resolved once here so the loop records lock-free; the
  // profiling flag itself is re-read per batch (runtime-toggleable).
  const std::atomic<bool>* prof_flag = catalog_->profiling_flag();
  MetricsRegistry& metrics = catalog_->metrics();
  LatencyHistogram* h_commit =
      &metrics.GetHistogram("ingest.commit_latency_ns");
  LatencyHistogram* h_apply = &metrics.GetHistogram("ingest.batch_apply_ns");
  LatencyHistogram* h_size = &metrics.GetHistogram("ingest.batch_mutations");
  TraceBuffer* trace = ingest_trace_.get();
  std::atomic<int64_t>* mutations_done = &ingest_mutations_done_;
  std::atomic<int64_t>* batches_done = &ingest_batches_done_;
  ingest->thread = std::thread([ingest, graph, prof_flag, h_commit, h_apply,
                                h_size, trace, mutations_done, batches_done] {
    std::vector<Ingest::Item> batch;
    // PopAll blocks until work arrives and hands over *everything* queued:
    // submissions that piled up while the previous batch propagated are
    // coalesced into one graph delta — one drain, one committed epoch —
    // instead of one drain each.
    while (ingest->queue.PopAll(batch) > 0) {
      const bool prof = prof_flag->load(std::memory_order_relaxed);
      const int64_t start_ns = prof ? MonotonicNowNs() : 0;
      graph->BeginBatch();
      for (Ingest::Item& item : batch) item.fn(*graph);
      graph->CommitBatch();
      if (prof) {
        // CommitBatch returned, so the batch's propagation drain has run
        // and its epoch is published: end-start is apply+drain+publish,
        // end-enqueue the submitter-visible commit latency.
        const int64_t end_ns = MonotonicNowNs();
        h_apply->Record(end_ns - start_ns);
        h_size->Record(static_cast<int64_t>(batch.size()));
        for (const Ingest::Item& item : batch) {
          if (item.enqueue_ns > 0) h_commit->Record(end_ns - item.enqueue_ns);
        }
        TraceEvent event;
        event.name = "ingest.batch";
        event.category = "ingest";
        event.start_ns = start_ns;
        event.dur_ns = end_ns - start_ns;
        event.tid = 3;
        event.args = StrCat("\"mutations\":", batch.size());
        trace->Append(std::move(event));
      }
      mutations_done->fetch_add(static_cast<int64_t>(batch.size()),
                                std::memory_order_relaxed);
      batches_done->fetch_add(1, std::memory_order_relaxed);
      batch.clear();
    }
  });
}

void QueryEngine::StopIngest() {
  if (ingest_ == nullptr) return;
  ingest_->queue.Close();  // drains what is queued, then the loop exits
  if (ingest_->thread.joinable()) ingest_->thread.join();
  ingest_.reset();
}

bool QueryEngine::SubmitAsync(GraphMutation mutation) {
  if (ingest_ == nullptr || mutation == nullptr) return false;
  Ingest::Item item;
  item.fn = std::move(mutation);
  if (catalog_->profiling()) item.enqueue_ns = MonotonicNowNs();
  return ingest_->queue.Push(std::move(item));
}

int64_t QueryEngine::ingest_mutations() const {
  return ingest_mutations_done_.load(std::memory_order_relaxed);
}

int64_t QueryEngine::ingest_batches() const {
  return ingest_batches_done_.load(std::memory_order_relaxed);
}

namespace {

Result<Query> ParseAndBind(std::string_view cypher,
                           const ValueMap& parameters) {
  PGIVM_ASSIGN_OR_RETURN(Query query, ParseQuery(cypher));
  PGIVM_RETURN_IF_ERROR(SubstituteQueryParameters(query, parameters));
  return query;
}

}  // namespace

Result<std::shared_ptr<View>> QueryEngine::Register(
    std::string_view cypher, const ValueMap& parameters) {
  PGIVM_ASSIGN_OR_RETURN(Query query, ParseAndBind(cypher, parameters));
  PGIVM_ASSIGN_OR_RETURN(OpPtr gra, CompileToGra(query));
  PGIVM_ASSIGN_OR_RETURN(OpPtr fra, LowerToFra(gra, options_.plan));
  return catalog_->Install(std::string(cypher), std::move(gra),
                           std::move(fra), query.return_clause.skip,
                           query.return_clause.limit);
}

Result<std::vector<Tuple>> QueryEngine::EvaluateOnce(
    std::string_view cypher, const ValueMap& parameters) const {
  PGIVM_ASSIGN_OR_RETURN(Query query, ParseAndBind(cypher, parameters));
  PGIVM_ASSIGN_OR_RETURN(OpPtr gra, CompileToGra(query));
  PGIVM_ASSIGN_OR_RETURN(OpPtr fra, LowerToFra(gra, options_.plan));
  BaselineEvaluator evaluator(graph_);
  PGIVM_ASSIGN_OR_RETURN(Bag bag, evaluator.Evaluate(fra));
  std::vector<Tuple> rows = ProductionNode::SortedRows(bag);
  const auto [begin, end] = SkipLimitRange(
      rows.size(), query.return_clause.skip, query.return_clause.limit);
  rows.erase(rows.begin() + static_cast<ptrdiff_t>(end), rows.end());
  rows.erase(rows.begin(), rows.begin() + static_cast<ptrdiff_t>(begin));
  return rows;
}

Result<OpPtr> QueryEngine::Compile(std::string_view cypher,
                                   const ValueMap& parameters) const {
  PGIVM_ASSIGN_OR_RETURN(Query query, ParseAndBind(cypher, parameters));
  PGIVM_ASSIGN_OR_RETURN(OpPtr gra, CompileToGra(query));
  return LowerToFra(gra, options_.plan);
}

Result<std::string> QueryEngine::Explain(std::string_view cypher,
                                         const ValueMap& parameters) const {
  PGIVM_ASSIGN_OR_RETURN(Query query, ParseAndBind(cypher, parameters));
  PGIVM_ASSIGN_OR_RETURN(OpPtr gra, CompileToGra(query));
  PGIVM_ASSIGN_OR_RETURN(OpPtr fra, LowerToFra(gra, options_.plan));
  // The FRA dump carries each operator's canonical fingerprint — the key
  // the catalog's NodeRegistry shares by — so comparing two Explain
  // outputs shows exactly which sub-plans two views would share and where
  // sharing stops.
  PlanPrintOptions fra_print;
  fra_print.fingerprints = true;
  return StrCat("GRA (paper step 1):\n", PrintPlan(gra),
                "\nFRA (after steps 2-3):\n", PrintPlan(fra, fra_print));
}

namespace {

/// The per-operator EXPLAIN ANALYZE annotation: live statistics of the
/// Rete node the operator resolved to. Counts come from the node's
/// NodeProfile (populated while profiling is on — for the probe view that
/// covers at least its priming propagation) plus the lifetime emitted
/// total and current memory footprint.
std::string NodeStatsAnnotation(const ReteNode& node) {
  const NodeProfile& profile = node.profile();
  return StrCat(
      "[", node.KindName(), " entries=", node.emitted_entries(),
      " in=", profile.input_entries.load(std::memory_order_relaxed),
      " out=", profile.output_entries.load(std::memory_order_relaxed),
      " act=", profile.activations.load(std::memory_order_relaxed),
      " mem=", node.ApproxMemoryBytes(), "B time=",
      profile.busy_ns.load(std::memory_order_relaxed) / 1000, "us]");
}

}  // namespace

Result<std::string> QueryEngine::ExplainAnalyze(std::string_view cypher,
                                                const ValueMap& parameters) {
  const bool was_profiling = catalog_->profiling();
  if (!was_profiling) catalog_->SetProfiling(true);
  Result<std::shared_ptr<View>> probe = Register(cypher, parameters);
  if (!probe.ok()) {
    if (!was_profiling) catalog_->SetProfiling(false);
    return probe.status();
  }
  const View& view = **probe;
  PlanPrintOptions print;
  print.fingerprints = true;
  print.annotate = [this, &view](const LogicalOp& op) {
    const ReteNode* node = nullptr;
    if (op.kind == OpKind::kProduce) {
      // Productions are never shared, so the probe's own root is the
      // operator's node; it is also absent from the sharing registry.
      node = view.production_;
    } else {
      const std::string key = CanonicalPlanKey(op);
      if (!key.empty()) node = catalog_->FindNodeByFingerprint(key);
    }
    return node == nullptr ? std::string() : NodeStatsAnnotation(*node);
  };
  const ReteNetwork::PrimeStats& prime = view.prime_stats();
  const EngineMetricsSnapshot metrics = MetricsSnapshot();
  std::string report = StrCat(
      "EXPLAIN ANALYZE ", view.query(), "\n",
      PrintPlan(view.fra_plan(), print),
      "prime: replayed=", prime.replayed_entries,
      " graph=", prime.graph_primed_entries,
      " fresh_nodes=", prime.fresh_nodes, "\n",
      "catalog: ", catalog_->Stats().ToString(), "\n",
      "propagation: parallel_waves=", metrics.parallel_waves_dispatched,
      "\n");
  // Deregister the probe view (refcounts restore; siblings untouched),
  // then restore the profiling flag.
  probe->reset();
  if (!was_profiling) catalog_->SetProfiling(false);
  return report;
}

EngineMetricsSnapshot QueryEngine::MetricsSnapshot() const {
  EngineMetricsSnapshot snap;
  snap.catalog = catalog_->Stats();
  snap.last_prime = catalog_->last_prime_stats();
  const ReteNetwork& network = catalog_->network();
  snap.deltas_processed = network.deltas_processed();
  snap.changes_processed = network.changes_processed();
  snap.total_emitted_entries = network.TotalEmittedEntries();
  snap.source_emitted_entries = network.SourceEmittedEntries();
  snap.parallel_waves_dispatched = network.parallel_waves_dispatched();
  snap.epochs_recycled = network.epochs_recycled();
  snap.epochs_copied = network.epochs_copied();
  snap.epochs_sorted = network.epochs_sorted();
  snap.epochs_published =
      snap.epochs_recycled + snap.epochs_copied + snap.epochs_sorted;
  snap.commit_epoch = network.commit_epoch();
  snap.nodes = network.NodeMetricsSnapshot();
  snap.ingest_mutations = ingest_mutations();
  snap.ingest_batches = ingest_batches();
  snap.ingest_running = ingest_running();
  snap.profiling = catalog_->profiling();
  snap.counters = catalog_->metrics().CounterValues();
  snap.histograms = catalog_->metrics().HistogramValues();
  return snap;
}

const int64_t* EngineMetricsSnapshot::FindCounter(std::string_view name) const {
  auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it == counters.end() || it->first != name) return nullptr;
  return &it->second;
}

const HistogramSnapshot* EngineMetricsSnapshot::FindHistogram(
    std::string_view name) const {
  auto it = std::lower_bound(
      histograms.begin(), histograms.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it == histograms.end() || it->first != name) return nullptr;
  return &it->second;
}

std::string EngineMetricsSnapshot::ToString() const {
  std::ostringstream os;
  os << "catalog: " << catalog.ToString() << "\n";
  os << "propagation: deltas=" << deltas_processed
     << " changes=" << changes_processed
     << " emitted=" << total_emitted_entries
     << " source_emitted=" << source_emitted_entries
     << " parallel_waves=" << parallel_waves_dispatched
     << " epoch=" << commit_epoch
     << " epochs_published=" << epochs_published
     << " (recycled=" << epochs_recycled << " copied=" << epochs_copied
     << " sorted=" << epochs_sorted << ")\n";
  os << "ingest: mutations=" << ingest_mutations
     << " batches=" << ingest_batches
     << " running=" << (ingest_running ? "yes" : "no") << "\n";
  os << "profiling: " << (profiling ? "on" : "off") << "\n";
  for (const auto& [name, value] : counters) {
    os << "counter " << name << " = " << value << "\n";
  }
  for (const auto& [name, hist] : histograms) {
    if (hist.count == 0) continue;
    os << "hist " << name << ": count=" << hist.count
       << " mean=" << static_cast<int64_t>(hist.Mean())
       << " p50=" << hist.P50() << " p95=" << hist.P95()
       << " p99=" << hist.P99() << " max=" << hist.max << "\n";
  }
  if (profiling) {
    for (const ReteNetwork::NodeMetrics& node : nodes) {
      os << "node " << node.name << " kind=" << node.kind
         << " level=" << node.level << " emitted=" << node.emitted_entries
         << " act=" << node.activations << " in=" << node.input_entries
         << " out=" << node.output_entries << " busy_ns=" << node.busy_ns
         << " mem=" << node.memory_bytes << "B\n";
    }
  }
  return os.str();
}

Status QueryEngine::DumpTrace(const std::string& path) const {
  // Either buffer is null until profiling first runs there.
  return WriteChromeTrace(path,
                          {catalog_->network().trace(), ingest_trace_.get()});
}

}  // namespace pgivm
