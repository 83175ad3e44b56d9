#include "catalog/view_catalog.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "support/string_util.h"

namespace pgivm {

std::string CatalogStats::ToString() const {
  std::ostringstream os;
  os << "views=" << views << " nodes=" << total_nodes
     << " shared=" << shared_nodes << " (" << static_cast<int>(
            SharingRatio() * 100.0 + 0.5)
     << "%) registry hits=" << registry_hits << " misses=" << registry_misses
     << " mem=" << memory_bytes << "B primed replay=" << replayed_entries
     << "/graph=" << graph_primed_entries;
  return os.str();
}

std::shared_ptr<ViewCatalog> ViewCatalog::Create(
    PropertyGraph* graph, NetworkOptions network_options) {
  // PGIVM_THREADS / PGIVM_PROFILE / PGIVM_MORSEL win over programmatic
  // configuration for the network this catalog creates.
  return std::shared_ptr<ViewCatalog>(new ViewCatalog(
      graph, ApplyEnvMorselOverride(ApplyEnvProfilingOverride(
                 ApplyEnvExecutorOverride(network_options)))));
}

Result<std::shared_ptr<View>> ViewCatalog::Install(std::string query,
                                                   OpPtr gra, OpPtr fra,
                                                   int64_t skip,
                                                   int64_t limit) {
  auto view = std::shared_ptr<View>(new View());
  view->query_ = std::move(query);
  view->gra_ = std::move(gra);
  view->fra_ = std::move(fra);
  for (const auto& [name, expr] : view->fra_->projections) {
    view->columns_.push_back(name);
    (void)expr;
  }
  view->skip_ = skip;
  view->limit_ = limit;

  const bool live = network_ != nullptr && network_->attached();
  if (network_ == nullptr) {
    network_ = std::make_unique<ReteNetwork>();
    network_->set_executor(network_options_.executor,
                           network_options_.num_threads);
    network_->set_consolidation_cutoff(network_options_.consolidation_cutoff);
    network_->set_parallel_min_wave_entries(
        network_options_.parallel_min_wave_entries);
    network_->set_morsel_min_node_entries(
        network_options_.morsel_min_node_entries);
    network_->set_morsel_partitions(network_options_.morsel_partitions);
    network_->set_epoch_retention(network_options_.epoch_retention);
    network_->set_thread_pool(EnginePool());
    network_->set_metrics(metrics_.get());
    network_->set_trace_capacity(network_options_.trace_capacity);
    network_->set_profiling(profiling_flag_.load(std::memory_order_relaxed));
  }
  Result<BuiltView> built = BuildViewInto(network_.get(), view->fra_, graph_,
                                          network_options_, registry_);
  if (!built.ok()) return built.status();

  Entry entry;
  entry.view = view.get();
  entry.production = built->production;
  entry.nodes = std::move(built->nodes);
  for (ReteNode* node : entry.nodes) ++refcounts_[node];
  entries_.push_back(std::move(entry));

  view->catalog_ = shared_from_this();
  view->network_ = network_.get();
  view->production_ = entries_.back().production;

  if (live) {
    // Incremental priming: the registry partitioned the plan into hits
    // (live nodes, already primed by sibling views) and misses (the
    // `created` nodes, empty). Each reused node that gained a consumer
    // replays its materialized memory into just that consumer; only the
    // genuinely new sub-plans read the graph, through their own fresh
    // source nodes. Work is proportional to the new view's own state —
    // the rest of the catalog is neither re-primed nor even visited.
    std::unordered_set<const ReteNode*> fresh(built->created.begin(),
                                              built->created.end());
    std::vector<ReteNetwork::ReplayEdge> replays;
    for (ReteNode* node : entries_.back().nodes) {
      if (fresh.count(node) > 0) continue;  // registry miss: built now
      for (const auto& [down, port] : node->outputs()) {
        // Any reused → fresh subscription was wired by this registration
        // (the consumer did not exist before it).
        if (fresh.count(down) > 0) replays.push_back({node, down, port});
      }
    }
    last_prime_ = network_->PrimeNewNodes(built->created, replays,
                                          entries_.back().nodes);
  } else {
    // First registration: the network attaches and primes as a whole, so
    // every primed tuple comes from the graph.
    last_prime_ = ReteNetwork::PrimeStats{};
    last_prime_.fresh_nodes = built->created.size();
    int64_t before = network_->SourceEmittedEntries();
    network_->Attach(graph_);
    last_prime_.graph_primed_entries =
        network_->SourceEmittedEntries() - before;
    last_prime_.primed_sources = network_->source_count();
  }
  replayed_entries_ += last_prime_.replayed_entries;
  graph_primed_entries_ += last_prime_.graph_primed_entries;
  view->prime_stats_ = last_prime_;
  // Serving-path instrumentation: Pin() samples its latency into the
  // engine-wide registry when profiling is on. The view holds the catalog
  // alive (catalog_), so both pointers outlive it.
  view->profiling_flag_ = &profiling_flag_;
  view->pin_hist_ = &metrics_->GetHistogram("serving.pin_ns");
  return view;
}

void ViewCatalog::SetProfiling(bool on) {
  profiling_flag_.store(on, std::memory_order_relaxed);
  if (network_ != nullptr) network_->set_profiling(on);
}

std::shared_ptr<ThreadPool> ViewCatalog::EnginePool() {
  if (pool_ != nullptr) return pool_;
  // A serial (or single-thread-resolved) configuration never needs workers.
  if (network_options_.executor != ExecutorKind::kParallel) return nullptr;
  int threads = ThreadPool::ResolveThreadCount(network_options_.num_threads);
  if (threads <= 1) return nullptr;
  pool_ = std::make_shared<ThreadPool>(threads);
  return pool_;
}

void ViewCatalog::Deregister(View* view) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [view](const Entry& entry) {
                           return entry.view == view;
                         });
  if (it == entries_.end()) return;
  Entry entry = std::move(*it);
  entries_.erase(it);

  std::vector<ReteNode*> victims;
  for (ReteNode* node : entry.nodes) {
    auto rc = refcounts_.find(node);
    if (rc == refcounts_.end()) continue;
    if (--rc->second == 0) {
      victims.push_back(node);
      refcounts_.erase(rc);
    }
  }
  registry_.RemoveNodes(victims);
  // Every entry lives in network_, so survivors exist iff any entry
  // remains.
  if (!entries_.empty()) {
    network_->RemoveNodes(victims);
  } else {
    // Last view gone: drop the whole shared network. Registry entries are
    // all rooted at victims by now; Clear() keeps the lifetime hit/miss
    // counters.
    network_.reset();
    registry_.Clear();
    refcounts_.clear();
  }
}

CatalogStats ViewCatalog::Stats() const {
  CatalogStats stats;
  stats.views = entries_.size();
  stats.registry_hits = registry_.hits();
  stats.registry_misses = registry_.misses();
  stats.replayed_entries = replayed_entries_;
  stats.graph_primed_entries = graph_primed_entries_;
  if (network_ != nullptr) {
    stats.total_nodes = network_->node_count();
    stats.memory_bytes = network_->ApproxMemoryBytes();
  }
  for (const auto& [node, refcount] : refcounts_) {
    (void)node;
    if (refcount >= 2) ++stats.shared_nodes;
  }
  return stats;
}

size_t ViewCatalog::ViewMemoryBytes(const View* view) const {
  for (const Entry& entry : entries_) {
    if (entry.view != view) continue;
    size_t bytes = 0;
    for (const ReteNode* node : entry.nodes) {
      bytes += node->ApproxMemoryBytes();
    }
    return bytes;
  }
  return 0;
}

size_t ViewCatalog::MarginalMemoryBytes(const View* view) const {
  for (const Entry& entry : entries_) {
    if (entry.view != view) continue;
    size_t bytes = 0;
    for (ReteNode* node : entry.nodes) {
      auto rc = refcounts_.find(node);
      if (rc != refcounts_.end() && rc->second == 1) {
        bytes += node->ApproxMemoryBytes();
      }
    }
    return bytes;
  }
  return 0;
}

std::string ViewCatalog::DebugString() const {
  std::ostringstream os;
  os << Stats().ToString() << "\n";
  for (const Entry& entry : entries_) {
    os << "  view[" << entry.view->query() << "] nodes="
       << entry.nodes.size() << " mem=" << ViewMemoryBytes(entry.view)
       << "B marginal=" << MarginalMemoryBytes(entry.view) << "B\n";
  }
  return os.str();
}

}  // namespace pgivm
