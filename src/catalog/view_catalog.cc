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
  // PGIVM_THREADS wins over programmatic configuration for the network
  // this catalog creates.
  return std::shared_ptr<ViewCatalog>(
      new ViewCatalog(graph, ApplyEnvExecutorOverride(network_options)));
}

ViewCatalog::ViewCatalog(PropertyGraph* graph, NetworkOptions network_options)
    : graph_(graph),
      metrics_(std::make_shared<MetricsRegistry>()),
      network_(graph, network_options, metrics_.get()) {}

Result<std::shared_ptr<View>> ViewCatalog::Install(std::string query,
                                                   OpPtr gra, OpPtr fra,
                                                   int64_t skip,
                                                   int64_t limit) {
  if (graph_->in_batch()) {
    return Status::FailedPrecondition(
        "cannot register a view while the graph has an open batch; "
        "register before BeginBatch or after CommitBatch");
  }
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

  Result<BuiltView> built =
      BuildViewInto(&network_, view->fra_, graph_, registry_);
  if (!built.ok()) return built.status();

  Entry entry;
  entry.view = view.get();
  entry.production = built->production;
  entry.nodes = std::move(built->nodes);
  for (ReteNode* node : entry.nodes) ++refcounts_[node];
  entries_.push_back(std::move(entry));

  view->catalog_ = shared_from_this();
  view->network_ = &network_;
  view->production_ = entries_.back().production;

  // Priming: the registry partitioned the plan into hits (live nodes,
  // already primed by sibling views) and misses (the `created` nodes,
  // empty). Each reused node that gained a consumer replays its
  // materialized memory into just that consumer; only the genuinely new
  // sub-plans read the graph, through their own fresh source nodes. Work is
  // proportional to the new view's own state — the rest of the catalog is
  // neither re-primed nor even visited. The first registration is the case
  // with no hits: every primed tuple comes from the graph.
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
  last_prime_ = network_.PrimeNewNodes(built->created, replays,
                                       entries_.back().nodes);
  replayed_entries_ += last_prime_.replayed_entries;
  graph_primed_entries_ += last_prime_.graph_primed_entries;
  view->prime_stats_ = last_prime_;
  // Serving-path instrumentation: Pin() samples its latency into the
  // engine-wide registry when the network's profiling switch is on. The
  // view holds the catalog alive (catalog_), so the histogram outlives it.
  view->pin_hist_ = &metrics_->GetHistogram("serving.pin_ns");
  return view;
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
  network_.RemoveNodes(victims);
}

CatalogStats ViewCatalog::Stats() const {
  return StatsWithMemory(network_.ApproxMemoryBytes());
}

CatalogStats ViewCatalog::Stats(
    const std::vector<ReteNetwork::NodeMetrics>& nodes) const {
  size_t memory_bytes = 0;
  for (const ReteNetwork::NodeMetrics& node : nodes) {
    memory_bytes += node.memory_bytes;
  }
  return StatsWithMemory(memory_bytes);
}

CatalogStats ViewCatalog::StatsWithMemory(size_t memory_bytes) const {
  CatalogStats stats;
  stats.views = entries_.size();
  stats.registry_hits = registry_.hits();
  stats.registry_misses = registry_.misses();
  stats.replayed_entries = replayed_entries_;
  stats.graph_primed_entries = graph_primed_entries_;
  stats.total_nodes = network_.node_count();
  stats.memory_bytes = memory_bytes;
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
