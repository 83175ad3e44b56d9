#ifndef PGIVM_ENGINE_VIEW_H_
#define PGIVM_ENGINE_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operator.h"
#include "rete/network.h"
#include "support/metrics.h"

namespace pgivm {

class ViewCatalog;

/// The [begin, end) range of `rows` sorted rows that a query's SKIP/LIMIT
/// keeps (`limit` < 0: no limit). View::Pin and QueryEngine::EvaluateOnce
/// both slice with it, so a view and a one-shot evaluation agree.
std::pair<size_t, size_t> SkipLimitRange(size_t rows, int64_t skip,
                                         int64_t limit);

/// An immutable, pinned view state: one committed epoch's sorted rows with
/// the view's SKIP/LIMIT applied. Obtained from View::Pin(); safe to read
/// from any thread and valid for as long as the shared_ptr is held — later
/// commits never mutate it, they publish new epochs (the writer reuses an
/// epoch's rows only once no snapshot or pin holds it).
class ViewSnapshot {
 public:
  ViewSnapshot() = default;
  // rows_ may point into this object; it is only ever shared, never copied.
  ViewSnapshot(const ViewSnapshot&) = delete;
  ViewSnapshot& operator=(const ViewSnapshot&) = delete;

  /// The network commit epoch this state was published at.
  uint64_t epoch() const { return source_->epoch; }

  /// Rows with multiplicities expanded, sorted, SKIP/LIMIT applied.
  const std::vector<Tuple>& rows() const { return *rows_; }

  /// Total result rows (with duplicates), before SKIP/LIMIT.
  int64_t total_rows() const {
    return static_cast<int64_t>(source_->rows.size());
  }

 private:
  friend class View;
  ProductionNode::EpochPtr source_;
  /// The SKIP/LIMIT slice of source_->rows, when it drops rows.
  std::vector<Tuple> slice_;
  /// &source_->rows, or &slice_.
  const std::vector<Tuple>* rows_ = nullptr;
};

/// A live, incrementally maintained query result.
///
/// Obtained from QueryEngine::Register. The view stays consistent with its
/// graph after every committed change; reading it never triggers
/// re-evaluation. A view is a handle into its engine's ViewCatalog: its
/// Rete nodes live inside the catalog's shared network, possibly serving
/// sibling views too. Destroying the view deregisters it — shared nodes
/// survive as long as a sibling still references them.
///
/// Registration into a live catalog is primed incrementally: node memories
/// the new view shares are replayed into its consumers instead of
/// re-reading the graph — prime_stats() reports the split. Sibling views
/// and their listeners observe nothing.
///
/// Ordering note (the paper's ORD restriction): the maintained result is a
/// bag; order is only presentation. Each committed epoch carries the bag's
/// rows sorted, kept up to date by merging every commit's delta into the
/// previous epoch's rows — or, once no reader pins it, into the rows of the
/// epoch before, moved rather than copied (ProductionNode::PublishSnapshot)
/// — so Pin() sorts nothing: without SKIP/LIMIT it shares the epoch's rows,
/// with SKIP/LIMIT it copies just the kept slice, once per epoch.
///
/// Thread-safety: Pin()/Snapshot()/size() are safe from any
/// number of reader threads, concurrently with a drain propagating on the
/// writer thread, and never block it — the network publishes an immutable
/// PublishedEpoch per production at every commit (the end of a drain),
/// and readers pin the last published epoch with an atomic shared_ptr
/// swap. A pinned ViewSnapshot is frozen: it reflects exactly one committed
/// epoch, mid-drain states are never observable, and it stays valid after
/// the View (or the whole engine) is destroyed. Readers racing a commit
/// see either the previous epoch or the new one, never a torn mix.
///
/// Everything else — Register/Deregister, applying graph deltas,
/// AddListener/RemoveListener, the diagnostics accessors — remains
/// writer-thread-only. Listener callbacks run on the writer thread; during
/// parallel waves they are deferred to the wave barrier, never concurrent.
///
/// Lifecycle: destroying the View deregisters it from the catalog
/// (node usage is refcounted). The View keeps its catalog — and with it
/// the shared network — alive past engine destruction; only the graph
/// must outlive everything.
class View {
 public:
  ~View();

  View(const View&) = delete;
  View& operator=(const View&) = delete;

  /// Output column names, in RETURN order.
  const std::vector<std::string>& column_names() const { return columns_; }

  /// Pins the last committed epoch as an immutable snapshot: its sorted
  /// rows with SKIP/LIMIT applied. Safe from any thread (see the
  /// thread-safety contract above). The snapshot object is built at most
  /// once per epoch — concurrent first-readers may build it redundantly
  /// (benign: identical immutable objects, last store wins), after which
  /// every Pin() of the same epoch returns the cached object. Building it
  /// is O(1), or O(SKIP + LIMIT) for a view that has them.
  std::shared_ptr<const ViewSnapshot> Pin() const;

  /// Current rows, multiplicities expanded, sorted, SKIP/LIMIT applied —
  /// a copy of Pin()->rows(). Safe from any thread.
  std::vector<Tuple> Snapshot() const { return Pin()->rows(); }

  /// Total number of result rows (with duplicates) at the last committed
  /// epoch, before SKIP/LIMIT. Safe from any thread.
  int64_t size() const {
    return static_cast<int64_t>(production_->PinSnapshot()->rows.size());
  }

  /// Change notifications; listeners receive normalized deltas.
  void AddListener(ViewChangeListener* listener) {
    production_->AddListener(listener);
  }
  void RemoveListener(ViewChangeListener* listener) {
    production_->RemoveListener(listener);
  }

  const std::string& query() const { return query_; }

  /// Compiled plans, for inspection/tests: the GRA tree (paper step 1) and
  /// the lowered FRA plan (steps 2–3) the network implements.
  const OpPtr& gra_plan() const { return gra_; }
  const OpPtr& fra_plan() const { return fra_; }

  /// Memory held by the Rete node memories this view references. Nodes
  /// serving sibling views too are counted in full; the
  /// catalog's Stats().memory_bytes deduplicates and
  /// MarginalMemoryBytes() isolates this view's exclusive slice.
  size_t ApproxMemoryBytes() const;

  /// How this view's registration was primed: tuples replayed from
  /// sibling-primed node memories vs. tuples read from the graph by fresh
  /// source nodes, plus the fresh-node/replay-edge partition. A fully
  /// shared registration into a live catalog reports
  /// `graph_primed_entries == 0` — its cost is independent of both the
  /// graph and the catalog size.
  const ReteNetwork::PrimeStats& prime_stats() const { return prime_stats_; }

  /// Per-node diagnostics of the whole catalog network this view lives in.
  std::string NetworkDebugString() const { return network_->DebugString(); }

  const ReteNetwork& network() const { return *network_; }

 private:
  friend class QueryEngine;
  friend class ViewCatalog;
  View() = default;

  std::string query_;
  OpPtr gra_;
  OpPtr fra_;
  /// Keeps the catalog — and with it the shared network — alive even if
  /// the engine is destroyed first. ~View deregisters through it.
  std::shared_ptr<ViewCatalog> catalog_;
  /// The catalog's shared network, which the view's nodes live in.
  ReteNetwork* network_ = nullptr;
  /// This view's root; never shared between views.
  ProductionNode* production_ = nullptr;
  std::vector<std::string> columns_;
  int64_t skip_ = 0;
  int64_t limit_ = -1;
  /// Replayed-vs-graph-primed accounting of this view's registration.
  ReteNetwork::PrimeStats prime_stats_;

  /// Serving-path instrumentation, wired by ViewCatalog::Install. While
  /// the network's profiling switch is on, Pin() records its latency into
  /// the engine-wide "serving.pin_ns" histogram, which lives in the
  /// catalog that catalog_ keeps alive.
  LatencyHistogram* pin_hist_ = nullptr;

  /// Pin()'s per-epoch cache: the immutable ViewSnapshot built for the
  /// most recently pinned epoch. Accessed only via atomic_load /
  /// atomic_store (any thread may read or refresh it).
  mutable std::shared_ptr<const ViewSnapshot> cache_;
};

}  // namespace pgivm

#endif  // PGIVM_ENGINE_VIEW_H_
