#ifndef PGIVM_RETE_PRODUCTION_NODE_H_
#define PGIVM_RETE_PRODUCTION_NODE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "rete/node.h"

namespace pgivm {

/// One committed, immutable result version of a production. Published by
/// the writer thread at the network's commit points (the end of every
/// drain) and pinned by reader threads via shared_ptr — once a reader
/// holds one, its contents never change and it stays alive for as long as
/// the reader keeps the pointer, regardless of how many further epochs the
/// writer commits.
struct PublishedEpoch {
  /// The network commit epoch this bag was published at. A production whose
  /// results did not change at a commit keeps its previous epoch object —
  /// the bag still equals the committed state, just published earlier.
  uint64_t epoch = 0;
  /// The production's change counter (ProductionNode::version) the bag
  /// reflects.
  uint64_t version = 0;
  /// The result bag, frozen at the commit.
  Bag results;
};

/// Observer of a materialized view's changes. `delta` is normalized (tuples
/// coalesced, zero entries dropped) and describes the net effect of one
/// graph delta on the result bag.
class ViewChangeListener {
 public:
  virtual ~ViewChangeListener() = default;
  virtual void OnViewDelta(const Delta& delta) = 0;
};

/// Network root: materializes the result bag of the view and fans change
/// notifications out to listeners. Snapshot() exposes the current rows.
///
/// Concurrent readers: the live `results_` bag is writer-thread-only, but
/// every commit publishes an immutable PublishedEpoch that any thread may
/// pin via PinSnapshot() — see the epoch members at the bottom.
class ProductionNode : public ReteNode {
 public:
  using EpochPtr = std::shared_ptr<const PublishedEpoch>;

  explicit ProductionNode(Schema schema) : ReteNode(std::move(schema)) {
    // Readers may pin before the network ever commits (e.g. a view handle
    // handed out mid-registration); they see the empty bag, never null.
    published_ = std::make_shared<const PublishedEpoch>();
  }

  void OnDelta(int port, const Delta& delta) override;

  /// Flushes notifications buffered while defer_notifications() was on:
  /// one OnViewDelta call per buffered delivery, in delivery order, on the
  /// calling (draining) thread.
  void OnWaveBarrier() override;

  void Reset() override {
    results_.Clear();
    ++version_;
  }

  /// Replays the materialized result bag (chained-view priming).
  bool ReplayOutput(Delta& out) const override {
    out.reserve(out.size() + results_.counts().size());
    for (const auto& [tuple, count] : results_.counts()) {
      out.push_back({tuple, count});
    }
    return true;
  }

  /// Current result bag (tuple -> multiplicity).
  const Bag& results() const { return results_; }

  /// Monotonic change counter: bumped whenever `results()` may have changed
  /// (non-empty delta applied, or Reset). Lets readers cache derived state
  /// (View::Snapshot's sorted rows) and skip recomputation while unchanged.
  uint64_t version() const { return version_; }

  /// Temporarily silences listener fan-out. The network disables
  /// notifications while (re-)priming an attachment: priming replays the
  /// whole graph content, which is not an observable *change* to a view
  /// that sharing-induced re-priming rebuilds to the same rows. Results are
  /// still applied and chained emissions still happen.
  void set_notify_listeners(bool on) { notify_listeners_ = on; }

  /// Under parallel wave execution several productions' OnDelta calls run
  /// concurrently; with this flag set (by the network at a parallel
  /// Attach) listener notifications are buffered instead of fired inline
  /// and delivered from OnWaveBarrier() — serially, in ready order — so
  /// user listener code keeps the serial executor's threading contract.
  /// Result application and chained emissions are unaffected.
  ///
  /// One visible difference from inline delivery: the barrier runs after
  /// the whole wave's deltas are applied, so a listener that reads a
  /// *sibling* view mid-callback may observe same-wave siblings already
  /// updated where the serial executor would still show their previous
  /// rows — never stale and never torn, just at-least-as-fresh. Payload
  /// sequences and final snapshots are identical either way.
  void set_defer_notifications(bool on) { defer_notifications_ = on; }

  /// Publishes the current result bag as the committed state of `epoch`.
  /// Called by the owning network, on the writer thread, at every commit
  /// point (the end of every drain, primes included). When the results did
  /// not change since the last publish the previous epoch object is kept
  /// (no copy — it already equals the committed state); otherwise the bag
  /// is copied into a fresh immutable PublishedEpoch and swapped in.
  ///
  /// `retention` previous epoch objects are kept alive in addition to the
  /// current one, so a reader re-pinning within a short window can still
  /// compare against recent history; beyond that, an epoch lives exactly
  /// as long as some reader pins it (shared_ptr refcount retires it).
  ///
  /// Returns true when a fresh epoch object was published, false when the
  /// previous one was kept — the network counts published epochs with it.
  bool PublishSnapshot(uint64_t epoch, size_t retention);

  /// Pins the last published epoch. Safe to call from any thread, at any
  /// time, concurrently with a drain on the writer thread — publication is
  /// an atomic pointer swap of a fully built object, so readers see either
  /// the previous commit or the new one, never a torn state. Never null.
  EpochPtr PinSnapshot() const;

  /// Rows with multiplicities expanded, sorted for determinism.
  std::vector<Tuple> SortedSnapshot() const;

  /// `bag`'s rows with multiplicities expanded, sorted by Tuple::Compare —
  /// the deterministic rendering Snapshot()/SortedSnapshot() use. Static so
  /// readers can render a pinned epoch's bag without touching the node.
  static std::vector<Tuple> SortedRows(const Bag& bag);

  void AddListener(ViewChangeListener* listener) {
    listeners_.push_back(listener);
  }
  void RemoveListener(ViewChangeListener* listener);

  size_t ApproxMemoryBytes() const override {
    return results_.ApproxMemoryBytes();
  }

  std::string DebugString() const override { return "Production"; }
  const char* KindName() const override { return "Production"; }

 private:
  Bag results_;
  std::vector<ViewChangeListener*> listeners_;
  /// Deliveries whose notification is deferred to the wave barrier (one
  /// element per OnDelta, so listeners see the same call granularity as
  /// under inline notification).
  std::vector<Delta> deferred_notifications_;
  uint64_t version_ = 0;
  bool notify_listeners_ = true;
  bool defer_notifications_ = false;

  /// The last published epoch. Written only by the writer thread (via
  /// atomic_store in PublishSnapshot), read by any thread (atomic_load in
  /// PinSnapshot) — never accessed non-atomically.
  EpochPtr published_;
  /// Writer-side copy of published_->version, so the unchanged-results
  /// fast path needs no atomic load.
  uint64_t published_version_ = 0;
  /// Recent epochs deliberately kept alive (see PublishSnapshot's
  /// `retention`); writer-thread-only.
  std::deque<EpochPtr> retained_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_PRODUCTION_NODE_H_
