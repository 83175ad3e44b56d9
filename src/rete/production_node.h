#ifndef PGIVM_RETE_PRODUCTION_NODE_H_
#define PGIVM_RETE_PRODUCTION_NODE_H_

#include <cstdint>
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
  /// The network commit epoch these rows were published at. A production
  /// whose results did not change at a commit keeps its previous epoch
  /// object — its rows still equal the committed state, just published
  /// earlier.
  uint64_t epoch = 0;
  /// The result rows, frozen at the commit: multiplicities expanded,
  /// sorted by Tuple::Compare, before the view's SKIP/LIMIT. The one
  /// materialization readers see — Pin() renders nothing more for views
  /// without SKIP/LIMIT.
  std::vector<Tuple> rows;
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
/// notifications out to listeners.
///
/// Concurrent readers: the live `results_` bag is writer-thread-only, but
/// every commit publishes the rows, sorted, as an immutable PublishedEpoch
/// that any thread may pin via PinSnapshot() — see the epoch members at
/// the bottom. An epoch's rows are reused by the writer only after no
/// reader can reach it and none holds it (PublishSnapshot's spare).
class ProductionNode : public ReteNode {
 public:
  using EpochPtr = std::shared_ptr<const PublishedEpoch>;

  explicit ProductionNode(Schema schema);

  /// Applies `delta` to the result bag and notifies the listeners. A
  /// production is terminal: it appends nothing to `out` and accounts the
  /// delivery as its own emission instead, so TotalEmittedEntries covers
  /// the result changes too.
  void OnDelta(int port, const Delta& delta, Delta& out) override;

  /// Flushes notifications buffered while defer_notifications() was on:
  /// one OnViewDelta call per buffered delivery, in delivery order, on the
  /// calling (draining) thread.
  void OnWaveBarrier() override;

  /// Current result bag (tuple -> multiplicity).
  const Bag& results() const { return results_; }

  /// Under parallel wave execution several productions' OnDelta calls run
  /// concurrently; with this flag set (by a network with a worker pool, at
  /// registration) listener notifications are buffered instead of fired
  /// inline and delivered from OnWaveBarrier() — serially, in ready order —
  /// so user listener code keeps the serial executor's threading contract.
  /// Result application is unaffected.
  ///
  /// One visible difference from inline delivery: the barrier runs after
  /// the whole wave's deltas are applied, so a listener that reads a
  /// *sibling* view mid-callback may observe same-wave siblings already
  /// updated where the serial executor would still show their previous
  /// rows — never stale and never torn, just at-least-as-fresh. Payload
  /// sequences and final snapshots are identical either way.
  void set_defer_notifications(bool on) { defer_notifications_ = on; }

  /// How PublishSnapshot built the epoch it published.
  enum class PublishPath {
    kKept,      // results unchanged: the previous epoch object stays
    kRecycled,  // the spare epoch's rows moved, then merged
    kCopied,    // the published rows copied, then merged
    kSorted,    // the bag sorted (priming, an overgrown buffer)
  };

  /// The spare is kept only while its change set has at most one change
  /// per this many rows: copying a row costs about 16 ns of refcount
  /// traffic and re-merging a change about 1 µs (4-vCPU x86 VM), so a
  /// larger set makes the reuse slower than the copy.
  static constexpr size_t kRowsPerSpareChange = 64;

  /// Publishes the current results as the committed state of `epoch`.
  /// Called by the owning network, on the writer thread, at every commit
  /// point (the end of every drain, primes included). When the results did
  /// not change since the last publish the previous epoch object is kept
  /// (it already equals the committed state); otherwise a fresh immutable
  /// PublishedEpoch is built and swapped in.
  ///
  /// The fresh epoch's rows are the previous epoch's rows merged with the
  /// changes buffered since (sorted first): rows between changes are taken
  /// over as they are, each changed tuple's net copies are added at the
  /// end of its Compare-equal run or dropped from it — O(n) handle
  /// transfers plus O(|Δ| log |Δ|) comparisons, no hashing, no sort of the
  /// view. After priming or a buffer that outgrew the bag the rows are
  /// sorted from the bag instead (SortedRows, one sort).
  ///
  /// The handles are moved, not copied, when the spare allows it: the
  /// epoch published just before the current one stays writer-held, with
  /// the change set from its rows to the current ones, as long as that
  /// set is small against its rows (kRowsPerSpareChange). If no reader
  /// pins the spare any more its rows are reused: the spare's change set
  /// and the buffer are merged into them, moving every untouched handle —
  /// no per-row refcount traffic. The rows come out exactly as the copy
  /// merge would build them, tied runs included. A pinned spare, or none,
  /// falls back to copying the current rows.
  ///
  /// Superseded epochs are retired here, on the writer, once no reader
  /// pins them any more: the writer keeps a reference until it holds the
  /// last one, so a reader dropping its pin never frees rows and Pin()
  /// stays O(1). The spare is released at the next changed publish
  /// (reused, or retired when pinned); every older epoch is freed at the
  /// first call after its last reader lets go — every call sweeps,
  /// changed or not.
  ///
  /// Returns the path taken; the network counts published epochs by path.
  PublishPath PublishSnapshot(uint64_t epoch);

  /// Pins the last published epoch. Safe to call from any thread, at any
  /// time, concurrently with a drain on the writer thread — publication is
  /// an atomic pointer swap of a fully built object, so readers see either
  /// the previous commit or the new one, never a torn state. Never null.
  EpochPtr PinSnapshot() const;

  /// `bag`'s rows with multiplicities expanded, sorted by Tuple::Compare —
  /// the rendering every PublishedEpoch holds, and the one
  /// QueryEngine::EvaluateOnce and the tests render a baseline bag with.
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
  /// Change counter: bumped whenever results_ may have changed (non-empty
  /// delta applied); PublishSnapshot keeps the previous epoch object while
  /// it is unchanged.
  uint64_t version_ = 0;
  bool defer_notifications_ = false;

  /// The last published epoch. Written only by the writer thread (via
  /// atomic_store in PublishSnapshot), read by any thread (atomic_load in
  /// PinSnapshot) — never accessed non-atomically.
  EpochPtr published_;
  /// The version_ the last published epoch reflects.
  uint64_t published_version_ = 0;
  /// The epoch published just before published_, kept for reuse by the
  /// next changed publish (see PublishSnapshot); null when its change set
  /// is unknown (the current rows were sorted) or too large. Writer-only.
  EpochPtr spare_;
  /// The changes from spare_'s rows to published_'s, sorted by Compare.
  Delta spare_changes_;
  /// Older superseded epochs some reader may still pin, oldest first (see
  /// PublishSnapshot). Writer-thread-only.
  std::vector<EpochPtr> retired_;
  /// The consolidated deliveries applied since the last publish, in
  /// arrival order — what the next publish merges into the published
  /// rows, then keeps as spare_changes_. Owned by whichever thread owns the
  /// node (like results_) and bounded by results_.distinct_size(): a
  /// longer buffer is dropped and rebuild_ set instead.
  Delta pending_;
  /// The next publish sorts results_ instead of merging pending_: set
  /// before the first publish (priming) and when pending_ outgrew its
  /// bound.
  bool rebuild_ = true;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_PRODUCTION_NODE_H_
