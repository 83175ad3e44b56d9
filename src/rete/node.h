#ifndef PGIVM_RETE_NODE_H_
#define PGIVM_RETE_NODE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algebra/schema.h"
#include "rete/delta.h"

namespace pgivm {

/// Per-node propagation profile, populated only while the owning network's
/// profiling flag is on (NetworkOptions::profiling). Every field is a
/// relaxed atomic: written by whichever single thread processes the node
/// (the draining thread, or one pool worker during a parallel wave) and
/// readable from any thread at any time without tearing.
///
/// One RecordDelivery per wave the node participates in: `input_entries`
/// counts consolidated entries delivered across its ports,
/// `output_entries` its consolidated response, `busy_ns` the node's own
/// wall time (exclusive — downstream work is not included), `last_ns` the
/// most recent delivery's wall time (== the node's share of the last drain
/// it ran in).
struct NodeProfile {
  std::atomic<int64_t> activations{0};
  std::atomic<int64_t> input_entries{0};
  std::atomic<int64_t> output_entries{0};
  std::atomic<int64_t> busy_ns{0};
  std::atomic<int64_t> last_ns{0};

  void RecordDelivery(int64_t in, int64_t out, int64_t ns) {
    activations.fetch_add(1, std::memory_order_relaxed);
    input_entries.fetch_add(in, std::memory_order_relaxed);
    output_entries.fetch_add(out, std::memory_order_relaxed);
    busy_ns.fetch_add(ns, std::memory_order_relaxed);
    last_ns.store(ns, std::memory_order_relaxed);
  }

};

/// Base class of all Rete dataflow nodes.
///
/// A node receives bag deltas on numbered input ports (0 for unary nodes,
/// 0/1 for binary ones), updates its internal memory, and appends the
/// derived delta to an output delta its caller owns. Nodes never call each
/// other: the owning network (ReteNetwork) hands each node its queued input
/// and its staging slot, then consolidates the slot and queues it on the
/// node's subscribers, level by level. Within one network the wiring forms
/// a DAG (catalog sharing fans one node out to consumers of several
/// views); deliveries are per-(node, port) consolidated by the wave
/// scheduler, so no glitch handling is needed.
///
/// Thread-safety: a node's memories are single-writer by construction —
/// OnDelta runs either on the network's draining thread or on exactly one
/// pool worker that has claimed the node during a parallel wave; nothing
/// locks. Nodes know nothing of the scheduler's parallelism. Read
/// accessors (ApproxMemoryBytes, emitted_entries, ReplayOutput) are safe
/// from the driving thread between drains.
///
/// Lifecycle: constructed bottom-up by the network builder, held by the
/// ReteNetwork, wired via AddOutput before the network primes the node
/// (ReteNetwork::PrimeNewNodes). RemoveOutputsTo unsubscribes dying
/// consumers without touching this node's memories.
class ReteNode {
 public:
  explicit ReteNode(Schema schema) : schema_(std::move(schema)) {}
  virtual ~ReteNode() = default;

  ReteNode(const ReteNode&) = delete;
  ReteNode& operator=(const ReteNode&) = delete;

  /// Handles an incoming delta on `port` and appends the derived delta to
  /// `out`, which the caller owns: entries already in `out` stay as they
  /// are. The delta's tuples conform to the upstream node's schema. Nodes
  /// without input ports (the graph sources) keep the default, which is
  /// never called.
  virtual void OnDelta(int /*port*/, const Delta& /*delta*/,
                       Delta& /*out*/) {}

  /// Appends structurally-initial output (e.g. the single row of a
  /// key-less aggregation over empty input) to `out`. The network calls
  /// this once, in topological order, before feeding any graph state.
  virtual void EmitInitial(Delta& /*out*/) {}

  /// Called by the batched scheduler on the draining thread, in ready
  /// order, after this node's wave work has been flushed — the hook where
  /// work deferred out of a (possibly parallel) wave runs serially.
  /// ProductionNode uses it to fire listener notifications buffered during
  /// parallel delivery, so user listener code never runs concurrently.
  virtual void OnWaveBarrier() {}

  /// Memory replay — the incremental-priming hook. Appends this node's
  /// *current output* (the exact insert-only delta a fresh downstream
  /// consumer must receive to reach steady state) to `out` and returns
  /// true. Stateful nodes reconstruct it from their memories: an input
  /// node replays its asserted tuples, a join probes its two memories, an
  /// aggregate renders its live groups. Stateless transforms
  /// (filter/project/union/unnest) return false without touching `out`;
  /// the network (ReteNetwork::PrimeNewNodes) then reconstructs their
  /// output by pulling the inputs and pushing them through OnDelta into a
  /// scratch delta (safe: stateless nodes mutate no memory).
  ///
  /// Contract: must not mutate any memory, and must be exact —
  /// ViewCatalog registration relies on replay-primed consumers being
  /// bit-identical to graph-primed ones (asserted by the differential
  /// harness). Entries carry positive multiplicities; order
  /// is irrelevant (the scheduler consolidates before delivery).
  virtual bool ReplayOutput(Delta& out) const {
    (void)out;
    return false;
  }

  /// Subscribes `node` to this node's output, delivering to its `port`.
  void AddOutput(ReteNode* node, int port) {
    outputs_.emplace_back(node, port);
  }

  /// Downstream subscribers as (node, port) pairs, in subscription order.
  const std::vector<std::pair<ReteNode*, int>>& outputs() const {
    return outputs_;
  }

  /// Unsubscribes every (node, port) edge whose target is in `targets`.
  /// Used when a sharing consumer is torn down: the surviving upstream node
  /// keeps its memories and its other subscribers untouched.
  void RemoveOutputsTo(const std::unordered_set<const ReteNode*>& targets) {
    outputs_.erase(
        std::remove_if(outputs_.begin(), outputs_.end(),
                       [&targets](const std::pair<ReteNode*, int>& out) {
                         return targets.count(out.first) > 0;
                       }),
        outputs_.end());
  }

  const Schema& schema() const { return schema_; }

  /// Bytes held by this node's memories (0 for stateless nodes).
  virtual size_t ApproxMemoryBytes() const { return 0; }

  /// Short human-readable identity for diagnostics ("Join[p]", ...).
  virtual std::string DebugString() const = 0;

  /// Static operator-kind label ("Join", "Aggregate", ...). Never
  /// allocates — safe to use in hot profiling paths and trace events.
  virtual const char* KindName() const { return "Node"; }

  /// Lifetime count of tuple-delta entries this node has emitted. Relaxed
  /// atomic: safe to read from any thread while the writer thread (or an
  /// ingest session's thread) keeps propagating.
  int64_t emitted_entries() const {
    return emitted_entries_.load(std::memory_order_relaxed);
  }

  /// The propagation profile (see NodeProfile). Counters only advance
  /// while the owning network's profiling flag is on; reads are safe from
  /// any thread.
  const NodeProfile& profile() const { return profile_; }
  NodeProfile& profile() { return profile_; }

 protected:
  void AddEmittedEntries(int64_t n) {
    emitted_entries_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class ReteNetwork;  // accounts consolidated emissions on flush

  Schema schema_;
  std::vector<std::pair<ReteNode*, int>> outputs_;
  std::atomic<int64_t> emitted_entries_{0};
  NodeProfile profile_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_NODE_H_
