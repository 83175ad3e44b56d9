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

/// How a node's queued delta may be split across morsel partitions during
/// a parallel wave (see ReteNetwork::DrainWaves and docs/ARCHITECTURE.md
/// "Partitioned delivery").
enum class MorselKind {
  /// The node must receive its whole delta in one OnDelta call (unions,
  /// productions — anything with cross-entry state that is not keyed).
  kNone,
  /// Stateless per-entry transform (filter/project/plain unnest): any
  /// contiguous chunking of the delta is valid; partition p owns the p-th
  /// equal chunk (DeltaShare::Begin/End), so concatenating partition
  /// outputs in partition order reproduces the serial output order exactly.
  kChunked,
  /// Per-key state (join/semi/anti probe key, aggregate group key,
  /// distinct tuple): entries must be routed by MorselPartitionMap so that
  /// equal keys land in one partition (DeltaShare::Owns) and memory shards
  /// are written by exactly one partition.
  kKeyed,
};

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

/// The share of a delta one OnDelta call processes. The default is the
/// whole delta; a morsel-partitioned delivery (ReteNetwork::DrainWaves)
/// hands each of `partitions` concurrent calls its own share.
struct DeltaShare {
  /// kKeyed nodes: the owning partition of each delta entry (the
  /// MorselPartitionMap result); null = every entry belongs to the share.
  const uint32_t* map = nullptr;
  uint32_t partition = 0;
  uint32_t partitions = 1;

  /// kKeyed nodes: whether entry `i` belongs to this share.
  bool Owns(size_t i) const { return map == nullptr || map[i] == partition; }
  /// kChunked nodes: this share is the `partition`-th of `partitions` equal
  /// contiguous chunks of a delta of `n` entries, [Begin(n), End(n)).
  size_t Begin(size_t n) const { return n * partition / partitions; }
  size_t End(size_t n) const { return n * (partition + 1) / partitions; }
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
/// OnDelta runs either on the network's draining thread, on exactly one
/// pool worker that has claimed the node during a parallel wave, or — for a
/// morsel-partitioned delivery — on one worker per partition, each writing
/// only the memory shards its partition owns; nothing locks. Read
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

  /// Handles the `share` of an incoming delta on `port` and appends the
  /// derived delta to `out`, which the caller owns: entries already in
  /// `out` stay as they are. The delta's tuples conform to the upstream
  /// node's schema. With the default share the node processes every entry;
  /// see MorselKind for the shares a morsel-partitioned delivery passes.
  /// Nodes without input ports (the graph sources) keep the default, which
  /// is never called.
  virtual void OnDelta(int /*port*/, const Delta& /*delta*/,
                       const DeltaShare& /*share*/, Delta& /*out*/) {}

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

  /// How (if at all) this node's pending delta may be morsel-partitioned.
  /// Must be constant for the node's lifetime.
  virtual MorselKind morsel_kind() const { return MorselKind::kNone; }

  /// For kKeyed nodes: fills `map[i]` for i in [begin, end) with the
  /// partition owning `delta[i]` on `port`, i.e.
  /// MorselPartitionOfHash(key hash of delta[i], partitions). Pure and
  /// side-effect free — the scheduler computes maps for disjoint ranges
  /// concurrently. Default (kNone/kChunked nodes) is never called.
  virtual void MorselPartitionMap(int port, const Delta& delta,
                                  uint32_t partitions, size_t begin,
                                  size_t end, uint32_t* map) const {
    (void)port;
    (void)delta;
    (void)partitions;
    (void)begin;
    (void)end;
    (void)map;
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
