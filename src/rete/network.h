#ifndef PGIVM_RETE_NETWORK_H_
#define PGIVM_RETE_NETWORK_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/property_graph.h"
#include "rete/input_node.h"
#include "rete/node.h"
#include "rete/production_node.h"
#include "support/metrics.h"
#include "support/thread_pool.h"

namespace pgivm {

/// How the wave scheduler executes the nodes of one topological wave.
/// Nodes inside a wave have no data dependencies (levels are strict), so
/// they can be processed concurrently without changing any result.
enum class ExecutorKind {
  /// One thread drains the wave in ready order (the PR-1 behaviour).
  kSerial,

  /// A persistent worker pool processes the wave's nodes concurrently.
  /// Each node is claimed by exactly one worker (node memories need no
  /// locks) and emissions land in per-node staging buffers that the wave
  /// barrier merges in ready order — downstream deliveries are therefore
  /// bit-identical to serial execution regardless of thread count.
  kParallel,
};

const char* ExecutorKindName(ExecutorKind kind);

/// Runtime configuration of one ReteNetwork (and of the builder that
/// instantiates plans into it), fixed for the network's lifetime.
struct NetworkOptions {
  /// Fold unnest deltas per kept-column projection and emit element-level
  /// differences (the FGN behaviour). Off = the E4 ablation baseline.
  bool fine_grained_unnest = true;

  /// How a topological wave's nodes are executed (see ExecutorKind).
  /// kSerial is the default-compatible single-thread drain; kParallel
  /// distributes each wave over a persistent worker pool with
  /// bit-identical results.
  ExecutorKind executor = ExecutorKind::kSerial;

  /// Total wave parallelism for ExecutorKind::kParallel, including the
  /// dispatching thread; 0 = the machine's hardware concurrency.
  int num_threads = 0;

  /// Work-size gate for parallel dispatch: a topological wave whose queued
  /// delta entries total fewer than this runs inline on the draining
  /// thread instead of being handed to the worker pool — waking workers
  /// costs more than delivering a near-empty wave (the single-change
  /// steady state of a serving catalog). 0 dispatches every multi-node
  /// wave. Purely a performance knob: results are bit-identical for any
  /// value. Ignored under kSerial.
  size_t parallel_min_wave_entries = 8;

  /// Per-node/per-drain propagation profiling (see
  /// ReteNetwork::set_profiling): node profiles, drain/wave/serving
  /// histograms and Chrome-trace events. Off (the default) keeps every hot
  /// path free of clock reads — bench_e9_observability holds the
  /// profiling-off overhead under 2% on the e3 burst workload. Can also be
  /// toggled at runtime (QueryEngine::set_profiling) and overridden by the
  /// PGIVM_PROFILE environment variable (see ApplyEnvProfilingOverride).
  bool profiling = false;
};

/// One Rete network maintained against one graph: owns its nodes, routes
/// graph deltas into the source nodes, and publishes every production
/// (view root) at each commit.
///
/// Propagation is batched and topologically scheduled: the whole GraphDelta
/// is first translated into one buffered relational delta per source, then
/// nodes are drained level by level (DrainWaves), each receiving one
/// *consolidated* delta per input port per wave. Inverse pairs (+t/−t on the
/// same tuple) cancel before delivery, so a batch that adds and removes the
/// same tuple propagates nothing. Every commit — graph delta or prime —
/// ends in DrainWaves → PublishEpochs.
///
/// Lifecycle: the constructor fixes the configuration, builds the worker
/// pool when the executor is parallel, and subscribes to the graph; the
/// destructor unsubscribes. The network starts empty and lives as long as
/// its owner (the ViewCatalog). Nodes are added while it maintains: the
/// builder wires them bottom-up, then PrimeNewNodes splices them in — fresh
/// sources prime from the graph, reused upstream nodes replay their
/// memories along the new edges. RemoveNodes splices refcount-zero nodes
/// back out.
///
/// Thread-safety: the public API must be driven from one thread (the one
/// that owns the graph and applies deltas). Parallelism happens only
/// *inside* a drain, and only this scheduler knows of it: under
/// ExecutorKind::kParallel each wave's nodes are claimed by pool workers,
/// one task per node, with single-writer memories and staging slots,
/// merged at a barrier in ready order — results are bit-identical to
/// serial execution for every thread count. Source translation always
/// runs on the calling thread. Listener callbacks always run on the
/// draining thread (deferred to the wave barrier under a parallel pool),
/// never concurrently.
class ReteNetwork : public GraphListener {
 public:
  /// Subscribes to `graph`, which must outlive the network. `metrics` is
  /// the registry drain/serving histograms are recorded into while
  /// profiling is on (must outlive the network; null = profiling records
  /// node profiles and trace events only).
  ReteNetwork(PropertyGraph* graph, const NetworkOptions& options,
              MetricsRegistry* metrics = nullptr);
  ~ReteNetwork() override;

  ReteNetwork(const ReteNetwork&) = delete;
  ReteNetwork& operator=(const ReteNetwork&) = delete;

  /// Transfers ownership of `node` into the network; returns the raw
  /// pointer for wiring. Nodes must be added in topological (bottom-up)
  /// order and primed with PrimeNewNodes.
  template <typename NodeT>
  NodeT* Add(std::unique_ptr<NodeT> node) {
    NodeT* raw = node.get();
    nodes_.push_back(std::move(node));
    return raw;
  }

  /// Registers `source`, a node already Add()ed, for graph changes.
  void RegisterSource(GraphSourceNode* source) { sources_.push_back(source); }

  /// Declares `production` as a view root: it publishes at every commit.
  void RegisterProduction(ProductionNode* production);

  ExecutorKind executor() const { return executor_; }

  /// The wave parallelism in effect: the pool size under kParallel, 1
  /// otherwise.
  int executor_parallelism() const {
    return pool_ != nullptr ? pool_->parallelism() : 1;
  }

  /// The pool parallel waves run on (null when the resolved executor is
  /// serial). Exposed for diagnostics/tests.
  const ThreadPool* thread_pool() const { return pool_.get(); }

  /// Minimum total queued entries a wave must carry before it is handed to
  /// the worker pool (see NetworkOptions::parallel_min_wave_entries).
  size_t parallel_min_wave_entries() const {
    return parallel_min_wave_entries_;
  }

  /// Lifetime count of waves actually dispatched to the worker pool —
  /// waves the gate kept inline (and every serial-executor wave) do not
  /// count. Observability for the gate and its tests. Relaxed atomic:
  /// readable from any thread mid-ingest.
  int64_t parallel_waves_dispatched() const {
    return parallel_waves_dispatched_.load(std::memory_order_relaxed);
  }

  /// Turns per-node/per-drain propagation profiling on or off (see
  /// NetworkOptions::profiling). May be flipped at any time between drains
  /// on the writer thread; nodes added later inherit the current setting.
  /// Off (the default) keeps the hot paths free of clock reads — the <2%
  /// overhead contract bench_e9_observability enforces.
  void set_profiling(bool on);
  bool profiling() const { return profiling_; }

  /// The trace events recorded so far (null until profiling is first
  /// enabled). Writer-thread-only, like every diagnostics accessor.
  const TraceBuffer* trace() const { return trace_.get(); }

  /// Lifetime count of fresh epoch objects productions actually published
  /// (commits where some view's results changed re-publish that view; an
  /// unchanged view keeps its previous epoch object and does not count).
  /// The sum of the three per-path counts below. Relaxed atomics: readable
  /// from any thread mid-ingest.
  int64_t epochs_published() const {
    return epochs_recycled() + epochs_copied() + epochs_sorted();
  }
  /// Published epochs by how their rows were built
  /// (ProductionNode::PublishPath): merged into the spare epoch's moved
  /// rows, merged into a copy of the current rows, or sorted from the bag.
  int64_t epochs_recycled() const {
    return epochs_recycled_.load(std::memory_order_relaxed);
  }
  int64_t epochs_copied() const {
    return epochs_copied_.load(std::memory_order_relaxed);
  }
  int64_t epochs_sorted() const {
    return epochs_sorted_.load(std::memory_order_relaxed);
  }

  /// One row of NodeMetricsSnapshot(): a node's identity plus its lifetime
  /// emission counter and (if profiling ever ran) its NodeProfile.
  struct NodeMetrics {
    std::string name;          // DebugString
    const char* kind = "";     // KindName
    int level = -1;            // topological level, -1 if none
    int64_t emitted_entries = 0;
    int64_t activations = 0;
    int64_t input_entries = 0;
    int64_t output_entries = 0;
    int64_t busy_ns = 0;
    int64_t last_ns = 0;
    size_t memory_bytes = 0;
  };

  /// Per-node stats in node (bottom-up construction) order. Writer-thread-
  /// only: ApproxMemoryBytes/DebugString read node memories that a
  /// concurrent drain mutates.
  std::vector<NodeMetrics> NodeMetricsSnapshot() const;

  /// The number of commit points this network has published: every drain
  /// (graph delta or prime) bumps it once and
  /// re-publishes each production whose results changed. Written on the
  /// writer thread only; relaxed atomic, so diagnostics may read it from
  /// any thread — readers still learn their epoch from the PublishedEpoch
  /// objects they pin, not from here.
  uint64_t commit_epoch() const {
    return commit_epoch_.load(std::memory_order_relaxed);
  }

  /// One reused → fresh subscription created by a catalog registration:
  /// `from` is a live node another view already primed, `to`/`port` the
  /// newly attached consumer that must receive `from`'s materialized
  /// output to reach steady state.
  struct ReplayEdge {
    ReteNode* from = nullptr;
    ReteNode* to = nullptr;
    int port = 0;
  };

  /// Accounting of one prime: how many tuples reached the new
  /// sub-network by memory replay vs. by re-reading the graph. With full
  /// structural sharing, `graph_primed_entries` is 0 and
  /// `replayed_entries` is proportional to the new view's input/result
  /// sizes — never to the catalog size.
  struct PrimeStats {
    int64_t replayed_entries = 0;     // tuples delivered along replay edges
    int64_t graph_primed_entries = 0;  // tuples emitted by fresh sources
    size_t replay_edges = 0;           // reused → fresh subscriptions
    size_t primed_sources = 0;         // fresh graph-boundary nodes
    size_t fresh_nodes = 0;            // nodes built for this registration
  };

  /// Primes just-built nodes while the network keeps maintaining — the one
  /// priming path, the first registration included. `fresh_nodes`
  /// (bottom-up order; the nodes a registration added) emit their
  /// structural initial output, fresh *source* nodes assert the current
  /// graph content, and every ReplayEdge delivers the reused upstream
  /// node's materialized memory (ReplayOutput, reconstructed through
  /// stateless transforms) into only the newly attached consumer.
  /// Deliveries are scoped: fresh nodes only feed fresh nodes and reused
  /// nodes emit nothing, so sibling views' memories, pending deltas and
  /// listeners are untouched. Call between graph deltas (the network must
  /// be quiescent), after wiring the new nodes; the scheduler is rebuilt
  /// to cover them. The drain publishes one commit epoch.
  ///
  /// `replay_scope` bounds the reverse-edge walk that reconstructs
  /// stateless replay sources: pass the registering view's full node set
  /// (support ∪ fresh) — it is closed under upstream edges, so the
  /// reconstruction never needs wiring outside it and the rest of the
  /// catalog is not even visited.
  PrimeStats PrimeNewNodes(const std::vector<ReteNode*>& fresh_nodes,
                           const std::vector<ReplayEdge>& replay_edges,
                           const std::vector<ReteNode*>& replay_scope);

  /// Destroys `victims` — nodes no remaining view references (the caller,
  /// normally the ViewCatalog, owns that refcount). Victims are unsubscribed
  /// from every surviving node's output list, dropped from the source /
  /// production / scheduler bookkeeping, and freed. Surviving nodes keep
  /// their memories untouched, so detaching one view never disturbs a
  /// sharing sibling; the topological levels are recomputed.
  void RemoveNodes(const std::vector<ReteNode*>& victims);

  // GraphListener:
  void OnGraphDelta(const GraphDelta& delta) override;

  /// Topological level assigned to `node` by the wave scheduler (sources
  /// are level 0); -1 for nodes not primed yet.
  /// Exposed for tests and diagnostics.
  int node_level(const ReteNode* node) const;

  /// Sum of all node memories.
  size_t ApproxMemoryBytes() const;

  /// Per-node memory/diagnostic summary, one node per line.
  std::string DebugString() const;

  size_t node_count() const { return nodes_.size(); }
  int64_t deltas_processed() const {
    return deltas_processed_.load(std::memory_order_relaxed);
  }
  int64_t changes_processed() const {
    return changes_processed_.load(std::memory_order_relaxed);
  }

  /// Lifetime sum of delta entries emitted by the live nodes — the total
  /// propagation volume through this network (the FGN experiments' metric).
  /// A removed node takes its emissions out of the sum. Emissions are
  /// counted after consolidation, so cancelled inverse pairs do not
  /// contribute. Safe from any thread
  /// (relaxed per-node atomics) as long as no registration mutates the
  /// node set concurrently — which is why monitor threads read this and
  /// not QueryEngine::MetricsSnapshot(), a writer-thread-only aggregate.
  int64_t TotalEmittedEntries() const;

  /// Lifetime sum of delta entries emitted by the live graph-boundary
  /// source nodes only — the graph-read volume. Same thread-safety as
  /// TotalEmittedEntries.
  int64_t SourceEmittedEntries() const;

  size_t source_count() const { return sources_.size(); }

 private:
  /// One input port's queued delta. `clean` means the content is a single
  /// already-consolidated upstream flush (the common fan-in-tree case), so
  /// delivery can skip re-consolidating it.
  struct PendingDelta {
    Delta delta;
    bool clean = false;
  };

  /// Per-node scheduler state: topological level, the deltas queued on each
  /// input port since the node last ran, and the emissions it buffered
  /// while running (flushed downstream as one consolidated delta). The
  /// pending list is kept sorted by port (delivery order 0, 1, ...); it is
  /// a flat vector because real nodes have at most two ports.
  ///
  /// `out` doubles as the node's staging buffer under parallel execution:
  /// one node is processed by exactly one worker per wave, so its slot is
  /// written by a single thread, and the wave barrier merges all slots
  /// downstream in ready order.
  struct NodeState {
    int level = 0;
    bool queued = false;
    std::vector<std::pair<int, PendingDelta>> pending;
    Delta out;
    /// Profiling scratch, written by whichever thread ran DeliverPending
    /// for the node this wave (single writer; the pool join is the
    /// barrier) and turned into trace events at the serial merge phase.
    int64_t prof_start_ns = 0;
    int64_t prof_dur_ns = 0;
    int64_t prof_in_entries = 0;
  };

  /// The pending slot for `port` of `state`, inserted in port order.
  static PendingDelta& PendingFor(NodeState& state, int port);

  /// Computes topological levels and allocates scheduler state. Re-run
  /// whenever the node set changes (PrimeNewNodes, RemoveNodes).
  void PrepareScheduler();

  void EnqueueReady(ReteNode* node, NodeState& state);

  /// Delivers `node`'s queued per-port deltas (consolidating each unless
  /// already clean) with `state.out` as the node's output, then
  /// consolidates that response. This is the per-node work a wave
  /// distributes across workers; it touches only the node's own memories
  /// and scheduler slot.
  void DeliverPending(ReteNode* node, NodeState& state);

  /// Accounts `node`'s consolidated output and appends it to each
  /// downstream (node, port) pending queue. Always runs on the draining
  /// thread, in ready order — the deterministic merge point of a wave.
  void FlushNode(ReteNode* node, NodeState& state);

  /// One ready node of the wave being drained, with its scheduler state
  /// looked up exactly once per wave (the states_.at hash probe used to
  /// run several times per node per wave).
  struct WaveItem {
    ReteNode* node = nullptr;
    NodeState* state = nullptr;
  };

  /// Drains all queued work level by level until the network is quiescent.
  /// Under kParallel each level's nodes are processed concurrently
  /// (phase 1) before the barrier merge (phase 2); results are
  /// bit-identical to serial draining.
  void DrainWaves();

  /// Commits the current state for concurrent readers: bumps
  /// commit_epoch_ and has every production publish an immutable snapshot
  /// (ProductionNode::PublishSnapshot — a merge of the buffered delta,
  /// only where results changed). Runs on the writer thread at the end of
  /// every drain — the one commit path for graph deltas and primes alike —
  /// i.e. exactly when the network is quiescent and the bags are
  /// consistent. With profiling on it records "propagation.publish_ns".
  void PublishEpochs();

  /// (upstream, port) inputs per node, derived from the output wiring —
  /// the reverse edges ReplayOutput reconstruction walks for stateless
  /// nodes. Built on demand (only when a replay chain crosses one) and
  /// only over `scope` (a view's support set is upstream-closed, so the
  /// walk stays inside it — O(view), not O(catalog)).
  using InputsMap =
      std::unordered_map<const ReteNode*,
                         std::vector<std::pair<ReteNode*, int>>>;
  InputsMap BuildInputsMap(const std::vector<ReteNode*>& scope) const;

  /// Memoized current output of `node` as an insert-only delta:
  /// ReplayOutput for stateful nodes, reconstructed via the node's inputs
  /// for stateless transforms. `inputs` is filled lazily from `scope` on
  /// the first stateless node encountered.
  const Delta& CurrentOutputOf(ReteNode* node,
                               const std::vector<ReteNode*>& scope,
                               InputsMap& inputs, bool& inputs_built,
                               std::unordered_map<ReteNode*, Delta>& memo);

  /// The graph this network maintains against (subscribed from
  /// construction to destruction).
  PropertyGraph* const graph_;
  std::vector<std::unique_ptr<ReteNode>> nodes_;
  std::vector<GraphSourceNode*> sources_;
  /// Every view root, in registration order.
  std::vector<ProductionNode*> productions_;
  /// Lifetime counters. Written on the writer thread only, but relaxed
  /// atomics so serving threads may read them mid-ingest without racing.
  std::atomic<int64_t> deltas_processed_{0};
  std::atomic<int64_t> changes_processed_{0};
  std::atomic<uint64_t> commit_epoch_{0};
  std::atomic<int64_t> epochs_recycled_{0};
  std::atomic<int64_t> epochs_copied_{0};
  std::atomic<int64_t> epochs_sorted_{0};
  std::atomic<int64_t> parallel_waves_dispatched_{0};

  /// Configuration, fixed at construction (see NetworkOptions).
  const ExecutorKind executor_;
  const size_t parallel_min_wave_entries_;
  /// The pool parallel waves run on; workers persist for the network's
  /// lifetime. Null whenever the resolved executor is serial.
  const std::unique_ptr<ThreadPool> pool_;

  /// See set_profiling. Read on the hot paths as a plain bool: flipped
  /// only on the writer thread between drains.
  bool profiling_ = false;
  /// The engine registry's histograms this network records into (resolved
  /// once so drains never lock; null without a registry).
  LatencyHistogram* h_drain_ns_ = nullptr;
  LatencyHistogram* h_publish_ns_ = nullptr;
  LatencyHistogram* h_translate_ns_ = nullptr;
  LatencyHistogram* h_wave_ns_ = nullptr;
  LatencyHistogram* h_barrier_ns_ = nullptr;
  LatencyHistogram* h_drain_entries_ = nullptr;
  LatencyHistogram* h_wave_imbalance_ = nullptr;
  /// Created on the first set_profiling(true); see trace().
  std::unique_ptr<TraceBuffer> trace_;
  /// Scratch for the wave loop (a member so steady-state waves don't
  /// allocate): the level being drained.
  std::vector<WaveItem> wave_items_;
  /// Each source with its staging slot, looked up once per graph delta.
  struct SourceSlot {
    GraphSourceNode* source = nullptr;
    NodeState* state = nullptr;
  };
  std::vector<SourceSlot> source_slots_;
  /// True while DrainWaves runs: the node set must not change mid-drain.
  bool draining_ = false;
  std::unordered_map<const ReteNode*, NodeState> states_;
  std::vector<std::vector<ReteNode*>> ready_by_level_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_NETWORK_H_
