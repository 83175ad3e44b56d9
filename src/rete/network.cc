#include "rete/network.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_set>

#include "support/string_util.h"

namespace pgivm {

const char* ExecutorKindName(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kSerial:
      return "serial";
    case ExecutorKind::kParallel:
      return "parallel";
  }
  return "?";
}

namespace {

/// The worker pool for `options`, or null when the resolved parallelism is
/// 1 (serial executor, or a parallel one resolving to a single thread —
/// which keeps the serial fast path: no pool, no dispatch).
std::unique_ptr<ThreadPool> MakePool(const NetworkOptions& options) {
  if (options.executor != ExecutorKind::kParallel) return nullptr;
  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  return threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

}  // namespace

ReteNetwork::ReteNetwork(PropertyGraph* graph, const NetworkOptions& options,
                         MetricsRegistry* metrics)
    : graph_(graph),
      executor_(options.executor),
      parallel_min_wave_entries_(options.parallel_min_wave_entries),
      pool_(MakePool(options)) {
  if (metrics != nullptr) {
    // Resolved once so the profiling paths never take the registry mutex.
    h_drain_ns_ = &metrics->GetHistogram("propagation.drain_ns");
    h_publish_ns_ = &metrics->GetHistogram("propagation.publish_ns");
    h_translate_ns_ = &metrics->GetHistogram("propagation.translate_ns");
    h_wave_ns_ = &metrics->GetHistogram("propagation.wave_ns");
    h_barrier_ns_ = &metrics->GetHistogram("propagation.barrier_ns");
    h_drain_entries_ = &metrics->GetHistogram("propagation.drain_entries");
    // Percent of a wave's queued entries held by its single hottest node —
    // the skew that node-level parallelism cannot spread (100 = one node
    // owns the whole wave).
    h_wave_imbalance_ =
        &metrics->GetHistogram("propagation.wave_imbalance");
  }
  set_profiling(options.profiling);
  graph_->AddListener(this);
}

ReteNetwork::~ReteNetwork() { graph_->RemoveListener(this); }

void ReteNetwork::RegisterProduction(ProductionNode* production) {
  productions_.push_back(production);
  // Under parallel waves, listener callbacks must not run on pool workers
  // (user code; two productions in one wave would fire concurrently) —
  // productions buffer them and the barrier flushes serially, in ready
  // order, preserving the serial executor's threading contract.
  production->set_defer_notifications(pool_ != nullptr);
}

void ReteNetwork::set_profiling(bool on) {
  profiling_ = on;
  if (on && trace_ == nullptr) {
    trace_ = std::make_unique<TraceBuffer>(kTraceCapacity);
  }
}

void ReteNetwork::RemoveNodes(const std::vector<ReteNode*>& victims) {
  if (victims.empty()) return;
  assert(!draining_ && "cannot remove nodes mid-wave");
  std::unordered_set<const ReteNode*> gone(victims.begin(), victims.end());

  // Surviving upstream nodes must stop fanning out into freed memory.
  for (const auto& node : nodes_) {
    if (gone.count(node.get()) == 0) node->RemoveOutputsTo(gone);
  }

  auto is_gone = [&gone](const auto* ptr) { return gone.count(ptr) > 0; };
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(), is_gone),
                 sources_.end());
  productions_.erase(std::remove_if(productions_.begin(), productions_.end(),
                                    [&](ProductionNode* p) {
                                      return is_gone(p);
                                    }),
                     productions_.end());
  for (const ReteNode* victim : gone) states_.erase(victim);
  nodes_.erase(std::remove_if(nodes_.begin(), nodes_.end(),
                              [&](const std::unique_ptr<ReteNode>& node) {
                                return is_gone(node.get());
                              }),
               nodes_.end());

  // Levels / scheduler state reference the old shape; recompute while the
  // network keeps maintaining (survivor memories are untouched).
  PrepareScheduler();
}

void ReteNetwork::OnGraphDelta(const GraphDelta& delta) {
  deltas_processed_.fetch_add(1, std::memory_order_relaxed);
  changes_processed_.fetch_add(static_cast<int64_t>(delta.changes.size()),
                               std::memory_order_relaxed);
  const bool prof = profiling_;
  const int64_t start_ns = prof ? MonotonicNowNs() : 0;
  // The sources' staging slots buffer their relational deltas while the
  // *entire* graph delta is translated, and DrainWaves then moves them
  // through the network level by level, one consolidated delta per
  // (node, port). Translation appends straight into each source's staging
  // slot, change-major like the batch order, and queues the source once
  // its slot is non-empty.
  source_slots_.clear();
  for (GraphSourceNode* source : sources_) {
    source_slots_.push_back({source, &states_.at(source)});
  }
  for (const GraphChange& change : delta.changes) {
    for (const SourceSlot& slot : source_slots_) {
      slot.source->Translate(change, slot.state->out);
      if (!slot.state->out.empty()) EnqueueReady(slot.source, *slot.state);
    }
  }
  if (prof) {
    // Pure source translation: delivery is deferred to DrainWaves.
    const int64_t end_ns = MonotonicNowNs();
    if (h_translate_ns_ != nullptr) h_translate_ns_->Record(end_ns - start_ns);
    if (trace_ != nullptr) {
      TraceEvent event;
      event.name = "translate";
      event.start_ns = start_ns;
      event.dur_ns = end_ns - start_ns;
      event.args = StrCat("\"changes\":", delta.changes.size());
      trace_->Append(std::move(event));
    }
  }
  DrainWaves();  // publishes the commit epoch at its end
}

ReteNetwork::PendingDelta& ReteNetwork::PendingFor(NodeState& state,
                                                   int port) {
  auto it = state.pending.begin();
  while (it != state.pending.end() && it->first < port) ++it;
  if (it == state.pending.end() || it->first != port) {
    it = state.pending.emplace(it, port, PendingDelta{});
  }
  return it->second;
}

void ReteNetwork::PrepareScheduler() {
  states_.clear();
  states_.reserve(nodes_.size());
  for (const auto& node : nodes_) states_[node.get()];
  // Relax levels to a fixpoint: level(downstream) > level(upstream). Nodes
  // are added bottom-up so one pass normally suffices; the loop guards
  // against exotic wiring orders (and rejects cycles without hanging).
  int max_level = 0;
  bool changed = true;
  size_t rounds = 0;
  while (changed) {
    changed = false;
    ++rounds;
    assert(rounds <= nodes_.size() + 1 && "cycle in the Rete network");
    if (rounds > nodes_.size() + 1) break;  // cycle: fail bounded
    for (const auto& node : nodes_) {
      int level = states_.at(node.get()).level;
      for (const auto& [down, port] : node->outputs()) {
        (void)port;
        NodeState& dst = states_.at(down);
        if (dst.level < level + 1) {
          dst.level = level + 1;
          max_level = std::max(max_level, dst.level);
          changed = true;
        }
      }
    }
  }
  ready_by_level_.assign(static_cast<size_t>(max_level) + 1, {});
}

void ReteNetwork::EnqueueReady(ReteNode* node, NodeState& state) {
  if (state.queued) return;
  state.queued = true;
  ready_by_level_[static_cast<size_t>(state.level)].push_back(node);
}

void ReteNetwork::DeliverPending(ReteNode* node, NodeState& state) {
  // With profiling on, the node's own wall time and consolidated in/out
  // volumes are sampled right here — the single place every scheduled
  // delivery funnels through, whether it runs on the draining thread or on
  // one pool worker (single writer per node either way, so the NodeState
  // scratch fields need no synchronization; the pool join is the barrier).
  const bool prof = profiling_;
  const int64_t start_ns = prof ? MonotonicNowNs() : 0;
  // A terminal node accounts its output straight into emitted_entries()
  // (nothing to buffer); the difference is its share of the output.
  const int64_t emitted_before = prof ? node->emitted_entries() : 0;
  int64_t in_entries = 0;
  for (auto& [port, pending] : state.pending) {
    if (!pending.clean) Consolidate(pending.delta);
    if (prof) in_entries += static_cast<int64_t>(pending.delta.size());
    if (!pending.delta.empty()) {
      node->OnDelta(port, pending.delta, state.out);
    }
    // Empty in place (not pending.clear()): the slots and their Delta
    // buffers survive, so steady-state waves do not re-allocate.
    pending.delta.clear();
    pending.clean = false;
  }
  // Consolidating the response here (rather than in FlushNode) puts the
  // sort inside the parallel phase when the wave runs on the pool.
  Consolidate(state.out);
  if (prof) {
    const int64_t dur_ns = MonotonicNowNs() - start_ns;
    state.prof_start_ns = start_ns;
    state.prof_dur_ns = dur_ns;
    state.prof_in_entries = in_entries;
    node->profile().RecordDelivery(
        in_entries,
        static_cast<int64_t>(state.out.size()) + node->emitted_entries() -
            emitted_before,
        dur_ns);
  }
}

void ReteNetwork::FlushNode(ReteNode* node, NodeState& state) {
  if (state.out.empty()) return;
  node->AddEmittedEntries(static_cast<int64_t>(state.out.size()));
  const auto& outputs = node->outputs();
  for (size_t i = 0; i < outputs.size(); ++i) {
    const auto& [down, port] = outputs[i];
    NodeState& dst = states_.at(down);
    PendingDelta& pending = PendingFor(dst, port);
    if (pending.delta.empty()) {
      // Single consolidated flush: swap (for the last subscriber) and mark
      // clean so delivery skips re-consolidation. A swap rather than a
      // move, so the pending slot's previous-wave buffer comes back as the
      // node's staging buffer instead of being freed — steady-state waves
      // recycle capacity in both directions.
      if (i + 1 == outputs.size()) {
        std::swap(pending.delta, state.out);
      } else {
        pending.delta = state.out;
      }
      pending.clean = true;
    } else {
      pending.delta.insert(pending.delta.end(), state.out.begin(),
                           state.out.end());
      pending.clean = false;
    }
    EnqueueReady(down, dst);
  }
  state.out.clear();
}

void ReteNetwork::DrainWaves() {
  draining_ = true;
  const bool parallel = pool_ != nullptr;
  const bool prof = profiling_;
  const int64_t drain_start_ns = prof ? MonotonicNowNs() : 0;
  int64_t drain_waves = 0;
  int64_t drain_entries = 0;
  for (size_t level = 0; level < ready_by_level_.size(); ++level) {
    std::vector<ReteNode*>& ready = ready_by_level_[level];
    // Appends only target strictly higher levels, so iterating by index
    // while lower levels flush into this one is safe; a level never grows
    // while it is being drained.
    if (ready.empty()) continue;
    //
    // One scheduler-state lookup per node per wave: everything below works
    // off the WaveItems. Queue depths are measured whenever a gate (or
    // profiling — they double as the wave's trace annotation) needs them.
    const bool gate_needs_entries =
        parallel && ready.size() > 1 && parallel_min_wave_entries_ > 0;
    const bool need_entries = prof || gate_needs_entries;
    wave_items_.clear();
    wave_items_.reserve(ready.size());
    size_t queued_entries = 0;
    size_t max_node_entries = 0;
    for (ReteNode* node : ready) {
      WaveItem item{node, &states_.at(node)};
      if (need_entries) {
        size_t entries = 0;
        for (const auto& [port, pending] : item.state->pending) {
          (void)port;
          entries += pending.delta.size();
        }
        queued_entries += entries;
        max_node_entries = std::max(max_node_entries, entries);
      }
      wave_items_.push_back(item);
    }
    // Work-size gate: near-empty waves (single-change steady state) run
    // inline — waking the pool costs more than delivering a handful of
    // entries. Bit-parity is unaffected; only *where* delivery runs moves.
    const bool wave_parallel =
        parallel && ready.size() > 1 &&
        (parallel_min_wave_entries_ == 0 ||
         queued_entries >= parallel_min_wave_entries_);
    const int64_t wave_start_ns = prof ? MonotonicNowNs() : 0;
    if (wave_parallel) {
      // Phase 1 — one pool task per node. Each node is claimed by exactly
      // one worker, so node memories and the per-node staging slot
      // (state.out) are single-writer; a node's OnDelta appends only to
      // its own slot.
      parallel_waves_dispatched_.fetch_add(1, std::memory_order_relaxed);
      pool_->Run(wave_items_.size(), [this](size_t i) {
        DeliverPending(wave_items_[i].node, *wave_items_[i].state);
      });
    }
    // Phase 2 — the barrier merge: flush every node's staged output
    // downstream in ready order, exactly the sequence the serial drain
    // produces, so pending queues (and with them every delivered delta)
    // are bit-identical regardless of thread count. Serial waves run each
    // node's delivery here, in its ready position.
    const int64_t barrier_start_ns = prof ? MonotonicNowNs() : 0;
    const size_t wave_nodes = ready.size();
    for (WaveItem& item : wave_items_) {
      ReteNode* node = item.node;
      NodeState& state = *item.state;
      if (!wave_parallel) DeliverPending(node, state);
      if (prof && trace_ != nullptr &&
          (state.prof_in_entries > 0 || !state.out.empty())) {
        // One slice per node that did work this wave. Under a parallel
        // wave the slices of one level overlap in time (they ran on
        // different workers); they are appended here, at the serial
        // barrier, so the buffer itself stays single-writer.
        TraceEvent event;
        event.name = node->KindName();
        event.category = "node";
        event.start_ns = state.prof_start_ns;
        event.dur_ns = state.prof_dur_ns;
        event.tid = 2;
        event.args = StrCat("\"in\":", state.prof_in_entries,
                            ",\"out\":", state.out.size(),
                            ",\"level\":", state.level);
        trace_->Append(std::move(event));
      }
      FlushNode(node, state);
      node->OnWaveBarrier();  // deferred listener notifications etc.
      // Nothing new can arrive at this level: the node is free to be
      // queued again by a later drain.
      state.queued = false;
    }
    ready.clear();
    if (prof) {
      const int64_t wave_end_ns = MonotonicNowNs();
      ++drain_waves;
      drain_entries += static_cast<int64_t>(queued_entries);
      if (h_wave_ns_ != nullptr) {
        h_wave_ns_->Record(wave_end_ns - wave_start_ns);
      }
      if (h_barrier_ns_ != nullptr) {
        h_barrier_ns_->Record(wave_end_ns - barrier_start_ns);
      }
      if (h_wave_imbalance_ != nullptr && queued_entries > 0) {
        // Share (percent) of the wave's queued entries held by its single
        // hottest node — 100 means one node held the whole wave, which a
        // parallel wave cannot spread.
        h_wave_imbalance_->Record(
            static_cast<int64_t>(100 * max_node_entries / queued_entries));
      }
      if (trace_ != nullptr) {
        TraceEvent event;
        event.name = "wave";
        event.start_ns = wave_start_ns;
        event.dur_ns = wave_end_ns - wave_start_ns;
        event.args = StrCat("\"level\":", level, ",\"nodes\":", wave_nodes,
                            ",\"queued\":", queued_entries,
                            ",\"parallel\":", wave_parallel ? 1 : 0);
        trace_->Append(std::move(event));
      }
    }
  }
  draining_ = false;
  if (prof) {
    const int64_t drain_end_ns = MonotonicNowNs();
    if (h_drain_ns_ != nullptr) {
      h_drain_ns_->Record(drain_end_ns - drain_start_ns);
    }
    if (h_drain_entries_ != nullptr) h_drain_entries_->Record(drain_entries);
    if (trace_ != nullptr) {
      TraceEvent event;
      event.name = "drain";
      event.start_ns = drain_start_ns;
      event.dur_ns = drain_end_ns - drain_start_ns;
      event.args = StrCat("\"waves\":", drain_waves,
                          ",\"entries\":", drain_entries);
      trace_->Append(std::move(event));
    }
  }
  // The network is quiescent and every result bag is consistent: commit.
  PublishEpochs();
}

void ReteNetwork::PublishEpochs() {
  // Timed apart from the drain: the commit after the last wave, each
  // changed production merging its delta into fresh published rows.
  const bool prof = profiling_ && h_publish_ns_ != nullptr;
  const int64_t start_ns = prof ? MonotonicNowNs() : 0;
  const uint64_t epoch =
      commit_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t recycled = 0;
  int64_t copied = 0;
  int64_t sorted = 0;
  for (ProductionNode* production : productions_) {
    switch (production->PublishSnapshot(epoch)) {
      case ProductionNode::PublishPath::kKept:
        break;
      case ProductionNode::PublishPath::kRecycled:
        ++recycled;
        break;
      case ProductionNode::PublishPath::kCopied:
        ++copied;
        break;
      case ProductionNode::PublishPath::kSorted:
        ++sorted;
        break;
    }
  }
  if (recycled > 0) {
    epochs_recycled_.fetch_add(recycled, std::memory_order_relaxed);
  }
  if (copied > 0) epochs_copied_.fetch_add(copied, std::memory_order_relaxed);
  if (sorted > 0) epochs_sorted_.fetch_add(sorted, std::memory_order_relaxed);
  if (prof) h_publish_ns_->Record(MonotonicNowNs() - start_ns);
}

ReteNetwork::InputsMap ReteNetwork::BuildInputsMap(
    const std::vector<ReteNode*>& scope) const {
  InputsMap inputs;
  for (ReteNode* node : scope) {
    for (const auto& [down, port] : node->outputs()) {
      inputs[down].emplace_back(node, port);
    }
  }
  return inputs;
}

const Delta& ReteNetwork::CurrentOutputOf(
    ReteNode* node, const std::vector<ReteNode*>& scope, InputsMap& inputs,
    bool& inputs_built, std::unordered_map<ReteNode*, Delta>& memo) {
  auto it = memo.find(node);
  if (it != memo.end()) return it->second;
  Delta out;
  if (!node->ReplayOutput(out)) {
    // Stateless transform: its output is not materialized anywhere, so
    // reconstruct it by pulling each input's current content (recursively;
    // every upstream of a reused node is itself reused and thus primed)
    // and pushing it through OnDelta into `out`. Safe because stateless
    // nodes mutate no memory, and `out` never reaches the node's real
    // consumers.
    if (!inputs_built) {
      inputs = BuildInputsMap(scope);
      inputs_built = true;
    }
    auto in_it = inputs.find(node);
    if (in_it != inputs.end()) {
      // Copied so the iteration doesn't alias `inputs` across recursion.
      std::vector<std::pair<ReteNode*, int>> ports = in_it->second;
      for (const auto& [upstream, port] : ports) {
        const Delta& content =
            CurrentOutputOf(upstream, scope, inputs, inputs_built, memo);
        node->OnDelta(port, content, out);
      }
    }
  }
  // unordered_map mapped references are stable across rehashes, so the
  // returned reference survives later insertions by the caller's loop.
  return memo.emplace(node, std::move(out)).first->second;
}

ReteNetwork::PrimeStats ReteNetwork::PrimeNewNodes(
    const std::vector<ReteNode*>& fresh_nodes,
    const std::vector<ReplayEdge>& replay_edges,
    const std::vector<ReteNode*>& replay_scope) {
  PrimeStats stats;
  stats.fresh_nodes = fresh_nodes.size();
  stats.replay_edges = replay_edges.size();
  assert(!draining_ && "prime only between graph deltas");

  // Rebuild the scheduler so the fresh nodes have levels and state. The
  // network is quiescent — every pending queue is empty — so rebuilding
  // cannot drop sibling deltas.
  PrepareScheduler();

  std::vector<GraphSourceNode*> fresh_sources;
  std::vector<std::pair<ReteNode*, int64_t>> source_baseline;
  for (ReteNode* node : fresh_nodes) {
    if (auto* source = dynamic_cast<GraphSourceNode*>(node)) {
      fresh_sources.push_back(source);
      source_baseline.emplace_back(node, node->emitted_entries());
    }
  }
  stats.primed_sources = fresh_sources.size();

  // Structural initial output, then graph content, restricted to the
  // registration's own nodes. Fresh nodes only feed fresh nodes (a consumer
  // wired now cannot be older than its wiring) and reused nodes emit
  // nothing, so the drain below never touches a sibling's memories and no
  // existing view's listeners hear of the prime.
  // Each node appends to its own staging slot and is queued once the slot
  // holds something.
  for (ReteNode* node : fresh_nodes) {
    NodeState& state = states_.at(node);
    node->EmitInitial(state.out);
    if (!state.out.empty()) EnqueueReady(node, state);
  }
  for (GraphSourceNode* source : fresh_sources) {
    NodeState& state = states_.at(source);
    source->EmitInitialFromGraph(state.out);
    if (!state.out.empty()) EnqueueReady(source, state);
  }

  // Memory replay: each reused node delivers its materialized output into
  // just the newly attached consumer — the graph is never re-read for
  // sub-plans another view already primed.
  InputsMap inputs;
  bool inputs_built = false;
  std::unordered_map<ReteNode*, Delta> memo;
  for (const ReplayEdge& edge : replay_edges) {
    const Delta& delta =
        CurrentOutputOf(edge.from, replay_scope, inputs, inputs_built, memo);
    stats.replayed_entries += static_cast<int64_t>(delta.size());
    if (delta.empty()) continue;
    NodeState& dst = states_.at(edge.to);
    PendingDelta& pending = PendingFor(dst, edge.port);
    pending.delta.insert(pending.delta.end(), delta.begin(), delta.end());
    pending.clean = false;  // replay order is not canonical
    EnqueueReady(edge.to, dst);
  }
  DrainWaves();  // publishes the newly primed view's first epoch
  for (const auto& [node, before] : source_baseline) {
    stats.graph_primed_entries += node->emitted_entries() - before;
  }
  return stats;
}

int ReteNetwork::node_level(const ReteNode* node) const {
  auto it = states_.find(node);
  return it == states_.end() ? -1 : it->second.level;
}

int64_t ReteNetwork::TotalEmittedEntries() const {
  int64_t total = 0;
  for (const auto& node : nodes_) total += node->emitted_entries();
  return total;
}

int64_t ReteNetwork::SourceEmittedEntries() const {
  int64_t total = 0;
  for (const GraphSourceNode* source : sources_) {
    total += source->emitted_entries();
  }
  return total;
}

size_t ReteNetwork::ApproxMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& node : nodes_) bytes += node->ApproxMemoryBytes();
  return bytes;
}

std::vector<ReteNetwork::NodeMetrics> ReteNetwork::NodeMetricsSnapshot()
    const {
  std::vector<NodeMetrics> rows;
  rows.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    NodeMetrics row;
    row.name = node->DebugString();
    row.kind = node->KindName();
    row.level = node_level(node.get());
    row.emitted_entries = node->emitted_entries();
    const NodeProfile& profile = node->profile();
    row.activations = profile.activations.load(std::memory_order_relaxed);
    row.input_entries = profile.input_entries.load(std::memory_order_relaxed);
    row.output_entries =
        profile.output_entries.load(std::memory_order_relaxed);
    row.busy_ns = profile.busy_ns.load(std::memory_order_relaxed);
    row.last_ns = profile.last_ns.load(std::memory_order_relaxed);
    row.memory_bytes = node->ApproxMemoryBytes();
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string ReteNetwork::DebugString() const {
  std::ostringstream os;
  os << "executor=" << ExecutorKindName(executor_);
  if (pool_ != nullptr) os << "(" << pool_->parallelism() << ")";
  os << "\n";
  for (const auto& node : nodes_) {
    os << node->DebugString();
    int level = node_level(node.get());
    if (level >= 0) os << "  level=" << level;
    os << "  mem=" << node->ApproxMemoryBytes()
       << "B emitted=" << node->emitted_entries() << "\n";
  }
  return os.str();
}

}  // namespace pgivm
