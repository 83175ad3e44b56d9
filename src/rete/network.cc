#include "rete/network.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_set>

#include "rete/sharded_map.h"
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

/// Morsel partition count: the explicit cap, else the pool's parallelism,
/// never more than the shard count (partition p owns shards s with
/// s % partitions == p, so more partitions than shards would leave some
/// idle). No pool ⇒ 1 ⇒ morsel execution disabled.
uint32_t ResolveMorselPartitions(const NetworkOptions& options,
                                 const ThreadPool* pool) {
  if (pool == nullptr) return 1;
  const uint32_t parts = options.morsel_partitions != 0
                             ? options.morsel_partitions
                             : static_cast<uint32_t>(pool->parallelism());
  return std::min(parts, kMorselShards);
}

}  // namespace

ReteNetwork::ReteNetwork(PropertyGraph* graph, const NetworkOptions& options,
                         MetricsRegistry* metrics)
    : graph_(graph),
      executor_(options.executor),
      parallel_min_wave_entries_(options.parallel_min_wave_entries),
      morsel_min_node_entries_(options.morsel_min_node_entries),
      pool_(MakePool(options)),
      morsel_partitions_resolved_(ResolveMorselPartitions(options,
                                                          pool_.get())) {
  if (metrics != nullptr) {
    // Resolved once so the profiling paths never take the registry mutex.
    h_drain_ns_ = &metrics->GetHistogram("propagation.drain_ns");
    h_publish_ns_ = &metrics->GetHistogram("propagation.publish_ns");
    h_translate_ns_ = &metrics->GetHistogram("propagation.translate_ns");
    h_wave_ns_ = &metrics->GetHistogram("propagation.wave_ns");
    h_barrier_ns_ = &metrics->GetHistogram("propagation.barrier_ns");
    h_drain_entries_ = &metrics->GetHistogram("propagation.drain_entries");
    // Percent of a wave's queued entries held by its single hottest node —
    // the skew signal that motivates morsel splitting (100 = one node owns
    // the whole wave).
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
  // (node, port).
  const uint32_t parts = morsel_partitions_resolved_;
  // Large batches translate data-parallel: one task per (partitionable
  // source, partition), each handling only the graph entities its
  // partition owns — disjoint shards of the source's asserted state, so
  // no synchronization — buffering into its own Delta. The merge below
  // appends the buffers in task order (source-major, partition-minor:
  // deterministic), and the level-0 consolidation canonicalizes entry
  // order before any consumer sees the delta, so results are bit-identical
  // to the serial loop. Gated by the same threshold as morsel delivery
  // (0 forces; a handful of changes does not amortize a pool dispatch).
  const bool parallel_translate =
      pool_ != nullptr && parts >= 2 &&
      (morsel_min_node_entries_ == 0 ||
       delta.changes.size() >= morsel_min_node_entries_);
  // Serial translation appends straight into each source's staging slot,
  // change-major like the batch order, and queues the source once its
  // slot is non-empty.
  translate_tasks_.clear();
  serial_sources_.clear();
  for (GraphSourceNode* source : sources_) {
    if (parallel_translate && source->translation_partitionable()) {
      for (uint32_t p = 0; p < parts; ++p) {
        translate_tasks_.push_back({source, p});
      }
    } else {
      serial_sources_.push_back({source, &states_.at(source)});
    }
  }
  auto translate_serial = [this](const GraphChange& change,
                                 const SerialSource& serial) {
    serial.source->Translate(change, /*partition=*/0, /*partitions=*/1,
                             serial.state->out);
    if (!serial.state->out.empty()) EnqueueReady(serial.source, *serial.state);
  };
  if (!parallel_translate) {
    for (const GraphChange& change : delta.changes) {
      for (const SerialSource& serial : serial_sources_) {
        translate_serial(change, serial);
      }
    }
  } else {
    translate_out_.resize(translate_tasks_.size());
    for (Delta& out : translate_out_) out.clear();
    pool_->Run(translate_tasks_.size(), [this, &delta, parts](size_t i) {
      const TranslateTask& task = translate_tasks_[i];
      Delta& out = translate_out_[i];
      for (const GraphChange& change : delta.changes) {
        task.source->Translate(change, task.partition, parts, out);
      }
    });
    for (size_t i = 0; i < translate_tasks_.size(); ++i) {
      Delta& out = translate_out_[i];
      if (out.empty()) continue;
      ReteNode* node = translate_tasks_[i].source;
      NodeState& state = states_.at(node);
      if (state.out.empty()) {
        // Swap, not move: the staging slot's previous buffer comes back
        // as this task's scratch, so steady-state batches recycle both.
        std::swap(state.out, out);
      } else {
        state.out.insert(state.out.end(), std::make_move_iterator(out.begin()),
                         std::make_move_iterator(out.end()));
        out.clear();
      }
      EnqueueReady(node, state);
    }
    // Sources with cross-entity translation state (Unit, path enumeration)
    // run the serial path on this thread, after the pool run — never
    // inside it (Run's caller participates as a worker, and enqueueing a
    // ready node is not thread-safe).
    for (const SerialSource& serial : serial_sources_) {
      for (const GraphChange& change : delta.changes) {
        translate_serial(change, serial);
      }
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
      node->OnDelta(port, pending.delta, {}, state.out);
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

void ReteNetwork::DeliverMorselPartition(WaveItem& item, uint32_t partition) {
  NodeState& state = *item.state;
  const bool prof = profiling_;
  const int64_t start_ns = prof ? MonotonicNowNs() : 0;
  const uint32_t parts = morsel_partitions_resolved_;
  Delta& out = state.morsel_out[partition];
  out.clear();
  for (auto& [port, pending] : state.pending) {
    if (pending.delta.empty()) continue;
    // Keyed nodes consult the precomputed partition map (chunked nodes get
    // nullptr and slice the range themselves). Writes stay inside the
    // shards this partition owns plus its private staging slot, so the
    // pool tasks of one node never touch shared state.
    const DeltaShare share{
        pending.morsel_map.empty() ? nullptr : pending.morsel_map.data(),
        partition, parts};
    item.node->OnDelta(port, pending.delta, share, out);
  }
  if (prof) {
    state.morsel_prof_start_ns[partition] = start_ns;
    state.morsel_prof_dur_ns[partition] = MonotonicNowNs() - start_ns;
  }
}

void ReteNetwork::MergeMorsel(WaveItem& item) {
  NodeState& state = *item.state;
  const uint32_t parts = morsel_partitions_resolved_;
  int64_t in_entries = 0;
  for (auto& [port, pending] : state.pending) {
    (void)port;
    in_entries += static_cast<int64_t>(pending.delta.size());
    // Empty in place, like DeliverPending: slots and buffers survive.
    pending.delta.clear();
    pending.clean = false;
  }
  // Concatenate the per-partition slots in partition order. Chunked nodes
  // processed contiguous input ranges, so this reconstructs the serial
  // emission order exactly; keyed nodes interleave differently, and the
  // consolidation below canonicalizes the order (equal tuples always share
  // a partition — equal key projections hash equally) — downstream
  // deliveries are bit-identical to a serial run either way.
  for (uint32_t p = 0; p < parts; ++p) {
    Delta& slot = state.morsel_out[p];
    if (slot.empty()) continue;
    if (state.out.empty()) {
      // Swap, not move: the slot inherits out's previous-wave buffer.
      std::swap(state.out, slot);
    } else {
      state.out.insert(state.out.end(), std::make_move_iterator(slot.begin()),
                       std::make_move_iterator(slot.end()));
      slot.clear();
    }
  }
  Consolidate(state.out);
  if (profiling_) {
    // Busy time is the *sum* of the partition slices (the node's own CPU
    // work, comparable to a serial delivery); the trace keeps one slice
    // per partition so skew inside the node stays visible.
    int64_t busy_ns = 0;
    int64_t first_start = 0;
    for (uint32_t p = 0; p < parts; ++p) {
      busy_ns += state.morsel_prof_dur_ns[p];
      const int64_t start = state.morsel_prof_start_ns[p];
      if (start != 0 && (first_start == 0 || start < first_start)) {
        first_start = start;
      }
    }
    state.prof_start_ns = first_start;
    state.prof_dur_ns = busy_ns;
    state.prof_in_entries = in_entries;
    item.node->profile().RecordDelivery(
        in_entries, static_cast<int64_t>(state.out.size()), busy_ns);
    if (trace_ != nullptr) {
      for (uint32_t p = 0; p < parts; ++p) {
        if (state.morsel_prof_start_ns[p] == 0) continue;
        TraceEvent event;
        event.name = item.node->KindName();
        event.category = "morsel";
        event.start_ns = state.morsel_prof_start_ns[p];
        event.dur_ns = state.morsel_prof_dur_ns[p];
        event.tid = 2;
        event.args = StrCat("\"partition\":", p, ",\"of\":", parts,
                            ",\"in\":", in_entries,
                            ",\"level\":", state.level);
        trace_->Append(std::move(event));
      }
    }
  }
}

void ReteNetwork::DrainWaves() {
  draining_ = true;
  const bool parallel = pool_ != nullptr;
  const bool prof = profiling_;
  const int64_t drain_start_ns = prof ? MonotonicNowNs() : 0;
  int64_t drain_waves = 0;
  int64_t drain_entries = 0;
  const uint32_t parts = morsel_partitions_resolved_;
  const bool morsel_enabled = parallel && parts >= 2;
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
    const bool need_entries = prof || morsel_enabled || gate_needs_entries;
    wave_items_.clear();
    wave_items_.reserve(ready.size());
    morsel_tasks_.clear();
    size_t queued_entries = 0;
    size_t max_node_entries = 0;
    for (ReteNode* node : ready) {
      WaveItem item;
      item.node = node;
      item.state = &states_.at(node);
      if (need_entries) {
        for (const auto& [port, pending] : item.state->pending) {
          (void)port;
          item.entries += pending.delta.size();
        }
        queued_entries += item.entries;
        max_node_entries = std::max(max_node_entries, item.entries);
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
    // Morsel selection: a node holding a large queued delta has its
    // delivery split into key-partitioned morsels — even when it is the
    // wave's *only* node, which is exactly the case node-level wave
    // parallelism cannot touch (one hot join/aggregate serializes the
    // whole wave, Zipf-keyed workloads being the canonical offender).
    bool any_morsel = false;
    if (morsel_enabled) {
      for (WaveItem& item : wave_items_) {
        if (item.entries == 0) continue;
        if (morsel_min_node_entries_ > 0 &&
            item.entries < morsel_min_node_entries_) {
          continue;
        }
        item.kind = item.node->morsel_kind();
        if (item.kind == MorselKind::kNone) continue;
        item.morsel = true;
        any_morsel = true;
      }
    }
    const int64_t wave_start_ns = prof ? MonotonicNowNs() : 0;
    if (any_morsel) {
      // Morsel prep: consolidate each split node's queued deltas *first*
      // (serially — the partition map must describe exactly what will be
      // delivered), then compute the keyed nodes' partition maps
      // chunk-parallel (MorselPartitionMap is a pure function of the now-
      // frozen pending content).
      map_chunks_.clear();
      for (WaveItem& item : wave_items_) {
        if (!item.morsel) continue;
        NodeState& state = *item.state;
        if (state.morsel_out.size() < parts) state.morsel_out.resize(parts);
        if (prof) {
          state.morsel_prof_start_ns.assign(parts, 0);
          state.morsel_prof_dur_ns.assign(parts, 0);
        }
        for (auto& [port, pending] : state.pending) {
          if (!pending.clean) {
            Consolidate(pending.delta);
            pending.clean = true;
          }
          if (item.kind == MorselKind::kKeyed && !pending.delta.empty()) {
            const size_t n = pending.delta.size();
            pending.morsel_map.resize(n);
            const size_t chunk = std::max<size_t>(
                256, n / (static_cast<size_t>(pool_->parallelism()) * 4));
            for (size_t begin = 0; begin < n; begin += chunk) {
              map_chunks_.push_back({item.node, &pending.delta,
                                     pending.morsel_map.data(), port, begin,
                                     std::min(begin + chunk, n)});
            }
          }
        }
        for (uint32_t p = 0; p < parts; ++p) {
          morsel_tasks_.push_back({&item, p});
        }
      }
      if (map_chunks_.size() > 1) {
        pool_->Run(map_chunks_.size(), [this, parts](size_t i) {
          const MapChunk& chunk = map_chunks_[i];
          chunk.node->MorselPartitionMap(chunk.port, *chunk.delta, parts,
                                         chunk.begin, chunk.end, chunk.map);
        });
      } else if (!map_chunks_.empty()) {
        const MapChunk& chunk = map_chunks_[0];
        chunk.node->MorselPartitionMap(chunk.port, *chunk.delta, parts,
                                       chunk.begin, chunk.end, chunk.map);
      }
      morsel_waves_dispatched_.fetch_add(1, std::memory_order_relaxed);
    }
    if (wave_parallel) {
      // Phase 1 — the wave's remaining nodes run node-parallel alongside
      // the morsel partitions. Each node is claimed by exactly one worker,
      // so node memories and the per-node staging slot (state.out) are
      // single-writer; a node's OnDelta appends only to its own slot.
      // Morsel partitions write only their private staging slot and the
      // memory shards their partition owns, so the combined task list
      // stays data-race-free.
      for (WaveItem& item : wave_items_) {
        if (!item.morsel) morsel_tasks_.push_back({&item, kDeliverWhole});
      }
    }
    if (morsel_tasks_.size() > 1) {
      parallel_waves_dispatched_.fetch_add(1, std::memory_order_relaxed);
      pool_->Run(morsel_tasks_.size(), [this](size_t i) {
        MorselTask& task = morsel_tasks_[i];
        if (task.partition == kDeliverWhole) {
          DeliverPending(task.item->node, *task.item->state);
        } else {
          DeliverMorselPartition(*task.item, task.partition);
        }
      });
    } else if (!morsel_tasks_.empty()) {
      MorselTask& task = morsel_tasks_[0];
      if (task.partition == kDeliverWhole) {
        DeliverPending(task.item->node, *task.item->state);
      } else {
        DeliverMorselPartition(*task.item, task.partition);
      }
    }
    // Phase 2 — the barrier merge: flush every node's staged output
    // downstream in ready order, exactly the sequence the serial drain
    // produces, so pending queues (and with them every delivered delta)
    // are bit-identical regardless of thread or partition count. Morsel
    // nodes merge their partition slots here, in partition order; serial
    // waves run each node's delivery here, in its ready position.
    const int64_t barrier_start_ns = prof ? MonotonicNowNs() : 0;
    const size_t wave_nodes = ready.size();
    for (WaveItem& item : wave_items_) {
      ReteNode* node = item.node;
      NodeState& state = *item.state;
      if (item.morsel) {
        MergeMorsel(item);
      } else if (!wave_parallel) {
        DeliverPending(node, state);
      }
      if (prof && trace_ != nullptr && !item.morsel &&
          (state.prof_in_entries > 0 || !state.out.empty())) {
        // One slice per node that did work this wave (morsel nodes append
        // one slice per partition in MergeMorsel instead). Under a
        // parallel wave the slices of one level overlap in time (they ran
        // on different workers); they are appended here, at the serial
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
        // hottest node — 100 means one node held the whole wave (the
        // skew morsel splitting exists for).
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
                            ",\"parallel\":", wave_parallel ? 1 : 0,
                            ",\"morsel\":", any_morsel ? 1 : 0);
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
        node->OnDelta(port, content, {}, out);
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
