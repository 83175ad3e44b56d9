#ifndef PGIVM_GRAPH_PROPERTY_GRAPH_H_
#define PGIVM_GRAPH_PROPERTY_GRAPH_H_

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_delta.h"
#include "graph/property_columns.h"
#include "graph/symbol_table.h"
#include "support/status.h"
#include "value/ids.h"
#include "value/value.h"

namespace pgivm {

/// In-memory property graph per the paper's data model
/// G = (V, E, st, L, T, labels, types, Pv, Pe):
///  * vertices carry a *set* of labels and a schema-free property map;
///  * edges carry exactly one type, a property map, and source/target;
///  * property values are pgivm::Value (atomic, list, map — nested data).
///
/// Storage is interned + columnar (stage 1 of the vectorized-propagation
/// refactor): labels, edge types, and property keys live once in a
/// per-graph SymbolTable; elements carry dense SymbolIds; properties live
/// in per-symbol typed columns (PropertyStore); and the label/type indexes
/// are symbol-keyed sorted posting lists, so index scans are deterministic
/// (ascending id) by construction. The string-based read API remains as
/// thin shims over one symbol lookup; hot paths use the SymbolId overloads
/// and skip string hashing entirely. Symbol ids depend on mutation order.
/// They appear in change records, which never leave the graph, but never
/// in fingerprints or serialized output, which stay string-based and
/// id-assignment-independent.
///
/// Mutations are observable: every applied change is delivered to registered
/// GraphListeners as an id-only GraphDelta (see graph_delta.h). Calls
/// outside a batch emit one single-change delta each; BeginBatch/CommitBatch
/// groups many changes into one atomic delta — the unit of IVM propagation
/// ("transaction" in the paper's sense).
///
/// Identifier discipline: ids are dense, monotonically increasing and never
/// reused, so downstream state keyed by id stays unambiguous. Element
/// slots live in fixed pages of kPageSlots ids; a page whose ids have all
/// been assigned and have all died is freed, so a size-neutral stream of
/// adds and removes keeps the slot storage bounded by the live elements'
/// pages (the ids of a freed page simply answer HasVertex/HasEdge false).
///
/// Thread-compatibility: const methods are safe to call concurrently;
/// mutations require external synchronization (single-writer model). The
/// embedded SymbolTable follows the same contract (Intern happens only
/// inside mutations).
class PropertyGraph {
 public:
  PropertyGraph();

  // Not copyable or movable: listeners hold stable pointers to the graph.
  PropertyGraph(const PropertyGraph&) = delete;
  PropertyGraph& operator=(const PropertyGraph&) = delete;

  // ---- Mutations ---------------------------------------------------------

  /// Adds a vertex with `labels` (deduplicated) and `properties` (entries
  /// with null values are dropped). Returns its id.
  VertexId AddVertex(std::vector<std::string> labels,
                     ValueMap properties = {});

  /// Adds an edge of `type` from `src` to `dst`. Fails if an endpoint does
  /// not exist.
  Result<EdgeId> AddEdge(VertexId src, VertexId dst, std::string type,
                         ValueMap properties = {});

  /// Removes an edge. Fails if it does not exist.
  Status RemoveEdge(EdgeId edge);

  /// Removes a vertex. Fails if it still has incident edges (use
  /// DetachRemoveVertex for cascade semantics).
  Status RemoveVertex(VertexId vertex);

  /// Removes a vertex after removing all incident edges (Cypher's
  /// DETACH DELETE). Each edge removal is its own change in the delta.
  Status DetachRemoveVertex(VertexId vertex);

  /// Sets (or, when `value` is null, erases) a vertex/edge property.
  /// A no-op write (old == new) emits no change.
  Status SetVertexProperty(VertexId vertex, std::string key, Value value);
  Status SetEdgeProperty(EdgeId edge, std::string key, Value value);

  /// Adds/removes a single label. Adding an existing or removing a missing
  /// label is a no-op (OK, no change emitted).
  Status AddVertexLabel(VertexId vertex, std::string label);
  Status RemoveVertexLabel(VertexId vertex, const std::string& label);

  // ---- Fine-grained collection updates (FGN) -----------------------------
  // These express element-level edits of collection properties. They are
  // recorded as SetProperty changes carrying both old and new collection, so
  // incremental consumers (the unnest node) can diff them element-wise
  // instead of recomputing — the paper's FGN property.

  /// Appends `element` to the list property `key` (absent property becomes a
  /// one-element list). Fails if the property exists and is not a list.
  Status ListAppend(VertexId vertex, const std::string& key, Value element);

  /// Removes one occurrence of `element` from the list property `key`.
  /// Fails if the property is not a list or the element is absent.
  Status ListRemoveFirst(VertexId vertex, const std::string& key,
                         const Value& element);

  /// Inserts/overwrites `entry_key` in the map property `key` (absent
  /// property becomes a one-entry map).
  Status MapPut(VertexId vertex, const std::string& key,
                const std::string& entry_key, Value value);

  /// Erases `entry_key` from the map property `key`. Fails if the property
  /// is not a map; erasing a missing entry is a no-op.
  Status MapErase(VertexId vertex, const std::string& key,
                  const std::string& entry_key);

  // ---- Batching ----------------------------------------------------------

  /// Starts accumulating changes instead of emitting per-mutation deltas.
  /// Batches do not nest.
  void BeginBatch();

  /// Emits every change recorded since BeginBatch as one delta.
  void CommitBatch();

  bool in_batch() const { return in_batch_; }

  // ---- Listeners ---------------------------------------------------------

  /// Registers/unregisters an observer. The graph does not own listeners;
  /// they must outlive their registration. Changes are recorded only while
  /// some listener is registered: one added inside an open batch receives
  /// the batch's changes from its registration on.
  void AddListener(GraphListener* listener);
  void RemoveListener(GraphListener* listener);

  // ---- Reads (string shims) ----------------------------------------------
  // One symbol lookup, then the id-based fast path. Fine for cold paths;
  // per-tuple readers should resolve a SymbolRef once and use the SymbolId
  // overloads below.
  //
  // Every read accepts any id. An id that is not live — removed, never
  // assigned, or negative — reads as an element with no labels, no edges
  // and no properties; an absent edge has source and target kInvalidId,
  // type symbol kNoSymbol and type name "".

  bool HasVertex(VertexId vertex) const;
  bool HasEdge(EdgeId edge) const;

  /// Label set of `vertex`, materialized sorted by name. (By value since
  /// the interned representation stores ids; hot paths use VertexLabelIds.)
  std::vector<std::string> VertexLabels(VertexId vertex) const;
  bool VertexHasLabel(VertexId vertex, std::string_view label) const;

  /// Property value, or null Value if absent.
  Value GetVertexProperty(VertexId vertex, std::string_view key) const;
  Value GetEdgeProperty(EdgeId edge, std::string_view key) const;

  /// Properties materialized as a name-sorted ValueMap (by value since the
  /// columnar representation has no per-element map to reference).
  ValueMap VertexProperties(VertexId vertex) const;
  ValueMap EdgeProperties(EdgeId edge) const;

  VertexId EdgeSource(EdgeId edge) const;
  VertexId EdgeTarget(EdgeId edge) const;

  /// The edge's type name. The reference is stable for the graph's
  /// lifetime (interned spelling).
  const std::string& EdgeType(EdgeId edge) const;

  /// Incident edge lists (ids of live edges).
  const std::vector<EdgeId>& OutEdges(VertexId vertex) const;
  const std::vector<EdgeId>& InEdges(VertexId vertex) const;

  /// All live vertices carrying `label`, ascending by id (deterministic:
  /// the index is a sorted posting list).
  std::vector<VertexId> VerticesWithLabel(std::string_view label) const;

  /// All live edges of `type`, ascending by id (deterministic).
  std::vector<EdgeId> EdgesWithType(std::string_view type) const;

  // ---- Reads (interned fast path) ----------------------------------------
  // SymbolId arguments accept kNoSymbol (an unresolved SymbolRef) and
  // treat it as "matches nothing / absent".

  /// The graph's intern table. Mutations may append to it; ids already
  /// handed out never change.
  const SymbolTable& symbols() const { return symbols_; }

  /// Label symbols of `vertex`, sorted ascending by id.
  const std::vector<SymbolId>& VertexLabelIds(VertexId vertex) const;
  bool VertexHasLabel(VertexId vertex, SymbolId label) const;

  Value GetVertexProperty(VertexId vertex, SymbolId key) const;
  Value GetEdgeProperty(EdgeId edge, SymbolId key) const;

  SymbolId EdgeTypeId(EdgeId edge) const;

  /// Posting list of live vertices carrying label `label`, ascending by
  /// id. The reference is invalidated by mutations.
  const std::vector<VertexId>& VerticesWithLabelId(SymbolId label) const;
  const std::vector<EdgeId>& EdgesWithTypeId(SymbolId type) const;

  /// Visits every live vertex/edge id in increasing id order.
  void ForEachVertex(const std::function<void(VertexId)>& fn) const;
  void ForEachEdge(const std::function<void(EdgeId)>& fn) const;

  size_t vertex_count() const { return live_vertex_count_; }
  size_t edge_count() const { return live_edge_count_; }

  /// Rough heap usage of the store (elements, symbols, properties,
  /// indexes), for the memory experiments and the `storage.bytes` bench
  /// counter.
  size_t ApproxMemoryBytes() const;

  /// Ids per slot page (see the identifier note above).
  static constexpr size_t kPageSlots = 4096;

 private:
  struct VertexData {
    bool alive = false;
    std::vector<SymbolId> labels;  // sorted by id, unique
    std::vector<EdgeId> out_edges;
    std::vector<EdgeId> in_edges;
  };

  struct EdgeData {
    bool alive = false;
    VertexId src = kInvalidId;
    VertexId dst = kInvalidId;
    SymbolId type = kNoSymbol;
  };

  /// One element kind's slots, indexed by id, in pages of kPageSlots. A
  /// page is allocated when its first id is assigned and freed when its
  /// last assigned-and-live slot dies with every id in it assigned.
  /// `Slot` has an `alive` flag.
  template <typename Slot>
  class SlotPages {
   public:
    /// Ids assigned so far (the next id).
    size_t size() const { return size_; }

    /// The slot of `id` if it is assigned and alive, else null.
    const Slot* Find(int64_t id) const {
      if (id < 0 || static_cast<size_t>(id) >= size_) return nullptr;
      const Page* page = pages_[static_cast<size_t>(id) / kPageSlots].get();
      if (page == nullptr) return nullptr;
      const Slot& slot = page->slots[static_cast<size_t>(id) % kPageSlots];
      return slot.alive ? &slot : nullptr;
    }

    /// The slot of an assigned id on a live page.
    Slot& operator[](int64_t id) {
      return pages_[static_cast<size_t>(id) / kPageSlots]
          ->slots[static_cast<size_t>(id) % kPageSlots];
    }
    const Slot& operator[](int64_t id) const {
      return pages_[static_cast<size_t>(id) / kPageSlots]
          ->slots[static_cast<size_t>(id) % kPageSlots];
    }

    /// Assigns the next id to `slot` (which must be alive) and returns it.
    int64_t Append(Slot slot) {
      if (size_ % kPageSlots == 0) pages_.push_back(std::make_unique<Page>());
      pages_.back()->slots[size_ % kPageSlots] = std::move(slot);
      return static_cast<int64_t>(size_++);
    }

    /// Marks `id`'s slot dead, releasing what it holds; frees the page
    /// once every slot in it is assigned and dead. Invalidates references
    /// to the slot.
    void Kill(int64_t id) {
      const size_t index = static_cast<size_t>(id);
      std::unique_ptr<Page>& page = pages_[index / kPageSlots];
      page->slots[index % kPageSlots] = Slot();
      if (++page->dead == kPageSlots) page.reset();
    }

    /// Visits (id, slot) for every assigned slot on an allocated page,
    /// dead or alive, in increasing id order: freed pages are skipped.
    template <typename Fn>
    void ForEachSlot(const Fn& fn) const {
      for (size_t p = 0; p < pages_.size(); ++p) {
        const Page* page = pages_[p].get();
        if (page == nullptr) continue;
        const size_t end = std::min(kPageSlots, size_ - p * kPageSlots);
        for (size_t i = 0; i < end; ++i) {
          fn(static_cast<int64_t>(p * kPageSlots + i), page->slots[i]);
        }
      }
    }

    /// Bytes of the page table and the allocated pages (not of what the
    /// slots point to).
    size_t PageBytes() const {
      size_t bytes = pages_.capacity() * sizeof(std::unique_ptr<Page>);
      for (const std::unique_ptr<Page>& page : pages_) {
        if (page != nullptr) bytes += sizeof(Page);
      }
      return bytes;
    }

   private:
    struct Page {
      std::array<Slot, kPageSlots> slots;
      size_t dead = 0;  // assigned slots that died
    };
    std::vector<std::unique_ptr<Page>> pages_;
    size_t size_ = 0;
  };

  /// Mutable slots of live elements (asserted).
  VertexData& MutableVertex(VertexId id);
  EdgeData& MutableEdge(EdgeId id);
  /// The slot of `id`, or a shared empty one when `id` is not live.
  const VertexData& GetVertex(VertexId id) const;
  const EdgeData& GetEdge(EdgeId id) const;

  /// Materializes label names sorted by name (the string API promises
  /// name order, not id order).
  std::vector<std::string> LabelNames(
      const std::vector<SymbolId>& ids) const;

  /// Records one applied change: appended to the open batch, or emitted as a
  /// singleton delta; dropped while no listener is registered.
  void Record(GraphChange change);
  void NotifyListeners(GraphDelta delta);

  /// Shared implementation of vertex/edge property writes.
  Status SetPropertyImpl(bool is_vertex, int64_t id, std::string_view key,
                         Value value);

  SymbolTable symbols_;
  PropertyStore vertex_props_;
  PropertyStore edge_props_;

  SlotPages<VertexData> vertices_;
  SlotPages<EdgeData> edges_;
  size_t live_vertex_count_ = 0;
  size_t live_edge_count_ = 0;

  // Sorted posting lists indexed by label/type SymbolId.
  std::vector<std::vector<VertexId>> label_index_;
  std::vector<std::vector<EdgeId>> type_index_;

  bool in_batch_ = false;
  GraphDelta pending_;

  std::vector<GraphListener*> listeners_;
};

}  // namespace pgivm

#endif  // PGIVM_GRAPH_PROPERTY_GRAPH_H_
