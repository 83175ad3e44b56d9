#ifndef PGIVM_GRAPH_SYMBOL_TABLE_H_
#define PGIVM_GRAPH_SYMBOL_TABLE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pgivm {

/// Dense id of a name (label, edge type, or property key) interned in one
/// PropertyGraph's SymbolTable. Ids are assigned in first-intern order and
/// never reused or reassigned, so they are stable for the graph's lifetime —
/// but they depend on mutation order and are meaningful only within their
/// own graph. Anything that must be reproducible across graphs or processes
/// (fingerprints, serialized output) goes through SymbolTable::Name and
/// compares strings, never ids. Change records carry ids: they never leave
/// their graph.
using SymbolId = uint32_t;

/// "Not interned" sentinel: returned by SymbolRef::Resolve on a miss and
/// used as the unset value everywhere a SymbolId is stored lazily.
inline constexpr SymbolId kNoSymbol = 0xFFFFFFFFu;

/// Append-only intern table mapping names to dense SymbolIds. Labels, edge
/// types, and property keys share one namespace (a graph has few enough
/// distinct names that separate tables would only complicate callers).
///
/// Thread-compatibility mirrors PropertyGraph: const methods (Lookup, Name,
/// size) are safe to call concurrently; Intern mutates and requires the
/// same external single-writer synchronization as graph mutations.
class SymbolTable {
 public:
  SymbolTable() = default;

  // Not copyable: lookups hold string_views into names_.
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id of `name`, interning it on first sight. Idempotent:
  /// re-interning an existing name returns its original id.
  SymbolId Intern(std::string_view name);

  /// Id of `name` if it has ever been interned. Allocation-free (the index
  /// is keyed by string_view), so it is safe on per-tuple paths.
  std::optional<SymbolId> Lookup(std::string_view name) const;

  /// The interned spelling of `id`. The reference stays valid for the
  /// table's lifetime: names live in a deque, so growth never moves them.
  const std::string& Name(SymbolId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

  size_t ApproxMemoryBytes() const;

 private:
  std::deque<std::string> names_;
  // Keys are views into names_; deque growth never invalidates them.
  std::unordered_map<std::string_view, SymbolId> index_;
};

/// A name plus its lazily resolved SymbolId: the "resolve once at plan
/// time" handle Rete nodes hold for their required labels, edge types, and
/// extracted property keys. Resolution is monotone — ids are append-only
/// and never change — so caching the first successful Lookup is sound, and
/// a miss (kNoSymbol) simply means no graph element has used the name yet:
/// exactly the "matches nothing / property absent" semantics the caller
/// wants, and worth re-probing on the next call.
///
/// Thread-safe: Resolve is const and may be called concurrently. Its
/// callers today are source nodes translating on the writer thread, but
/// the handle assumes no single caller: racing callers compute the same
/// id, and the cache is a relaxed atomic because the value is derivable
/// from the name alone.
class SymbolRef {
 public:
  SymbolRef() = default;
  explicit SymbolRef(std::string name) : name_(std::move(name)) {}

  SymbolRef(const SymbolRef& other)
      : name_(other.name_),
        cached_(other.cached_.load(std::memory_order_relaxed)) {}
  SymbolRef& operator=(const SymbolRef& other) {
    name_ = other.name_;
    cached_.store(other.cached_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  /// The cached id, or the result of a fresh Lookup (cached on hit), or
  /// kNoSymbol while the name has never been interned in `symbols`.
  SymbolId Resolve(const SymbolTable& symbols) const {
    SymbolId id = cached_.load(std::memory_order_relaxed);
    if (id != kNoSymbol) return id;
    if (std::optional<SymbolId> found = symbols.Lookup(name_)) {
      cached_.store(*found, std::memory_order_relaxed);
      return *found;
    }
    return kNoSymbol;
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  mutable std::atomic<SymbolId> cached_{kNoSymbol};
};

/// True when one of `refs` resolves to `symbol`. An unresolved ref (name
/// never interned) cannot equal an interned symbol.
inline bool AnyResolvesTo(const std::vector<SymbolRef>& refs,
                          const SymbolTable& symbols, SymbolId symbol) {
  for (const SymbolRef& ref : refs) {
    if (ref.Resolve(symbols) == symbol) return true;
  }
  return false;
}

}  // namespace pgivm

#endif  // PGIVM_GRAPH_SYMBOL_TABLE_H_
