#ifndef PGIVM_CATALOG_NODE_REGISTRY_H_
#define PGIVM_CATALOG_NODE_REGISTRY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/operator.h"
// CanonicalPlanKey — the fingerprint this registry is keyed by. It moved to
// the algebra layer so the canonicalize pass (which must order sub-plans by
// the exact rendering the registry fingerprints with) can share it; the
// include keeps every registry client compiling unchanged.
#include "algebra/plan_fingerprint.h"

namespace pgivm {

class ReteNode;

/// Fingerprint → instantiated Rete sub-network. Owned by a ViewCatalog; the
/// network builder consults it before constructing a node so that views
/// whose plans share a prefix reuse the same nodes. The registry stores,
/// per entry, the sub-plan root and its full *support* (the root plus every
/// transitive upstream node): a view reusing the root must take a reference
/// on the whole sub-network, or tearing down the first owner would free
/// nodes the reuser still depends on.
///
/// A Lookup hit is also the incremental-priming partition point: the hit's
/// nodes are live and primed (their memories replay into the new view's
/// consumers), while misses are built fresh and primed from the graph.
///
/// Thread-safety: none — mutated only from the catalog's registration/
/// teardown path, which runs on the engine-owning thread.
///
/// Lifecycle: entries never outlive their nodes. RemoveNodes must be
/// called whenever refcount-zero roots are destroyed.
class NodeRegistry {
 public:
  struct Entry {
    ReteNode* node = nullptr;        // sub-plan root
    std::vector<ReteNode*> support;  // root + transitive upstream nodes
  };

  /// Returns the entry for `key`, or nullptr. Counts a hit / miss — the
  /// catalog's sharing statistics.
  const Entry* Lookup(const std::string& key);

  /// Non-counting lookup for diagnostics (ExplainAnalyze resolves plan
  /// operators to live nodes without skewing the hit/miss statistics).
  const Entry* Find(const std::string& key) const;

  /// Registers a freshly built sub-plan root. `key` must not be present.
  void Insert(const std::string& key, ReteNode* node,
              std::vector<ReteNode*> support);

  /// Drops every entry rooted at one of `nodes` (no-op for nodes that are
  /// not entry roots). Called when refcount-zero nodes are torn down; a
  /// surviving entry can never reference a removed node (any view that hit
  /// the entry also held references on its whole support).
  void RemoveNodes(const std::vector<ReteNode*>& nodes);

  size_t size() const { return by_key_.size(); }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  std::unordered_map<std::string, Entry> by_key_;
  std::unordered_map<const ReteNode*, std::string> key_of_root_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace pgivm

#endif  // PGIVM_CATALOG_NODE_REGISTRY_H_
