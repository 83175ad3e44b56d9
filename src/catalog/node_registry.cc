#include "catalog/node_registry.h"

namespace pgivm {

// CanonicalPlanKey lives in algebra/plan_fingerprint.cc: the canonicalize
// pass orders sub-plans and expressions by the same rendering the registry
// fingerprints with, so the two must share one implementation.

const NodeRegistry::Entry* NodeRegistry::Lookup(const std::string& key) {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

const NodeRegistry::Entry* NodeRegistry::Find(const std::string& key) const {
  auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &it->second;
}

void NodeRegistry::Insert(const std::string& key, ReteNode* node,
                          std::vector<ReteNode*> support) {
  key_of_root_.emplace(node, key);
  by_key_[key] = Entry{node, std::move(support)};
}

void NodeRegistry::RemoveNodes(const std::vector<ReteNode*>& nodes) {
  for (const ReteNode* node : nodes) {
    auto it = key_of_root_.find(node);
    if (it == key_of_root_.end()) continue;
    by_key_.erase(it->second);
    key_of_root_.erase(it);
  }
}

}  // namespace pgivm
