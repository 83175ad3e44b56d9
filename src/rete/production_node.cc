#include "rete/production_node.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace pgivm {

void ProductionNode::OnDelta(int port, const Delta& delta) {
  (void)port;
  // The wave scheduler delivers already-consolidated deltas; only
  // re-normalize the raw ones a sink-less foreign upstream (a unit-test
  // probe, another network's node) hands over directly.
  Delta normalized;
  const Delta* net = &delta;
  if (!IsConsolidated(delta)) {
    normalized = Normalize(delta);
    net = &normalized;
  }
  if (net->empty()) return;
  ++version_;
  for (const DeltaEntry& entry : *net) {
    results_.Apply(entry.tuple, entry.multiplicity);
  }
  if (notify_listeners_ && !listeners_.empty()) {
    if (defer_notifications_) {
      // Mid-parallel-wave: listener code must not run on a pool worker.
      // Buffered here (single writer: one worker owns this node) and
      // flushed from OnWaveBarrier on the draining thread.
      deferred_notifications_.push_back(*net);
    } else {
      for (ViewChangeListener* listener : listeners_) {
        listener->OnViewDelta(*net);
      }
    }
  }
  Emit(*net);  // Views can be chained (used by tests).
}

void ProductionNode::OnWaveBarrier() {
  if (deferred_notifications_.empty()) return;
  for (const Delta& delta : deferred_notifications_) {
    for (ViewChangeListener* listener : listeners_) {
      listener->OnViewDelta(delta);
    }
  }
  deferred_notifications_.clear();
}

bool ProductionNode::PublishSnapshot(uint64_t epoch, size_t retention) {
  // Unchanged since the last commit: keep the previous epoch object.
  if (published_version_ == version_) return false;
  auto next = std::make_shared<PublishedEpoch>();
  next->epoch = epoch;
  next->version = version_;
  next->results = results_;
  published_version_ = version_;
  if (retention > 0) {
    retained_.push_back(
        std::atomic_load_explicit(&published_, std::memory_order_relaxed));
    while (retained_.size() > retention) retained_.pop_front();
  }
  std::atomic_store_explicit(&published_, EpochPtr(std::move(next)),
                             std::memory_order_release);
  return true;
}

ProductionNode::EpochPtr ProductionNode::PinSnapshot() const {
  return std::atomic_load_explicit(&published_, std::memory_order_acquire);
}

std::vector<Tuple> ProductionNode::SortedRows(const Bag& bag) {
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(bag.total_count()));
  for (const auto& [tuple, count] : bag.counts()) {
    for (int64_t i = 0; i < count; ++i) rows.push_back(tuple);
  }
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return Tuple::Compare(a, b) < 0;
  });
  return rows;
}

std::vector<Tuple> ProductionNode::SortedSnapshot() const {
  return SortedRows(results_);
}

void ProductionNode::RemoveListener(ViewChangeListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

}  // namespace pgivm
