#include "engine/view.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "catalog/view_catalog.h"

namespace pgivm {

View::~View() {
  if (catalog_) catalog_->Deregister(this);
  // ViewSnapshots readers pinned stay valid: they own their epoch.
}

std::shared_ptr<const ViewSnapshot> View::Pin() const {
  // Profiling-off keeps this path free of clock reads: one relaxed bool
  // load is the entire overhead.
  const bool prof = profiling_flag_ != nullptr &&
                    profiling_flag_->load(std::memory_order_relaxed);
  const int64_t start_ns = prof ? MonotonicNowNs() : 0;
  ProductionNode::EpochPtr epoch = production_->PinSnapshot();
  std::shared_ptr<const ViewSnapshot> cached =
      std::atomic_load_explicit(&cache_, std::memory_order_acquire);
  if (cached != nullptr && cached->source_ == epoch) {
    if (prof) pin_hist_->Record(MonotonicNowNs() - start_ns);
    return cached;
  }

  // First reader of this epoch (or a racing peer — benign, see header):
  // build the immutable rendering and swap it in for later pins.
  auto built = std::make_shared<ViewSnapshot>();
  std::vector<Tuple> rows = ProductionNode::SortedRows(epoch->results);
  if (skip_ > 0) {
    size_t drop = std::min<size_t>(static_cast<size_t>(skip_), rows.size());
    rows.erase(rows.begin(), rows.begin() + static_cast<ptrdiff_t>(drop));
  }
  if (limit_ >= 0 && rows.size() > static_cast<size_t>(limit_)) {
    rows.resize(static_cast<size_t>(limit_));
  }
  built->source_ = std::move(epoch);
  built->rows_ = std::move(rows);
  std::shared_ptr<const ViewSnapshot> result = std::move(built);
  std::atomic_store_explicit(&cache_, result, std::memory_order_release);
  if (prof) pin_hist_->Record(MonotonicNowNs() - start_ns);
  return result;
}

std::shared_ptr<const Bag> View::results() const {
  ProductionNode::EpochPtr epoch = production_->PinSnapshot();
  const Bag* bag = &epoch->results;
  // Aliasing constructor: the returned pointer keeps the whole epoch alive.
  return std::shared_ptr<const Bag>(std::move(epoch), bag);
}

size_t View::ApproxMemoryBytes() const {
  if (catalog_) return catalog_->ViewMemoryBytes(this);
  return network_ != nullptr ? network_->ApproxMemoryBytes() : 0;
}

}  // namespace pgivm
