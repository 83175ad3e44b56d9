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
  const bool prof = network_->profiling();
  const int64_t start_ns = prof ? MonotonicNowNs() : 0;
  ProductionNode::EpochPtr epoch = production_->PinSnapshot();
  std::shared_ptr<const ViewSnapshot> cached =
      std::atomic_load_explicit(&cache_, std::memory_order_acquire);
  if (cached != nullptr && cached->source_ == epoch) {
    if (prof) pin_hist_->Record(MonotonicNowNs() - start_ns);
    return cached;
  }

  // First reader of this epoch (or a racing peer — benign, see header):
  // wrap it, slicing SKIP/LIMIT, and swap it in for later pins.
  auto built = std::make_shared<ViewSnapshot>();
  const std::vector<Tuple>& rows = epoch->rows;
  const auto [begin, end] = SkipLimitRange(rows.size(), skip_, limit_);
  if (begin == 0 && end == rows.size()) {
    built->rows_ = &rows;
  } else {
    built->slice_.assign(rows.begin() + static_cast<ptrdiff_t>(begin),
                         rows.begin() + static_cast<ptrdiff_t>(end));
    built->rows_ = &built->slice_;
  }
  built->source_ = std::move(epoch);
  std::shared_ptr<const ViewSnapshot> result = std::move(built);
  std::atomic_store_explicit(&cache_, result, std::memory_order_release);
  if (prof) pin_hist_->Record(MonotonicNowNs() - start_ns);
  return result;
}

std::pair<size_t, size_t> SkipLimitRange(size_t rows, int64_t skip,
                                         int64_t limit) {
  const size_t begin =
      skip > 0 ? std::min(rows, static_cast<size_t>(skip)) : 0;
  const size_t end =
      limit >= 0 ? std::min(rows, begin + static_cast<size_t>(limit)) : rows;
  return {begin, end};
}

size_t View::ApproxMemoryBytes() const {
  if (catalog_) return catalog_->ViewMemoryBytes(this);
  return network_ != nullptr ? network_->ApproxMemoryBytes() : 0;
}

}  // namespace pgivm
