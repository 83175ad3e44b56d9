#include "rete/production_node.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace pgivm {

void ProductionNode::OnDelta(int port, const Delta& delta) {
  (void)port;
  // The wave scheduler delivers consolidated, non-empty deltas.
  ++version_;
  for (const DeltaEntry& entry : delta) {
    results_.Apply(entry.tuple, entry.multiplicity);
  }
  if (!rebuild_) {
    pending_.insert(pending_.end(), delta.begin(), delta.end());
    // A buffer longer than the bag costs about what one sort of the bag
    // costs, and holds as much memory: drop it, the next publish rebuilds.
    if (pending_.size() > results_.distinct_size()) {
      Delta().swap(pending_);
      rebuild_ = true;
    }
  }
  if (!listeners_.empty()) {
    if (defer_notifications_) {
      // Mid-parallel-wave: listener code must not run on a pool worker.
      // Buffered here (single writer: one worker owns this node) and
      // flushed from OnWaveBarrier on the draining thread.
      deferred_notifications_.push_back(delta);
    } else {
      for (ViewChangeListener* listener : listeners_) {
        listener->OnViewDelta(delta);
      }
    }
  }
  // A production is terminal: account the delivery as its emission, so
  // TotalEmittedEntries covers the result changes too.
  AddEmittedEntries(static_cast<int64_t>(delta.size()));
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

namespace {

bool RowLess(const Tuple& a, const Tuple& b) {
  return Tuple::Compare(a, b) < 0;
}

/// Merges `changes` into `rows` (sorted by Tuple::Compare) as `out`, which
/// must come out `size` rows long. Sorts `changes` by Compare first.
///
/// Compare is coarser than ==: in rare cases (numbers that differ only
/// beyond double precision) distinct tuples compare equal. So each group
/// of Compare-equal changes is netted per ==-distinct tuple, and within the
/// matching run of rows a retraction drops a row == its tuple while an
/// insertion appends at the end of the run. Returns false when the changes
/// do not fit the rows — a retraction with no matching row, or a wrong
/// final size; the caller then sorts the bag instead.
bool MergeSortedRows(const std::vector<Tuple>& rows, Delta& changes,
                     size_t size, std::vector<Tuple>* out) {
  std::stable_sort(changes.begin(), changes.end(),
                   [](const DeltaEntry& a, const DeltaEntry& b) {
                     return RowLess(a.tuple, b.tuple);
                   });
  out->reserve(size);
  Delta net;  // one Compare-equal group, netted per ==-distinct tuple
  auto next_row = rows.begin();
  for (size_t i = 0; i < changes.size();) {
    const Tuple& key = changes[i].tuple;
    net.clear();
    for (; i < changes.size() && Tuple::Compare(changes[i].tuple, key) == 0;
         ++i) {
      const DeltaEntry& change = changes[i];
      auto same = std::find_if(net.begin(), net.end(),
                               [&](const DeltaEntry& e) {
                                 return e.tuple == change.tuple;
                               });
      if (same == net.end()) {
        net.push_back(change);
      } else {
        same->multiplicity += change.multiplicity;
      }
    }
    auto run = std::lower_bound(next_row, rows.end(), key, RowLess);
    out->insert(out->end(), next_row, run);
    for (next_row = run;
         next_row != rows.end() && Tuple::Compare(*next_row, key) == 0;
         ++next_row) {
      auto retracted =
          std::find_if(net.begin(), net.end(), [&](const DeltaEntry& e) {
            return e.multiplicity < 0 && e.tuple == *next_row;
          });
      if (retracted == net.end()) {
        out->push_back(*next_row);
      } else {
        ++retracted->multiplicity;
      }
    }
    for (const DeltaEntry& entry : net) {
      if (entry.multiplicity < 0) return false;
      out->insert(out->end(), static_cast<size_t>(entry.multiplicity),
                  entry.tuple);
    }
  }
  out->insert(out->end(), next_row, rows.end());
  return out->size() == size;
}

}  // namespace

bool ProductionNode::PublishSnapshot(uint64_t epoch) {
  const bool changed = published_version_ != version_;
  if (changed) {
    auto next = std::make_shared<PublishedEpoch>();
    next->epoch = epoch;
    // Writer-only: only this thread stores published_.
    EpochPtr previous =
        std::atomic_load_explicit(&published_, std::memory_order_relaxed);
    const size_t size = static_cast<size_t>(results_.total_count());
    if (rebuild_ ||
        !MergeSortedRows(previous->rows, pending_, size, &next->rows)) {
      next->rows = SortedRows(results_);
    }
    rebuild_ = false;
    Delta().swap(pending_);  // release the capacity, not just the entries
    published_version_ = version_;
    std::atomic_store_explicit(&published_, EpochPtr(std::move(next)),
                               std::memory_order_release);
    retired_.push_back(std::move(previous));
  }
  // Free the superseded epochs only this thread still holds (use_count 1:
  // no reader can reach them any more, so none can pin them again). Pinned
  // ones wait for a later commit.
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const EpochPtr& retired) {
                                  return retired.use_count() == 1;
                                }),
                 retired_.end());
  return changed;
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
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

void ProductionNode::RemoveListener(ViewChangeListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

}  // namespace pgivm
