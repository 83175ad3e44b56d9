#include "rete/production_node.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <utility>

namespace pgivm {

void ProductionNode::OnDelta(int /*port*/, const Delta& delta,
                             Delta& /*out*/) {
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

bool ChangeLess(const DeltaEntry& a, const DeltaEntry& b) {
  return RowLess(a.tuple, b.tuple);
}

/// Merges `changes` (sorted by Compare) into the rows [first, last)
/// (sorted by Compare) as `out`, which must come out `size` rows long.
/// Rows are taken by dereferencing the iterators: plain iterators copy the
/// handles, move iterators move them.
///
/// Compare is coarser than ==: in rare cases (numbers that differ only
/// beyond double precision) distinct tuples compare equal. So each group
/// of Compare-equal changes is netted per ==-distinct tuple, and within the
/// matching run of rows a retraction drops a row == its tuple while an
/// insertion appends at the end of the run. Returns false when the changes
/// do not fit the rows — a retraction with no matching row, or a wrong
/// final size; the caller then sorts the bag instead.
template <typename RowIt>
bool MergeSortedRows(RowIt first, RowIt last, const Delta& changes,
                     size_t size, std::vector<Tuple>* out) {
  out->reserve(size);
  Delta net;  // one Compare-equal group, netted per ==-distinct tuple
  RowIt next_row = first;
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
    RowIt run = std::lower_bound(next_row, last, key, RowLess);
    out->insert(out->end(), next_row, run);
    for (next_row = run;
         next_row != last && Tuple::Compare(*next_row, key) == 0; ++next_row) {
      const Tuple& row = *next_row;  // binds, never moves
      auto retracted =
          std::find_if(net.begin(), net.end(), [&](const DeltaEntry& e) {
            return e.multiplicity < 0 && e.tuple == row;
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
  out->insert(out->end(), next_row, last);
  return out->size() == size;
}

/// Whether two change sets sorted by Compare share a Compare-equal key.
bool ShareKey(const Delta& a, const Delta& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    const int order = Tuple::Compare(i->tuple, j->tuple);
    if (order == 0) return true;
    if (order < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Deleter of published epochs. The writer sets `reuse` on the spare's
/// deleter just before it drops what it knows is the spare's last
/// reference: the epoch then outlives its control block and the writer
/// takes it back. That last drop is an acq_rel decrement of the count
/// every reader released its pin on, so it is the acquire that orders the
/// readers' last reads of the rows before the writer's reuse of them.
struct EpochDeleter {
  bool reuse = false;
  void operator()(const PublishedEpoch* epoch) const {
    if (!reuse) delete epoch;
  }
};

}  // namespace

ProductionNode::ProductionNode(Schema schema)
    // Readers may pin before the network ever commits (e.g. a view handle
    // handed out mid-registration); they see the empty bag, never null.
    : ReteNode(std::move(schema)),
      published_(new PublishedEpoch(), EpochDeleter()) {}

ProductionNode::PublishPath ProductionNode::PublishSnapshot(uint64_t epoch) {
  PublishPath path = PublishPath::kKept;
  if (published_version_ != version_) {
    // Writer-only: only this thread stores published_.
    EpochPtr previous =
        std::atomic_load_explicit(&published_, std::memory_order_relaxed);
    const size_t size = static_cast<size_t>(results_.total_count());
    std::unique_ptr<PublishedEpoch> next;
    if (!rebuild_) {
      std::stable_sort(pending_.begin(), pending_.end(), ChangeLess);
      // use_count 1: no reader holds the spare, and none can reach it to
      // pin it again, so the count cannot rise.
      if (spare_ != nullptr && spare_.use_count() == 1) {
        std::get_deleter<EpochDeleter>(spare_)->reuse = true;
        next.reset(const_cast<PublishedEpoch*>(spare_.get()));
        spare_.reset();  // the acquire (see EpochDeleter)
        std::vector<Tuple> rows;
        rows.swap(next->rows);
        auto first = std::make_move_iterator(rows.begin());
        auto last = std::make_move_iterator(rows.end());
        bool merged;
        if (!ShareKey(spare_changes_, pending_)) {
          // Disjoint keys: one merge of both sets (spare's first among
          // equals) orders every run as the two merges in turn would.
          Delta changes;
          changes.reserve(spare_changes_.size() + pending_.size());
          std::merge(spare_changes_.begin(), spare_changes_.end(),
                     pending_.begin(), pending_.end(),
                     std::back_inserter(changes), ChangeLess);
          merged = MergeSortedRows(first, last, changes, size, &next->rows);
        } else {
          std::vector<Tuple> current;
          merged = MergeSortedRows(first, last, spare_changes_,
                                   previous->rows.size(), &current) &&
                   MergeSortedRows(std::make_move_iterator(current.begin()),
                                   std::make_move_iterator(current.end()),
                                   pending_, size, &next->rows);
        }
        if (merged) path = PublishPath::kRecycled;
      } else {
        next = std::make_unique<PublishedEpoch>();
        if (MergeSortedRows(previous->rows.begin(), previous->rows.end(),
                            pending_, size, &next->rows)) {
          path = PublishPath::kCopied;
        }
      }
    }
    if (next == nullptr) next = std::make_unique<PublishedEpoch>();
    if (path == PublishPath::kKept) {
      next->rows = SortedRows(results_);
      path = PublishPath::kSorted;
    }
    next->epoch = epoch;
    // The previous epoch becomes the spare when its change set is known
    // and small enough; the spare it replaces (pinned, or it would have
    // been reused) retires.
    if (spare_ != nullptr) retired_.push_back(std::move(spare_));
    if (path != PublishPath::kSorted &&
        pending_.size() * kRowsPerSpareChange <= previous->rows.size()) {
      spare_ = std::move(previous);
      spare_changes_.swap(pending_);
    } else {
      retired_.push_back(std::move(previous));
      Delta().swap(spare_changes_);
    }
    Delta().swap(pending_);  // release the capacity, not just the entries
    rebuild_ = false;
    published_version_ = version_;
    std::atomic_store_explicit(
        &published_, EpochPtr(next.release(), EpochDeleter()),
        std::memory_order_release);
  }
  // Free the superseded epochs only this thread still holds (use_count 1:
  // no reader can reach them any more, so none can pin them again). Pinned
  // ones wait for a later commit.
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const EpochPtr& retired) {
                                  return retired.use_count() == 1;
                                }),
                 retired_.end());
  return path;
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
