#include "rete/delta.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace pgivm {

namespace {

/// The canonical consolidation order: cached tuple hash, ties broken
/// lexicographically. Shared by the sort path and the small fast path so
/// both produce byte-identical results.
bool CanonicalLess(const DeltaEntry& a, const DeltaEntry& b) {
  size_t ha = a.tuple.Hash();
  size_t hb = b.tuple.Hash();
  if (ha != hb) return ha < hb;
  return Tuple::Compare(a.tuple, b.tuple) < 0;
}

/// Pairwise-merge consolidation for tiny payloads: O(k²) equality scans and
/// an insertion sort beat the sort machinery for the 1–2-entry deltas that
/// dominate single-change propagation. Produces exactly the canonical form
/// the sort path produces — including which *representation* survives a
/// merge of equal-but-distinct tuples (Int(1) vs Double(1.0) compare and
/// hash equal): both paths keep the first arrival.
void ConsolidateSmall(Delta& delta) {
  // Stable first-occurrence merge: entry i folds into the earliest equal
  // entry already kept, so surviving order (and representation) is arrival
  // order — matching the stable_sort path below.
  size_t kept = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    bool merged = false;
    for (size_t j = 0; j < kept; ++j) {
      if (delta[j].tuple == delta[i].tuple) {
        delta[j].multiplicity += delta[i].multiplicity;
        merged = true;
        break;
      }
    }
    if (!merged) {
      if (kept != i) delta[kept] = std::move(delta[i]);
      ++kept;
    }
  }
  delta.resize(kept);
  size_t write = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i].multiplicity == 0) continue;
    if (write != i) delta[write] = std::move(delta[i]);
    ++write;
  }
  delta.resize(write);
  // Insertion sort into canonical order (entries are already distinct).
  for (size_t i = 1; i < delta.size(); ++i) {
    DeltaEntry entry = std::move(delta[i]);
    size_t j = i;
    while (j > 0 && CanonicalLess(entry, delta[j - 1])) {
      delta[j] = std::move(delta[j - 1]);
      --j;
    }
    delta[j] = std::move(entry);
  }
}

}  // namespace

void Consolidate(Delta& delta, size_t small_cutoff) {
  if (delta.size() <= 1) {
    if (delta.size() == 1 && delta[0].multiplicity == 0) delta.clear();
    return;
  }
  if (delta.size() <= small_cutoff) {
    ConsolidateSmall(delta);
    return;
  }
  // Sort into a canonical order (cached tuple hash, ties broken
  // lexicographically) and fold equal-tuple runs. This runs on every wave
  // of batched propagation, so avoiding per-entry hash-table nodes matters
  // more than preserving arrival order — normalized deltas carry each
  // tuple once, so their order is semantically irrelevant. The sort is
  // *stable* so that when equal-but-distinct representations merge
  // (Int(1) vs Double(1.0) compare equal), the first arrival survives —
  // deterministically, and identically to the small fast path above. This
  // is a knowing trade: stable_sort may allocate a temporary buffer
  // (measured ~10-20% slower than std::sort here), but representation
  // determinism is what keeps parallel waves bit-identical to serial, and
  // the dominant 1-2-entry payloads never reach this path.
  std::stable_sort(delta.begin(), delta.end(), CanonicalLess);
  size_t write = 0;
  for (size_t i = 0; i < delta.size();) {
    size_t j = i + 1;
    int64_t multiplicity = delta[i].multiplicity;
    while (j < delta.size() && delta[j].tuple == delta[i].tuple) {
      multiplicity += delta[j].multiplicity;
      ++j;
    }
    if (multiplicity != 0) {
      if (write != i) delta[write] = std::move(delta[i]);
      delta[write].multiplicity = multiplicity;
      ++write;
    }
    i = j;
  }
  delta.resize(write);
}

bool IsConsolidated(const Delta& delta) {
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i].multiplicity == 0) return false;
    if (i == 0) continue;
    size_t prev = delta[i - 1].tuple.Hash();
    size_t cur = delta[i].tuple.Hash();
    if (prev < cur) continue;
    if (prev > cur ||
        Tuple::Compare(delta[i - 1].tuple, delta[i].tuple) >= 0) {
      return false;
    }
  }
  return true;
}

std::string DeltaToString(const Delta& delta) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < delta.size(); ++i) {
    if (i > 0) os << ", ";
    os << (delta[i].multiplicity > 0 ? "+" : "") << delta[i].multiplicity
       << "x" << delta[i].tuple.ToString();
  }
  os << "}";
  return os.str();
}

std::pair<int64_t, int64_t> Bag::Apply(const Tuple& tuple,
                                       int64_t multiplicity) {
  const size_t pos = counts_.Insert(tuple).first;
  int64_t& count = counts_.value(pos);
  const int64_t old_count = count;
  count += multiplicity;
  const int64_t new_count = count;
  assert(new_count >= 0 && "bag count went negative: upstream emitted a "
                           "retraction for a tuple it never asserted");
  total_ += multiplicity;
  if (new_count == 0) counts_.EraseAt(pos);
  return {old_count, new_count};
}

int64_t Bag::Count(const Tuple& tuple) const {
  const int64_t* count = counts_.Get(tuple);
  return count == nullptr ? 0 : *count;
}

}  // namespace pgivm
