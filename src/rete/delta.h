#ifndef PGIVM_RETE_DELTA_H_
#define PGIVM_RETE_DELTA_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rete/tuple.h"
#include "rete/tuple_map.h"

namespace pgivm {

/// One signed bag update: `multiplicity` copies of `tuple` are inserted
/// (positive) or deleted (negative). Never zero.
struct DeltaEntry {
  Tuple tuple;
  int64_t multiplicity;
};

/// An ordered batch of bag updates flowing along a Rete edge. Entries may
/// partially cancel; Consolidate() coalesces them.
using Delta = std::vector<DeltaEntry>;

/// Default `small_cutoff` for Consolidate: payloads of 1–2 entries — by far
/// the most common case under single-change graph deltas — skip the
/// sort-based path entirely.
inline constexpr size_t kDefaultConsolidationCutoff = 2;

/// Coalesces entries with equal tuples and drops zero-multiplicity residue,
/// in place and without allocating. The result is in canonical order
/// (tuple hash, ties lexicographic), not arrival order — a consolidated
/// delta carries each tuple once, so order is semantically irrelevant.
/// The batched propagation scheduler applies this to every queued delta
/// between waves, so inverse pairs (+t/−t) cancel before they are ever
/// delivered downstream.
///
/// Payloads of `small_cutoff` entries or fewer take a pairwise-merge fast
/// path instead of the sort machinery; the result is bit-identical to the
/// sort path (same canonical order), so the cutoff is purely a performance
/// knob — tiny waves don't amortize a sort.
void Consolidate(Delta& delta,
                 size_t small_cutoff = kDefaultConsolidationCutoff);

/// True if `delta` is already in Consolidate's canonical form (strictly
/// ascending canonical order, no zero multiplicities).
bool IsConsolidated(const Delta& delta);

std::string DeltaToString(const Delta& delta);

/// Counted bag of tuples: the memory unit of stateful Rete nodes.
/// Counts are always positive; applying a change that would drive a count
/// negative is a propagation bug (asserted). Iterates in TupleMap's dense
/// order; equality ignores order.
class Bag {
 public:
  using Map = TupleMap<int64_t>;

  /// Adds `multiplicity` (may be negative) to `tuple`'s count. Returns
  /// {old_count, new_count}; erases the entry when it reaches zero.
  std::pair<int64_t, int64_t> Apply(const Tuple& tuple, int64_t multiplicity);

  int64_t Count(const Tuple& tuple) const;

  /// Number of distinct tuples.
  size_t distinct_size() const { return counts_.size(); }

  /// Sum of all multiplicities.
  int64_t total_count() const { return total_; }

  const Map& counts() const { return counts_; }

  /// Heap bytes: the table's entries, index and tuple blocks.
  size_t ApproxMemoryBytes() const { return counts_.ApproxMemoryBytes(); }

 private:
  Map counts_;
  int64_t total_ = 0;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_DELTA_H_
