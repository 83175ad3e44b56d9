#ifndef PGIVM_RETE_SHARDED_MAP_H_
#define PGIVM_RETE_SHARDED_MAP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "rete/delta.h"
#include "rete/tuple.h"

namespace pgivm {

/// Number of hash shards a morsel-partitionable node memory is split into.
/// Fixed (rather than equal to the partition count) so the same physical
/// layout serves any partition count up to kMorselShards without
/// resharding: a morsel split into K partitions assigns every shard `s` to
/// partition `s % K`, so two equal keys always land in the same partition
/// and a partition's memory writes never leave its own shards.
inline constexpr uint32_t kMorselShards = 64;

/// Shard owning `hash`. The Fibonacci multiply spreads low-entropy hashes
/// (small integer ids, short key tuples) across the top-6 bits evenly.
inline uint32_t MorselShardOfHash(size_t hash) {
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >> 58);
}

/// Partition (in [0, partitions)) owning `hash` when work is split
/// `partitions` ways. Shard-granular ownership: see kMorselShards.
inline uint32_t MorselPartitionOfHash(size_t hash, uint32_t partitions) {
  return MorselShardOfHash(hash) % partitions;
}

/// A Tuple-keyed hash map split into kMorselShards sub-maps by key hash.
/// Drop-in for the node memories that morsel partitions mutate
/// concurrently: lookups cost one extra index, and partitions touching
/// only keys they own can never share a bucket chain or trigger a rehash
/// visible to another partition.
template <typename V>
class ShardedTupleMap {
 public:
  using Map = std::unordered_map<Tuple, V, TupleHash>;

  Map& shard(const Tuple& key) {
    return shards_[MorselShardOfHash(key.Hash())];
  }
  const Map& shard(const Tuple& key) const {
    return shards_[MorselShardOfHash(key.Hash())];
  }

  /// Pointer to the mapped value, or nullptr when absent.
  V* Find(const Tuple& key) {
    Map& map = shard(key);
    auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  }
  const V* Find(const Tuple& key) const {
    const Map& map = shard(key);
    auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  }

  size_t size() const {
    size_t total = 0;
    for (const Map& map : shards_) total += map.size();
    return total;
  }

  /// Visits every (key, value) pair; shard-major order (not deterministic
  /// across runs — callers needing canonical order sort, as they already
  /// did for a single unordered_map).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Map& map : shards_) {
      for (const auto& [key, value] : map) fn(key, value);
    }
  }

  std::array<Map, kMorselShards>& shards() { return shards_; }
  const std::array<Map, kMorselShards>& shards() const { return shards_; }

 private:
  std::array<Map, kMorselShards> shards_;
};

/// An integer-id-keyed map (graph-source asserted state) split the same
/// way, keyed by the raw id so translation partitions own disjoint entity
/// sets.
template <typename Id, typename V>
class ShardedIdMap {
 public:
  using Map = std::unordered_map<Id, V>;

  static uint32_t ShardOf(Id id) {
    return MorselShardOfHash(static_cast<size_t>(id));
  }

  Map& shard(Id id) { return shards_[ShardOf(id)]; }
  const Map& shard(Id id) const { return shards_[ShardOf(id)]; }

  V* Find(Id id) {
    Map& map = shard(id);
    auto it = map.find(id);
    return it == map.end() ? nullptr : &it->second;
  }
  const V* Find(Id id) const {
    const Map& map = shard(id);
    auto it = map.find(id);
    return it == map.end() ? nullptr : &it->second;
  }

  size_t size() const {
    size_t total = 0;
    for (const Map& map : shards_) total += map.size();
    return total;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Map& map : shards_) {
      for (const auto& [id, value] : map) fn(id, value);
    }
  }

  std::array<Map, kMorselShards>& shards() { return shards_; }
  const std::array<Map, kMorselShards>& shards() const { return shards_; }

 private:
  std::array<Map, kMorselShards> shards_;
};

/// DistinctNode's support bag, sharded by tuple hash.
class ShardedBag {
 public:
  Bag& shard(const Tuple& tuple) {
    return shards_[MorselShardOfHash(tuple.Hash())];
  }
  const Bag& shard(const Tuple& tuple) const {
    return shards_[MorselShardOfHash(tuple.Hash())];
  }

  size_t distinct_size() const {
    size_t total = 0;
    for (const Bag& bag : shards_) total += bag.distinct_size();
    return total;
  }

  size_t ApproxMemoryBytes() const {
    size_t total = 0;
    for (const Bag& bag : shards_) total += bag.ApproxMemoryBytes();
    return total;
  }

  std::array<Bag, kMorselShards>& shards() { return shards_; }
  const std::array<Bag, kMorselShards>& shards() const { return shards_; }

 private:
  std::array<Bag, kMorselShards> shards_;
};

}  // namespace pgivm

#endif  // PGIVM_RETE_SHARDED_MAP_H_
