// Tests of TupleMap, the open-addressing table behind every keyed Rete
// memory: a randomized run against std::unordered_map, the index's
// backward-shift deletes (including runs that wrap around its end), key
// representation, and the engine-level memories built on it — an empty
// join key (cross product) and aggregate state.

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "rete/delta.h"
#include "rete/tuple_map.h"

namespace pgivm {
namespace {

Tuple Row(int64_t k) { return Tuple({Value::Int(k)}); }

/// Erases `key` if present; returns whether it was.
bool Erase(TupleMap<int64_t>& table, const Tuple& key) {
  const size_t pos = table.Find(key);
  if (pos == TupleMap<int64_t>::npos) return false;
  table.EraseAt(pos);
  return true;
}

/// Checks `table` against `oracle`: same size, every oracle key found with
/// its value, every table entry in the oracle.
void ExpectSameContents(
    const TupleMap<int64_t>& table,
    const std::unordered_map<Tuple, int64_t, TupleHash>& oracle) {
  ASSERT_EQ(table.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    const int64_t* found = table.Get(key);
    ASSERT_NE(found, nullptr) << key.ToString();
    ASSERT_EQ(*found, value) << key.ToString();
  }
  for (const auto& [key, value] : table) {
    auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end()) << key.ToString();
    ASSERT_EQ(it->second, value);
  }
}

// Random inserts, updates and erases over key pools of several sizes, so
// the table crosses the linear/indexed boundary both ways, grows its index,
// empties and refills. Each pool is drawn at random, so over the seeds some
// probe runs wrap around the end of the index.
TEST(TupleMap, MatchesUnorderedMapUnderRandomOperations) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (size_t pool_size : {4, 12, 40, 300}) {
      std::mt19937_64 rng(seed * 1000 + pool_size);
      std::vector<Tuple> pool;
      for (size_t i = 0; i < pool_size; ++i) {
        pool.push_back(Row(static_cast<int64_t>(rng() >> 1)));
      }
      TupleMap<int64_t> table;
      std::unordered_map<Tuple, int64_t, TupleHash> oracle;
      for (int step = 0; step < 5000; ++step) {
        const Tuple& key = pool[rng() % pool_size];
        const uint64_t op = rng() % 10;
        if (op < 5) {
          auto [pos, inserted] = table.Insert(key);
          ASSERT_EQ(inserted, oracle.count(key) == 0);
          ASSERT_TRUE(table[pos].key == key);
          table.value(pos) += 1;
          oracle[key] += 1;
        } else if (op < 9) {
          ASSERT_EQ(Erase(table, key), oracle.erase(key) == 1);
        } else if (rng() % 50 == 0) {
          // Drain completely, erasing by position from the front.
          while (!table.empty()) table.EraseAt(0);
          oracle.clear();
          ASSERT_EQ(table.ApproxMemoryBytes(), 0u);
        }
        if (step % 17 == 0) ExpectSameContents(table, oracle);
        ASSERT_EQ(table.size(), oracle.size());
      }
      ExpectSameContents(table, oracle);
    }
  }
}

// Fills an index so that one probe run wraps from the last slot to the
// first, then erases every member of the run in turn: each erase must pull
// the later members back (across the wrap) so all stay reachable.
TEST(TupleMap, BackwardShiftAcrossTheEndOfTheIndex) {
  constexpr size_t kEntries = 12;
  constexpr size_t capacity = 32;  // the index 12 entries get
  // Keys homed at the last two slots and the first one, then filler keys
  // homed in the middle, so the run is last, last, last-1's..., 0, 0.
  std::vector<Tuple> tail;
  std::vector<Tuple> head;
  std::vector<Tuple> filler;
  for (int64_t k = 0; tail.size() < 4 || head.size() < 2 ||
                      filler.size() < kEntries - 6;
       ++k) {
    const Tuple key = Row(k);
    const size_t home = TupleMap<int64_t>::HomeSlot(key.Hash(), capacity);
    if (home >= capacity - 2 && tail.size() < 4) {
      tail.push_back(key);
    } else if (home == 0 && head.size() < 2) {
      head.push_back(key);
    } else if (home > 4 && home < capacity - 8 &&
               filler.size() < kEntries - 6) {
      filler.push_back(key);
    }
  }
  std::vector<Tuple> keys = filler;
  keys.insert(keys.end(), tail.begin(), tail.end());
  keys.insert(keys.end(), head.begin(), head.end());
  ASSERT_EQ(keys.size(), kEntries);

  // Erase the run's members in every rotation of the order.
  for (size_t first = 0; first < 6; ++first) {
    TupleMap<int64_t> table;
    std::unordered_map<Tuple, int64_t, TupleHash> oracle;
    for (const Tuple& key : keys) {
      table.value(table.Insert(key).first) = key.at(0).AsInt();
      oracle[key] = key.at(0).AsInt();
    }
    ASSERT_EQ(table.index_capacity(), capacity);
    std::vector<Tuple> run = tail;
    run.insert(run.end(), head.begin(), head.end());
    for (size_t i = 0; i < run.size(); ++i) {
      const Tuple& key = run[(first + i) % run.size()];
      ASSERT_TRUE(Erase(table, key));
      oracle.erase(key);
      ExpectSameContents(table, oracle);
    }
  }
}

TEST(TupleMap, IndexAppearsPastLinearMaxAndStorageIsReleasedWhenEmpty) {
  TupleMap<int64_t> table;
  EXPECT_EQ(table.ApproxMemoryBytes(), 0u);
  for (int64_t k = 0; k < 8; ++k) table.Insert(Row(k));
  EXPECT_EQ(table.index_capacity(), 0u);
  EXPECT_GT(table.ApproxMemoryBytes(), 0u);  // no index, still counted
  table.Insert(Row(8));
  EXPECT_EQ(table.index_capacity(), 32u);
  for (int64_t k = 9; k < 17; ++k) table.Insert(Row(k));
  EXPECT_EQ(table.index_capacity(), 64u);
  for (int64_t k = 0; k < 17; ++k) ASSERT_TRUE(Erase(table, Row(k)));
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.index_capacity(), 0u);
  EXPECT_EQ(table.ApproxMemoryBytes(), 0u);
  table.Insert(Row(3));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_NE(table.Get(Row(3)), nullptr);
}

TEST(TupleMap, CopiesAreIndependentAndEqualityIgnoresOrder) {
  TupleMap<int64_t> forward;
  TupleMap<int64_t> backward;
  for (int64_t k = 0; k < 20; ++k) {
    forward.value(forward.Insert(Row(k)).first) = k;
    backward.value(backward.Insert(Row(19 - k)).first) = 19 - k;
  }
  EXPECT_TRUE(forward == backward);
  TupleMap<int64_t> copy = forward;
  EXPECT_TRUE(copy == forward);
  Erase(copy, Row(5));
  EXPECT_FALSE(copy == forward);
  EXPECT_NE(forward.Get(Row(5)), nullptr);
  EXPECT_EQ(copy.Get(Row(5)), nullptr);
  for (int64_t k = 0; k < 20; ++k) {
    if (k != 5) {
      EXPECT_EQ(*copy.Get(Row(k)), k);
    }
  }
}

// Int(1) and Double(1.0) compare and hash equal: one key, and the first
// representation inserted is the one the table keeps.
TEST(TupleMap, EqualRepresentationsShareOneEntryAndKeepTheFirst) {
  const Tuple as_int({Value::Int(1)});
  const Tuple as_double({Value::Double(1.0)});
  ASSERT_TRUE(as_int == as_double);
  Bag bag;
  bag.Apply(as_int, 1);
  bag.Apply(as_double, 2);
  ASSERT_EQ(bag.distinct_size(), 1u);
  EXPECT_EQ(bag.Count(as_int), 3);
  EXPECT_TRUE(bag.counts()[0].key.at(0).is_int());
  // Also past the linear range, through the index.
  TupleMap<int64_t> table;
  for (int64_t k = 10; k < 30; ++k) table.Insert(Row(k));
  table.Insert(as_int);
  auto [pos, inserted] = table.Insert(as_double);
  EXPECT_FALSE(inserted);
  EXPECT_TRUE(table[pos].key.at(0).is_int());
  EXPECT_EQ(table.size(), 21u);
}

// ---- memories built on the table -------------------------------------------

std::shared_ptr<View> MustRegister(QueryEngine& engine,
                                   const std::string& query) {
  Result<std::shared_ptr<View>> view = engine.Register(query);
  EXPECT_TRUE(view.ok()) << query << " -> " << view.status();
  return view.ok() ? view.value() : nullptr;
}

void ExpectMatchesEvaluateOnce(QueryEngine& engine, const View& view,
                               const std::string& query, int step) {
  Result<std::vector<Tuple>> expected = engine.EvaluateOnce(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  std::vector<Tuple> actual = view.Snapshot();
  ASSERT_EQ(actual.size(), expected->size()) << "step " << step;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(actual[i] == (*expected)[i]) << "step " << step;
  }
}

int64_t NodeMemory(const View& view, const std::string& kind) {
  int64_t bytes = 0;
  for (const ReteNetwork::NodeMetrics& node :
       view.network().NodeMetricsSnapshot()) {
    if (kind == node.kind) bytes += static_cast<int64_t>(node.memory_bytes);
  }
  return bytes;
}

// Two disconnected patterns join on no column: every row of either side
// sits under the empty key tuple, one entry holding the whole side.
TEST(KeyedMemory, EmptyJoinKeyIsACrossProduct) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  const std::string query = "MATCH (a:A), (b:B) RETURN a.x AS x, b.y AS y";
  auto view = MustRegister(engine, query);
  ASSERT_NE(view, nullptr);
  ASSERT_NE(view->NetworkDebugString().find("Join[0 keys]"),
            std::string::npos)
      << view->NetworkDebugString();
  std::mt19937_64 rng(7);
  std::vector<VertexId> live;
  for (int step = 0; step < 120; ++step) {
    if (live.empty() || rng() % 3 != 0) {
      const bool is_a = rng() % 2 == 0;
      live.push_back(graph.AddVertex(
          {is_a ? "A" : "B"},
          {{is_a ? "x" : "y", Value::Int(static_cast<int64_t>(rng() % 5))}}));
    } else {
      const size_t victim = rng() % live.size();
      ASSERT_TRUE(graph.RemoveVertex(live[victim]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ExpectMatchesEvaluateOnce(engine, *view, query, step);
  }
}

// sum() reads only its running counters, so its state stays one small
// record per group however many distinct values pass through.
TEST(KeyedMemory, SumKeepsNoValueMultiset) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  const std::string query =
      "MATCH (n:N) RETURN n.g AS g, sum(n.x) AS s, count(n.x) AS c, "
      "avg(n.x) AS a";
  auto view = MustRegister(engine, query);
  ASSERT_NE(view, nullptr);
  std::vector<VertexId> vertices;
  for (int64_t i = 0; i < 2000; ++i) {
    vertices.push_back(graph.AddVertex(
        {"N"}, {{"g", Value::Int(i % 4)}, {"x", Value::Int(i * 7919)}}));
    if (i % 250 == 0) ExpectMatchesEvaluateOnce(engine, *view, query, i);
  }
  ExpectMatchesEvaluateOnce(engine, *view, query, 2000);
  // Four groups: a few hundred bytes of state, not one entry per value.
  EXPECT_GT(NodeMemory(*view, "Aggregate"), 0);
  EXPECT_LT(NodeMemory(*view, "Aggregate"), 4096);
  for (size_t i = 0; i < vertices.size(); i += 2) {
    ASSERT_TRUE(graph.RemoveVertex(vertices[i]).ok());
    if (i % 500 == 0) {
      ExpectMatchesEvaluateOnce(engine, *view, query, static_cast<int>(i));
    }
  }
  ExpectMatchesEvaluateOnce(engine, *view, query, -1);
  EXPECT_LT(NodeMemory(*view, "Aggregate"), 4096);
}

// min() and DISTINCT variants still keep the multiset they render from,
// and retract through it.
TEST(KeyedMemory, MinAndDistinctAggregatesRetract) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  const std::string query =
      "MATCH (n:N) RETURN n.g AS g, min(n.x) AS lo, "
      "count(DISTINCT n.x) AS d, sum(DISTINCT n.x) AS ds";
  auto view = MustRegister(engine, query);
  ASSERT_NE(view, nullptr);
  std::vector<VertexId> vertices;
  for (int64_t i = 0; i < 60; ++i) {
    vertices.push_back(graph.AddVertex(
        {"N"}, {{"g", Value::Int(i % 3)}, {"x", Value::Int(i % 7)}}));
  }
  ExpectMatchesEvaluateOnce(engine, *view, query, 0);
  for (size_t i = 0; i < vertices.size(); i += 3) {
    ASSERT_TRUE(graph.RemoveVertex(vertices[i]).ok());
    ExpectMatchesEvaluateOnce(engine, *view, query, static_cast<int>(i));
  }
}

}  // namespace
}  // namespace pgivm
