// Storage-layer unit tests: the SymbolTable intern contract (idempotence,
// miss behaviour, growth with stable name references), SymbolRef's lazy
// resolve-once cache, and the PropertyColumn/PropertyStore typed-lane +
// overflow semantics the bit-identity harnesses depend on.

#include "graph/symbol_table.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/property_columns.h"
#include "graph/property_graph.h"

namespace pgivm {
namespace {

// ---- SymbolTable -----------------------------------------------------------

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  SymbolId a = table.Intern("alpha");
  SymbolId b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.Intern("beta"), b);
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, IdsAreDenseInFirstInternOrder) {
  SymbolTable table;
  EXPECT_EQ(table.Intern("first"), 0u);
  EXPECT_EQ(table.Intern("second"), 1u);
  EXPECT_EQ(table.Intern("first"), 0u);
  EXPECT_EQ(table.Intern("third"), 2u);
  EXPECT_EQ(table.Name(0), "first");
  EXPECT_EQ(table.Name(1), "second");
  EXPECT_EQ(table.Name(2), "third");
}

TEST(SymbolTableTest, LookupMissIsEmptyAndDoesNotIntern) {
  SymbolTable table;
  EXPECT_FALSE(table.Lookup("ghost").has_value());
  EXPECT_EQ(table.size(), 0u);
  SymbolId id = table.Intern("ghost");
  ASSERT_TRUE(table.Lookup("ghost").has_value());
  EXPECT_EQ(*table.Lookup("ghost"), id);
  // The empty string is a valid (if odd) name, distinct from a miss.
  EXPECT_FALSE(table.Lookup("").has_value());
  SymbolId empty = table.Intern("");
  EXPECT_EQ(*table.Lookup(""), empty);
}

TEST(SymbolTableTest, GrowthKeepsNameReferencesAndIdsStable) {
  SymbolTable table;
  SymbolId first = table.Intern("anchor");
  const std::string* anchor = &table.Name(first);
  size_t small_bytes = table.ApproxMemoryBytes();
  for (int i = 0; i < 10000; ++i) {
    table.Intern("sym" + std::to_string(i));
  }
  EXPECT_EQ(table.size(), 10001u);
  // The deque never moves stored names; ids never shift.
  EXPECT_EQ(&table.Name(first), anchor);
  EXPECT_EQ(*anchor, "anchor");
  EXPECT_EQ(*table.Lookup("anchor"), first);
  EXPECT_EQ(*table.Lookup("sym9999"), 10000u);
  EXPECT_GT(table.ApproxMemoryBytes(), small_bytes);
}

// ---- SymbolRef -------------------------------------------------------------

TEST(SymbolRefTest, MissResolvesToNoSymbolAndIsReprobed) {
  SymbolTable table;
  SymbolRef ref("later");
  // A miss is not cached: the name may be interned by a later mutation.
  EXPECT_EQ(ref.Resolve(table), kNoSymbol);
  EXPECT_EQ(ref.Resolve(table), kNoSymbol);
  SymbolId id = table.Intern("later");
  EXPECT_EQ(ref.Resolve(table), id);
  // Now cached: repeated resolves return the same id.
  EXPECT_EQ(ref.Resolve(table), id);
}

TEST(SymbolRefTest, CopyCarriesNameAndCache) {
  SymbolTable table;
  SymbolId id = table.Intern("copied");
  SymbolRef original("copied");
  EXPECT_EQ(original.Resolve(table), id);
  SymbolRef copy(original);
  EXPECT_EQ(copy.name(), "copied");
  EXPECT_EQ(copy.Resolve(table), id);
  SymbolRef assigned;
  assigned = original;
  EXPECT_EQ(assigned.Resolve(table), id);
}

TEST(SymbolRefTest, ConcurrentResolveIsRaceFree) {
  // Resolve is const and promises concurrent callers a race-free cache;
  // all racers must agree. Run under TSAN via the `storage` label for the
  // data-race proof.
  SymbolTable table;
  SymbolId id = table.Intern("shared");
  SymbolRef ref("shared");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ref, &table, id] {
      for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(ref.Resolve(table), id);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// ---- PropertyColumn --------------------------------------------------------

TEST(PropertyColumnTest, LaneAdoptsFirstScalarType) {
  PropertyColumn column;
  EXPECT_TRUE(column.empty());
  column.Set(0, Value::Int(7));
  column.Set(1, Value::Int(-3));
  EXPECT_EQ(column.Get(0), Value::Int(7));
  EXPECT_EQ(column.Get(1), Value::Int(-3));
  EXPECT_TRUE(column.Has(0));
  EXPECT_FALSE(column.Has(2));
  EXPECT_TRUE(column.Get(2).is_null());
  EXPECT_FALSE(column.empty());
}

TEST(PropertyColumnTest, MismatchedTypesKeepExactFidelityViaOverflow) {
  // Value::Compare treats Int(1) == Double(1.0), so storage must never
  // coerce: the value read back is the exact Value written, or downstream
  // arithmetic would silently change.
  PropertyColumn column;
  column.Set(0, Value::Int(1));           // lane adopts Int64
  column.Set(1, Value::Double(1.0));      // must NOT become Int(1)
  column.Set(2, Value::String("one"));
  Value read = column.Get(1);
  EXPECT_TRUE(read.is_double()) << read.ToString();
  EXPECT_EQ(read, Value::Double(1.0));
  EXPECT_TRUE(column.Get(0).is_int());
  EXPECT_EQ(column.Get(2), Value::String("one"));
}

TEST(PropertyColumnTest, OverwriteMovesValueBetweenLaneAndOverflow) {
  PropertyColumn column;
  column.Set(0, Value::Int(1));
  column.Set(0, Value::String("now a string"));  // lane -> overflow
  EXPECT_EQ(column.Get(0), Value::String("now a string"));
  column.Set(0, Value::Int(2));  // overflow -> lane again
  EXPECT_EQ(column.Get(0), Value::Int(2));
  EXPECT_TRUE(column.Get(0).is_int());
}

TEST(PropertyColumnTest, EraseClearsBothPaths) {
  PropertyColumn column;
  column.Set(3, Value::Bool(true));       // lane adopts Bool
  column.Set(4, Value::String("spill"));  // overflow
  column.Erase(3);
  column.Erase(4);
  column.Erase(99);  // absent: no-op
  EXPECT_FALSE(column.Has(3));
  EXPECT_FALSE(column.Has(4));
  EXPECT_TRUE(column.Get(3).is_null());
  EXPECT_TRUE(column.empty());
}

TEST(PropertyColumnTest, SparseHighIdsWork) {
  PropertyColumn column;
  column.Set(100000, Value::Double(2.5));
  EXPECT_EQ(column.Get(100000), Value::Double(2.5));
  EXPECT_FALSE(column.Has(99999));
  EXPECT_GT(column.ApproxMemoryBytes(), 0u);
}

// ---- PropertyStore ---------------------------------------------------------

TEST(PropertyStoreTest, SetGetEraseCollect) {
  SymbolTable symbols;
  PropertyStore store(&symbols);
  SymbolId x = symbols.Intern("x");
  SymbolId name = symbols.Intern("name");
  SymbolId tags = symbols.Intern("tags");

  store.Set(0, x, Value::Int(5));
  store.Set(0, name, Value::String("zero"));
  store.Set(1, tags, Value::List({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(store.Get(0, x), Value::Int(5));
  EXPECT_EQ(store.Get(0, name), Value::String("zero"));
  EXPECT_TRUE(store.Has(1, tags));
  EXPECT_FALSE(store.Has(1, x));
  EXPECT_TRUE(store.Get(1, x).is_null());

  // Collect is name-sorted regardless of intern or insertion order.
  ValueMap collected = store.Collect(0);
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_EQ(collected.begin()->first, "name");
  EXPECT_EQ(collected.rbegin()->first, "x");

  // Null set erases; ClearElement drops everything.
  store.Set(0, x, Value::Null());
  EXPECT_FALSE(store.Has(0, x));
  store.ClearElement(0);
  EXPECT_TRUE(store.Collect(0).empty());
  EXPECT_FALSE(store.Collect(1).empty());
  EXPECT_GT(store.ApproxMemoryBytes(), 0u);
}

TEST(PropertyStoreTest, MixedTypesUnderOneKeyReadBackExactly) {
  // One key, one column, values of different types across elements: Get
  // and Collect return the exact Value written (lane or overflow), and
  // clearing one element leaves its neighbours in the column untouched.
  SymbolTable symbols;
  PropertyStore store(&symbols);
  SymbolId x = symbols.Intern("x");
  SymbolId never_set = symbols.Intern("never_set");

  store.Set(0, x, Value::Int(1));  // the lane adopts Int64
  store.Set(1, x, Value::Double(1.0));
  store.Set(2, x, Value::String("one"));
  EXPECT_TRUE(store.Get(0, x).is_int());
  EXPECT_TRUE(store.Get(1, x).is_double());
  EXPECT_EQ(store.Get(2, x), Value::String("one"));
  ValueMap collected = store.Collect(1);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_TRUE(collected.at("x").is_double());

  // A key interned but never written reads as absent.
  EXPECT_FALSE(store.Has(0, never_set));
  EXPECT_TRUE(store.Get(0, never_set).is_null());

  store.ClearElement(1);
  EXPECT_FALSE(store.Has(1, x));
  EXPECT_EQ(store.Get(0, x), Value::Int(1));
  EXPECT_EQ(store.Get(2, x), Value::String("one"));
  store.ClearElement(99);  // absent: no-op
  EXPECT_EQ(store.Collect(0).size(), 1u);
}

// ---- posting-list determinism at the graph level ---------------------------

TEST(PostingListTest, LabelAndTypeScansAreAscendingAfterChurn) {
  PropertyGraph graph;
  // Interleave creation, label churn and deletion so the posting lists see
  // inserts out of tail position and erases from the middle.
  std::vector<VertexId> vertices;
  for (int i = 0; i < 20; ++i) {
    vertices.push_back(
        graph.AddVertex(i % 2 == 0 ? std::vector<std::string>{"Even"}
                                   : std::vector<std::string>{"Odd"}));
  }
  for (int i = 0; i < 20; i += 4) {
    ASSERT_TRUE(graph.AddVertexLabel(vertices[static_cast<size_t>(i)], "Odd")
                    .ok());
  }
  ASSERT_TRUE(graph.RemoveVertexLabel(vertices[0], "Odd").ok());
  ASSERT_TRUE(graph.RemoveVertex(vertices[5]).ok());
  std::vector<EdgeId> edges;
  for (int i = 0; i < 10; ++i) {
    if (i == 5) continue;  // that source vertex was removed above
    edges.push_back(graph
                        .AddEdge(vertices[static_cast<size_t>(i)],
                                 vertices[static_cast<size_t>(i + 6)], "T")
                        .value());
  }
  ASSERT_TRUE(graph.RemoveEdge(edges[3]).ok());

  std::vector<VertexId> odd = graph.VerticesWithLabel("Odd");
  EXPECT_TRUE(std::is_sorted(odd.begin(), odd.end()));
  // Exact content: odd-indexed vertices minus the removed vertices[5],
  // plus the even ones that gained "Odd" minus vertices[0] whose grant
  // was retracted.
  std::vector<VertexId> expected_odd;
  for (int i = 0; i < 20; ++i) {
    VertexId v = vertices[static_cast<size_t>(i)];
    bool is_odd = i % 2 == 1 || (i % 4 == 0 && i != 0);
    if (i == 5 || !is_odd) continue;
    expected_odd.push_back(v);
  }
  EXPECT_EQ(odd, expected_odd);

  std::vector<EdgeId> typed_edges = graph.EdgesWithType("T");
  EXPECT_TRUE(std::is_sorted(typed_edges.begin(), typed_edges.end()));
  EXPECT_EQ(typed_edges.size(), 8u);

  // The SymbolId fast path returns the same posting list by reference.
  ASSERT_TRUE(graph.symbols().Lookup("Odd").has_value());
  EXPECT_EQ(graph.VerticesWithLabelId(*graph.symbols().Lookup("Odd")),
            expected_odd);
  // Unknown symbols (and kNoSymbol) scan as empty.
  EXPECT_TRUE(graph.VerticesWithLabelId(kNoSymbol).empty());
  EXPECT_TRUE(graph.EdgesWithTypeId(kNoSymbol).empty());
}

}  // namespace
}  // namespace pgivm
