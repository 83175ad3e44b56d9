#include "rete/tuple.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pgivm {
namespace {

/// A tuple rebuilt from its values, so its hash is computed from scratch.
Tuple Rehashed(const Tuple& t) {
  return Tuple(std::vector<Value>(t.begin(), t.end()));
}

Tuple Row(std::vector<Value> values) { return Tuple(std::move(values)); }

TEST(TupleTest, DerivedHashesMatchFromScratch) {
  Tuple left = Row({Value::Int(1), Value::String("a"), Value::Double(2.5)});
  Tuple right = Row({Value::Vertex(7), Value::Null(), Value::Bool(true)});

  Tuple projected = left.Project({2, 0, 0});
  EXPECT_EQ(projected.Hash(), Rehashed(projected).Hash());
  EXPECT_EQ(projected.Hash(), left.HashProjected({2, 0, 0}));
  EXPECT_EQ(projected.ToString(), "(2.5, 1, 1)");

  Tuple concat = left.Concat(right);
  EXPECT_EQ(concat.size(), 6u);
  EXPECT_EQ(concat.Hash(), Rehashed(concat).Hash());

  Tuple joined = left.ConcatProjected(right, {2, 0});
  EXPECT_EQ(joined.Hash(), Rehashed(joined).Hash());
  EXPECT_TRUE(joined == left.Concat(right.Project({2, 0})));

  Tuple appended = left.Append(Value::String("tail"));
  EXPECT_EQ(appended.Hash(), Rehashed(appended).Hash());
  EXPECT_EQ(appended.at(3), Value::String("tail"));

  Tuple replaced = left.WithColumn(1, Value::Int(9));
  EXPECT_EQ(replaced.Hash(), Rehashed(replaced).Hash());
  EXPECT_EQ(replaced.ToString(), "(1, 9, 2.5)");
  EXPECT_EQ(left.ToString(), "(1, 'a', 2.5)");  // The source is unchanged.

  // Zero-width derivations land on the empty tuple's hash.
  EXPECT_EQ(left.Project({}).Hash(), Tuple().Hash());
  EXPECT_EQ(left.ConcatProjected(right, {}).Hash(), left.Hash());
  EXPECT_EQ(left.Concat(Tuple()).Hash(), left.Hash());
}

TEST(TupleTest, EmptyTuple) {
  Tuple empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.begin(), empty.end());
  EXPECT_EQ(empty.Hash(), Row({}).Hash());
  EXPECT_TRUE(empty == Row({}));
  EXPECT_EQ(Tuple::Compare(empty, Row({Value::Null()})), -1);
  EXPECT_EQ(empty.ToString(), "()");
  Tuple one = empty.Append(Value::Int(3));
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.Hash(), Row({Value::Int(3)}).Hash());
}

TEST(TupleTest, CopyAndSelfAssignment) {
  Tuple a = Row({Value::Int(1), Value::String("x")});
  Tuple b = a;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(&a.at(1), &b.at(1));  // One shared block.
  Tuple& alias = b;
  b = alias;
  EXPECT_EQ(b.ToString(), "(1, 'x')");
  b = Row({Value::Int(2)});
  EXPECT_EQ(a.ToString(), "(1, 'x')");
  EXPECT_EQ(b.ToString(), "(2)");
  b = std::move(alias);  // Self move-assignment leaves the tuple intact.
  EXPECT_EQ(b.ToString(), "(2)");
}

TEST(TupleTest, MovedFromCanBeReassignedAndDestroyed) {
  Tuple a = Row({Value::Int(1), Value::String("moved")});
  Tuple b = std::move(a);
  EXPECT_EQ(b.ToString(), "(1, 'moved')");
  a = Row({Value::Int(5)});
  EXPECT_EQ(a.ToString(), "(5)");
  Tuple c = std::move(b);
  b = c;
  EXPECT_TRUE(b == c);
  Tuple d = std::move(c);
  // c is destroyed moved-from at scope exit.
}

TEST(TupleTest, NumericallyEqualColumnsAreEqual) {
  Tuple i = Row({Value::Int(1), Value::String("k")});
  Tuple d = Row({Value::Double(1.0), Value::String("k")});
  EXPECT_TRUE(i == d);
  EXPECT_EQ(i.Hash(), d.Hash());
  EXPECT_EQ(Tuple::Compare(i, d), 0);
  EXPECT_FALSE(i == Row({Value::Double(1.5), Value::String("k")}));
}

TEST(TupleTest, ApproxMemoryBytesChargesBlockOnce) {
  EXPECT_EQ(Tuple().ApproxMemoryBytes(), sizeof(Tuple));
  Tuple t = Row({Value::Int(1), Value::Int(2)});
  size_t values = 2 * Value::Int(0).ApproxMemoryBytes();
  EXPECT_GT(t.ApproxMemoryBytes(), sizeof(Tuple) + values);
  EXPECT_LE(t.ApproxMemoryBytes(), sizeof(Tuple) + 16 + values);
}

/// Four threads copy and drop handles to the same blocks, then drop their
/// own handles, so whichever thread releases last frees each block. Every
/// column read checks a block is alive while held; ThreadSanitizer and
/// AddressSanitizer check the refcount and the single free.
TEST(TupleTest, ConcurrentCopiesReleaseOnce) {
  constexpr int kThreads = 4, kRows = 64, kRounds = 2000;
  std::vector<Tuple> shared;
  for (int i = 0; i < kRows; ++i) {
    shared.push_back(
        Row({Value::Int(i), Value::String("row" + std::to_string(i))}));
  }
  std::atomic<int64_t> checksum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Each thread owns a copy of the handles, taken here.
    threads.emplace_back(
        [&checksum, t](std::vector<Tuple> mine) {
          int64_t sum = 0;
          for (int round = 0; round < kRounds; ++round) {
            std::vector<Tuple> held(mine.begin(), mine.end());
            Tuple moved = std::move(held[(round + t) % kRows]);
            held.clear();
            sum += moved.at(0).AsInt() +
                   static_cast<int64_t>(moved.at(1).AsString().size());
          }
          mine.clear();
          checksum.fetch_add(sum);
        },
        shared);
  }
  shared.clear();  // From here on only the threads hold the blocks.
  for (std::thread& thread : threads) thread.join();
  int64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      int i = (round + t) % kRows;
      expected += i + static_cast<int64_t>(("row" + std::to_string(i)).size());
    }
  }
  EXPECT_EQ(checksum.load(), expected);
}

}  // namespace
}  // namespace pgivm
