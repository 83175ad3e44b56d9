#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rete/aggregate_node.h"
#include "rete/antijoin_node.h"
#include "rete/distinct_node.h"
#include "rete/filter_node.h"
#include "rete/join_node.h"
#include "rete/project_node.h"
#include "rete/semijoin_node.h"
#include "rete/union_node.h"
#include "rete/unnest_node.h"

namespace pgivm {
namespace {

/// Net-effect bag. Unlike pgivm::Bag it tolerates negative counts: several
/// tests feed nodes raw retraction streams and assert on the net
/// multiplicity, which may legitimately dip below zero for a node that never
/// saw the original assertions.
class SignedBag {
 public:
  void Apply(const Tuple& tuple, int64_t multiplicity) {
    auto it = counts_.emplace(tuple, 0).first;
    it->second += multiplicity;
    total_ += multiplicity;
    if (it->second == 0) counts_.erase(it);
  }
  int64_t Count(const Tuple& tuple) const {
    auto it = counts_.find(tuple);
    return it == counts_.end() ? 0 : it->second;
  }
  int64_t total_count() const { return total_; }

 private:
  std::unordered_map<Tuple, int64_t, TupleHash> counts_;
  int64_t total_ = 0;
};

/// Drives one node by hand and accumulates everything it appends to its
/// output into a bag.
class Recorder {
 public:
  explicit Recorder(ReteNode* node) : node_(node) {}

  /// Delivers `delta` on `port` and records the node's response.
  void Deliver(int port, const Delta& delta) {
    Delta out;
    node_->OnDelta(port, delta, out);
    Record(out);
  }
  /// Records the node's structurally-initial output.
  void Initial() {
    Delta out;
    node_->EmitInitial(out);
    Record(out);
  }

  SignedBag bag;
  int entries_seen = 0;

 private:
  void Record(const Delta& out) {
    for (const DeltaEntry& entry : out) {
      bag.Apply(entry.tuple, entry.multiplicity);
      ++entries_seen;
    }
  }

  ReteNode* node_;
};

Schema OneCol(const char* name) {
  return Schema({{name, Attribute::Kind::kValue}});
}

Schema TwoCols(const char* a, const char* b) {
  return Schema({{a, Attribute::Kind::kValue},
                 {b, Attribute::Kind::kValue}});
}

Tuple T1(int64_t a) { return Tuple({Value::Int(a)}); }
Tuple T2(int64_t a, int64_t b) {
  return Tuple({Value::Int(a), Value::Int(b)});
}

BoundExpression Bind(const ExprPtr& expr, const Schema& schema) {
  Result<BoundExpression> bound = BoundExpression::Bind(expr, schema);
  EXPECT_TRUE(bound.ok()) << bound.status();
  return std::move(bound).value();
}

// ---- FilterNode ------------------------------------------------------------

TEST(FilterNodeTest, KeepsOnlyTrueRows) {
  Schema schema = OneCol("x");
  ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeVariable("x"),
                            MakeLiteral(Value::Int(2)));
  FilterNode filter(schema, Bind(pred, schema));
  Recorder rec(&filter);

  rec.Deliver(0, {{T1(1), 1}, {T1(3), 2}, {T1(5), 1}});
  EXPECT_EQ(rec.bag.Count(T1(1)), 0);
  EXPECT_EQ(rec.bag.Count(T1(3)), 2);
  EXPECT_EQ(rec.bag.Count(T1(5)), 1);

  rec.Deliver(0, {{T1(3), -2}});
  EXPECT_EQ(rec.bag.Count(T1(3)), 0);
}

// ---- ProjectNode -----------------------------------------------------------

TEST(ProjectNodeTest, MapsAndPreservesMultiplicity) {
  Schema in = OneCol("x");
  Schema out = OneCol("y");
  std::vector<BoundExpression> columns;
  columns.push_back(Bind(MakeBinary(BinaryOp::kMul, MakeVariable("x"),
                                    MakeLiteral(Value::Int(10))),
                         in));
  ProjectNode project(out, std::move(columns));
  Recorder rec(&project);

  rec.Deliver(0, {{T1(2), 3}, {T1(4), -1}});
  EXPECT_EQ(rec.bag.Count(T1(20)), 3);
  EXPECT_EQ(rec.bag.Count(T1(40)), -1);
}

// ---- JoinNode --------------------------------------------------------------

TEST(JoinNodeTest, NaturalJoinOnSharedColumn) {
  Schema left = TwoCols("k", "a");
  Schema right = TwoCols("k", "b");
  Schema out({{"k", Attribute::Kind::kValue},
              {"a", Attribute::Kind::kValue},
              {"b", Attribute::Kind::kValue}});
  JoinNode join(out, left, right);
  Recorder rec(&join);

  rec.Deliver(0, {{T2(1, 10), 1}});
  EXPECT_EQ(rec.bag.total_count(), 0);  // No right side yet.
  rec.Deliver(1, {{T2(1, 100), 1}});
  EXPECT_EQ(rec.bag.Count(Tuple({Value::Int(1), Value::Int(10),
                                  Value::Int(100)})),
            1);
  // Non-matching key produces nothing.
  rec.Deliver(1, {{T2(2, 200), 1}});
  EXPECT_EQ(rec.bag.total_count(), 1);
}

TEST(JoinNodeTest, MultiplicitiesMultiply) {
  Schema left = TwoCols("k", "a");
  Schema right = TwoCols("k", "b");
  Schema out({{"k", Attribute::Kind::kValue},
              {"a", Attribute::Kind::kValue},
              {"b", Attribute::Kind::kValue}});
  JoinNode join(out, left, right);
  Recorder rec(&join);

  rec.Deliver(0, {{T2(1, 10), 2}});
  rec.Deliver(1, {{T2(1, 100), 3}});
  EXPECT_EQ(rec.bag.Count(Tuple({Value::Int(1), Value::Int(10),
                                  Value::Int(100)})),
            6);
}

TEST(JoinNodeTest, RetractionCascades) {
  Schema left = TwoCols("k", "a");
  Schema right = TwoCols("k", "b");
  Schema out({{"k", Attribute::Kind::kValue},
              {"a", Attribute::Kind::kValue},
              {"b", Attribute::Kind::kValue}});
  JoinNode join(out, left, right);
  Recorder rec(&join);

  rec.Deliver(0, {{T2(1, 10), 1}});
  rec.Deliver(1, {{T2(1, 100), 1}});
  rec.Deliver(0, {{T2(1, 10), -1}});
  EXPECT_EQ(rec.bag.total_count(), 0);
  EXPECT_GT(join.ApproxMemoryBytes(), 0u);  // Right memory still holds a row.
}

TEST(JoinNodeTest, CrossJoinWhenNoSharedColumns) {
  Schema left = OneCol("a");
  Schema right = OneCol("b");
  Schema out = TwoCols("a", "b");
  JoinNode join(out, left, right);
  Recorder rec(&join);

  rec.Deliver(0, {{T1(1), 1}, {T1(2), 1}});
  rec.Deliver(1, {{T1(9), 1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 9)), 1);
  EXPECT_EQ(rec.bag.Count(T2(2, 9)), 1);
}

// ---- AntiJoinNode ----------------------------------------------------------

TEST(AntiJoinNodeTest, EmitsLeftWithoutPartner) {
  Schema left = TwoCols("k", "a");
  Schema right = OneCol("k");
  AntiJoinNode anti(left, left, right);
  Recorder rec(&anti);

  rec.Deliver(0, {{T2(1, 10), 1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 10)), 1);  // No partner yet.

  rec.Deliver(1, {{T1(1), 1}});  // Partner arrives: retract.
  EXPECT_EQ(rec.bag.Count(T2(1, 10)), 0);

  rec.Deliver(1, {{T1(1), -1}});  // Partner leaves: re-assert.
  EXPECT_EQ(rec.bag.Count(T2(1, 10)), 1);
}

TEST(AntiJoinNodeTest, LeftArrivingAfterPartnerSuppressed) {
  Schema left = TwoCols("k", "a");
  Schema right = OneCol("k");
  AntiJoinNode anti(left, left, right);
  Recorder rec(&anti);

  rec.Deliver(1, {{T1(1), 1}});
  rec.Deliver(0, {{T2(1, 10), 1}});
  EXPECT_EQ(rec.bag.total_count(), 0);
  rec.Deliver(0, {{T2(2, 20), 1}});
  EXPECT_EQ(rec.bag.Count(T2(2, 20)), 1);
}

// ---- SemiJoinNode ----------------------------------------------------------

TEST(SemiJoinNodeTest, EmitsLeftWithPartnerOnly) {
  Schema left = TwoCols("k", "a");
  Schema right = OneCol("k");
  SemiJoinNode semi(left, left, right);
  Recorder rec(&semi);

  rec.Deliver(0, {{T2(1, 10), 1}});
  EXPECT_EQ(rec.bag.total_count(), 0);  // No partner yet.

  rec.Deliver(1, {{T1(1), 1}});  // Partner arrives: assert.
  EXPECT_EQ(rec.bag.Count(T2(1, 10)), 1);

  // Second partner for the same key: no duplicate output (not a join).
  rec.Deliver(1, {{T1(1), 1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 10)), 1);

  // Removing one partner keeps the row; removing the last retracts it.
  rec.Deliver(1, {{T1(1), -1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 10)), 1);
  rec.Deliver(1, {{T1(1), -1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 10)), 0);
}

TEST(SemiJoinNodeTest, LeftMultiplicityPreserved) {
  Schema left = TwoCols("k", "a");
  Schema right = OneCol("k");
  SemiJoinNode semi(left, left, right);
  Recorder rec(&semi);

  rec.Deliver(1, {{T1(1), 5}});         // Fanout 5 on the right...
  rec.Deliver(0, {{T2(1, 10), 3}});     // ...left multiplicity 3.
  EXPECT_EQ(rec.bag.Count(T2(1, 10)), 3);  // Not 15.
}

TEST(SemiJoinNodeTest, DualOfAntiJoin) {
  // On identical delta streams, semi(L) + anti(L) == L.
  Schema left = TwoCols("k", "a");
  Schema right = OneCol("k");
  SemiJoinNode semi(left, left, right);
  AntiJoinNode anti(left, left, right);
  Recorder semi_rec(&semi);
  Recorder anti_rec(&anti);

  std::vector<std::pair<int, DeltaEntry>> script = {
      {0, {T2(1, 10), 1}}, {0, {T2(2, 20), 1}}, {1, {T1(1), 1}},
      {1, {T1(2), 1}},     {1, {T1(1), -1}},    {0, {T2(3, 30), 2}},
  };
  for (const auto& [port, entry] : script) {
    semi_rec.Deliver(port, {entry});
    anti_rec.Deliver(port, {entry});
  }
  EXPECT_EQ(semi_rec.bag.Count(T2(1, 10)) + anti_rec.bag.Count(T2(1, 10)),
            1);
  EXPECT_EQ(semi_rec.bag.Count(T2(2, 20)) + anti_rec.bag.Count(T2(2, 20)),
            1);
  EXPECT_EQ(semi_rec.bag.Count(T2(3, 30)) + anti_rec.bag.Count(T2(3, 30)),
            2);
}

// ---- DistinctNode ----------------------------------------------------------

TEST(DistinctNodeTest, EmitsOnZeroTransitionsOnly) {
  DistinctNode distinct(OneCol("x"));
  Recorder rec(&distinct);

  rec.Deliver(0, {{T1(1), 3}});
  EXPECT_EQ(rec.bag.Count(T1(1)), 1);
  rec.Deliver(0, {{T1(1), 5}});
  EXPECT_EQ(rec.bag.Count(T1(1)), 1);  // Still one.
  rec.Deliver(0, {{T1(1), -7}});
  EXPECT_EQ(rec.bag.Count(T1(1)), 1);  // Count 1 left upstream.
  rec.Deliver(0, {{T1(1), -1}});
  EXPECT_EQ(rec.bag.Count(T1(1)), 0);  // Now gone.
}

// ---- UnionNode -------------------------------------------------------------

TEST(UnionNodeTest, MergesBothPorts) {
  UnionNode u(OneCol("x"));
  Recorder rec(&u);
  rec.Deliver(0, {{T1(1), 1}});
  rec.Deliver(1, {{T1(1), 2}});
  EXPECT_EQ(rec.bag.Count(T1(1)), 3);
}

// ---- AggregateNode ---------------------------------------------------------

AggregateSpec MakeSpec(const std::string& fn, const Schema& input,
                       bool distinct = false) {
  ExprPtr call = fn == "count*"
                     ? MakeCountStar()
                     : MakeFunctionCall(fn, {MakeVariable("v")}, distinct);
  Result<AggregateSpec> spec = AggregateSpec::Make(call, input, nullptr);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return std::move(spec).value();
}

TEST(AggregateNodeTest, GroupedCountAndSum) {
  Schema in = TwoCols("k", "v");
  Schema out({{"k", Attribute::Kind::kValue},
              {"c", Attribute::Kind::kValue},
              {"s", Attribute::Kind::kValue}});
  std::vector<BoundExpression> keys;
  keys.push_back(Bind(MakeVariable("k"), in));
  std::vector<AggregateSpec> specs;
  specs.push_back(MakeSpec("count*", in));
  specs.push_back(MakeSpec("sum", in));
  AggregateNode agg(out, std::move(keys), std::move(specs));
  Recorder rec(&agg);

  rec.Deliver(0, {{T2(1, 10), 1}, {T2(1, 20), 1}, {T2(2, 5), 1}});
  EXPECT_EQ(rec.bag.Count(Tuple({Value::Int(1), Value::Int(2),
                                  Value::Int(30)})),
            1);
  EXPECT_EQ(rec.bag.Count(Tuple({Value::Int(2), Value::Int(1),
                                  Value::Int(5)})),
            1);

  // Retract one row: the group's output row is replaced.
  rec.Deliver(0, {{T2(1, 20), -1}});
  EXPECT_EQ(rec.bag.Count(Tuple({Value::Int(1), Value::Int(1),
                                  Value::Int(10)})),
            1);
  EXPECT_EQ(rec.bag.Count(Tuple({Value::Int(1), Value::Int(2),
                                  Value::Int(30)})),
            0);

  // Empty the group entirely: its row disappears.
  rec.Deliver(0, {{T2(2, 5), -1}});
  EXPECT_EQ(rec.bag.total_count(), 1);
}

TEST(AggregateNodeTest, KeylessAggregationAlwaysHasOneRow) {
  Schema in = TwoCols("k", "v");
  Schema out = OneCol("c");
  std::vector<AggregateSpec> specs;
  specs.push_back(MakeSpec("count*", in));
  AggregateNode agg(out, {}, std::move(specs));
  Recorder rec(&agg);

  rec.Initial();
  EXPECT_EQ(rec.bag.Count(T1(0)), 1);  // count(*) = 0 over empty input.

  rec.Deliver(0, {{T2(1, 1), 2}});
  EXPECT_EQ(rec.bag.Count(T1(2)), 1);
  EXPECT_EQ(rec.bag.Count(T1(0)), 0);

  rec.Deliver(0, {{T2(1, 1), -2}});
  EXPECT_EQ(rec.bag.Count(T1(0)), 1);  // Back to the empty-input row.
}

TEST(AggregateNodeTest, MinMaxSupportRetraction) {
  Schema in = TwoCols("k", "v");
  Schema out = TwoCols("mn", "mx");
  std::vector<AggregateSpec> specs;
  specs.push_back(MakeSpec("min", in));
  specs.push_back(MakeSpec("max", in));
  AggregateNode agg(out, {}, std::move(specs));
  Recorder rec(&agg);
  rec.Initial();

  rec.Deliver(0, {{T2(0, 5), 1}, {T2(0, 9), 1}, {T2(0, 1), 1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 9)), 1);
  rec.Deliver(0, {{T2(0, 1), -1}});  // Retract the minimum.
  EXPECT_EQ(rec.bag.Count(T2(5, 9)), 1);
  rec.Deliver(0, {{T2(0, 9), -1}});  // Retract the maximum.
  EXPECT_EQ(rec.bag.Count(T2(5, 5)), 1);
}

TEST(AggregateNodeTest, CollectAndDistinctCount) {
  Schema in = TwoCols("k", "v");
  Schema out = TwoCols("l", "d");
  std::vector<AggregateSpec> specs;
  specs.push_back(MakeSpec("collect", in));
  specs.push_back(MakeSpec("count", in, /*distinct=*/true));
  AggregateNode agg(out, {}, std::move(specs));
  Recorder rec(&agg);
  rec.Initial();

  rec.Deliver(0, {{T2(0, 3), 1}, {T2(0, 3), 1}, {T2(0, 1), 1}});
  Tuple expected({Value::List({Value::Int(1), Value::Int(3), Value::Int(3)}),
                  Value::Int(2)});
  EXPECT_EQ(rec.bag.Count(expected), 1);
}

TEST(AggregateNodeTest, NullArgumentsSkipped) {
  Schema in = TwoCols("k", "v");
  Schema out = TwoCols("c", "s");
  std::vector<AggregateSpec> specs;
  specs.push_back(MakeSpec("count", in));
  specs.push_back(MakeSpec("sum", in));
  AggregateNode agg(out, {}, std::move(specs));
  Recorder rec(&agg);
  rec.Initial();

  rec.Deliver(0, {{Tuple({Value::Int(0), Value::Null()}), 1},
                  {T2(0, 7), 1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 7)), 1);
}

// ---- UnnestNode ------------------------------------------------------------

TEST(UnnestNodeTest, ExpandsListElements) {
  Schema in = TwoCols("id", "tags");
  Schema out = TwoCols("id", "tag");
  BoundExpression collection = Bind(MakeVariable("tags"), in);
  UnnestNode unnest(out, std::move(collection), {0}, /*fine_grained=*/false);
  Recorder rec(&unnest);

  Tuple input({Value::Int(1),
               Value::List({Value::Int(7), Value::Int(8), Value::Int(7)})});
  rec.Deliver(0, {{input, 1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 7)), 2);
  EXPECT_EQ(rec.bag.Count(T2(1, 8)), 1);
}

TEST(UnnestNodeTest, NullAndScalarHandling) {
  Schema in = TwoCols("id", "x");
  Schema out = TwoCols("id", "e");
  UnnestNode unnest(out, Bind(MakeVariable("x"), in), {0}, false);
  Recorder rec(&unnest);

  rec.Deliver(0, {{Tuple({Value::Int(1), Value::Null()}), 1}});
  EXPECT_EQ(rec.bag.total_count(), 0);  // UNWIND null -> no rows.
  rec.Deliver(0, {{Tuple({Value::Int(1), Value::Int(9)}), 1}});
  EXPECT_EQ(rec.bag.Count(T2(1, 9)), 1);  // Scalar singleton.
}

TEST(UnnestNodeTest, FineGrainedEmitsOnlyElementDiff) {
  // Input column 1 (the collection) is dropped from the output, enabling
  // fine-grained pairing: a one-element append emits ONE entry.
  Schema in = TwoCols("id", "tags");
  Schema out = TwoCols("id", "tag");
  UnnestNode unnest(out, Bind(MakeVariable("tags"), in), {0},
                    /*fine_grained=*/true);
  Recorder rec(&unnest);

  ValueList big;
  for (int i = 0; i < 100; ++i) big.push_back(Value::Int(i));
  Tuple before({Value::Int(1), Value::List(big)});
  rec.Deliver(0, {{before, 1}});
  int baseline_entries = rec.entries_seen;

  big.push_back(Value::Int(100));
  Tuple after({Value::Int(1), Value::List(big)});
  rec.Deliver(0, {{before, -1}, {after, 1}});
  EXPECT_EQ(rec.entries_seen - baseline_entries, 1);  // FGN!
  EXPECT_EQ(rec.bag.Count(T2(1, 100)), 1);
  EXPECT_EQ(rec.bag.total_count(), 101);
}

TEST(UnnestNodeTest, NaiveModeReemitsEverything) {
  Schema in = TwoCols("id", "tags");
  Schema out = TwoCols("id", "tag");
  UnnestNode unnest(out, Bind(MakeVariable("tags"), in), {0},
                    /*fine_grained=*/false);
  Recorder rec(&unnest);

  ValueList big;
  for (int i = 0; i < 100; ++i) big.push_back(Value::Int(i));
  Tuple before({Value::Int(1), Value::List(big)});
  rec.Deliver(0, {{before, 1}});
  int baseline_entries = rec.entries_seen;

  big.push_back(Value::Int(100));
  Tuple after({Value::Int(1), Value::List(big)});
  rec.Deliver(0, {{before, -1}, {after, 1}});
  EXPECT_EQ(rec.entries_seen - baseline_entries, 201);  // 100 - then 101 +.
  EXPECT_EQ(rec.bag.total_count(), 101);  // Same net result.
}


// ---- The append contract ---------------------------------------------------

/// One operator kind: a factory for identical twin nodes and a script of
/// (port, delta) deliveries under which the node responds.
struct AppendCase {
  std::string name;
  std::function<std::unique_ptr<ReteNode>()> make;
  std::vector<std::pair<int, Delta>> script;
};

std::vector<AppendCase> AppendCases() {
  Schema one = OneCol("x");
  Schema left = TwoCols("k", "a");
  Schema right = TwoCols("k", "b");
  Schema key = OneCol("k");
  Schema joined({{"k", Attribute::Kind::kValue},
                 {"a", Attribute::Kind::kValue},
                 {"b", Attribute::Kind::kValue}});
  Schema lists = TwoCols("id", "tags");
  Schema elements = TwoCols("id", "tag");
  Tuple short_list(
      {Value::Int(1), Value::List({Value::Int(7), Value::Int(8)})});
  Tuple long_list({Value::Int(1), Value::List({Value::Int(7), Value::Int(8),
                                               Value::Int(9)})});
  std::vector<std::pair<int, Delta>> probe_script = {
      {0, {{T2(1, 10), 1}, {T2(1, 11), 2}}},
      {1, {{T1(1), 1}}},
      {0, {{T2(1, 12), 1}, {T2(2, 20), 1}}},
      {1, {{T1(1), -1}}}};
  std::vector<std::pair<int, Delta>> list_script = {
      {0, {{short_list, 1}}}, {0, {{short_list, -1}, {long_list, 1}}}};

  std::vector<AppendCase> cases;
  cases.push_back(
      {"Filter",
       [one] {
         ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeVariable("x"),
                                   MakeLiteral(Value::Int(2)));
         return std::make_unique<FilterNode>(one, Bind(pred, one));
       },
       {{0, {{T1(1), 1}, {T1(3), 2}, {T1(5), 1}}}, {0, {{T1(3), -2}}}}});
  cases.push_back(
      {"Project",
       [one] {
         std::vector<BoundExpression> columns;
         columns.push_back(Bind(MakeBinary(BinaryOp::kMul, MakeVariable("x"),
                                           MakeLiteral(Value::Int(10))),
                                one));
         return std::make_unique<ProjectNode>(one, std::move(columns));
       },
       {{0, {{T1(2), 3}, {T1(4), -1}}}}});
  cases.push_back(
      {"Join",
       [joined, left, right] {
         return std::make_unique<JoinNode>(joined, left, right);
       },
       {{0, {{T2(1, 10), 1}}},
        {1, {{T2(1, 100), 1}, {T2(1, 200), 1}}},
        {0, {{T2(1, 11), 1}, {T2(2, 20), 1}}},
        {1, {{T2(1, 100), -1}}}}});
  cases.push_back({"SemiJoin",
                   [left, key] {
                     return std::make_unique<SemiJoinNode>(left, left, key);
                   },
                   probe_script});
  cases.push_back({"AntiJoin",
                   [left, key] {
                     return std::make_unique<AntiJoinNode>(left, left, key);
                   },
                   probe_script});
  cases.push_back({"Distinct",
                   [one] { return std::make_unique<DistinctNode>(one); },
                   {{0, {{T1(1), 3}, {T1(2), 1}}},
                    {0, {{T1(1), -3}, {T1(3), 1}}}}});
  cases.push_back(
      {"Aggregate",
       [] {
         Schema in = TwoCols("k", "v");
         std::vector<BoundExpression> keys;
         keys.push_back(Bind(MakeVariable("k"), in));
         std::vector<AggregateSpec> specs;
         specs.push_back(MakeSpec("count*", in));
         specs.push_back(MakeSpec("sum", in));
         Schema out({{"k", Attribute::Kind::kValue},
                     {"c", Attribute::Kind::kValue},
                     {"s", Attribute::Kind::kValue}});
         return std::make_unique<AggregateNode>(out, std::move(keys),
                                                std::move(specs));
       },
       {{0, {{T2(1, 10), 1}, {T2(1, 20), 1}, {T2(2, 5), 1}}},
        {0, {{T2(1, 20), -1}, {T2(2, 5), -1}}}}});
  cases.push_back({"KeylessAggregate",
                   [] {
                     std::vector<AggregateSpec> specs;
                     specs.push_back(MakeSpec("count*", TwoCols("k", "v")));
                     return std::make_unique<AggregateNode>(
                         OneCol("c"), std::vector<BoundExpression>{},
                         std::move(specs));
                   },
                   {{0, {{T2(1, 1), 2}}}, {0, {{T2(1, 1), -2}}}}});
  cases.push_back({"Union",
                   [one] { return std::make_unique<UnionNode>(one); },
                   {{0, {{T1(1), 1}}}, {1, {{T1(1), 2}, {T1(2), 1}}}}});
  for (bool fine_grained : {true, false}) {
    cases.push_back(
        {fine_grained ? "FineGrainedUnnest" : "NaiveUnnest",
         [lists, elements, fine_grained] {
           return std::make_unique<UnnestNode>(
               elements, Bind(MakeVariable("tags"), lists),
               std::vector<int>{0}, fine_grained);
         },
         list_script});
  }
  return cases;
}

/// `out` is `sentinel` followed by exactly `expected`, in order.
void ExpectSentinelThen(const Delta& out, const DeltaEntry& sentinel,
                        const Delta& expected) {
  ASSERT_EQ(out.size(), expected.size() + 1);
  EXPECT_EQ(out[0].tuple, sentinel.tuple);
  EXPECT_EQ(out[0].multiplicity, sentinel.multiplicity);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i + 1].tuple, expected[i].tuple) << "entry " << i;
    EXPECT_EQ(out[i + 1].multiplicity, expected[i].multiplicity)
        << "entry " << i;
  }
}

// Every operator appends its response behind what its caller's `out`
// already holds: a sentinel entry stays first and untouched, and the
// entries after it equal what a twin node appends to an empty `out`.
TEST(AppendContractTest, EveryOperatorAppendsBehindExistingEntries) {
  const DeltaEntry sentinel{Tuple({Value::String("sentinel")}), 7};
  for (const AppendCase& c : AppendCases()) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<ReteNode> node = c.make();
    std::unique_ptr<ReteNode> twin = c.make();
    Delta initial{sentinel};
    Delta initial_expected;
    node->EmitInitial(initial);
    twin->EmitInitial(initial_expected);
    ExpectSentinelThen(initial, sentinel, initial_expected);
    size_t appended = initial_expected.size();

    for (const auto& [port, delta] : c.script) {
      Delta out{sentinel};
      Delta expected;
      node->OnDelta(port, delta, out);
      twin->OnDelta(port, delta, expected);
      ExpectSentinelThen(out, sentinel, expected);
      appended += expected.size();
    }
    EXPECT_GT(appended, 0u) << "the script never made the node respond";
  }
}

}  // namespace
}  // namespace pgivm
