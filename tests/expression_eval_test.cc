#include "rete/expression_eval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "cypher/parser.h"
#include "engine/query_engine.h"

namespace pgivm {
namespace {

/// Parses a standalone expression by wrapping it in RETURN, then binds it
/// against a single-column schema {x} and evaluates with the given value.
Value EvalWith(const std::string& expr_text, Value x,
               const PropertyGraph* graph = nullptr) {
  Result<Query> query = ParseQuery("RETURN " + expr_text);
  EXPECT_TRUE(query.ok()) << query.status();
  Schema schema({{"x", Attribute::Kind::kValue}});
  Result<BoundExpression> bound = BoundExpression::Bind(
      query.value().return_clause.items[0].expr, schema, graph);
  EXPECT_TRUE(bound.ok()) << bound.status();
  return bound.value().Eval(Tuple({std::move(x)}));
}

Value Eval(const std::string& expr_text) {
  return EvalWith(expr_text, Value::Null());
}

TEST(ExpressionEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3"), Value::Int(7));
  EXPECT_EQ(Eval("(1 + 2) * 3"), Value::Int(9));
  EXPECT_EQ(Eval("7 / 2"), Value::Int(3));       // Integer division.
  EXPECT_EQ(Eval("7.0 / 2"), Value::Double(3.5));
  EXPECT_EQ(Eval("7 % 3"), Value::Int(1));
  EXPECT_EQ(Eval("-5"), Value::Int(-5));
  EXPECT_TRUE(Eval("1 / 0").is_null());  // No exceptions: null.
}

/// Evaluates `MATCH (n:N) RETURN <expr> AS r` over one vertex with x = `x`
/// through both the incremental path (a registered view) and the baseline
/// (EvaluateOnce); fails the test if the two disagree.
Value EvalBothPaths(const std::string& expr_text, Value x = Value::Null()) {
  PropertyGraph graph;
  graph.AddVertex({"N"}, {{"x", std::move(x)}});
  QueryEngine engine(&graph);
  const std::string query = "MATCH (n:N) RETURN " + expr_text + " AS r";
  auto view = engine.Register(query);
  EXPECT_TRUE(view.ok()) << query << ": " << view.status();
  auto baseline = engine.EvaluateOnce(query);
  EXPECT_TRUE(baseline.ok()) << query << ": " << baseline.status();
  if (!view.ok() || !baseline.ok()) return Value::String("<error>");
  std::vector<Tuple> rows = (*view)->Snapshot();
  EXPECT_EQ(rows.size(), 1u) << query;
  EXPECT_EQ(baseline->size(), 1u) << query;
  if (rows.size() != 1 || baseline->size() != 1) {
    return Value::String("<error>");
  }
  EXPECT_TRUE(rows[0] == (*baseline)[0])
      << query << ": view " << rows[0].ToString() << " vs baseline "
      << (*baseline)[0].ToString();
  return rows[0].at(0);
}

TEST(ExpressionEvalTest, IntegerOverflowIsNull) {
  const std::string min = "(-9223372036854775807 - 1)";
  const Value max = Value::Int(INT64_MAX);
  // INT64_MIN / -1 and % -1 used to trap (SIGFPE).
  EXPECT_TRUE(EvalBothPaths(min + " / -1").is_null());
  EXPECT_TRUE(EvalBothPaths(min + " % -1").is_null());
  EXPECT_TRUE(EvalBothPaths("-" + min).is_null());
  EXPECT_TRUE(EvalBothPaths("abs" + min).is_null());
  EXPECT_TRUE(EvalBothPaths("9223372036854775807 + n.x", Value::Int(1))
                  .is_null());
  EXPECT_TRUE(EvalBothPaths("n.x + 1", max).is_null());
  EXPECT_TRUE(EvalBothPaths(min + " - n.x", Value::Int(1)).is_null());
  EXPECT_TRUE(EvalBothPaths("4611686018427387904 * 4").is_null());
  EXPECT_TRUE(EvalBothPaths("n.x * -2", max).is_null());
  // In-range results at the edges are still exact.
  EXPECT_EQ(EvalBothPaths("n.x + 0", max), max);
  EXPECT_EQ(EvalBothPaths(min + " / 1"), Value::Int(INT64_MIN));
  EXPECT_EQ(EvalBothPaths(min + " % 2"), Value::Int(0));
  EXPECT_EQ(EvalBothPaths("-n.x", max), Value::Int(-INT64_MAX));
  EXPECT_EQ(EvalBothPaths("4611686018427387904 * -2"), Value::Int(INT64_MIN));
  EXPECT_EQ(EvalBothPaths("size(range(n.x - 2, n.x))", max), Value::Int(3));
}

TEST(ExpressionEvalTest, ToIntegerOutOfRangeIsNull) {
  EXPECT_TRUE(EvalBothPaths("toInteger(1.0e30)").is_null());
  EXPECT_TRUE(EvalBothPaths("toInteger(-1.0e30)").is_null());
  EXPECT_TRUE(EvalBothPaths("toInteger(9223372036854775808.0)").is_null());
  EXPECT_TRUE(EvalBothPaths("toInteger(n.x)", Value::Double(NAN)).is_null());
  EXPECT_TRUE(
      EvalBothPaths("toInteger(n.x)", Value::Double(INFINITY)).is_null());
  EXPECT_EQ(EvalBothPaths("toInteger(-9223372036854775808.0)"),
            Value::Int(INT64_MIN));
  EXPECT_EQ(EvalBothPaths("toInteger(-2.9)"), Value::Int(-2));
  EXPECT_EQ(EvalBothPaths("toInteger(2.9)"), Value::Int(2));
}

TEST(ExpressionEvalTest, NaNEqualsNoOtherNumber) {
  const std::string nan = "(1.0e308 * 10.0 - 1.0e308 * 10.0)";
  EXPECT_EQ(EvalBothPaths(nan + " = 5"), Value::Bool(false));
  EXPECT_EQ(EvalBothPaths(nan + " = 6"), Value::Bool(false));
  EXPECT_EQ(EvalBothPaths(nan + " = n.x", Value::Int(5)), Value::Bool(false));
  EXPECT_EQ(EvalBothPaths(nan + " > 1.0e308"), Value::Bool(true));
  // Int against Double compares the exact values, not the rounded int.
  EXPECT_EQ(EvalBothPaths("9007199254740993 = 9007199254740992.0"),
            Value::Bool(false));
  EXPECT_EQ(EvalBothPaths("9007199254740993 > 9007199254740992.0"),
            Value::Bool(true));
  EXPECT_EQ(EvalBothPaths("9007199254740992 = 9007199254740992.0"),
            Value::Bool(true));
}

TEST(ExpressionEvalTest, StringAndListConcatenation) {
  EXPECT_EQ(Eval("'a' + 'b'"), Value::String("ab"));
  EXPECT_EQ(Eval("[1] + [2, 3]"),
            Value::List({Value::Int(1), Value::Int(2), Value::Int(3)}));
}

TEST(ExpressionEvalTest, Comparisons) {
  EXPECT_EQ(Eval("1 < 2"), Value::Bool(true));
  EXPECT_EQ(Eval("2 <= 2"), Value::Bool(true));
  EXPECT_EQ(Eval("1 = 1.0"), Value::Bool(true));
  EXPECT_EQ(Eval("1 <> 2"), Value::Bool(true));
  EXPECT_EQ(Eval("'a' < 'b'"), Value::Bool(true));
  // Cross-class equality is false, ordering is null.
  EXPECT_EQ(Eval("1 = 'a'"), Value::Bool(false));
  EXPECT_TRUE(Eval("1 < 'a'").is_null());
}

TEST(ExpressionEvalTest, NullPropagation) {
  EXPECT_TRUE(Eval("null + 1").is_null());
  EXPECT_TRUE(Eval("null = null").is_null());
  EXPECT_TRUE(Eval("null < 1").is_null());
  EXPECT_EQ(Eval("null IS NULL"), Value::Bool(true));
  EXPECT_EQ(Eval("1 IS NOT NULL"), Value::Bool(true));
}

TEST(ExpressionEvalTest, ThreeValuedLogic) {
  EXPECT_EQ(Eval("false AND null"), Value::Bool(false));
  EXPECT_TRUE(Eval("true AND null").is_null());
  EXPECT_EQ(Eval("true OR null"), Value::Bool(true));
  EXPECT_TRUE(Eval("false OR null").is_null());
  EXPECT_TRUE(Eval("null XOR true").is_null());
  EXPECT_EQ(Eval("true XOR false"), Value::Bool(true));
  EXPECT_EQ(Eval("NOT false"), Value::Bool(true));
  EXPECT_TRUE(Eval("NOT null").is_null());
}

TEST(ExpressionEvalTest, InOperator) {
  EXPECT_EQ(Eval("2 IN [1, 2, 3]"), Value::Bool(true));
  EXPECT_EQ(Eval("5 IN [1, 2, 3]"), Value::Bool(false));
  EXPECT_TRUE(Eval("5 IN [1, null]").is_null());  // Unknown membership.
  EXPECT_TRUE(Eval("null IN [1]").is_null());
}

TEST(ExpressionEvalTest, StringPredicates) {
  EXPECT_EQ(Eval("'hello' STARTS WITH 'he'"), Value::Bool(true));
  EXPECT_EQ(Eval("'hello' ENDS WITH 'lo'"), Value::Bool(true));
  EXPECT_EQ(Eval("'hello' CONTAINS 'ell'"), Value::Bool(true));
  EXPECT_EQ(Eval("'hello' CONTAINS 'xyz'"), Value::Bool(false));
  EXPECT_TRUE(Eval("1 CONTAINS 'x'").is_null());
}

TEST(ExpressionEvalTest, Subscripts) {
  EXPECT_EQ(Eval("[10, 20, 30][1]"), Value::Int(20));
  EXPECT_EQ(Eval("[10, 20, 30][-1]"), Value::Int(30));
  EXPECT_TRUE(Eval("[10][5]").is_null());
  EXPECT_EQ(Eval("{a: 1}['a']"), Value::Int(1));
  EXPECT_TRUE(Eval("{a: 1}['b']").is_null());
}

TEST(ExpressionEvalTest, MapPropertyAccess) {
  EXPECT_EQ(Eval("{a: 1}.a"), Value::Int(1));
  EXPECT_TRUE(Eval("{a: 1}.b").is_null());
}

TEST(ExpressionEvalTest, ListAndSizeFunctions) {
  EXPECT_EQ(Eval("size([1, 2, 3])"), Value::Int(3));
  EXPECT_EQ(Eval("size('abc')"), Value::Int(3));
  EXPECT_EQ(Eval("size({a: 1})"), Value::Int(1));
  EXPECT_EQ(Eval("head([7, 8])"), Value::Int(7));
  EXPECT_EQ(Eval("last([7, 8])"), Value::Int(8));
  EXPECT_TRUE(Eval("head([])").is_null());
  EXPECT_EQ(Eval("coalesce(null, null, 3)"), Value::Int(3));
  EXPECT_EQ(Eval("abs(-4)"), Value::Int(4));
  EXPECT_EQ(Eval("toString(12)"), Value::String("12"));
  EXPECT_EQ(Eval("toLower('AbC')"), Value::String("abc"));
  EXPECT_EQ(Eval("toUpper('AbC')"), Value::String("ABC"));
  EXPECT_EQ(Eval("keys({b: 1, a: 2})"),
            Value::List({Value::String("a"), Value::String("b")}));
}

TEST(ExpressionEvalTest, VariableBinding) {
  EXPECT_EQ(EvalWith("x + 1", Value::Int(41)), Value::Int(42));
}

TEST(ExpressionEvalTest, UnboundVariableFailsAtBind) {
  Result<Query> query = ParseQuery("RETURN y");
  ASSERT_TRUE(query.ok());
  Schema schema({{"x", Attribute::Kind::kValue}});
  Result<BoundExpression> bound = BoundExpression::Bind(
      query.value().return_clause.items[0].expr, schema);
  EXPECT_FALSE(bound.ok());
}

TEST(ExpressionEvalTest, PathFunctions) {
  Value path = Value::MakePath(Path({1, 2, 3}, {10, 11}));
  EXPECT_EQ(EvalWith("length(x)", path), Value::Int(2));
  EXPECT_EQ(EvalWith("nodes(x)", path),
            Value::List({Value::Vertex(1), Value::Vertex(2),
                         Value::Vertex(3)}));
  EXPECT_EQ(EvalWith("relationships(x)", path),
            Value::List({Value::Edge(10), Value::Edge(11)}));
}

TEST(ExpressionEvalTest, IdFunction) {
  EXPECT_EQ(EvalWith("id(x)", Value::Vertex(5)), Value::Int(5));
  EXPECT_EQ(EvalWith("id(x)", Value::Edge(6)), Value::Int(6));
  EXPECT_TRUE(EvalWith("id(x)", Value::Int(1)).is_null());
}

TEST(ExpressionEvalTest, GraphFunctionsNeedGraph) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({"Person"}, {{"name", Value::String("ada")}});
  // Without a graph, these evaluate to null (rete networks never need them
  // thanks to pushdown)...
  EXPECT_TRUE(EvalWith("labels(x)", Value::Vertex(v)).is_null());
  EXPECT_TRUE(EvalWith("x.name", Value::Vertex(v)).is_null());
  // ...with a graph (baseline evaluator), they resolve.
  EXPECT_EQ(EvalWith("labels(x)", Value::Vertex(v), &graph),
            Value::List({Value::String("Person")}));
  EXPECT_EQ(EvalWith("x.name", Value::Vertex(v), &graph),
            Value::String("ada"));
  EXPECT_EQ(EvalWith("properties(x)", Value::Vertex(v), &graph),
            Value::Map({{"name", Value::String("ada")}}));
}

TEST(ExpressionEvalTest, IsTrueHelper) {
  EXPECT_TRUE(IsTrue(Value::Bool(true)));
  EXPECT_FALSE(IsTrue(Value::Bool(false)));
  EXPECT_FALSE(IsTrue(Value::Null()));
  EXPECT_FALSE(IsTrue(Value::Int(1)));
}

}  // namespace
}  // namespace pgivm
