#include "cypher/parser.h"

#include <gtest/gtest.h>

namespace pgivm {
namespace {

Query Parse(const std::string& text) {
  Result<Query> query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status();
  return query.ok() ? query.value() : Query{};
}

TEST(ParserTest, MinimalReturn) {
  Query q = Parse("RETURN 1");
  EXPECT_TRUE(q.clauses.empty());
  ASSERT_EQ(q.return_clause.items.size(), 1u);
  EXPECT_EQ(q.return_clause.items[0].expr->kind, ExprKind::kLiteral);
  EXPECT_EQ(q.return_clause.items[0].alias, "1");
}

TEST(ParserTest, SimpleMatchReturn) {
  Query q = Parse("MATCH (n:Person) RETURN n");
  ASSERT_EQ(q.clauses.size(), 1u);
  const auto& match = std::get<MatchClause>(q.clauses[0]);
  ASSERT_EQ(match.parts.size(), 1u);
  EXPECT_EQ(match.parts[0].first.variable, "n");
  EXPECT_EQ(match.parts[0].first.labels, std::vector<std::string>{"Person"});
}

TEST(ParserTest, AnonymousElementsGetVariables) {
  Query q = Parse("MATCH (:A)-[]->(:B) RETURN 1");
  const auto& match = std::get<MatchClause>(q.clauses[0]);
  EXPECT_FALSE(match.parts[0].first.variable.empty());
  ASSERT_EQ(match.parts[0].chain.size(), 1u);
  EXPECT_FALSE(match.parts[0].chain[0].first.variable.empty());
  EXPECT_FALSE(match.parts[0].chain[0].second.variable.empty());
}

TEST(ParserTest, RelationshipDirections) {
  {
    Query q = Parse("MATCH (a)-[r:T]->(b) RETURN r");
    const auto& rel =
        std::get<MatchClause>(q.clauses[0]).parts[0].chain[0].first;
    EXPECT_EQ(rel.direction, RelPattern::Direction::kOut);
    EXPECT_EQ(rel.types, std::vector<std::string>{"T"});
  }
  {
    Query q = Parse("MATCH (a)<-[r:T]-(b) RETURN r");
    const auto& rel =
        std::get<MatchClause>(q.clauses[0]).parts[0].chain[0].first;
    EXPECT_EQ(rel.direction, RelPattern::Direction::kIn);
  }
  {
    Query q = Parse("MATCH (a)-[r]-(b) RETURN r");
    const auto& rel =
        std::get<MatchClause>(q.clauses[0]).parts[0].chain[0].first;
    EXPECT_EQ(rel.direction, RelPattern::Direction::kBoth);
  }
  {
    Query q = Parse("MATCH (a)-->(b) RETURN a");
    const auto& rel =
        std::get<MatchClause>(q.clauses[0]).parts[0].chain[0].first;
    EXPECT_EQ(rel.direction, RelPattern::Direction::kOut);
    EXPECT_TRUE(rel.types.empty());
  }
  {
    Query q = Parse("MATCH (a)<--(b) RETURN a");
    const auto& rel =
        std::get<MatchClause>(q.clauses[0]).parts[0].chain[0].first;
    EXPECT_EQ(rel.direction, RelPattern::Direction::kIn);
  }
}

TEST(ParserTest, TypeAlternatives) {
  Query q = Parse("MATCH (a)-[r:X|Y|Z]->(b) RETURN r");
  const auto& rel =
      std::get<MatchClause>(q.clauses[0]).parts[0].chain[0].first;
  EXPECT_EQ(rel.types, (std::vector<std::string>{"X", "Y", "Z"}));
}

TEST(ParserTest, VariableLengthForms) {
  struct Case {
    const char* query;
    int64_t min;
    int64_t max;
  };
  for (const Case& c : std::vector<Case>{
           {"MATCH (a)-[:T*]->(b) RETURN a", 1, -1},
           {"MATCH (a)-[:T*3]->(b) RETURN a", 3, 3},
           {"MATCH (a)-[:T*1..4]->(b) RETURN a", 1, 4},
           {"MATCH (a)-[:T*..4]->(b) RETURN a", 1, 4},
           {"MATCH (a)-[:T*2..]->(b) RETURN a", 2, -1},
           {"MATCH (a)-[:T*0..2]->(b) RETURN a", 0, 2}}) {
    Query q = Parse(c.query);
    const auto& rel =
        std::get<MatchClause>(q.clauses[0]).parts[0].chain[0].first;
    EXPECT_TRUE(rel.variable_length) << c.query;
    EXPECT_EQ(rel.min_hops, c.min) << c.query;
    EXPECT_EQ(rel.max_hops, c.max) << c.query;
  }
}

TEST(ParserTest, InvertedBoundsRejected) {
  EXPECT_FALSE(ParseQuery("MATCH (a)-[:T*4..2]->(b) RETURN a").ok());
}

TEST(ParserTest, NamedPath) {
  Query q = Parse("MATCH t = (p:Post)-[:REPLY*]->(c:Comm) RETURN p, t");
  const auto& part = std::get<MatchClause>(q.clauses[0]).parts[0];
  EXPECT_EQ(part.path_variable, "t");
}

TEST(ParserTest, InlinePropertyPredicates) {
  Query q = Parse("MATCH (n:P {age: 30, name: 'x'}) RETURN n");
  const auto& node = std::get<MatchClause>(q.clauses[0]).parts[0].first;
  ASSERT_EQ(node.properties.size(), 2u);
  EXPECT_EQ(node.properties[0].first, "age");
  EXPECT_EQ(node.properties[1].first, "name");
}

TEST(ParserTest, WhereExpressionPrecedence) {
  Query q = Parse("MATCH (n) WHERE n.a = 1 OR n.b = 2 AND n.c = 3 RETURN n");
  const ExprPtr& where = std::get<MatchClause>(q.clauses[0]).where;
  ASSERT_TRUE(where != nullptr);
  // OR binds loosest: (a=1) OR ((b=2) AND (c=3)).
  EXPECT_EQ(where->binary_op, BinaryOp::kOr);
  EXPECT_EQ(where->children[1]->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, ComparisonLessThanNegativeNumber) {
  // `<-` would lex as an arrow; the parser must recover `<` + `-1`.
  Query q = Parse("MATCH (n) WHERE n.x <-1 RETURN n");
  const ExprPtr& where = std::get<MatchClause>(q.clauses[0]).where;
  EXPECT_EQ(where->binary_op, BinaryOp::kLt);
  EXPECT_EQ(where->children[1]->kind, ExprKind::kUnary);
  EXPECT_EQ(where->children[1]->unary_op, UnaryOp::kMinus);
}

TEST(ParserTest, StringPredicates) {
  Query q = Parse(
      "MATCH (n) WHERE n.s STARTS WITH 'a' AND n.s ENDS WITH 'b' AND "
      "n.s CONTAINS 'c' RETURN n");
  EXPECT_TRUE(std::get<MatchClause>(q.clauses[0]).where != nullptr);
}

TEST(ParserTest, IsNullAndIsNotNull) {
  Query q = Parse("MATCH (n) WHERE n.x IS NULL AND n.y IS NOT NULL RETURN n");
  const ExprPtr& where = std::get<MatchClause>(q.clauses[0]).where;
  EXPECT_EQ(where->children[0]->unary_op, UnaryOp::kIsNull);
  EXPECT_EQ(where->children[1]->unary_op, UnaryOp::kIsNotNull);
}

TEST(ParserTest, ListsMapsAndSubscripts) {
  Query q = Parse("RETURN [1, 2, 3][0] AS a, {x: 1}['x'] AS b, [] AS c");
  ASSERT_EQ(q.return_clause.items.size(), 3u);
  EXPECT_EQ(q.return_clause.items[0].expr->binary_op, BinaryOp::kSubscript);
}

TEST(ParserTest, FunctionCallsAndCountStar) {
  Query q = Parse("MATCH (n) RETURN count(*) AS c, size(labels(n)) AS s, "
                  "count(DISTINCT n.x) AS d");
  EXPECT_TRUE(q.return_clause.items[0].expr->star);
  EXPECT_EQ(q.return_clause.items[1].expr->name, "size");
  EXPECT_TRUE(q.return_clause.items[2].expr->distinct);
}

TEST(ParserTest, UnwindClause) {
  Query q = Parse("UNWIND [1,2] AS x RETURN x");
  ASSERT_EQ(q.clauses.size(), 1u);
  const auto& unwind = std::get<UnwindClause>(q.clauses[0]);
  EXPECT_EQ(unwind.alias, "x");
}

TEST(ParserTest, WithClause) {
  Query q = Parse("MATCH (n) WITH DISTINCT n.x AS x WHERE x > 1 RETURN x");
  ASSERT_EQ(q.clauses.size(), 2u);
  const auto& with = std::get<WithClause>(q.clauses[1]);
  EXPECT_TRUE(with.distinct);
  ASSERT_EQ(with.items.size(), 1u);
  EXPECT_EQ(with.items[0].alias, "x");
  EXPECT_TRUE(with.where != nullptr);
}

TEST(ParserTest, OptionalMatch) {
  Query q = Parse("MATCH (a) OPTIONAL MATCH (a)-[r]->(b) RETURN a, r");
  ASSERT_EQ(q.clauses.size(), 2u);
  EXPECT_FALSE(std::get<MatchClause>(q.clauses[0]).optional);
  EXPECT_TRUE(std::get<MatchClause>(q.clauses[1]).optional);
}

TEST(ParserTest, ReturnDistinctSkipLimit) {
  Query q = Parse("MATCH (n) RETURN DISTINCT n SKIP 5 LIMIT 10");
  EXPECT_TRUE(q.return_clause.distinct);
  EXPECT_EQ(q.return_clause.skip, 5);
  EXPECT_EQ(q.return_clause.limit, 10);
}

TEST(ParserTest, OrderByRejectedWithOrdHint) {
  Result<Query> q = ParseQuery("MATCH (n) RETURN n ORDER BY n.x");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("ORD"), std::string::npos);
}

TEST(ParserTest, DuplicateAliasesDisambiguated) {
  Query q = Parse("MATCH (n) RETURN n.x, n.x");
  EXPECT_NE(q.return_clause.items[0].alias, q.return_clause.items[1].alias);
}

TEST(ParserTest, MultiplePatternParts) {
  Query q = Parse("MATCH (a)-[:X]->(b), (c:L) RETURN a, c");
  EXPECT_EQ(std::get<MatchClause>(q.clauses[0]).parts.size(), 2u);
}

TEST(ParserTest, PropertiesOnVariableLengthRejected) {
  EXPECT_FALSE(ParseQuery("MATCH (a)-[:T* {w: 1}]->(b) RETURN a").ok());
}

TEST(ParserTest, UndirectedVariableLengthRejected) {
  EXPECT_FALSE(ParseQuery("MATCH (a)-[:T*]-(b) RETURN a").ok());
}

TEST(ParserTest, BidirectionalArrowRejected) {
  EXPECT_FALSE(ParseQuery("MATCH (a)<-[r]->(b) RETURN a").ok());
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseQuery("RETURN 1 banana").ok());
}

TEST(ParserTest, ErrorsCarryPositions) {
  Result<Query> q = ParseQuery("MATCH (n RETURN n");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("1:"), std::string::npos);
}

// Hostile nesting: recursive descent must fail with an error naming the
// limit instead of overflowing the stack. The RETURN item itself takes the
// first nesting level.
std::string Parenthesised(int depth) {
  return "MATCH (n) RETURN " + std::string(depth, '(') + "1" +
         std::string(depth, ')') + " AS x";
}

std::string Repeated(const std::string& text, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) out += text;
  return out;
}

TEST(ParserTest, NestingAtTheLimitParses) {
  EXPECT_TRUE(ParseQuery(Parenthesised(kMaxExpressionNesting - 1)).ok());
  const std::string nots = Repeated("NOT ", kMaxExpressionNesting - 1);
  EXPECT_TRUE(ParseQuery("RETURN " + nots + "true AS x").ok());
  EXPECT_FALSE(ParseQuery(Parenthesised(kMaxExpressionNesting)).ok());
}

void ExpectNestingError(const std::string& query) {
  Result<Query> q = ParseQuery(query);
  ASSERT_FALSE(q.ok()) << query.substr(0, 40);
  EXPECT_NE(q.status().message().find(
                "limit of " + std::to_string(kMaxExpressionNesting)),
            std::string::npos)
      << q.status();
}

constexpr int kHostileDepth = 100000;

TEST(ParserTest, DeepParenthesesAreAnError) {
  ExpectNestingError(Parenthesised(kHostileDepth));
}

TEST(ParserTest, DeepNotChainIsAnError) {
  ExpectNestingError("RETURN " + Repeated("NOT ", kHostileDepth) +
                     "true AS x");
}

TEST(ParserTest, DeepUnaryMinusChainIsAnError) {
  ExpectNestingError("RETURN " + Repeated("-", kHostileDepth) + "1 AS x");
}

TEST(ParserTest, DeepListLiteralIsAnError) {
  ExpectNestingError("RETURN " + Repeated("[", kHostileDepth) + "1" +
                     Repeated("]", kHostileDepth) + " AS x");
}

}  // namespace
}  // namespace pgivm
