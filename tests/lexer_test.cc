#include "cypher/lexer.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace pgivm {
namespace {

std::vector<TokenKind> Kinds(const std::string& input) {
  Result<std::vector<Token>> tokens = Tokenize(input);
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens.value()) kinds.push_back(t.kind);
  return kinds;
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  EXPECT_EQ(Kinds("MATCH match MaTcH"),
            (std::vector<TokenKind>{TokenKind::kMatch, TokenKind::kMatch,
                                    TokenKind::kMatch, TokenKind::kEnd}));
}

TEST(LexerTest, IdentifiersKeepCase) {
  Result<std::vector<Token>> tokens = Tokenize("myVar _x a1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "myVar");
  EXPECT_EQ(tokens.value()[1].text, "_x");
  EXPECT_EQ(tokens.value()[2].text, "a1");
}

TEST(LexerTest, NumbersIntAndFloat) {
  Result<std::vector<Token>> tokens = Tokenize("42 3.5 1e3 2.5e-1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens.value()[0].int_value, 42);
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens.value()[1].double_value, 3.5);
  EXPECT_EQ(tokens.value()[2].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens.value()[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens.value()[3].double_value, 0.25);
}

TEST(LexerTest, Int64MaxLiteralIsAccepted) {
  Result<std::vector<Token>> tokens = Tokenize("RETURN 9223372036854775807");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens.value()[1].int_value, INT64_MAX);
}

TEST(LexerTest, OutOfRangeIntegerLiteralFails) {
  // One past INT64_MAX must be an error, not a saturated INT64_MAX.
  Result<std::vector<Token>> tokens = Tokenize("RETURN 9223372036854775808");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("out of range"),
            std::string::npos)
      << tokens.status();
  EXPECT_FALSE(Tokenize("RETURN 99999999999999999999").ok());
}

TEST(LexerTest, RangeDotsDoNotEatIntegers) {
  // `1..3` must lex as INT DOTDOT INT for variable-length patterns.
  EXPECT_EQ(Kinds("*1..3"),
            (std::vector<TokenKind>{TokenKind::kStar, TokenKind::kInteger,
                                    TokenKind::kDotDot, TokenKind::kInteger,
                                    TokenKind::kEnd}));
}

TEST(LexerTest, StringsWithBothQuotesAndEscapes) {
  Result<std::vector<Token>> tokens = Tokenize("'it' \"x\\n\" 'a\\'b'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].string_value, "it");
  EXPECT_EQ(tokens.value()[1].string_value, "x\n");
  EXPECT_EQ(tokens.value()[2].string_value, "a'b");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, ArrowsAndComparisons) {
  EXPECT_EQ(Kinds("-> <- <> <= >= < >"),
            (std::vector<TokenKind>{
                TokenKind::kArrowRight, TokenKind::kArrowLeft,
                TokenKind::kNeq, TokenKind::kLe, TokenKind::kGe,
                TokenKind::kLt, TokenKind::kGt, TokenKind::kEnd}));
}

TEST(LexerTest, PatternArrowSequences) {
  // (a)-[r]->(b) and (a)<-[r]-(b)
  EXPECT_EQ(Kinds(")-[" ), (std::vector<TokenKind>{
      TokenKind::kRParen, TokenKind::kMinus, TokenKind::kLBracket,
      TokenKind::kEnd}));
  EXPECT_EQ(Kinds("]->("), (std::vector<TokenKind>{
      TokenKind::kRBracket, TokenKind::kArrowRight, TokenKind::kLParen,
      TokenKind::kEnd}));
  EXPECT_EQ(Kinds(")<-["), (std::vector<TokenKind>{
      TokenKind::kRParen, TokenKind::kArrowLeft, TokenKind::kLBracket,
      TokenKind::kEnd}));
  // `-->` is MINUS ARROW; `<--` is ARROWLEFT MINUS.
  EXPECT_EQ(Kinds("-->"), (std::vector<TokenKind>{
      TokenKind::kMinus, TokenKind::kArrowRight, TokenKind::kEnd}));
  EXPECT_EQ(Kinds("<--"), (std::vector<TokenKind>{
      TokenKind::kArrowLeft, TokenKind::kMinus, TokenKind::kEnd}));
}

TEST(LexerTest, CommentsAreSkipped) {
  EXPECT_EQ(Kinds("MATCH // line comment\n RETURN /* block */ 1"),
            (std::vector<TokenKind>{TokenKind::kMatch, TokenKind::kReturn,
                                    TokenKind::kInteger, TokenKind::kEnd}));
}

TEST(LexerTest, UnterminatedBlockCommentFails) {
  EXPECT_FALSE(Tokenize("MATCH /* oops").ok());
}

TEST(LexerTest, BackquotedIdentifiers) {
  Result<std::vector<Token>> tokens = Tokenize("`weird name`");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens.value()[0].text, "weird name");
}

TEST(LexerTest, PositionsAreTracked) {
  Result<std::vector<Token>> tokens = Tokenize("MATCH\n  RETURN");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].line, 1);
  EXPECT_EQ(tokens.value()[0].column, 1);
  EXPECT_EQ(tokens.value()[1].line, 2);
  EXPECT_EQ(tokens.value()[1].column, 3);
}

TEST(LexerTest, UnexpectedCharacterFails) {
  Result<std::vector<Token>> tokens = Tokenize("MATCH @");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("unexpected character"),
            std::string::npos);
}

}  // namespace
}  // namespace pgivm
