#include "cypher/parser.h"

#include <unordered_set>

#include "cypher/lexer.h"
#include "support/string_util.h"

namespace pgivm {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Run() {
    PGIVM_ASSIGN_OR_RETURN(Query query, ParseSingleQuery());
    while (Match(TokenKind::kUnion)) {
      bool all = Match(TokenKind::kAll);
      PGIVM_ASSIGN_OR_RETURN(Query next, ParseSingleQuery());
      if (next.return_clause.skip > 0 || next.return_clause.limit >= 0 ||
          query.return_clause.skip > 0 || query.return_clause.limit >= 0) {
        return ErrorHere("SKIP/LIMIT are not supported in UNION queries");
      }
      query.unions.emplace_back(all, std::make_shared<Query>(std::move(next)));
    }
    if (Check(TokenKind::kSemicolon)) Advance();
    if (!Check(TokenKind::kEnd)) {
      return ErrorHere(StrCat("unexpected ", Peek().ToString(),
                              " after end of query"));
    }
    return query;
  }

 private:
  Result<Query> ParseSingleQuery() {
    Query query;
    while (true) {
      if (Check(TokenKind::kMatch) || Check(TokenKind::kOptional)) {
        PGIVM_ASSIGN_OR_RETURN(MatchClause m, ParseMatch());
        query.clauses.push_back(std::move(m));
      } else if (Check(TokenKind::kUnwind)) {
        PGIVM_ASSIGN_OR_RETURN(UnwindClause u, ParseUnwind());
        query.clauses.push_back(std::move(u));
      } else if (Check(TokenKind::kWith)) {
        PGIVM_ASSIGN_OR_RETURN(WithClause w, ParseWith());
        query.clauses.push_back(std::move(w));
      } else {
        break;
      }
      if (!pending_pattern_predicates_.empty()) {
        return ErrorHere(
            "exists(pattern) is only supported in a MATCH WHERE clause");
      }
    }
    PGIVM_ASSIGN_OR_RETURN(query.return_clause, ParseReturn());
    if (!pending_pattern_predicates_.empty()) {
      return ErrorHere(
          "exists(pattern) is only supported in a MATCH WHERE clause");
    }
    return query;
  }

 private:
  // ---- Token helpers -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }

  Status ErrorHere(const std::string& message) const {
    const Token& t = Peek();
    return Status::InvalidArgument(
        StrCat("parse error at ", t.line, ":", t.column, ": ", message));
  }

  Status Expect(TokenKind kind) {
    if (Match(kind)) return Status::Ok();
    return ErrorHere(StrCat("expected ", TokenKindName(kind), ", found ",
                            Peek().ToString()));
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorHere(
          StrCat("expected ", what, ", found ", Peek().ToString()));
    }
    return Advance().text;
  }

  std::string FreshAnonVariable() {
    return StrCat("#anon", ++anon_counter_);
  }

  // ---- Clauses -----------------------------------------------------------

  Result<MatchClause> ParseMatch() {
    MatchClause clause;
    if (Match(TokenKind::kOptional)) clause.optional = true;
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kMatch));
    while (true) {
      PGIVM_ASSIGN_OR_RETURN(PatternPart part, ParsePatternPart());
      clause.parts.push_back(std::move(part));
      if (!Match(TokenKind::kComma)) break;
    }
    if (Match(TokenKind::kWhere)) {
      PGIVM_ASSIGN_OR_RETURN(clause.where, ParseExpression());
      clause.pattern_predicates = std::move(pending_pattern_predicates_);
      pending_pattern_predicates_.clear();
    }
    return clause;
  }

  Result<UnwindClause> ParseUnwind() {
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kUnwind));
    UnwindClause clause;
    PGIVM_ASSIGN_OR_RETURN(clause.expr, ParseExpression());
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kAs));
    PGIVM_ASSIGN_OR_RETURN(clause.alias, ExpectIdentifier("UNWIND alias"));
    return clause;
  }

  Result<WithClause> ParseWith() {
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kWith));
    WithClause clause;
    if (Match(TokenKind::kDistinct)) clause.distinct = true;
    PGIVM_ASSIGN_OR_RETURN(clause.items, ParseReturnItems());
    if (Match(TokenKind::kWhere)) {
      PGIVM_ASSIGN_OR_RETURN(clause.where, ParseExpression());
    }
    return clause;
  }

  Result<ReturnClause> ParseReturn() {
    if (!Check(TokenKind::kReturn)) {
      return ErrorHere(StrCat("expected RETURN, found ", Peek().ToString()));
    }
    Advance();
    ReturnClause clause;
    if (Match(TokenKind::kDistinct)) clause.distinct = true;
    PGIVM_ASSIGN_OR_RETURN(clause.items, ParseReturnItems());
    if (Match(TokenKind::kOrder)) {
      return ErrorHere(
          "ORDER BY is not incrementally maintainable (the paper's ORD "
          "restriction); sort View::Snapshot results instead");
    }
    if (Match(TokenKind::kSkip)) {
      if (!Check(TokenKind::kInteger)) {
        return ErrorHere("SKIP expects an integer literal");
      }
      clause.skip = Advance().int_value;
    }
    if (Match(TokenKind::kLimit)) {
      if (!Check(TokenKind::kInteger)) {
        return ErrorHere("LIMIT expects an integer literal");
      }
      clause.limit = Advance().int_value;
    }
    return clause;
  }

  Result<std::vector<ReturnItem>> ParseReturnItems() {
    std::vector<ReturnItem> items;
    std::unordered_set<std::string> used;
    while (true) {
      ReturnItem item;
      PGIVM_ASSIGN_OR_RETURN(item.expr, ParseExpression());
      if (Match(TokenKind::kAs)) {
        PGIVM_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
      } else {
        item.alias = item.expr->ToString();
      }
      // Column names must be unique downstream; disambiguate silently.
      std::string base = item.alias;
      for (int n = 2; used.count(item.alias) > 0; ++n) {
        item.alias = StrCat(base, "#", n);
      }
      used.insert(item.alias);
      items.push_back(std::move(item));
      if (!Match(TokenKind::kComma)) break;
    }
    return items;
  }

  // ---- Patterns ----------------------------------------------------------

  Result<PatternPart> ParsePatternPart() {
    PatternPart part;
    // `p = (...)` — lookahead for IDENT '='.
    if (Check(TokenKind::kIdentifier) && Peek(1).kind == TokenKind::kEq) {
      part.path_variable = Advance().text;
      Advance();  // '='
    }
    PGIVM_ASSIGN_OR_RETURN(part.first, ParseNodePattern());
    while (Check(TokenKind::kMinus) || Check(TokenKind::kArrowLeft)) {
      PGIVM_ASSIGN_OR_RETURN(RelPattern rel, ParseRelPattern());
      PGIVM_ASSIGN_OR_RETURN(NodePattern node, ParseNodePattern());
      part.chain.emplace_back(std::move(rel), std::move(node));
    }
    return part;
  }

  Result<NodePattern> ParseNodePattern() {
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    NodePattern node;
    if (Check(TokenKind::kIdentifier)) {
      node.variable = Advance().text;
    } else {
      node.variable = FreshAnonVariable();
    }
    while (Match(TokenKind::kColon)) {
      PGIVM_ASSIGN_OR_RETURN(std::string label, ExpectIdentifier("label"));
      node.labels.push_back(std::move(label));
    }
    if (Check(TokenKind::kLBrace)) {
      PGIVM_ASSIGN_OR_RETURN(node.properties, ParsePropertyMap());
    }
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return node;
  }

  /// Parses the relationship between two node patterns. Handles the short
  /// forms `--`, `-->`, `<--` (no bracket detail) as well as bracketed
  /// details with types, variable-length and properties.
  Result<RelPattern> ParseRelPattern() {
    RelPattern rel;
    bool left_arrow = false;
    if (Match(TokenKind::kArrowLeft)) {
      left_arrow = true;
    } else {
      PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
    }

    if (Match(TokenKind::kLBracket)) {
      if (Check(TokenKind::kIdentifier)) {
        rel.variable = Advance().text;
      } else {
        rel.variable = FreshAnonVariable();
      }
      if (Match(TokenKind::kColon)) {
        PGIVM_ASSIGN_OR_RETURN(std::string type,
                               ExpectIdentifier("relationship type"));
        rel.types.push_back(std::move(type));
        while (Match(TokenKind::kPipe)) {
          Match(TokenKind::kColon);  // `|:T` and `|T` are both accepted
          PGIVM_ASSIGN_OR_RETURN(std::string more,
                                 ExpectIdentifier("relationship type"));
          rel.types.push_back(std::move(more));
        }
      }
      if (Match(TokenKind::kStar)) {
        rel.variable_length = true;
        rel.min_hops = 1;
        rel.max_hops = -1;
        if (Check(TokenKind::kInteger)) {
          rel.min_hops = Advance().int_value;
          rel.max_hops = rel.min_hops;  // `*n` = exactly n, unless `..`
          if (Match(TokenKind::kDotDot)) {
            rel.max_hops =
                Check(TokenKind::kInteger) ? Advance().int_value : -1;
          }
        } else if (Match(TokenKind::kDotDot)) {  // `*..m`
          rel.min_hops = 1;
          rel.max_hops =
              Check(TokenKind::kInteger) ? Advance().int_value : -1;
        }
        if (rel.max_hops >= 0 && rel.max_hops < rel.min_hops) {
          return ErrorHere("variable-length bounds are inverted (min > max)");
        }
        if (rel.min_hops < 0) {
          return ErrorHere("variable-length minimum must be >= 0");
        }
      }
      if (Check(TokenKind::kLBrace)) {
        PGIVM_ASSIGN_OR_RETURN(rel.properties, ParsePropertyMap());
        if (rel.variable_length) {
          return ErrorHere(
              "property predicates on variable-length relationships are not "
              "supported");
        }
      }
      PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    } else {
      rel.variable = FreshAnonVariable();
    }

    bool right_arrow = false;
    if (Match(TokenKind::kArrowRight)) {
      right_arrow = true;
    } else {
      PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
    }

    if (left_arrow && right_arrow) {
      return ErrorHere("relationship pattern cannot point both ways");
    }
    rel.direction = left_arrow    ? RelPattern::Direction::kIn
                    : right_arrow ? RelPattern::Direction::kOut
                                  : RelPattern::Direction::kBoth;
    if (rel.variable_length &&
        rel.direction == RelPattern::Direction::kBoth) {
      return ErrorHere(
          "undirected variable-length relationships are not supported");
    }
    return rel;
  }

  Result<std::vector<std::pair<std::string, ExprPtr>>> ParsePropertyMap() {
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    std::vector<std::pair<std::string, ExprPtr>> props;
    if (!Check(TokenKind::kRBrace)) {
      while (true) {
        PGIVM_ASSIGN_OR_RETURN(std::string key,
                               ExpectIdentifier("property key"));
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kColon));
        PGIVM_ASSIGN_OR_RETURN(ExprPtr value, ParseExpression());
        props.emplace_back(std::move(key), std::move(value));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    return props;
  }

  // ---- Expressions -------------------------------------------------------

  /// Takes one nesting level; the caller gives it back with `--depth_` once
  /// the nested parse succeeded (a failed parse is abandoned whole).
  Status EnterNesting() {
    if (++depth_ > kMaxExpressionNesting) {
      return ErrorHere(StrCat("expression nesting exceeds the limit of ",
                              kMaxExpressionNesting));
    }
    return Status::Ok();
  }

  Result<ExprPtr> ParseExpression() {
    PGIVM_RETURN_IF_ERROR(EnterNesting());
    PGIVM_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr());
    --depth_;
    return expr;
  }

  Result<ExprPtr> ParseOr() {
    PGIVM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseXor());
    while (Match(TokenKind::kOr)) {
      PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseXor());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseXor() {
    PGIVM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Match(TokenKind::kXor)) {
      PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kXor, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    PGIVM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Match(TokenKind::kAnd)) {
      PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Match(TokenKind::kNot)) {
      PGIVM_RETURN_IF_ERROR(EnterNesting());
      PGIVM_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      --depth_;
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    PGIVM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive(false));
    while (true) {
      BinaryOp op;
      bool negate_rhs = false;
      if (Match(TokenKind::kEq)) {
        op = BinaryOp::kEq;
      } else if (Match(TokenKind::kNeq)) {
        op = BinaryOp::kNe;
      } else if (Match(TokenKind::kLt)) {
        op = BinaryOp::kLt;
      } else if (Match(TokenKind::kLe)) {
        op = BinaryOp::kLe;
      } else if (Match(TokenKind::kGt)) {
        op = BinaryOp::kGt;
      } else if (Match(TokenKind::kGe)) {
        op = BinaryOp::kGe;
      } else if (Check(TokenKind::kArrowLeft)) {
        // `x <-1` lexes as ARROW_LEFT; in expression position it means
        // `x < -1`: reinterpret and negate the first following factor.
        Advance();
        op = BinaryOp::kLt;
        negate_rhs = true;
      } else if (Match(TokenKind::kIn)) {
        op = BinaryOp::kIn;
      } else if (Check(TokenKind::kStarts) &&
                 Peek(1).kind == TokenKind::kWith) {
        Advance();
        Advance();
        op = BinaryOp::kStartsWith;
      } else if (Check(TokenKind::kEnds) && Peek(1).kind == TokenKind::kWith) {
        Advance();
        Advance();
        op = BinaryOp::kEndsWith;
      } else if (Match(TokenKind::kContains)) {
        op = BinaryOp::kContains;
      } else if (Check(TokenKind::kIs)) {
        Advance();
        bool negated = Match(TokenKind::kNot);
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kNull));
        lhs = MakeUnary(negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull,
                        std::move(lhs));
        continue;
      } else {
        break;
      }
      PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive(negate_rhs));
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive(bool negate_first) {
    PGIVM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative(negate_first));
    while (true) {
      if (Match(TokenKind::kPlus)) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative(false));
        lhs = MakeBinary(BinaryOp::kAdd, std::move(lhs), std::move(rhs));
      } else if (Match(TokenKind::kMinus)) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative(false));
        lhs = MakeBinary(BinaryOp::kSub, std::move(lhs), std::move(rhs));
      } else {
        break;
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative(bool negate_first) {
    PGIVM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnaryExpr());
    if (negate_first) lhs = MakeUnary(UnaryOp::kMinus, std::move(lhs));
    while (true) {
      if (Match(TokenKind::kStar)) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr());
        lhs = MakeBinary(BinaryOp::kMul, std::move(lhs), std::move(rhs));
      } else if (Match(TokenKind::kSlash)) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr());
        lhs = MakeBinary(BinaryOp::kDiv, std::move(lhs), std::move(rhs));
      } else if (Match(TokenKind::kPercent)) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr());
        lhs = MakeBinary(BinaryOp::kMod, std::move(lhs), std::move(rhs));
      } else {
        break;
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnaryExpr() {
    const bool minus = Match(TokenKind::kMinus);
    if (minus || Match(TokenKind::kPlus)) {
      PGIVM_RETURN_IF_ERROR(EnterNesting());
      PGIVM_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnaryExpr());
      --depth_;
      return minus ? MakeUnary(UnaryOp::kMinus, std::move(operand)) : operand;
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    PGIVM_ASSIGN_OR_RETURN(ExprPtr expr, ParsePrimary());
    while (true) {
      if (Match(TokenKind::kDot)) {
        PGIVM_ASSIGN_OR_RETURN(std::string key,
                               ExpectIdentifier("property name"));
        expr = MakeProperty(std::move(expr), std::move(key));
      } else if (Match(TokenKind::kLBracket)) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr index, ParseExpression());
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
        expr = MakeBinary(BinaryOp::kSubscript, std::move(expr),
                          std::move(index));
      } else {
        break;
      }
    }
    return expr;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInteger:
        Advance();
        return MakeLiteral(Value::Int(t.int_value));
      case TokenKind::kFloat:
        Advance();
        return MakeLiteral(Value::Double(t.double_value));
      case TokenKind::kString:
        Advance();
        return MakeLiteral(Value::String(t.string_value));
      case TokenKind::kTrue:
        Advance();
        return MakeLiteral(Value::Bool(true));
      case TokenKind::kFalse:
        Advance();
        return MakeLiteral(Value::Bool(false));
      case TokenKind::kNull:
        Advance();
        return MakeLiteral(Value::Null());
      case TokenKind::kLParen: {
        Advance();
        PGIVM_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return inner;
      }
      case TokenKind::kLBracket: {
        Advance();
        // `[x IN list ...]` is a comprehension, not a literal.
        if (Check(TokenKind::kIdentifier) &&
            Peek(1).kind == TokenKind::kIn) {
          PGIVM_ASSIGN_OR_RETURN(ExprPtr comprehension,
                                 ParseComprehensionTail("list"));
          PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
          return comprehension;
        }
        std::vector<ExprPtr> elements;
        if (!Check(TokenKind::kRBracket)) {
          while (true) {
            PGIVM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
            elements.push_back(std::move(e));
            if (!Match(TokenKind::kComma)) break;
          }
        }
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
        return MakeListLiteral(std::move(elements));
      }
      case TokenKind::kLBrace: {
        PGIVM_ASSIGN_OR_RETURN(auto props, ParsePropertyMap());
        std::vector<std::string> keys;
        std::vector<ExprPtr> values;
        for (auto& [k, v] : props) {
          keys.push_back(k);
          values.push_back(v);
        }
        return MakeMapLiteral(std::move(keys), std::move(values));
      }
      case TokenKind::kParameter:
        return MakeParameter(Advance().text);
      case TokenKind::kAll: {
        Advance();
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        PGIVM_ASSIGN_OR_RETURN(ExprPtr quantifier,
                               ParseComprehensionTail("all"));
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return quantifier;
      }
      case TokenKind::kCase:
        return ParseCase();
      case TokenKind::kExists: {
        Advance();
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        if (Check(TokenKind::kLParen)) {
          // exists((a)-[:T]->(b)): a pattern predicate, recorded in the
          // enclosing MATCH clause's side table.
          PGIVM_ASSIGN_OR_RETURN(PatternPart part, ParsePatternPart());
          if (!part.path_variable.empty()) {
            return ErrorHere("exists() patterns cannot bind a path");
          }
          PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
          int index = static_cast<int>(pending_pattern_predicates_.size());
          pending_pattern_predicates_.push_back(std::move(part));
          return MakePatternPredicate(index);
        }
        // exists(expr): property-existence test.
        PGIVM_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
        PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return MakeUnary(UnaryOp::kIsNotNull, std::move(inner));
      }
      case TokenKind::kIdentifier: {
        std::string name = Advance().text;
        if (Check(TokenKind::kLParen)) {
          return ParseFunctionCall(std::move(name));
        }
        return MakeVariable(std::move(name));
      }
      default:
        return ErrorHere(
            StrCat("expected an expression, found ", Peek().ToString()));
    }
  }

  /// Parses `var IN list [WHERE pred] [| map]` (the closing bracket or
  /// parenthesis is consumed by the caller). `mode` selects list
  /// comprehension vs. any/all/none/single quantifier semantics.
  Result<ExprPtr> ParseComprehensionTail(const std::string& mode) {
    PGIVM_ASSIGN_OR_RETURN(std::string variable,
                           ExpectIdentifier("comprehension variable"));
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kIn));
    PGIVM_ASSIGN_OR_RETURN(ExprPtr list, ParseExpression());
    ExprPtr where;
    if (Match(TokenKind::kWhere)) {
      PGIVM_ASSIGN_OR_RETURN(where, ParseExpression());
    }
    ExprPtr map;
    if (mode == "list" && Match(TokenKind::kPipe)) {
      PGIVM_ASSIGN_OR_RETURN(map, ParseExpression());
    }
    return MakeComprehension(mode, std::move(variable), std::move(list),
                             std::move(where), std::move(map));
  }

  Result<ExprPtr> ParseCase() {
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kCase));
    ExprPtr operand;  // Simple-form operand, if present.
    if (!Check(TokenKind::kWhen)) {
      PGIVM_ASSIGN_OR_RETURN(operand, ParseExpression());
    }
    std::vector<std::pair<ExprPtr, ExprPtr>> when_then;
    while (Match(TokenKind::kWhen)) {
      PGIVM_ASSIGN_OR_RETURN(ExprPtr when, ParseExpression());
      PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kThen));
      PGIVM_ASSIGN_OR_RETURN(ExprPtr then, ParseExpression());
      when_then.emplace_back(std::move(when), std::move(then));
    }
    if (when_then.empty()) {
      return ErrorHere("CASE requires at least one WHEN branch");
    }
    ExprPtr else_value;
    if (Match(TokenKind::kElse)) {
      PGIVM_ASSIGN_OR_RETURN(else_value, ParseExpression());
    }
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kEnd_));
    return MakeCase(std::move(operand), std::move(when_then),
                    std::move(else_value));
  }

  Result<ExprPtr> ParseFunctionCall(std::string name) {
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    std::string lower = AsciiLower(name);
    if ((lower == "any" || lower == "none" || lower == "single") &&
        Check(TokenKind::kIdentifier) && Peek(1).kind == TokenKind::kIn) {
      PGIVM_ASSIGN_OR_RETURN(ExprPtr quantifier,
                             ParseComprehensionTail(lower));
      PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return quantifier;
    }
    if (Check(TokenKind::kStar)) {
      Advance();
      PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      if (lower != "count") {
        return ErrorHere("only count(*) accepts '*'");
      }
      return MakeCountStar();
    }
    bool distinct = Match(TokenKind::kDistinct);
    std::vector<ExprPtr> args;
    if (!Check(TokenKind::kRParen)) {
      while (true) {
        PGIVM_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpression());
        args.push_back(std::move(arg));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    PGIVM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return MakeFunctionCall(std::move(lower), std::move(args), distinct);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int anon_counter_ = 0;
  /// Current expression nesting (see EnterNesting).
  int depth_ = 0;
  /// exists(pattern) occurrences collected while parsing the current WHERE;
  /// claimed by the enclosing MATCH clause.
  std::vector<PatternPart> pending_pattern_predicates_;
};

}  // namespace

Result<Query> ParseQuery(std::string_view query) {
  PGIVM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  return Parser(std::move(tokens)).Run();
}

}  // namespace pgivm
