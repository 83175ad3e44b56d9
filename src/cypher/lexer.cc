#include "cypher/lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_map>

#include "support/string_util.h"

namespace pgivm {

namespace {

const std::unordered_map<std::string, TokenKind>& KeywordTable() {
  static const auto* table = new std::unordered_map<std::string, TokenKind>{
      {"match", TokenKind::kMatch},       {"optional", TokenKind::kOptional},
      {"where", TokenKind::kWhere},       {"return", TokenKind::kReturn},
      {"with", TokenKind::kWith},         {"unwind", TokenKind::kUnwind},
      {"as", TokenKind::kAs},             {"distinct", TokenKind::kDistinct},
      {"and", TokenKind::kAnd},           {"or", TokenKind::kOr},
      {"xor", TokenKind::kXor},           {"not", TokenKind::kNot},
      {"in", TokenKind::kIn},             {"is", TokenKind::kIs},
      {"null", TokenKind::kNull},         {"true", TokenKind::kTrue},
      {"false", TokenKind::kFalse},       {"starts", TokenKind::kStarts},
      {"ends", TokenKind::kEnds},         {"contains", TokenKind::kContains},
      {"skip", TokenKind::kSkip},         {"limit", TokenKind::kLimit},
      {"order", TokenKind::kOrder},       {"by", TokenKind::kBy},
      {"case", TokenKind::kCase},         {"when", TokenKind::kWhen},
      {"then", TokenKind::kThen},         {"else", TokenKind::kElse},
      {"end", TokenKind::kEnd_},          {"union", TokenKind::kUnion},
      {"all", TokenKind::kAll},           {"exists", TokenKind::kExists},
  };
  return *table;
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    while (true) {
      PGIVM_RETURN_IF_ERROR(SkipTrivia());
      Token token;
      token.line = line_;
      token.column = column_;
      if (AtEnd()) {
        token.kind = TokenKind::kEnd;
        tokens.push_back(std::move(token));
        return tokens;
      }
      char c = Peek();
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        LexIdentifier(token);
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        PGIVM_RETURN_IF_ERROR(LexNumber(token));
      } else if (c == '\'' || c == '"') {
        PGIVM_RETURN_IF_ERROR(LexString(token));
      } else if (c == '`') {
        PGIVM_RETURN_IF_ERROR(LexBackquotedIdentifier(token));
      } else if (c == '$') {
        PGIVM_RETURN_IF_ERROR(LexParameter(token));
      } else {
        PGIVM_RETURN_IF_ERROR(LexOperator(token));
      }
      tokens.push_back(std::move(token));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrCat("lex error at ", line_, ":", column_, ": ", message));
  }

  Status SkipTrivia() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '/' && Peek(1) == '/') {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else if (c == '/' && Peek(1) == '*') {
        Advance();
        Advance();
        while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) Advance();
        if (AtEnd()) return Error("unterminated block comment");
        Advance();
        Advance();
      } else {
        break;
      }
    }
    return Status::Ok();
  }

  void LexIdentifier(Token& token) {
    std::string text;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_')) {
      text.push_back(Advance());
    }
    auto it = KeywordTable().find(AsciiLower(text));
    if (it != KeywordTable().end()) {
      token.kind = it->second;
    } else {
      token.kind = TokenKind::kIdentifier;
    }
    token.text = std::move(text);
  }

  Status LexParameter(Token& token) {
    Advance();  // consume '$'
    std::string name;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_')) {
      name.push_back(Advance());
    }
    if (name.empty()) return Error("'$' must be followed by a parameter name");
    token.kind = TokenKind::kParameter;
    token.text = std::move(name);
    return Status::Ok();
  }

  Status LexBackquotedIdentifier(Token& token) {
    Advance();  // consume opening backquote
    std::string text;
    while (!AtEnd() && Peek() != '`') text.push_back(Advance());
    if (AtEnd()) return Error("unterminated backquoted identifier");
    Advance();  // closing backquote
    token.kind = TokenKind::kIdentifier;
    token.text = std::move(text);
    return Status::Ok();
  }

  Status LexNumber(Token& token) {
    std::string text;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      text.push_back(Advance());
    }
    bool is_float = false;
    // A '.' only belongs to the number if followed by a digit; `1..3` must
    // lex as INTEGER DOTDOT INTEGER for variable-length patterns.
    if (Peek() == '.' && std::isdigit(static_cast<unsigned char>(Peek(1)))) {
      is_float = true;
      text.push_back(Advance());
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        text.push_back(Advance());
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      size_t ahead = 1;
      if (Peek(1) == '+' || Peek(1) == '-') ahead = 2;
      if (std::isdigit(static_cast<unsigned char>(Peek(ahead)))) {
        is_float = true;
        text.push_back(Advance());  // e
        if (Peek() == '+' || Peek() == '-') text.push_back(Advance());
        while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
          text.push_back(Advance());
        }
      }
    }
    if (is_float) {
      token.kind = TokenKind::kFloat;
      token.double_value = std::strtod(text.c_str(), nullptr);
    } else {
      token.kind = TokenKind::kInteger;
      // `text` is all digits, so the only failure is overflow.
      if (ParseInt64(text, &token.int_value) != ParseIntResult::kOk) {
        return Error(StrCat("integer literal ", text, " out of range"));
      }
    }
    token.text = std::move(text);
    return Status::Ok();
  }

  Status LexString(Token& token) {
    char quote = Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      char c = Advance();
      if (c == '\\') {
        if (AtEnd()) return Error("unterminated escape in string literal");
        char esc = Advance();
        switch (esc) {
          case 'n':
            value.push_back('\n');
            break;
          case 't':
            value.push_back('\t');
            break;
          case 'r':
            value.push_back('\r');
            break;
          case '\\':
          case '\'':
          case '"':
            value.push_back(esc);
            break;
          default:
            return Error(StrCat("unknown escape '\\", std::string(1, esc),
                                "' in string literal"));
        }
      } else {
        value.push_back(c);
      }
    }
    if (AtEnd()) return Error("unterminated string literal");
    Advance();  // closing quote
    token.kind = TokenKind::kString;
    token.text = value;
    token.string_value = std::move(value);
    return Status::Ok();
  }

  Status LexOperator(Token& token) {
    char c = Advance();
    switch (c) {
      case '(':
        token.kind = TokenKind::kLParen;
        return Status::Ok();
      case ')':
        token.kind = TokenKind::kRParen;
        return Status::Ok();
      case '[':
        token.kind = TokenKind::kLBracket;
        return Status::Ok();
      case ']':
        token.kind = TokenKind::kRBracket;
        return Status::Ok();
      case '{':
        token.kind = TokenKind::kLBrace;
        return Status::Ok();
      case '}':
        token.kind = TokenKind::kRBrace;
        return Status::Ok();
      case ',':
        token.kind = TokenKind::kComma;
        return Status::Ok();
      case ':':
        token.kind = TokenKind::kColon;
        return Status::Ok();
      case ';':
        token.kind = TokenKind::kSemicolon;
        return Status::Ok();
      case '|':
        token.kind = TokenKind::kPipe;
        return Status::Ok();
      case '+':
        token.kind = TokenKind::kPlus;
        return Status::Ok();
      case '*':
        token.kind = TokenKind::kStar;
        return Status::Ok();
      case '/':
        token.kind = TokenKind::kSlash;
        return Status::Ok();
      case '%':
        token.kind = TokenKind::kPercent;
        return Status::Ok();
      case '=':
        token.kind = TokenKind::kEq;
        return Status::Ok();
      case '.':
        if (Peek() == '.') {
          Advance();
          token.kind = TokenKind::kDotDot;
        } else {
          token.kind = TokenKind::kDot;
        }
        return Status::Ok();
      case '-':
        if (Peek() == '>') {
          // Lexed as '-' then '>' pair is ambiguous with comparison; emit a
          // dedicated arrow token for the pattern grammar.
          Advance();
          token.kind = TokenKind::kArrowRight;
        } else {
          token.kind = TokenKind::kMinus;
        }
        return Status::Ok();
      case '<':
        if (Peek() == '-') {
          Advance();
          token.kind = TokenKind::kArrowLeft;
        } else if (Peek() == '>') {
          Advance();
          token.kind = TokenKind::kNeq;
        } else if (Peek() == '=') {
          Advance();
          token.kind = TokenKind::kLe;
        } else {
          token.kind = TokenKind::kLt;
        }
        return Status::Ok();
      case '>':
        if (Peek() == '=') {
          Advance();
          token.kind = TokenKind::kGe;
        } else {
          token.kind = TokenKind::kGt;
        }
        return Status::Ok();
      default:
        return Error(StrCat("unexpected character '", std::string(1, c), "'"));
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view query) {
  return Lexer(query).Run();
}

}  // namespace pgivm
