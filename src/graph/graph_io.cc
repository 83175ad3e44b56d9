#include "graph/graph_io.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "support/string_util.h"

namespace pgivm {

namespace {

void WriteEscaped(const std::string& s, std::ostringstream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

void WriteValueRec(const Value& value, std::ostringstream& os) {
  switch (value.type()) {
    case Value::Type::kNull:
    case Value::Type::kVertex:
    case Value::Type::kEdge:
    case Value::Type::kPath:
      os << "null";
      break;
    case Value::Type::kBool:
      os << (value.AsBool() ? "true" : "false");
      break;
    case Value::Type::kInt:
      os << value.AsInt();
      break;
    case Value::Type::kDouble: {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value.AsDouble());
      os << buffer;
      // Keep doubles distinguishable from ints on re-parse.
      std::string_view rendered(buffer);
      if (rendered.find('.') == std::string_view::npos &&
          rendered.find('e') == std::string_view::npos &&
          rendered.find("inf") == std::string_view::npos &&
          rendered.find("nan") == std::string_view::npos) {
        os << ".0";
      }
      break;
    }
    case Value::Type::kString:
      WriteEscaped(value.AsString(), os);
      break;
    case Value::Type::kList: {
      os << '[';
      const ValueList& list = value.AsList();
      for (size_t i = 0; i < list.size(); ++i) {
        if (i > 0) os << ", ";
        WriteValueRec(list[i], os);
      }
      os << ']';
      break;
    }
    case Value::Type::kMap: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : value.AsMap()) {
        if (!first) os << ", ";
        first = false;
        WriteEscaped(k, os);
        os << ": ";
        WriteValueRec(v, os);
      }
      os << '}';
      break;
    }
  }
}

/// Minimal recursive-descent parser for the value grammar above.
class ValueParser {
 public:
  explicit ValueParser(std::string_view text) : text_(text) {}

  Result<Value> Parse() {
    PGIVM_ASSIGN_OR_RETURN(Value v, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          StrCat("trailing characters in value at offset ", pos_));
    }
    return v;
  }

  /// Parses one value and leaves the cursor after it (for embedding in the
  /// graph line parser).
  Result<Value> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of value text");
    }
    char c = text_[pos_];
    if (c == 'n' && Consume("null")) return Value::Null();
    if (c == 't' && Consume("true")) return Value::Bool(true);
    if (c == 'f' && Consume("false")) return Value::Bool(false);
    if (c == '"') return ParseString();
    if (c == '[' || c == '{') {
      if (++depth_ > kMaxValueNesting) {
        return Status::InvalidArgument(
            StrCat("value nesting exceeds the limit of ", kMaxValueNesting,
                   " at offset ", pos_));
      }
      PGIVM_ASSIGN_OR_RETURN(Value v, c == '[' ? ParseList() : ParseMap());
      --depth_;
      return v;
    }
    return ParseNumber();
  }

  size_t position() const { return pos_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return Status::InvalidArgument("unterminated escape");
        }
        char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case '"':
          case '\\':
            out.push_back(esc);
            break;
          default:
            return Status::InvalidArgument(
                StrCat("unknown escape \\", std::string(1, esc)));
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unterminated string");
    }
    ++pos_;  // closing quote
    return Value::String(std::move(out));
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' ||
                 ((c == '-' || c == '+') && pos_ > start &&
                  (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))) {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Status::InvalidArgument(
          StrCat("expected a value at offset ", start));
    }
    std::string token(text_.substr(start, pos_ - start));
    // An unparseable token ("-", "1e", "1.2.3") or an out-of-range number
    // must surface as a load error, never as Int(0), garbage or a
    // saturated value.
    if (is_double) {
      errno = 0;
      char* end = nullptr;
      double parsed = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size() || end == token.c_str()) {
        return Status::InvalidArgument(
            StrCat("malformed number \"", token, "\" at offset ", start));
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument(
            StrCat("number \"", token, "\" out of range at offset ", start));
      }
      return Value::Double(parsed);
    }
    int64_t parsed = 0;
    ParseIntResult result = ParseInt64(token, &parsed);
    if (result == ParseIntResult::kMalformed) {
      return Status::InvalidArgument(
          StrCat("malformed number \"", token, "\" at offset ", start));
    }
    if (result == ParseIntResult::kOutOfRange) {
      return Status::InvalidArgument(
          StrCat("integer \"", token, "\" out of range at offset ", start));
    }
    return Value::Int(parsed);
  }

  Result<Value> ParseList() {
    ++pos_;  // '['
    ValueList elements;
    SkipSpace();
    if (Consume("]")) return Value::List(std::move(elements));
    while (true) {
      PGIVM_ASSIGN_OR_RETURN(Value v, ParseValue());
      elements.push_back(std::move(v));
      SkipSpace();
      if (Consume("]")) break;
      if (!Consume(",")) {
        return Status::InvalidArgument("expected ',' or ']' in list");
      }
    }
    return Value::List(std::move(elements));
  }

  Result<Value> ParseMap() {
    ++pos_;  // '{'
    ValueMap entries;
    SkipSpace();
    if (Consume("}")) return Value::Map(std::move(entries));
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::InvalidArgument("expected a quoted map key");
      }
      PGIVM_ASSIGN_OR_RETURN(Value key, ParseString());
      SkipSpace();
      if (!Consume(":")) {
        return Status::InvalidArgument("expected ':' after map key");
      }
      PGIVM_ASSIGN_OR_RETURN(Value v, ParseValue());
      entries[key.AsString()] = std::move(v);
      SkipSpace();
      if (Consume("}")) break;
      if (!Consume(",")) {
        return Status::InvalidArgument("expected ',' or '}' in map");
      }
    }
    return Value::Map(std::move(entries));
  }

  std::string_view text_;
  size_t pos_ = 0;
  /// Open lists/maps around the cursor (see kMaxValueNesting); a failed
  /// parse is abandoned whole, so error paths need not restore it.
  int depth_ = 0;
};

}  // namespace

std::string WriteValueText(const Value& value) {
  std::ostringstream os;
  WriteValueRec(value, os);
  return os.str();
}

Result<Value> ParseValueText(std::string_view text) {
  return ValueParser(text).Parse();
}

std::string WriteGraphText(const PropertyGraph& graph) {
  std::ostringstream os;
  os << "pgivm-graph 1\n";
  graph.ForEachVertex([&](VertexId v) {
    os << "vertex " << v << " :";
    os << StrJoin(graph.VertexLabels(v), ":");
    os << " ";
    WriteValueRec(Value::Map(graph.VertexProperties(v)), os);
    os << "\n";
  });
  graph.ForEachEdge([&](EdgeId e) {
    os << "edge " << e << " " << graph.EdgeSource(e) << " "
       << graph.EdgeTarget(e) << " " << graph.EdgeType(e) << " ";
    WriteValueRec(Value::Map(graph.EdgeProperties(e)), os);
    os << "\n";
  });
  return os.str();
}

Status ReadGraphText(std::string_view text, PropertyGraph* graph) {
  std::unordered_map<int64_t, VertexId> vertex_remap;
  std::istringstream lines{std::string(text)};
  std::string line;
  int line_no = 0;

  auto error = [&line_no](const std::string& message) {
    return Status::InvalidArgument(
        StrCat("graph text line ", line_no, ": ", message));
  };

  if (!std::getline(lines, line) || line != "pgivm-graph 1") {
    return Status::InvalidArgument(
        "not a pgivm graph dump (missing 'pgivm-graph 1' header)");
  }
  line_no = 1;

  graph->BeginBatch();
  auto fail = [&](Status status) {
    graph->CommitBatch();  // Commit what was loaded so far; caller decides.
    return status;
  };

  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "vertex") {
      int64_t file_id;
      std::string label_spec;
      if (!(fields >> file_id >> label_spec)) {
        return fail(error("malformed vertex line"));
      }
      std::vector<std::string> labels;
      // label_spec is ":" (no labels) or ":A:B".
      size_t pos = 1;
      while (pos < label_spec.size()) {
        size_t next = label_spec.find(':', pos);
        if (next == std::string::npos) next = label_spec.size();
        if (next > pos) labels.push_back(label_spec.substr(pos, next - pos));
        pos = next + 1;
      }
      std::string rest;
      std::getline(fields, rest);
      Result<Value> props_or = ParseValueText(rest);
      if (!props_or.ok()) return fail(props_or.status());
      const Value& props = props_or.value();
      if (!props.is_map()) return fail(error("vertex properties not a map"));
      if (vertex_remap.count(file_id) > 0) {
        return fail(error(StrCat("duplicate vertex id ", file_id)));
      }
      vertex_remap[file_id] =
          graph->AddVertex(std::move(labels), props.AsMap());
    } else if (kind == "edge") {
      int64_t file_id, src, dst;
      std::string type;
      if (!(fields >> file_id >> src >> dst >> type)) {
        return fail(error("malformed edge line"));
      }
      std::string rest;
      std::getline(fields, rest);
      Result<Value> props_or = ParseValueText(rest);
      if (!props_or.ok()) return fail(props_or.status());
      const Value& props = props_or.value();
      if (!props.is_map()) return fail(error("edge properties not a map"));
      auto src_it = vertex_remap.find(src);
      auto dst_it = vertex_remap.find(dst);
      if (src_it == vertex_remap.end() || dst_it == vertex_remap.end()) {
        return fail(error(StrCat("edge ", file_id,
                                 " references unknown vertices")));
      }
      Result<EdgeId> edge = graph->AddEdge(src_it->second, dst_it->second,
                                           std::move(type), props.AsMap());
      if (!edge.ok()) return fail(edge.status());
    } else {
      return fail(error(StrCat("unknown record kind '", kind, "'")));
    }
  }
  graph->CommitBatch();
  return Status::Ok();
}

}  // namespace pgivm
