#include "rete/expression_eval.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/string_util.h"
#include "value/path.h"

namespace pgivm {

namespace {

/// Three-valued logic values.
enum class Tri { kFalse, kTrue, kNull };

Tri ToTri(const Value& v) {
  if (v.is_null()) return Tri::kNull;
  if (v.is_bool()) return v.AsBool() ? Tri::kTrue : Tri::kFalse;
  // Non-boolean in a boolean position: treated as null (no exceptions).
  return Tri::kNull;
}

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
/// 2^63: doubles in [-kTwo63, kTwo63) truncate to an in-range int64_t.
constexpr double kTwo63 = 9223372036854775808.0;

Value NumericBinary(BinaryOp op, const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    // `+` also concatenates strings and lists.
    if (op == BinaryOp::kAdd) {
      if (a.is_string() && b.is_string()) {
        return Value::String(a.AsString() + b.AsString());
      }
      if (a.is_list() && b.is_list()) {
        ValueList out = a.AsList();
        const ValueList& rhs = b.AsList();
        out.insert(out.end(), rhs.begin(), rhs.end());
        return Value::List(std::move(out));
      }
    }
    return Value::Null();
  }
  bool both_int = a.is_int() && b.is_int();
  if (both_int) {
    // Integer results that do not fit in 64 bits are null, like division
    // by zero — never a wrapped value or a trap.
    int64_t x = a.AsInt(), y = b.AsInt(), r = 0;
    switch (op) {
      case BinaryOp::kAdd:
        if (__builtin_add_overflow(x, y, &r)) return Value::Null();
        return Value::Int(r);
      case BinaryOp::kSub:
        if (__builtin_sub_overflow(x, y, &r)) return Value::Null();
        return Value::Int(r);
      case BinaryOp::kMul:
        if (__builtin_mul_overflow(x, y, &r)) return Value::Null();
        return Value::Int(r);
      case BinaryOp::kDiv:
        if (y == 0 || (x == kInt64Min && y == -1)) return Value::Null();
        return Value::Int(x / y);
      case BinaryOp::kMod:
        if (y == 0 || (x == kInt64Min && y == -1)) return Value::Null();
        return Value::Int(x % y);
      default:
        return Value::Null();
    }
  }
  double x = a.NumericAsDouble(), y = b.NumericAsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(x + y);
    case BinaryOp::kSub:
      return Value::Double(x - y);
    case BinaryOp::kMul:
      return Value::Double(x * y);
    case BinaryOp::kDiv:
      if (y == 0.0) return Value::Null();
      return Value::Double(x / y);
    case BinaryOp::kMod:
      if (y == 0.0) return Value::Null();
      return Value::Double(std::fmod(x, y));
    default:
      return Value::Null();
  }
}

/// Comparable type classes: comparisons across classes yield null (Cypher
/// leaves cross-type ordering to ORDER BY, which we do not maintain).
int TypeClass(const Value& v) {
  switch (v.type()) {
    case Value::Type::kBool:
      return 1;
    case Value::Type::kInt:
    case Value::Type::kDouble:
      return 2;
    case Value::Type::kString:
      return 3;
    case Value::Type::kList:
      return 4;
    case Value::Type::kMap:
      return 5;
    case Value::Type::kVertex:
      return 6;
    case Value::Type::kEdge:
      return 7;
    case Value::Type::kPath:
      return 8;
    case Value::Type::kNull:
      return 0;
  }
  return 0;
}

Value CompareValues(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  bool equality = op == BinaryOp::kEq || op == BinaryOp::kNe;
  if (TypeClass(a) != TypeClass(b)) {
    // Different classes: unequal under =/<>; incomparable under ordering.
    if (op == BinaryOp::kEq) return Value::Bool(false);
    if (op == BinaryOp::kNe) return Value::Bool(true);
    return Value::Null();
  }
  int c = Value::Compare(a, b);
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(c == 0);
    case BinaryOp::kNe:
      return Value::Bool(c != 0);
    case BinaryOp::kLt:
      return Value::Bool(c < 0);
    case BinaryOp::kLe:
      return Value::Bool(c <= 0);
    case BinaryOp::kGt:
      return Value::Bool(c > 0);
    case BinaryOp::kGe:
      return Value::Bool(c >= 0);
    default:
      break;
  }
  (void)equality;
  return Value::Null();
}

Value StringPredicate(BinaryOp op, const Value& a, const Value& b) {
  if (!a.is_string() || !b.is_string()) return Value::Null();
  switch (op) {
    case BinaryOp::kStartsWith:
      return Value::Bool(StartsWith(a.AsString(), b.AsString()));
    case BinaryOp::kEndsWith:
      return Value::Bool(EndsWith(a.AsString(), b.AsString()));
    case BinaryOp::kContains:
      return Value::Bool(Contains(a.AsString(), b.AsString()));
    default:
      return Value::Null();
  }
}

}  // namespace

namespace {

/// Scoped variable resolution: schema columns first, then comprehension
/// locals, which live in appended tuple slots (slot = schema width + depth).
ExprPtr BindRec(const ExprPtr& e, const Schema& schema,
                std::vector<std::string>& locals, Status& failure) {
  switch (e->kind) {
    case ExprKind::kVariable: {
      for (size_t i = locals.size(); i-- > 0;) {
        if (locals[i] == e->name) {
          return MakeColumnRef(static_cast<int>(schema.size() + i),
                               e->name);
        }
      }
      int idx = schema.IndexOf(e->name);
      if (idx < 0) {
        failure = Status::InvalidArgument(
            StrCat("unbound variable '", e->name, "' (scope ",
                   schema.ToString(), ")"));
        return e;
      }
      return MakeColumnRef(idx, e->name);
    }
    case ExprKind::kComprehension: {
      auto copy = std::make_shared<Expression>(*e);
      copy->children[0] = BindRec(e->children[0], schema, locals, failure);
      locals.push_back(e->name);
      copy->children[1] = BindRec(e->children[1], schema, locals, failure);
      copy->children[2] = BindRec(e->children[2], schema, locals, failure);
      locals.pop_back();
      return copy;
    }
    case ExprKind::kPatternPredicate:
      failure = Status::InvalidArgument(
          "exists(pattern) is only supported as a top-level WHERE "
          "condition (optionally under NOT)");
      return e;
    case ExprKind::kParameter:
      failure = Status::InvalidArgument(
          StrCat("unsubstituted parameter $", e->name,
                 "; pass parameter values at registration"));
      return e;
    default:
      break;
  }
  if (e->IsAggregateCall()) {
    failure = Status::Internal(StrCat("aggregate call '", e->ToString(),
                                      "' reached per-tuple evaluation"));
    return e;
  }
  if (e->children.empty()) return e;
  auto copy = std::make_shared<Expression>(*e);
  for (size_t i = 0; i < e->children.size(); ++i) {
    copy->children[i] = BindRec(e->children[i], schema, locals, failure);
  }
  return copy;
}

}  // namespace

Result<BoundExpression> BoundExpression::Bind(const ExprPtr& expr,
                                              const Schema& schema,
                                              const PropertyGraph* graph) {
  Status failure = Status::Ok();
  std::vector<std::string> locals;
  ExprPtr bound = BindRec(expr, schema, locals, failure);
  if (!failure.ok()) return failure;
  return BoundExpression(std::move(bound), &schema, graph);
}

Value BoundExpression::Eval(const Tuple& tuple) const {
  return EvalNode(*expr_, tuple);
}

Value BoundExpression::EvalNode(const Expression& e,
                                const Tuple& tuple) const {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef:
      return tuple.at(static_cast<size_t>(e.column));
    case ExprKind::kVariable:
      // Unresolved variable should not survive Bind; treat as null.
      return Value::Null();
    case ExprKind::kProperty: {
      Value subject = EvalNode(*e.children[0], tuple);
      if (subject.is_map()) {
        const ValueMap& map = subject.AsMap();
        auto it = map.find(e.name);
        return it == map.end() ? Value::Null() : it->second;
      }
      if (graph_ != nullptr) {
        // Baseline-evaluator path only (incremental plans push property
        // reads into source extracts). The string shim is one symbol
        // lookup + an O(1) column probe — allocation-free.
        if (subject.is_vertex() && graph_->HasVertex(subject.AsVertex())) {
          return graph_->GetVertexProperty(subject.AsVertex(), e.name);
        }
        if (subject.is_edge() && graph_->HasEdge(subject.AsEdge())) {
          return graph_->GetEdgeProperty(subject.AsEdge(), e.name);
        }
      }
      return Value::Null();
    }
    case ExprKind::kUnary:
      return EvalUnary(e, tuple);
    case ExprKind::kBinary:
      return EvalBinary(e, tuple);
    case ExprKind::kFunctionCall:
      return EvalFunction(e, tuple);
    case ExprKind::kListLiteral: {
      ValueList elements;
      elements.reserve(e.children.size());
      for (const ExprPtr& c : e.children) {
        elements.push_back(EvalNode(*c, tuple));
      }
      return Value::List(std::move(elements));
    }
    case ExprKind::kMapLiteral: {
      ValueMap entries;
      for (size_t i = 0; i < e.children.size(); ++i) {
        entries[e.map_keys[i]] = EvalNode(*e.children[i], tuple);
      }
      return Value::Map(std::move(entries));
    }
    case ExprKind::kCase: {
      // Children: [operand?] (when, then)* [else?]; operand presence in
      // `star`, else presence in `distinct` (see MakeCase).
      size_t i = 0;
      Value operand;
      if (e.star) operand = EvalNode(*e.children[i++], tuple);
      size_t pairs_end = e.children.size() - (e.distinct ? 1 : 0);
      while (i + 2 <= pairs_end) {
        Value when = EvalNode(*e.children[i], tuple);
        bool hit = e.star ? (!when.is_null() && !operand.is_null() &&
                             Value::Compare(when, operand) == 0)
                          : IsTrue(when);
        if (hit) return EvalNode(*e.children[i + 1], tuple);
        i += 2;
      }
      if (e.distinct) return EvalNode(*e.children.back(), tuple);
      return Value::Null();
    }
    case ExprKind::kPatternPredicate:
      // Rewritten into semi/anti-joins during compilation; unreachable at
      // evaluation time (Bind rejects it).
      return Value::Null();
    case ExprKind::kParameter:
      // Substituted at registration; unreachable (Bind rejects it).
      return Value::Null();
    case ExprKind::kComprehension: {
      Value list = EvalNode(*e.children[0], tuple);
      if (!list.is_list()) return Value::Null();
      const std::string& mode = e.map_keys[0];
      // The local variable occupies the next appended tuple slot; nested
      // comprehensions extend further, matching BindRec's slot numbering.
      if (mode == "list") {
        ValueList out;
        for (const Value& element : list.AsList()) {
          Tuple extended = tuple.Append(element);
          if (IsTrue(EvalNode(*e.children[1], extended))) {
            out.push_back(EvalNode(*e.children[2], extended));
          }
        }
        return Value::List(std::move(out));
      }
      int64_t trues = 0, falses = 0, nulls = 0;
      for (const Value& element : list.AsList()) {
        Tuple extended = tuple.Append(element);
        Value verdict = EvalNode(*e.children[1], extended);
        if (verdict.is_null()) {
          ++nulls;
        } else if (IsTrue(verdict)) {
          ++trues;
        } else {
          ++falses;
        }
      }
      // Three-valued quantifier semantics: null verdicts are "unknown".
      if (mode == "any") {
        if (trues > 0) return Value::Bool(true);
        return nulls > 0 ? Value::Null() : Value::Bool(false);
      }
      if (mode == "all") {
        if (falses > 0) return Value::Bool(false);
        return nulls > 0 ? Value::Null() : Value::Bool(true);
      }
      if (mode == "none") {
        if (trues > 0) return Value::Bool(false);
        return nulls > 0 ? Value::Null() : Value::Bool(true);
      }
      if (mode == "single") {
        if (trues > 1) return Value::Bool(false);
        if (nulls > 0) return Value::Null();
        return Value::Bool(trues == 1);
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

Value BoundExpression::EvalUnary(const Expression& e,
                                 const Tuple& tuple) const {
  Value operand = EvalNode(*e.children[0], tuple);
  switch (e.unary_op) {
    case UnaryOp::kNot: {
      Tri t = ToTri(operand);
      if (t == Tri::kNull) return Value::Null();
      return Value::Bool(t == Tri::kFalse);
    }
    case UnaryOp::kMinus:
      if (operand.is_int()) {
        if (operand.AsInt() == kInt64Min) return Value::Null();
        return Value::Int(-operand.AsInt());
      }
      if (operand.is_double()) return Value::Double(-operand.AsDouble());
      return Value::Null();
    case UnaryOp::kIsNull:
      return Value::Bool(operand.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!operand.is_null());
  }
  return Value::Null();
}

Value BoundExpression::EvalBinary(const Expression& e,
                                  const Tuple& tuple) const {
  // Short-circuiting three-valued AND/OR.
  if (e.binary_op == BinaryOp::kAnd) {
    Tri a = ToTri(EvalNode(*e.children[0], tuple));
    if (a == Tri::kFalse) return Value::Bool(false);
    Tri b = ToTri(EvalNode(*e.children[1], tuple));
    if (b == Tri::kFalse) return Value::Bool(false);
    if (a == Tri::kNull || b == Tri::kNull) return Value::Null();
    return Value::Bool(true);
  }
  if (e.binary_op == BinaryOp::kOr) {
    Tri a = ToTri(EvalNode(*e.children[0], tuple));
    if (a == Tri::kTrue) return Value::Bool(true);
    Tri b = ToTri(EvalNode(*e.children[1], tuple));
    if (b == Tri::kTrue) return Value::Bool(true);
    if (a == Tri::kNull || b == Tri::kNull) return Value::Null();
    return Value::Bool(false);
  }
  if (e.binary_op == BinaryOp::kXor) {
    Tri a = ToTri(EvalNode(*e.children[0], tuple));
    Tri b = ToTri(EvalNode(*e.children[1], tuple));
    if (a == Tri::kNull || b == Tri::kNull) return Value::Null();
    return Value::Bool(a != b);
  }

  Value lhs = EvalNode(*e.children[0], tuple);
  Value rhs = EvalNode(*e.children[1], tuple);
  switch (e.binary_op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return CompareValues(e.binary_op, lhs, rhs);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return NumericBinary(e.binary_op, lhs, rhs);
    case BinaryOp::kIn: {
      if (lhs.is_null() || !rhs.is_list()) return Value::Null();
      bool saw_null = false;
      for (const Value& element : rhs.AsList()) {
        if (element.is_null()) {
          saw_null = true;
        } else if (TypeClass(element) == TypeClass(lhs) &&
                   Value::Compare(element, lhs) == 0) {
          return Value::Bool(true);
        }
      }
      return saw_null ? Value::Null() : Value::Bool(false);
    }
    case BinaryOp::kStartsWith:
    case BinaryOp::kEndsWith:
    case BinaryOp::kContains:
      return StringPredicate(e.binary_op, lhs, rhs);
    case BinaryOp::kSubscript: {
      if (lhs.is_list() && rhs.is_int()) {
        int64_t i = rhs.AsInt();
        const ValueList& list = lhs.AsList();
        if (i < 0) i += static_cast<int64_t>(list.size());
        if (i < 0 || i >= static_cast<int64_t>(list.size())) {
          return Value::Null();
        }
        return list[static_cast<size_t>(i)];
      }
      if (lhs.is_map() && rhs.is_string()) {
        auto it = lhs.AsMap().find(rhs.AsString());
        return it == lhs.AsMap().end() ? Value::Null() : it->second;
      }
      return Value::Null();
    }
    default:
      return Value::Null();
  }
}

Value BoundExpression::EvalFunction(const Expression& e,
                                    const Tuple& tuple) const {
  std::vector<Value> args;
  args.reserve(e.children.size());
  for (const ExprPtr& c : e.children) args.push_back(EvalNode(*c, tuple));
  auto arg = [&args](size_t i) -> const Value& { return args[i]; };

  if (e.name == "id" && args.size() == 1) {
    if (arg(0).is_vertex()) return Value::Int(arg(0).AsVertex());
    if (arg(0).is_edge()) return Value::Int(arg(0).AsEdge());
    return Value::Null();
  }
  if (e.name == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (e.name == "size" && args.size() == 1) {
    if (arg(0).is_list()) {
      return Value::Int(static_cast<int64_t>(arg(0).AsList().size()));
    }
    if (arg(0).is_map()) {
      return Value::Int(static_cast<int64_t>(arg(0).AsMap().size()));
    }
    if (arg(0).is_string()) {
      return Value::Int(static_cast<int64_t>(arg(0).AsString().size()));
    }
    return Value::Null();
  }
  if (e.name == "length" && args.size() == 1) {
    if (arg(0).is_path()) {
      return Value::Int(static_cast<int64_t>(arg(0).AsPath().length()));
    }
    if (arg(0).is_list()) {
      return Value::Int(static_cast<int64_t>(arg(0).AsList().size()));
    }
    if (arg(0).is_string()) {
      return Value::Int(static_cast<int64_t>(arg(0).AsString().size()));
    }
    return Value::Null();
  }
  if (e.name == "nodes" && args.size() == 1) {
    if (!arg(0).is_path()) return Value::Null();
    ValueList out;
    for (VertexId v : arg(0).AsPath().vertices()) {
      out.push_back(Value::Vertex(v));
    }
    return Value::List(std::move(out));
  }
  if (e.name == "relationships" && args.size() == 1) {
    if (!arg(0).is_path()) return Value::Null();
    ValueList out;
    for (EdgeId edge : arg(0).AsPath().edges()) {
      out.push_back(Value::Edge(edge));
    }
    return Value::List(std::move(out));
  }
  if (e.name == "head" && args.size() == 1) {
    if (!arg(0).is_list() || arg(0).AsList().empty()) return Value::Null();
    return arg(0).AsList().front();
  }
  if (e.name == "last" && args.size() == 1) {
    if (!arg(0).is_list() || arg(0).AsList().empty()) return Value::Null();
    return arg(0).AsList().back();
  }
  if (e.name == "abs" && args.size() == 1) {
    if (arg(0).is_int()) {
      if (arg(0).AsInt() == kInt64Min) return Value::Null();
      return Value::Int(std::abs(arg(0).AsInt()));
    }
    if (arg(0).is_double()) return Value::Double(std::fabs(arg(0).AsDouble()));
    return Value::Null();
  }
  if (e.name == "tostring" && args.size() == 1) {
    if (arg(0).is_null()) return Value::Null();
    if (arg(0).is_string()) return arg(0);
    return Value::String(arg(0).ToString());
  }
  if (e.name == "tolower" && args.size() == 1) {
    if (!arg(0).is_string()) return Value::Null();
    return Value::String(AsciiLower(arg(0).AsString()));
  }
  if (e.name == "toupper" && args.size() == 1) {
    if (!arg(0).is_string()) return Value::Null();
    std::string s = arg(0).AsString();
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
      return static_cast<char>(std::toupper(c));
    });
    return Value::String(std::move(s));
  }
  if (e.name == "keys" && args.size() == 1) {
    if (!arg(0).is_map()) return Value::Null();
    ValueList out;
    for (const auto& [k, v] : arg(0).AsMap()) {
      out.push_back(Value::String(k));
      (void)v;
    }
    return Value::List(std::move(out));
  }
  if (e.name == "tail" && args.size() == 1) {
    if (!arg(0).is_list() || arg(0).AsList().empty()) return Value::Null();
    const ValueList& list = arg(0).AsList();
    return Value::List(ValueList(list.begin() + 1, list.end()));
  }
  if (e.name == "reverse" && args.size() == 1) {
    if (arg(0).is_string()) {
      std::string s = arg(0).AsString();
      std::reverse(s.begin(), s.end());
      return Value::String(std::move(s));
    }
    if (arg(0).is_list()) {
      ValueList list = arg(0).AsList();
      std::reverse(list.begin(), list.end());
      return Value::List(std::move(list));
    }
    return Value::Null();
  }
  if (e.name == "range" && (args.size() == 2 || args.size() == 3)) {
    if (!arg(0).is_int() || !arg(1).is_int()) return Value::Null();
    int64_t step = 1;
    if (args.size() == 3) {
      if (!arg(2).is_int() || arg(2).AsInt() == 0) return Value::Null();
      step = arg(2).AsInt();
    }
    ValueList out;
    int64_t lo = arg(0).AsInt(), hi = arg(1).AsInt();
    // Stops before the counter would step past INT64_MAX/INT64_MIN.
    for (int64_t i = lo; step > 0 ? i <= hi : i >= hi;) {
      out.push_back(Value::Int(i));
      if (__builtin_add_overflow(i, step, &i)) break;
    }
    return Value::List(std::move(out));
  }
  if (e.name == "trim" && args.size() == 1) {
    if (!arg(0).is_string()) return Value::Null();
    std::string_view s = arg(0).AsString();
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
    return Value::String(std::string(s));
  }
  if (e.name == "ltrim" && args.size() == 1) {
    if (!arg(0).is_string()) return Value::Null();
    std::string_view s = arg(0).AsString();
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    return Value::String(std::string(s));
  }
  if (e.name == "rtrim" && args.size() == 1) {
    if (!arg(0).is_string()) return Value::Null();
    std::string_view s = arg(0).AsString();
    while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
    return Value::String(std::string(s));
  }
  if (e.name == "replace" && args.size() == 3) {
    if (!arg(0).is_string() || !arg(1).is_string() || !arg(2).is_string()) {
      return Value::Null();
    }
    const std::string& needle = arg(1).AsString();
    if (needle.empty()) return arg(0);
    std::string out;
    std::string_view s = arg(0).AsString();
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(needle, pos);
      if (hit == std::string_view::npos) break;
      out.append(s.substr(pos, hit - pos));
      out.append(arg(2).AsString());
      pos = hit + needle.size();
    }
    out.append(s.substr(pos));
    return Value::String(std::move(out));
  }
  if (e.name == "substring" && (args.size() == 2 || args.size() == 3)) {
    if (!arg(0).is_string() || !arg(1).is_int()) return Value::Null();
    const std::string& s = arg(0).AsString();
    int64_t start = arg(1).AsInt();
    if (start < 0 || start > static_cast<int64_t>(s.size())) {
      return Value::Null();
    }
    size_t len = std::string::npos;
    if (args.size() == 3) {
      if (!arg(2).is_int() || arg(2).AsInt() < 0) return Value::Null();
      len = static_cast<size_t>(arg(2).AsInt());
    }
    return Value::String(s.substr(static_cast<size_t>(start), len));
  }
  if (e.name == "left" && args.size() == 2) {
    if (!arg(0).is_string() || !arg(1).is_int() || arg(1).AsInt() < 0) {
      return Value::Null();
    }
    const std::string& s = arg(0).AsString();
    return Value::String(s.substr(0, static_cast<size_t>(arg(1).AsInt())));
  }
  if (e.name == "right" && args.size() == 2) {
    if (!arg(0).is_string() || !arg(1).is_int() || arg(1).AsInt() < 0) {
      return Value::Null();
    }
    const std::string& s = arg(0).AsString();
    size_t n = std::min<size_t>(static_cast<size_t>(arg(1).AsInt()),
                                s.size());
    return Value::String(s.substr(s.size() - n));
  }
  if (e.name == "split" && args.size() == 2) {
    if (!arg(0).is_string() || !arg(1).is_string() ||
        arg(1).AsString().empty()) {
      return Value::Null();
    }
    const std::string& sep = arg(1).AsString();
    std::string_view s = arg(0).AsString();
    ValueList out;
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(sep, pos);
      if (hit == std::string_view::npos) break;
      out.push_back(Value::String(std::string(s.substr(pos, hit - pos))));
      pos = hit + sep.size();
    }
    out.push_back(Value::String(std::string(s.substr(pos))));
    return Value::List(std::move(out));
  }
  if (e.name == "tointeger" && args.size() == 1) {
    if (arg(0).is_int()) return arg(0);
    if (arg(0).is_double()) {
      // Truncates toward zero; NaN and out-of-range doubles are null.
      double d = arg(0).AsDouble();
      if (!(d >= -kTwo63 && d < kTwo63)) {
        return Value::Null();
      }
      return Value::Int(static_cast<int64_t>(d));
    }
    if (arg(0).is_string()) {
      // Malformed or out-of-range strings convert to null, never saturate.
      int64_t parsed = 0;
      if (ParseInt64(arg(0).AsString(), &parsed) != ParseIntResult::kOk) {
        return Value::Null();
      }
      return Value::Int(parsed);
    }
    return Value::Null();
  }
  if (e.name == "tofloat" && args.size() == 1) {
    if (arg(0).is_double()) return arg(0);
    if (arg(0).is_int()) {
      return Value::Double(static_cast<double>(arg(0).AsInt()));
    }
    if (arg(0).is_string()) {
      char* end = nullptr;
      const std::string& s = arg(0).AsString();
      double parsed = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || (end != nullptr && *end != '\0')) {
        return Value::Null();
      }
      return Value::Double(parsed);
    }
    return Value::Null();
  }
  if (e.name == "round" && args.size() == 1) {
    if (arg(0).is_int()) return Value::Double(
        static_cast<double>(arg(0).AsInt()));
    if (!arg(0).is_double()) return Value::Null();
    return Value::Double(std::round(arg(0).AsDouble()));
  }
  if (e.name == "floor" && args.size() == 1) {
    if (!arg(0).is_numeric()) return Value::Null();
    return Value::Double(std::floor(arg(0).NumericAsDouble()));
  }
  if (e.name == "ceil" && args.size() == 1) {
    if (!arg(0).is_numeric()) return Value::Null();
    return Value::Double(std::ceil(arg(0).NumericAsDouble()));
  }
  if (e.name == "sqrt" && args.size() == 1) {
    if (!arg(0).is_numeric() || arg(0).NumericAsDouble() < 0) {
      return Value::Null();
    }
    return Value::Double(std::sqrt(arg(0).NumericAsDouble()));
  }
  if (e.name == "sign" && args.size() == 1) {
    if (!arg(0).is_numeric()) return Value::Null();
    double d = arg(0).NumericAsDouble();
    return Value::Int(d > 0 ? 1 : (d < 0 ? -1 : 0));
  }
  if (e.name == "#path") {
    // Internal path constructor: vertex, then (edge, vertex) pairs and/or
    // path sections whose first vertex is the current endpoint.
    if (args.empty() || !args[0].is_vertex()) return Value::Null();
    std::vector<VertexId> vertices{args[0].AsVertex()};
    std::vector<EdgeId> edges;
    size_t i = 1;
    while (i < args.size()) {
      if (args[i].is_null()) return Value::Null();
      if (args[i].is_path()) {
        const Path& section = args[i].AsPath();
        if (section.source() != vertices.back()) return Value::Null();
        vertices.insert(vertices.end(), section.vertices().begin() + 1,
                        section.vertices().end());
        edges.insert(edges.end(), section.edges().begin(),
                     section.edges().end());
        ++i;
        continue;
      }
      if (args[i].is_edge() && i + 1 < args.size() &&
          args[i + 1].is_vertex()) {
        edges.push_back(args[i].AsEdge());
        vertices.push_back(args[i + 1].AsVertex());
        i += 2;
        continue;
      }
      return Value::Null();
    }
    return Value::MakePath(Path(std::move(vertices), std::move(edges)));
  }

  // Graph-dependent functions; resolvable only with a graph (the baseline
  // evaluator). Incremental plans rewrite these away via pushdown.
  if (graph_ != nullptr && args.size() == 1) {
    if (e.name == "labels" && arg(0).is_vertex() &&
        graph_->HasVertex(arg(0).AsVertex())) {
      ValueList out;
      for (const std::string& label :
           graph_->VertexLabels(arg(0).AsVertex())) {
        out.push_back(Value::String(label));
      }
      return Value::List(std::move(out));
    }
    if (e.name == "type" && arg(0).is_edge() &&
        graph_->HasEdge(arg(0).AsEdge())) {
      return Value::String(graph_->EdgeType(arg(0).AsEdge()));
    }
    if (e.name == "properties") {
      if (arg(0).is_vertex() && graph_->HasVertex(arg(0).AsVertex())) {
        return Value::Map(graph_->VertexProperties(arg(0).AsVertex()));
      }
      if (arg(0).is_edge() && graph_->HasEdge(arg(0).AsEdge())) {
        return Value::Map(graph_->EdgeProperties(arg(0).AsEdge()));
      }
      return Value::Null();
    }
    if (e.name == "startnode" && arg(0).is_edge() &&
        graph_->HasEdge(arg(0).AsEdge())) {
      return Value::Vertex(graph_->EdgeSource(arg(0).AsEdge()));
    }
    if (e.name == "endnode" && arg(0).is_edge() &&
        graph_->HasEdge(arg(0).AsEdge())) {
      return Value::Vertex(graph_->EdgeTarget(arg(0).AsEdge()));
    }
  }
  return Value::Null();
}

}  // namespace pgivm
