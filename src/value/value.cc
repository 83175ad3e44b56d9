#include "value/value.h"

#include <cassert>
#include <cmath>
#include <ostream>
#include <sstream>

#include "support/string_util.h"

namespace pgivm {

namespace {

/// Rank shared by kInt and kDouble so numbers form one comparison class.
int TypeRank(Value::Type t) {
  switch (t) {
    case Value::Type::kNull:
      return 0;
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
  }
  return 9;
}

/// 2^63 as a double: integral doubles in [-kTwo63, kTwo63) are exactly the
/// ones an int64_t can hold.
constexpr double kTwo63 = 9223372036854775808.0;

/// Exact comparison of an integer with a double — no rounding of `i` to
/// double, so Int(2^53 + 1) sorts above Double(2^53). NaN sorts above every
/// number.
int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d) || d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  double whole = std::trunc(d);
  auto t = static_cast<int64_t>(whole);  // exact: whole is in range
  if (i != t) return i < t ? -1 : 1;
  double fraction = d - whole;
  return fraction > 0 ? -1 : (fraction < 0 ? 1 : 0);
}

/// Numbers form one totally ordered class: ints and doubles compare by
/// exact mathematical value (-0.0 == 0.0 == Int(0)), and NaN sits above
/// every other number, equal only to NaN.
int CompareNumbers(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) {
    int64_t x = a.AsInt(), y = b.AsInt();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.is_int()) return CompareIntDouble(a.AsInt(), b.AsDouble());
  if (b.is_int()) return -CompareIntDouble(b.AsInt(), a.AsDouble());
  double x = a.AsDouble(), y = b.AsDouble();
  bool x_nan = std::isnan(x), y_nan = std::isnan(y);
  if (x_nan || y_nan) return x_nan == y_nan ? 0 : (x_nan ? 1 : -1);
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

template <typename T>
int ThreeWay(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

Value Value::String(std::string s) {
  return Value(Rep(std::make_shared<const std::string>(std::move(s))));
}

Value Value::List(ValueList elements) {
  return Value(Rep(std::make_shared<const ValueList>(std::move(elements))));
}

Value Value::Map(ValueMap entries) {
  return Value(Rep(std::make_shared<const ValueMap>(std::move(entries))));
}

Value Value::MakePath(Path p) {
  return Value(Rep(std::make_shared<const Path>(std::move(p))));
}

Value::Type Value::type() const {
  switch (rep_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kBool;
    case 2:
      return Type::kInt;
    case 3:
      return Type::kDouble;
    case 4:
      return Type::kString;
    case 5:
      return Type::kList;
    case 6:
      return Type::kMap;
    case 7:
      return Type::kVertex;
    case 8:
      return Type::kEdge;
    case 9:
      return Type::kPath;
  }
  return Type::kNull;
}

const char* Value::TypeName(Type t) {
  switch (t) {
    case Type::kNull:
      return "Null";
    case Type::kBool:
      return "Bool";
    case Type::kInt:
      return "Int";
    case Type::kDouble:
      return "Double";
    case Type::kString:
      return "String";
    case Type::kList:
      return "List";
    case Type::kMap:
      return "Map";
    case Type::kVertex:
      return "Vertex";
    case Type::kEdge:
      return "Edge";
    case Type::kPath:
      return "Path";
  }
  return "Unknown";
}

const ValueList& Value::AsList() const { return *std::get<ListPtr>(rep_); }

const ValueMap& Value::AsMap() const { return *std::get<MapPtr>(rep_); }

const Path& Value::AsPath() const { return *std::get<PathPtr>(rep_); }

double Value::NumericAsDouble() const {
  assert(is_numeric());
  return is_int() ? static_cast<double>(AsInt()) : AsDouble();
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (type()) {
    case Type::kNull:
      os << "null";
      break;
    case Type::kBool:
      os << (AsBool() ? "true" : "false");
      break;
    case Type::kInt:
      os << AsInt();
      break;
    case Type::kDouble:
      os << AsDouble();
      break;
    case Type::kString:
      os << '\'' << AsString() << '\'';
      break;
    case Type::kList: {
      os << '[';
      const ValueList& list = AsList();
      for (size_t i = 0; i < list.size(); ++i) {
        if (i > 0) os << ", ";
        os << list[i].ToString();
      }
      os << ']';
      break;
    }
    case Type::kMap: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : AsMap()) {
        if (!first) os << ", ";
        first = false;
        os << k << ": " << v.ToString();
      }
      os << '}';
      break;
    }
    case Type::kVertex:
      os << "(#" << AsVertex() << ")";
      break;
    case Type::kEdge:
      os << "[#" << AsEdge() << "]";
      break;
    case Type::kPath:
      os << AsPath().ToString();
      break;
  }
  return os.str();
}

size_t Value::ApproxMemoryBytes() const {
  size_t bytes = sizeof(Value);
  switch (type()) {
    case Type::kString:
      bytes += sizeof(std::string) + AsString().capacity();
      break;
    case Type::kList:
      for (const Value& v : AsList()) bytes += v.ApproxMemoryBytes();
      break;
    case Type::kMap:
      for (const auto& [k, v] : AsMap()) {
        bytes += k.capacity() + 48 /* map node overhead */ +
                 v.ApproxMemoryBytes();
      }
      break;
    case Type::kPath:
      bytes += AsPath().vertices().size() * sizeof(VertexId) +
               AsPath().edges().size() * sizeof(EdgeId);
      break;
    default:
      break;
  }
  return bytes;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(TypeRank(type())) * 0x9e3779b9u;
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      HashCombine(seed, AsBool() ? 1u : 2u);
      break;
    case Type::kInt:
      HashCombine(seed, std::hash<int64_t>{}(AsInt()));
      break;
    case Type::kDouble: {
      // Hash a double equal to some Int as that Int, so hashing stays
      // consistent with Compare (Int(1) == Double(1.0), and -0.0 == 0). All
      // NaNs are equal, so they share one hash whatever their bits.
      double d = AsDouble();
      if (std::isnan(d)) {
        HashCombine(seed, 0x4e614eu);  // "NaN"
      } else if (std::trunc(d) == d && d >= -kTwo63 && d < kTwo63) {
        HashCombine(seed, std::hash<int64_t>{}(static_cast<int64_t>(d)));
      } else {
        HashCombine(seed, std::hash<double>{}(d));
      }
      break;
    }
    case Type::kString:
      HashCombine(seed, std::hash<std::string>{}(AsString()));
      break;
    case Type::kList:
      for (const Value& v : AsList()) HashCombine(seed, v.Hash());
      break;
    case Type::kMap:
      for (const auto& [k, v] : AsMap()) {
        HashCombine(seed, std::hash<std::string>{}(k));
        HashCombine(seed, v.Hash());
      }
      break;
    case Type::kVertex:
      HashCombine(seed, std::hash<int64_t>{}(AsVertex()));
      break;
    case Type::kEdge:
      HashCombine(seed, std::hash<int64_t>{}(AsEdge()));
      break;
    case Type::kPath:
      HashCombine(seed, AsPath().Hash());
      break;
  }
  return seed;
}

int Value::Compare(const Value& a, const Value& b) {
  int ra = TypeRank(a.type()), rb = TypeRank(b.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.type()) {
    case Type::kNull:
      return 0;
    case Type::kBool:
      return ThreeWay(a.AsBool(), b.AsBool());
    case Type::kInt:
    case Type::kDouble:
      return CompareNumbers(a, b);
    case Type::kString: {
      const auto& x = std::get<StringPtr>(a.rep_);
      const auto& y = std::get<StringPtr>(b.rep_);
      return x == y ? 0 : ThreeWay(*x, *y);
    }
    case Type::kList: {
      const ValueList& x = a.AsList();
      const ValueList& y = b.AsList();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(x[i], y[i]);
        if (c != 0) return c;
      }
      return ThreeWay(x.size(), y.size());
    }
    case Type::kMap: {
      const ValueMap& x = a.AsMap();
      const ValueMap& y = b.AsMap();
      auto ix = x.begin(), iy = y.begin();
      for (; ix != x.end() && iy != y.end(); ++ix, ++iy) {
        int c = ThreeWay(ix->first, iy->first);
        if (c != 0) return c;
        c = Compare(ix->second, iy->second);
        if (c != 0) return c;
      }
      return ThreeWay(x.size(), y.size());
    }
    case Type::kVertex:
      return ThreeWay(a.AsVertex(), b.AsVertex());
    case Type::kEdge:
      return ThreeWay(a.AsEdge(), b.AsEdge());
    case Type::kPath:
      return Path::Compare(a.AsPath(), b.AsPath());
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace pgivm
