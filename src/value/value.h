#ifndef PGIVM_VALUE_VALUE_H_
#define PGIVM_VALUE_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "value/ids.h"
#include "value/path.h"

namespace pgivm {

class Value;

/// Unordered-in-spirit bag/list of values. Per the paper, collection
/// properties are *bags*: the engine never relies on element order, only on
/// element multiplicities; the vector is just the storage.
using ValueList = std::vector<Value>;

/// String-keyed map of values (ordered map for deterministic iteration,
/// comparison and hashing).
using ValueMap = std::map<std::string, Value>;

/// Dynamically typed value of the property graph data model.
///
/// Types: null, bool, integer, double, string, list, map, vertex reference,
/// edge reference, and path (ordered, atomic — see Path). Strings, lists,
/// maps and paths are stored behind shared immutable pointers, so a Value is
/// 24 bytes and copying one is at most a refcount bump — tuples hold their
/// Values inline, and a string-keyed row shares its text with the graph's
/// property column instead of copying it.
///
/// The class provides a *total order* across all values (type rank first,
/// numeric types compared numerically among themselves), equality consistent
/// with that order, and hashing consistent with equality — the properties
/// the Rete engine's counted memories require.
class Value {
 public:
  enum class Type {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kList,
    kMap,
    kVertex,
    kEdge,
    kPath,
  };

  /// Default-constructed Value is null.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Int(int64_t i) { return Value(Rep(i)); }
  static Value Double(double d) { return Value(Rep(d)); }
  static Value String(std::string s);
  static Value List(ValueList elements);
  static Value Map(ValueMap entries);
  static Value Vertex(VertexId id) { return Value(Rep(VertexTag{id})); }
  static Value Edge(EdgeId id) { return Value(Rep(EdgeTag{id})); }
  static Value MakePath(Path p);

  Type type() const;

  /// Returns a stable name for `t` ("Int", "List", ...).
  static const char* TypeName(Type t);

  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_list() const { return type() == Type::kList; }
  bool is_map() const { return type() == Type::kMap; }
  bool is_vertex() const { return type() == Type::kVertex; }
  bool is_edge() const { return type() == Type::kEdge; }
  bool is_path() const { return type() == Type::kPath; }

  /// Typed accessors; calling the wrong accessor is a programming error
  /// (asserted in debug builds, undefined otherwise).
  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  /// Valid for as long as this Value (or any copy sharing its payload)
  /// lives.
  const std::string& AsString() const { return *std::get<StringPtr>(rep_); }
  const ValueList& AsList() const;
  const ValueMap& AsMap() const;
  VertexId AsVertex() const { return std::get<VertexTag>(rep_).id; }
  EdgeId AsEdge() const { return std::get<EdgeTag>(rep_).id; }
  const Path& AsPath() const;

  /// Numeric value widened to double (valid for kInt and kDouble).
  double NumericAsDouble() const;

  /// Cypher-style rendering: null, true, 1, 2.5, 'text', [1, 2],
  /// {k: v}, (#3) for vertices, [#4] for edges, <1-[e0]->2> for paths.
  std::string ToString() const;

  /// Deep heap-usage estimate (inline representation + heap payloads),
  /// used by the memory-footprint experiments. Shared payloads are counted
  /// at every holder — an upper bound.
  size_t ApproxMemoryBytes() const;

  size_t Hash() const;

  /// Total order over all values. Type rank ordering:
  /// null < bool < number < string < list < map < vertex < edge < path,
  /// with kInt and kDouble sharing the "number" rank and comparing by exact
  /// value (so Int(1) == Double(1.0), but Int(2^53 + 1) > Double(2^53)).
  /// NaN sorts above every other number and equals only NaN.
  static int Compare(const Value& a, const Value& b);

  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }

 private:
  struct VertexTag {
    VertexId id;
  };
  struct EdgeTag {
    EdgeId id;
  };
  using StringPtr = std::shared_ptr<const std::string>;
  using ListPtr = std::shared_ptr<const ValueList>;
  using MapPtr = std::shared_ptr<const ValueMap>;
  using PathPtr = std::shared_ptr<const Path>;
  using Rep = std::variant<std::monostate, bool, int64_t, double, StringPtr,
                           ListPtr, MapPtr, VertexTag, EdgeTag, PathPtr>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// std::hash adapter so Values can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace pgivm

#endif  // PGIVM_VALUE_VALUE_H_
