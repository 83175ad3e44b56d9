#include "value/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace pgivm {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), Value::Type::kNull);
}

TEST(ValueTest, ScalarAccessors) {
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(-3).AsInt(), -3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Vertex(7).AsVertex(), 7);
  EXPECT_EQ(Value::Edge(9).AsEdge(), 9);
}

TEST(ValueTest, NumericEqualityAcrossIntAndDouble) {
  EXPECT_EQ(Value::Int(1), Value::Double(1.0));
  EXPECT_NE(Value::Int(1), Value::Double(1.5));
  EXPECT_LT(Value::Int(1), Value::Double(1.5));
  EXPECT_LT(Value::Double(0.5), Value::Int(1));
}

TEST(ValueTest, HashConsistentWithNumericEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Double(42.0).Hash());
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  // null < bool < number < string < list < map < vertex < edge < path.
  std::vector<Value> ordered = {
      Value::Null(),
      Value::Bool(false),
      Value::Int(100),
      Value::String("a"),
      Value::List({Value::Int(1)}),
      Value::Map({{"k", Value::Int(1)}}),
      Value::Vertex(0),
      Value::Edge(0),
      Value::MakePath(Path::Single(1)),
  };
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    EXPECT_LT(ordered[i], ordered[i + 1])
        << ordered[i].ToString() << " vs " << ordered[i + 1].ToString();
  }
}

TEST(ValueTest, ListComparisonIsLexicographic) {
  Value a = Value::List({Value::Int(1), Value::Int(2)});
  Value b = Value::List({Value::Int(1), Value::Int(3)});
  Value c = Value::List({Value::Int(1)});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // Shorter prefix sorts first.
  EXPECT_EQ(a, Value::List({Value::Int(1), Value::Int(2)}));
}

TEST(ValueTest, MapComparisonByKeysThenValues) {
  Value a = Value::Map({{"a", Value::Int(1)}});
  Value b = Value::Map({{"b", Value::Int(1)}});
  Value c = Value::Map({{"a", Value::Int(2)}});
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::List({Value::Int(1), Value::Int(2)}).ToString(), "[1, 2]");
  EXPECT_EQ(Value::Map({{"k", Value::Int(1)}}).ToString(), "{k: 1}");
  EXPECT_EQ(Value::Vertex(3).ToString(), "(#3)");
  EXPECT_EQ(Value::Edge(4).ToString(), "[#4]");
}

TEST(ValueTest, NestedValuesCompareDeep) {
  Value nested1 = Value::List({Value::Map({{"k", Value::List({})}})});
  Value nested2 = Value::List({Value::Map({{"k", Value::List({})}})});
  EXPECT_EQ(nested1, nested2);
  EXPECT_EQ(nested1.Hash(), nested2.Hash());
}

TEST(ValueTest, CopyIsCheapAndShared) {
  ValueList big(1000, Value::Int(7));
  Value a = Value::List(big);
  Value b = a;  // Shares the payload.
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.AsList().size(), 1000u);
}

TEST(ValueTest, CopiedStringSharesPayload) {
  Value copy;
  {
    Value source = Value::String(std::string(64, 's'));
    copy = source;
    // One payload behind both Values: a copy is a refcount bump.
    EXPECT_EQ(&copy.AsString(), &source.AsString());
  }
  // The payload outlives the Value it was created in.
  EXPECT_EQ(copy.AsString(), std::string(64, 's'));
  EXPECT_EQ(sizeof(Value), 24u);
}

/// Numbers near the edges of exact double and int64 representation, plus
/// NaN and both zeros: Value::Compare must be a total order over them
/// (antisymmetric and transitive), and equal values must hash alike.
TEST(ValueTest, NumericOrderIsTotalNearPrecisionEdges) {
  const int64_t p53 = int64_t{1} << 53;
  const double two63 = 9223372036854775808.0;
  std::vector<Value> grid = {Value::Double(std::nan("")),
                             Value::Double(-std::nan("")),
                             Value::Double(INFINITY),
                             Value::Double(-INFINITY),
                             Value::Double(0.0),
                             Value::Double(-0.0),
                             Value::Int(0),
                             Value::Double(0.5),
                             Value::Double(-0.5),
                             Value::Int(INT64_MAX),
                             Value::Int(INT64_MAX - 1),
                             Value::Int(INT64_MIN),
                             Value::Int(INT64_MIN + 1),
                             Value::Double(two63),
                             Value::Double(-two63),
                             Value::Double(std::nextafter(two63, 0.0)),
                             Value::Double(std::nextafter(-two63, 0.0)),
                             Value::Double(std::nextafter(-two63, -INFINITY))};
  for (int64_t sign : {1, -1}) {
    for (int64_t d = -2; d <= 2; ++d) {
      grid.push_back(Value::Int(sign * p53 + d));
      grid.push_back(Value::Double(static_cast<double>(sign * p53 + d)));
    }
    grid.push_back(Value::Double(sign * (static_cast<double>(p53) + 0.5)));
    grid.push_back(Value::Double(sign * (static_cast<double>(p53) - 0.5)));
  }
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const Value& a : grid) {
    for (const Value& b : grid) {
      int ab = Value::Compare(a, b);
      ASSERT_EQ(sign(ab), -sign(Value::Compare(b, a)))
          << a.ToString() << " vs " << b.ToString();
      if (ab == 0) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " == " << b.ToString();
      }
      for (const Value& c : grid) {
        int bc = Value::Compare(b, c);
        if (ab <= 0 && bc <= 0) {
          int ac = Value::Compare(a, c);
          ASSERT_LE(ac, 0) << a.ToString() << " <= " << b.ToString()
                           << " <= " << c.ToString();
          if (ab == 0 && bc == 0) {
            ASSERT_EQ(ac, 0);
          }
        }
      }
    }
  }
  // Spot checks of the exact order.
  EXPECT_LT(Value::Double(static_cast<double>(p53)), Value::Int(p53 + 1));
  EXPECT_EQ(Value::Int(p53), Value::Double(static_cast<double>(p53)));
  EXPECT_LT(Value::Int(INT64_MAX), Value::Double(two63));
  EXPECT_EQ(Value::Int(INT64_MIN), Value::Double(-two63));
  EXPECT_EQ(Value::Double(0.0), Value::Double(-0.0));
  EXPECT_EQ(Value::Double(std::nan("")), Value::Double(-std::nan("")));
  EXPECT_LT(Value::Double(INFINITY), Value::Double(std::nan("")));
  EXPECT_LT(Value::Int(INT64_MAX), Value::Double(std::nan("")));
  EXPECT_NE(Value::Double(std::nan("")), Value::Int(5));
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(Value::TypeName(Value::Type::kNull), "Null");
  EXPECT_STREQ(Value::TypeName(Value::Type::kPath), "Path");
}

class ValueCompareSymmetryTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ValueCompareSymmetryTest, AntisymmetricOverSamples) {
  // Property: Compare(a, b) == -Compare(b, a) over a sample grid.
  auto make = [](int i) -> Value {
    switch (i % 6) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Int(i);
      case 2:
        return Value::Double(i / 2.0);
      case 3:
        return Value::String(std::string(1, static_cast<char>('a' + i % 26)));
      case 4:
        return Value::List({Value::Int(i % 3)});
      default:
        return Value::Vertex(i);
    }
  };
  Value a = make(GetParam().first);
  Value b = make(GetParam().second);
  EXPECT_EQ(Value::Compare(a, b), -Value::Compare(b, a));
  if (Value::Compare(a, b) == 0) {
    EXPECT_EQ(a.Hash(), b.Hash());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ValueCompareSymmetryTest,
    ::testing::Values(std::make_pair(0, 0), std::make_pair(0, 1),
                      std::make_pair(1, 2), std::make_pair(2, 3),
                      std::make_pair(3, 4), std::make_pair(4, 5),
                      std::make_pair(5, 6), std::make_pair(6, 7),
                      std::make_pair(7, 13), std::make_pair(2, 8)));

}  // namespace
}  // namespace pgivm
