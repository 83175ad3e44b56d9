#include "rete/aggregate_node.h"

#include <cassert>

#include "support/string_util.h"

namespace pgivm {

Result<AggregateSpec> AggregateSpec::Make(const ExprPtr& call,
                                          const Schema& input,
                                          const PropertyGraph* graph) {
  AggregateSpec spec;
  spec.distinct = call->distinct;
  if (call->name == "count" && call->star) {
    spec.kind = Kind::kCountStar;
    return spec;
  }
  if (call->children.size() != 1) {
    return Status::InvalidArgument(
        StrCat("aggregate ", call->name, "() expects exactly one argument"));
  }
  if (call->name == "count") {
    spec.kind = Kind::kCount;
  } else if (call->name == "sum") {
    spec.kind = Kind::kSum;
  } else if (call->name == "min") {
    spec.kind = Kind::kMin;
  } else if (call->name == "max") {
    spec.kind = Kind::kMax;
  } else if (call->name == "avg") {
    spec.kind = Kind::kAvg;
  } else if (call->name == "collect") {
    spec.kind = Kind::kCollect;
  } else {
    return Status::InvalidArgument(
        StrCat("unknown aggregate function '", call->name, "'"));
  }
  PGIVM_ASSIGN_OR_RETURN(BoundExpression arg,
                         BoundExpression::Bind(call->children[0], input,
                                               graph));
  spec.arg = std::move(arg);
  return spec;
}

void AggregateNode::AggState::Apply(const AggregateSpec& spec, const Value& v,
                                     int64_t multiplicity) {
  if (v.is_null()) return;  // Aggregates skip null arguments.
  non_null_count += multiplicity;
  if (spec.NeedsValues()) {
    auto [it, inserted] = values.emplace(v, 0);
    it->second += multiplicity;
    assert(it->second >= 0 && "aggregate multiset count went negative");
    if (it->second == 0) values.erase(it);
  }
  if (v.is_int()) {
    int_sum += multiplicity * v.AsInt();
  } else if (v.is_double()) {
    double_sum += static_cast<double>(multiplicity) * v.AsDouble();
    double_count += multiplicity;
  }
}

Value AggregateNode::AggState::Render(const AggregateSpec& spec,
                                      int64_t group_rows) const {
  switch (spec.kind) {
    case AggregateSpec::Kind::kCountStar:
      return Value::Int(group_rows);
    case AggregateSpec::Kind::kCount:
      if (spec.distinct) {
        return Value::Int(static_cast<int64_t>(values.size()));
      }
      return Value::Int(non_null_count);
    case AggregateSpec::Kind::kSum: {
      if (spec.distinct) {
        // Recompute over the distinct values; DISTINCT sums are rare and
        // the multiset is already materialized.
        int64_t isum = 0;
        double dsum = 0.0;
        bool saw_double = false;
        for (const auto& [v, count] : values) {
          if (v.is_int()) {
            isum += v.AsInt();
          } else if (v.is_double()) {
            dsum += v.AsDouble();
            saw_double = true;
          }
        }
        return saw_double ? Value::Double(dsum + static_cast<double>(isum))
                          : Value::Int(isum);
      }
      if (double_count != 0) {
        return Value::Double(double_sum + static_cast<double>(int_sum));
      }
      return Value::Int(int_sum);
    }
    case AggregateSpec::Kind::kMin:
      return values.empty() ? Value::Null() : values.begin()->first;
    case AggregateSpec::Kind::kMax:
      return values.empty() ? Value::Null() : values.rbegin()->first;
    case AggregateSpec::Kind::kAvg: {
      int64_t n = spec.distinct ? static_cast<int64_t>(values.size())
                                : non_null_count;
      if (n == 0) return Value::Null();
      double total;
      if (spec.distinct) {
        total = 0.0;
        for (const auto& [v, count] : values) {
          if (v.is_numeric()) total += v.NumericAsDouble();
        }
      } else {
        total = double_sum + static_cast<double>(int_sum);
      }
      return Value::Double(total / static_cast<double>(n));
    }
    case AggregateSpec::Kind::kCollect: {
      // Deterministic order: sorted by value (Cypher leaves it unspecified).
      ValueList out;
      for (const auto& [v, count] : values) {
        int64_t copies = spec.distinct ? 1 : count;
        for (int64_t i = 0; i < copies; ++i) out.push_back(v);
      }
      return Value::List(std::move(out));
    }
  }
  return Value::Null();
}

AggregateNode::AggregateNode(Schema schema, std::vector<BoundExpression> keys,
                             std::vector<AggregateSpec> aggregates)
    : ReteNode(std::move(schema)),
      keys_(std::move(keys)),
      aggregates_(std::move(aggregates)) {}

Tuple AggregateNode::KeyOf(const Tuple& input) const {
  std::vector<Value> values;
  values.reserve(keys_.size());
  for (const BoundExpression& key : keys_) values.push_back(key.Eval(input));
  return Tuple(std::move(values));
}

Tuple AggregateNode::RenderRow(const Tuple& key,
                               const GroupState& group) const {
  std::vector<Value> values;
  values.reserve(key.size() + aggregates_.size());
  values.assign(key.begin(), key.end());
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    values.push_back(group.aggs[i].Render(aggregates_[i], group.total_rows));
  }
  return Tuple(std::move(values));
}

void AggregateNode::EmitInitial(Delta& out) {
  if (!keys_.empty()) return;
  GroupState& group = groups_.value(groups_.Insert(Tuple()).first);
  group.aggs.resize(aggregates_.size());
  out.push_back({RenderRow(Tuple(), group), 1});
}

void AggregateNode::OnDelta(int /*port*/, const Delta& delta, Delta& out) {
  // Phase 1: capture each touched group's pre-batch row, apply all updates.
  // Each table is probed once per entry. Inserts move entries, so `group`
  // is taken after the groups_ insert; old_rows is another table.
  TupleMap<std::optional<Tuple>> old_rows;
  for (const DeltaEntry& entry : delta) {
    Tuple key = KeyOf(entry.tuple);
    auto [pos, created] = groups_.Insert(key);
    GroupState& group = groups_.value(pos);
    if (created) group.aggs.resize(aggregates_.size());
    auto [old_pos, first_touch] = old_rows.Insert(key);
    if (first_touch && !created) {
      old_rows.value(old_pos) = RenderRow(key, group);
    }
    group.total_rows += entry.multiplicity;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggregateSpec& spec = aggregates_[a];
      if (spec.kind == AggregateSpec::Kind::kCountStar) continue;
      group.aggs[a].Apply(spec, spec.arg->Eval(entry.tuple),
                          entry.multiplicity);
    }
  }

  // Phase 2: emit row transitions per touched group, in first-touch order.
  // A key-less aggregation keeps its single row alive even at zero input
  // rows. Distinct groups never render equal rows (the key values prefix
  // the row), so emission order across groups is irrelevant — the
  // scheduler's consolidation restores canonical order.
  for (const auto& [key, old_row] : old_rows) {
    const size_t pos = groups_.Find(key);
    assert(pos != TupleMap<GroupState>::npos);
    const GroupState& group = groups_[pos].value;
    assert(group.total_rows >= 0 && "group row count went negative");
    bool group_alive = group.total_rows > 0 || keys_.empty();
    std::optional<Tuple> new_row;
    if (group_alive) new_row = RenderRow(key, group);
    if (old_row.has_value() && new_row.has_value()) {
      if (!(*old_row == *new_row)) {
        out.push_back({*old_row, -1});
        out.push_back({*new_row, 1});
      }
    } else if (old_row.has_value()) {
      out.push_back({*old_row, -1});
    } else if (new_row.has_value()) {
      out.push_back({*new_row, 1});
    }
    if (!group_alive) groups_.EraseAt(pos);
  }
}

bool AggregateNode::ReplayOutput(Delta& out) const {
  for (const auto& [key, group] : groups_) {
    if (group.total_rows <= 0 && !keys_.empty()) continue;
    out.push_back({RenderRow(key, group), 1});
  }
  // A key-less aggregation that was never primed (EmitInitial pending)
  // has no group yet; its current output is still the empty-input row.
  if (keys_.empty() && groups_.empty()) {
    GroupState empty;
    empty.aggs.resize(aggregates_.size());
    out.push_back({RenderRow(Tuple(), empty), 1});
  }
  return true;
}

size_t AggregateNode::ApproxMemoryBytes() const {
  size_t bytes = groups_.ApproxMemoryBytes();
  for (const auto& [key, group] : groups_) {
    bytes += group.aggs.capacity() * sizeof(AggState);
    for (const AggState& agg : group.aggs) {
      bytes += agg.values.size() * (sizeof(Value) + sizeof(int64_t) + 48);
    }
  }
  return bytes;
}

}  // namespace pgivm
