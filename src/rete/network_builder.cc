#include "rete/network_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "catalog/node_registry.h"
#include "rete/aggregate_node.h"
#include "rete/antijoin_node.h"
#include "rete/distinct_node.h"
#include "rete/filter_node.h"
#include "rete/join_node.h"
#include "rete/path_node.h"
#include "rete/project_node.h"
#include "rete/semijoin_node.h"
#include "rete/union_node.h"
#include "rete/unnest_node.h"
#include "support/string_util.h"

namespace pgivm {

namespace {

/// A built sub-plan: its root node plus the support set — every node the
/// sub-plan transitively references (shared or freshly constructed). The
/// support travels upward so the registering view can refcount its whole
/// footprint.
struct Built {
  ReteNode* node = nullptr;
  std::vector<ReteNode*> support;
};

void MergeSupport(std::vector<ReteNode*>& dst,
                  const std::vector<ReteNode*>& src) {
  for (ReteNode* node : src) {
    if (std::find(dst.begin(), dst.end(), node) == dst.end()) {
      dst.push_back(node);
    }
  }
}

/// Builds one view's sub-network. Expressions are bound against the plan's
/// child schemas (not the child *node's* schema): a registry hit may return
/// a node built for another view whose schema carries that view's aliases,
/// but the tuple layout is positionally identical — and bound expressions
/// resolve names to column positions once, at bind time.
class Builder {
 public:
  Builder(ReteNetwork* network, const PropertyGraph* graph,
          const NetworkOptions& options, NodeRegistry& registry)
      : network_(network),
        graph_(graph),
        options_(options),
        registry_(registry) {}

  /// Every node this builder added to the network, for rollback on error.
  const std::vector<ReteNode*>& created() const { return created_; }

  Result<Built> Build(const OpPtr& op) {
    std::string key = CanonicalPlanKey(*op);
    if (!key.empty()) {
      if (const NodeRegistry::Entry* hit = registry_.Lookup(key)) {
        return Built{hit->node, hit->support};
      }
    }
    PGIVM_ASSIGN_OR_RETURN(Built built, BuildFresh(op));
    if (!key.empty()) registry_.Insert(key, built.node, built.support);
    return built;
  }

 private:
  template <typename NodeT>
  NodeT* Create(std::unique_ptr<NodeT> node) {
    NodeT* raw = network_->Add(std::move(node));
    created_.push_back(raw);
    return raw;
  }

  Result<Built> BuildFresh(const OpPtr& op) {
    switch (op->kind) {
      case OpKind::kUnit: {
        auto* node = Create(std::make_unique<UnitInputNode>());
        network_->RegisterSource(node);
        return Built{node, {node}};
      }

      case OpKind::kGetVertices: {
        auto* node = Create(std::make_unique<VertexInputNode>(
            op->schema, graph_, op->labels, op->extracts));
        network_->RegisterSource(node);
        return Built{node, {node}};
      }

      case OpKind::kGetEdges: {
        auto* node = Create(std::make_unique<EdgeInputNode>(
            op->schema, graph_, op->edge_types,
            op->direction == EdgeDirection::kBoth, op->src_var, op->edge_var,
            op->dst_var, op->src_labels, op->dst_labels, op->extracts));
        network_->RegisterSource(node);
        return Built{node, {node}};
      }

      case OpKind::kPathJoin: {
        PGIVM_ASSIGN_OR_RETURN(Built input, Build(op->children[0]));
        Schema path_schema;
        path_schema.Add({op->src_var, Attribute::Kind::kVertex});
        path_schema.Add({op->dst_var, Attribute::Kind::kVertex});
        bool emit_path = !op->path_var.empty();
        if (emit_path) {
          path_schema.Add({op->path_var, Attribute::Kind::kPath});
        }
        auto* paths = Create(std::make_unique<PathInputNode>(
            path_schema, graph_, op->edge_types,
            op->direction == EdgeDirection::kIn, op->min_hops, op->max_hops,
            emit_path));
        network_->RegisterSource(paths);
        auto* join = Create(std::make_unique<JoinNode>(
            op->schema, op->children[0]->schema, path_schema));
        input.node->AddOutput(join, 0);
        paths->AddOutput(join, 1);
        Built built{join, std::move(input.support)};
        MergeSupport(built.support, {paths, join});
        return built;
      }

      case OpKind::kSelection: {
        PGIVM_ASSIGN_OR_RETURN(Built input, Build(op->children[0]));
        PGIVM_ASSIGN_OR_RETURN(
            BoundExpression predicate,
            BoundExpression::Bind(op->predicate, op->children[0]->schema));
        auto* node = Create(std::make_unique<FilterNode>(
            op->schema, std::move(predicate)));
        input.node->AddOutput(node, 0);
        Built built{node, std::move(input.support)};
        MergeSupport(built.support, {node});
        return built;
      }

      case OpKind::kProjection:
      case OpKind::kProduce: {
        PGIVM_ASSIGN_OR_RETURN(Built input, Build(op->children[0]));
        std::vector<BoundExpression> columns;
        for (const auto& [name, expr] : op->projections) {
          PGIVM_ASSIGN_OR_RETURN(
              BoundExpression bound,
              BoundExpression::Bind(expr, op->children[0]->schema));
          columns.push_back(std::move(bound));
        }
        auto* node = Create(std::make_unique<ProjectNode>(
            op->schema, std::move(columns)));
        input.node->AddOutput(node, 0);
        Built built{node, std::move(input.support)};
        MergeSupport(built.support, {node});
        return built;
      }

      case OpKind::kJoin:
      case OpKind::kAntiJoin:
      case OpKind::kSemiJoin: {
        PGIVM_ASSIGN_OR_RETURN(Built left, Build(op->children[0]));
        PGIVM_ASSIGN_OR_RETURN(Built right, Build(op->children[1]));
        const Schema& lschema = op->children[0]->schema;
        const Schema& rschema = op->children[1]->schema;
        ReteNode* node = nullptr;
        if (op->kind == OpKind::kJoin) {
          node = Create(
              std::make_unique<JoinNode>(op->schema, lschema, rschema));
        } else if (op->kind == OpKind::kAntiJoin) {
          node = Create(
              std::make_unique<AntiJoinNode>(op->schema, lschema, rschema));
        } else {
          node = Create(
              std::make_unique<SemiJoinNode>(op->schema, lschema, rschema));
        }
        left.node->AddOutput(node, 0);
        right.node->AddOutput(node, 1);
        Built built{node, std::move(left.support)};
        MergeSupport(built.support, right.support);
        MergeSupport(built.support, {node});
        return built;
      }

      case OpKind::kLeftOuterJoin: {
        // L ⟕ R  =  (L ⋈ R)  ∪  π_null-pad(L ▷ R).
        PGIVM_ASSIGN_OR_RETURN(Built left, Build(op->children[0]));
        PGIVM_ASSIGN_OR_RETURN(Built right, Build(op->children[1]));
        const Schema& lschema = op->children[0]->schema;
        const Schema& rschema = op->children[1]->schema;
        auto* join = Create(std::make_unique<JoinNode>(
            op->schema, lschema, rschema));
        left.node->AddOutput(join, 0);
        right.node->AddOutput(join, 1);
        auto* anti = Create(std::make_unique<AntiJoinNode>(
            lschema, lschema, rschema));
        left.node->AddOutput(anti, 0);
        right.node->AddOutput(anti, 1);
        std::vector<BoundExpression> pad;
        for (const Attribute& attr : op->schema.attributes()) {
          ExprPtr expr = lschema.Contains(attr.name)
                             ? MakeVariable(attr.name)
                             : MakeLiteral(Value::Null());
          PGIVM_ASSIGN_OR_RETURN(BoundExpression bound,
                                 BoundExpression::Bind(expr, lschema));
          pad.push_back(std::move(bound));
        }
        auto* padder = Create(std::make_unique<ProjectNode>(
            op->schema, std::move(pad)));
        anti->AddOutput(padder, 0);
        auto* merge = Create(std::make_unique<UnionNode>(op->schema));
        join->AddOutput(merge, 0);
        padder->AddOutput(merge, 1);
        Built built{merge, std::move(left.support)};
        MergeSupport(built.support, right.support);
        MergeSupport(built.support, {join, anti, padder, merge});
        return built;
      }

      case OpKind::kUnion: {
        PGIVM_ASSIGN_OR_RETURN(Built left, Build(op->children[0]));
        PGIVM_ASSIGN_OR_RETURN(Built right, Build(op->children[1]));
        const Schema& lschema = op->children[0]->schema;
        const Schema& rschema = op->children[1]->schema;
        // Align the right input's column order with the left's.
        ReteNode* aligned = right.node;
        std::vector<ReteNode*> extra;
        if (!(rschema == lschema)) {
          std::vector<BoundExpression> reorder;
          for (const Attribute& attr : lschema.attributes()) {
            PGIVM_ASSIGN_OR_RETURN(
                BoundExpression bound,
                BoundExpression::Bind(MakeVariable(attr.name), rschema));
            reorder.push_back(std::move(bound));
          }
          auto* project = Create(std::make_unique<ProjectNode>(
              lschema, std::move(reorder)));
          right.node->AddOutput(project, 0);
          aligned = project;
          extra.push_back(project);
        }
        auto* node = Create(std::make_unique<UnionNode>(op->schema));
        left.node->AddOutput(node, 0);
        aligned->AddOutput(node, 1);
        extra.push_back(node);
        Built built{node, std::move(left.support)};
        MergeSupport(built.support, right.support);
        MergeSupport(built.support, extra);
        return built;
      }

      case OpKind::kDistinct: {
        PGIVM_ASSIGN_OR_RETURN(Built input, Build(op->children[0]));
        auto* node = Create(std::make_unique<DistinctNode>(op->schema));
        input.node->AddOutput(node, 0);
        Built built{node, std::move(input.support)};
        MergeSupport(built.support, {node});
        return built;
      }

      case OpKind::kAggregate: {
        PGIVM_ASSIGN_OR_RETURN(Built input, Build(op->children[0]));
        const Schema& child_schema = op->children[0]->schema;
        std::vector<BoundExpression> keys;
        for (const auto& [name, expr] : op->group_by) {
          PGIVM_ASSIGN_OR_RETURN(BoundExpression bound,
                                 BoundExpression::Bind(expr, child_schema));
          keys.push_back(std::move(bound));
        }
        std::vector<AggregateSpec> specs;
        for (const auto& [name, expr] : op->aggregates) {
          PGIVM_ASSIGN_OR_RETURN(
              AggregateSpec spec,
              AggregateSpec::Make(expr, child_schema, nullptr));
          specs.push_back(std::move(spec));
        }
        auto* node = Create(std::make_unique<AggregateNode>(
            op->schema, std::move(keys), std::move(specs)));
        input.node->AddOutput(node, 0);
        Built built{node, std::move(input.support)};
        MergeSupport(built.support, {node});
        return built;
      }

      case OpKind::kUnnest: {
        PGIVM_ASSIGN_OR_RETURN(Built input, Build(op->children[0]));
        const Schema& child_schema = op->children[0]->schema;
        PGIVM_ASSIGN_OR_RETURN(
            BoundExpression collection,
            BoundExpression::Bind(op->unnest_expr, child_schema));
        std::vector<int> kept;
        for (size_t i = 0; i < child_schema.size(); ++i) {
          const std::string& name = child_schema.at(i).name;
          bool dropped = false;
          for (const std::string& d : op->unnest_drop_columns) {
            if (d == name) dropped = true;
          }
          if (!dropped) kept.push_back(static_cast<int>(i));
        }
        auto* node = Create(std::make_unique<UnnestNode>(
            op->schema, std::move(collection), std::move(kept),
            options_.fine_grained_unnest));
        input.node->AddOutput(node, 0);
        Built built{node, std::move(input.support)};
        MergeSupport(built.support, {node});
        return built;
      }

      case OpKind::kExpand:
        return Status::Internal(
            "Expand reached the network builder; run LowerToFra first");
    }
    return Status::Internal(
        StrCat("unhandled operator ", OpKindName(op->kind)));
  }

  ReteNetwork* network_;
  const PropertyGraph* graph_;
  NetworkOptions options_;
  NodeRegistry& registry_;
  std::vector<ReteNode*> created_;
};

}  // namespace

Result<BuiltView> BuildViewInto(ReteNetwork* network, const OpPtr& plan,
                                const PropertyGraph* graph,
                                const NetworkOptions& options,
                                NodeRegistry& registry) {
  Builder builder(network, graph, options, registry);
  Result<Built> root = builder.Build(plan);
  if (!root.ok()) {
    // Roll the half-built sub-network back out so earlier views (and the
    // registry) never see dangling construction debris.
    registry.RemoveNodes(builder.created());
    network->RemoveNodes(builder.created());
    return root.status();
  }
  // The production takes the *plan's* schema: a registry hit may return a
  // root built for another view, whose schema carries that view's aliases
  // — positionally identical, but this view's diagnostics should see its
  // own column names.
  auto* production =
      network->Add(std::make_unique<ProductionNode>(plan->schema));
  root->node->AddOutput(production, 0);
  network->RegisterProduction(production);
  BuiltView view;
  view.production = production;
  view.nodes = std::move(root->support);
  view.nodes.push_back(production);
  view.created = builder.created();
  view.created.push_back(production);
  return view;
}

namespace {

/// Strict integer parse shared by the environment overrides: the value
/// must be entirely an integer and fit in [INT_MIN, max], or it is rejected
/// with a stderr warning naming the variable. A malformed value must not
/// silently resolve to some other setting ("8abc" is not 8; 99999999999 is
/// not whatever it truncates to in int).
bool ParseStrictEnvInt(const char* name, const char* env, int max,
                       int* out) {
  int64_t value = 0;
  ParseIntResult result = ParseInt64(env, &value);
  if (result == ParseIntResult::kMalformed) {
    std::fprintf(stderr, "pgivm: ignoring %s=\"%s\" (not an integer)\n",
                 name, env);
    return false;
  }
  if (result == ParseIntResult::kOutOfRange || value > max ||
      value < std::numeric_limits<int>::min()) {
    std::fprintf(stderr, "pgivm: ignoring %s=\"%s\" (out of range)\n", name,
                 env);
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

NetworkOptions ApplyEnvExecutorOverride(NetworkOptions options) {
  const char* env = std::getenv("PGIVM_THREADS");
  if (env == nullptr || *env == '\0') return options;
  int threads = 0;
  if (!ParseStrictEnvInt("PGIVM_THREADS", env, ThreadPool::kMaxThreads,
                         &threads)) {
    return options;
  }
  if (threads > 1) {
    options.executor = ExecutorKind::kParallel;
    options.num_threads = threads;
  } else {
    options.executor = ExecutorKind::kSerial;
    options.num_threads = 1;
  }
  return options;
}

NetworkOptions ApplyEnvProfilingOverride(NetworkOptions options) {
  const char* env = std::getenv("PGIVM_PROFILE");
  if (env == nullptr || *env == '\0') return options;
  int value = 0;
  if (!ParseStrictEnvInt("PGIVM_PROFILE", env,
                         std::numeric_limits<int>::max(), &value)) {
    return options;
  }
  options.profiling = value != 0;
  return options;
}

}  // namespace pgivm
