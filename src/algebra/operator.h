#ifndef PGIVM_ALGEBRA_OPERATOR_H_
#define PGIVM_ALGEBRA_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/schema.h"
#include "cypher/expression.h"
#include "support/status.h"

namespace pgivm {

/// Kinds of logical operators across all three algebra stages of the paper:
///
///   GRA  : kGetVertices (◯), kExpand (↑), kPathJoin (⋈*), kSelection,
///          kJoin, kProjection, ...
///   NRA  : kExpand is rewritten to kJoin(kGetEdges) and kPathJoin to
///          kJoin(kGetPaths), property access becomes keyed unnest
///          (modelled as extracted columns),
///   FRA  : after property pushdown, leaf operators carry the inferred
///          minimal schema and the plan is flat (no nested evaluation).
enum class OpKind {
  kUnit,          // single empty tuple (base of pattern-free queries)
  kGetVertices,   // ◯(v:Labels) — one tuple per matching vertex
  kGetEdges,      // ⇑(src)-[edge:Types]->(dst) — one tuple per edge
  kGetPaths,      // (src)-[:Types*]->(dst) — one tuple per trail
  kExpand,        // ↑ GRA navigation, removed by the expand-to-join pass
  kPathJoin,      // ⋈* GRA transitive join, removed by the same pass
  kSelection,     // σ predicate
  kProjection,    // π named expressions
  kJoin,          // ⋈ natural join on shared column names
  kLeftOuterJoin, // for OPTIONAL MATCH
  kAntiJoin,      // ▷ left rows with no partner (used to build outer join)
  kSemiJoin,      // ⋉ left rows with at least one partner (exists patterns)
  kUnion,         // bag union (schemas matched by name)
  kDistinct,      // bag → set
  kAggregate,     // γ group-by + aggregate functions
  kUnnest,        // μ one row per element of a collection expression
  kProduce,       // root: final named columns of the view
};

const char* OpKindName(OpKind kind);

/// True for the leaves that read the graph: get-vertices, get-edges and
/// get-paths.
bool IsGraphLeaf(OpKind kind);

/// A property/metadata extraction pushed down into a leaf operator — the
/// paper's `{lang → pL}` annotation produced by minimal schema inference.
struct PropertyExtract {
  enum class What {
    kProperty,     // element_var.key
    kLabels,       // labels(v) as a list of strings
    kType,         // type(e)
    kPropertyMap,  // properties(x) — the full map (also the naive-plan mode)
  };

  What what = What::kProperty;
  std::string element_var;  // leaf column holding the vertex/edge
  std::string key;          // property key (kProperty only)
  std::string column_name;  // generated output column (e.g. "#p.lang")

  std::string ToString() const;

  friend bool operator==(const PropertyExtract& a, const PropertyExtract& b) {
    return a.what == b.what && a.element_var == b.element_var &&
           a.key == b.key && a.column_name == b.column_name;
  }
};

struct LogicalOp;
using OpPtr = std::shared_ptr<LogicalOp>;

enum class EdgeDirection { kOut, kIn, kBoth };

/// One node of the logical plan. A tagged struct (rather than a class
/// hierarchy) so rewrite passes can clone and edit nodes freely; only the
/// fields relevant to `kind` are meaningful.
struct LogicalOp {
  OpKind kind;
  std::vector<OpPtr> children;

  /// Output schema; filled in by ComputeSchemas.
  Schema schema;

  // kGetVertices
  std::string vertex_var;
  std::vector<std::string> labels;

  // kGetEdges / kGetPaths / kExpand / kPathJoin
  std::string src_var;
  std::string edge_var;  // empty for kGetPaths/kPathJoin (inside the path)
  std::string dst_var;
  std::vector<std::string> edge_types;  // empty = any type
  EdgeDirection direction = EdgeDirection::kOut;

  // kGetEdges / kGetPaths: labels the src/dst endpoint must carry (empty =
  // any vertex), folded in from the region's get-vertices leaves by
  // FoldEndpointLabels.
  std::vector<std::string> src_labels;
  std::vector<std::string> dst_labels;

  // kExpand / kPathJoin / kGetPaths variable-length parameters.
  bool variable_length = false;
  int64_t min_hops = 1;
  int64_t max_hops = -1;  // -1 = unbounded
  std::string path_var;   // non-empty: emit the traversed path as a column

  // kGetVertices / kGetEdges / kGetPaths: extracted columns (after property
  // pushdown; a kGetPaths leaf only gains them from FoldEndpointLabels).
  std::vector<PropertyExtract> extracts;

  // kSelection
  ExprPtr predicate;

  // kProjection / kProduce: output columns.
  std::vector<std::pair<std::string, ExprPtr>> projections;

  // kAggregate
  std::vector<std::pair<std::string, ExprPtr>> group_by;
  std::vector<std::pair<std::string, ExprPtr>> aggregates;

  // kUnnest
  ExprPtr unnest_expr;
  std::string unnest_alias;
  /// Input columns excluded from the unnest output (they exist only to feed
  /// unnest_expr). Dropping the collection column is what makes fine-grained
  /// element-level maintenance (FGN) possible downstream.
  std::vector<std::string> unnest_drop_columns;

  /// One-line description (without children), e.g. "GetVertices p:Post
  /// {lang -> #p.lang}".
  std::string DebugString() const;
};

OpPtr MakeOp(OpKind kind, std::vector<OpPtr> children = {});

/// Deep-copies the operator tree (expressions are shared, they are
/// immutable).
OpPtr CloneTree(const OpPtr& op);

/// Recomputes `schema` for every node bottom-up, validating variable
/// references (join keys present, selection/projection inputs bound, ...).
/// Must be re-run after any structural rewrite.
Status ComputeSchemas(const OpPtr& root);

/// Recomputes `op->schema` from its *children's* schemas, which must
/// already be valid — the single-node step of ComputeSchemas. Rewrite
/// passes that rebuild trees bottom-up (e.g. canonicalization) call this
/// per node instead of re-walking whole subtrees.
Status ComputeSchemaShallow(const OpPtr& op);

/// Collects every node of the tree in post-order (children before parents).
void CollectPostOrder(const OpPtr& root, std::vector<OpPtr>& out);

/// Deep structural equality of two plans: operator kinds, every parameter
/// (variables, labels/types, hop bounds, extracts), expressions
/// (Expression::Equal) and children. Schemas are derived state and are not
/// compared. Two queries whose plans are PlanEqual after canonicalization
/// lower to byte-identical Rete networks.
bool PlanEqual(const OpPtr& a, const OpPtr& b);

/// Structural hash consistent with PlanEqual.
size_t PlanHash(const OpPtr& op);

}  // namespace pgivm

#endif  // PGIVM_ALGEBRA_OPERATOR_H_
