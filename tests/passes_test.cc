#include "algebra/passes/pass_manager.h"

#include <gtest/gtest.h>

#include "algebra/compiler.h"
#include "algebra/plan_printer.h"
#include "cypher/parser.h"
#include "workload/railway.h"
#include "workload/snb_driver.h"

namespace pgivm {
namespace {

OpPtr Gra(const std::string& text) {
  Result<Query> query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status();
  Result<OpPtr> plan = CompileToGra(query.value());
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.value();
}

OpPtr Fra(const std::string& text, PlanOptions options = {}) {
  Result<OpPtr> plan = LowerToFra(Gra(text), options);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.value();
}

int CountKind(const OpPtr& op, OpKind kind) {
  int n = op->kind == kind ? 1 : 0;
  for (const OpPtr& child : op->children) n += CountKind(child, kind);
  return n;
}

const LogicalOp* FindKind(const OpPtr& op, OpKind kind) {
  if (op->kind == kind) return op.get();
  for (const OpPtr& child : op->children) {
    if (const LogicalOp* found = FindKind(child, kind)) return found;
  }
  return nullptr;
}

std::vector<const LogicalOp*> FindAll(const OpPtr& op, OpKind kind) {
  std::vector<const LogicalOp*> out;
  if (op->kind == kind) out.push_back(op.get());
  for (const OpPtr& child : op->children) {
    std::vector<const LogicalOp*> sub = FindAll(child, kind);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

// ---- Expand-to-join (paper step 2) ----------------------------------------

TEST(ExpandToJoinTest, ExpandReplacedByJoinWithGetEdges) {
  OpPtr gra = Gra("MATCH (a:A)-[r:T]->(b) RETURN a");
  EXPECT_EQ(CountKind(gra, OpKind::kExpand), 1);
  EXPECT_EQ(CountKind(gra, OpKind::kGetEdges), 0);

  OpPtr nra = RewriteExpandToJoin(gra);
  EXPECT_EQ(CountKind(nra, OpKind::kExpand), 0);
  const LogicalOp* edges = FindKind(nra, OpKind::kGetEdges);
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->src_var, "a");
  EXPECT_EQ(edges->edge_var, "r");
  EXPECT_EQ(edges->dst_var, "b");
  EXPECT_EQ(edges->direction, EdgeDirection::kOut);
}

TEST(ExpandToJoinTest, IncomingEdgeNormalizedToGraphDirection) {
  OpPtr nra = RewriteExpandToJoin(Gra("MATCH (a)<-[r:T]-(b) RETURN a"));
  const LogicalOp* edges = FindKind(nra, OpKind::kGetEdges);
  ASSERT_NE(edges, nullptr);
  // Graph-direction source is `b`.
  EXPECT_EQ(edges->src_var, "b");
  EXPECT_EQ(edges->dst_var, "a");
  EXPECT_EQ(edges->direction, EdgeDirection::kOut);
}

TEST(ExpandToJoinTest, UndirectedKeepsBothDirection) {
  OpPtr nra = RewriteExpandToJoin(Gra("MATCH (a)-[r:T]-(b) RETURN a"));
  const LogicalOp* edges = FindKind(nra, OpKind::kGetEdges);
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->direction, EdgeDirection::kBoth);
}

TEST(ExpandToJoinTest, PathJoinBecomesJoinWithGetPaths) {
  OpPtr gra = Gra("MATCH t = (a:A)<-[:T*2..3]-(b) RETURN a, t");
  EXPECT_EQ(CountKind(gra, OpKind::kPathJoin), 1);
  OpPtr nra = RewriteExpandToJoin(gra);
  EXPECT_EQ(CountKind(nra, OpKind::kPathJoin), 0);
  const LogicalOp* paths = FindKind(nra, OpKind::kGetPaths);
  ASSERT_NE(paths, nullptr);
  EXPECT_TRUE(paths->children.empty());
  // Pattern orientation stays: the path value runs from a to b.
  EXPECT_EQ(paths->src_var, "a");
  EXPECT_EQ(paths->dst_var, "b");
  EXPECT_EQ(paths->direction, EdgeDirection::kIn);
  EXPECT_EQ(paths->edge_types, std::vector<std::string>{"T"});
  EXPECT_EQ(paths->min_hops, 2);
  EXPECT_EQ(paths->max_hops, 3);
  EXPECT_FALSE(paths->path_var.empty());
}

// ---- Property pushdown (paper step 3: minimal schema inference) -----------

TEST(PropertyPushdownTest, RunningExamplePushesLangToLeaves) {
  // The paper's §4 example: both p.lang and c.lang become leaf extracts.
  OpPtr fra = Fra(
      "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) "
      "WHERE p.lang = c.lang RETURN p, t");
  int extract_count = 0;
  for (OpKind kind : {OpKind::kGetVertices, OpKind::kGetPaths}) {
    for (const LogicalOp* leaf : FindAll(fra, kind)) {
      extract_count += static_cast<int>(leaf->extracts.size());
    }
  }
  EXPECT_EQ(extract_count, 2) << PrintPlan(fra);
  // The selection now references the extracted columns, not raw properties.
  const LogicalOp* sel = FindKind(fra, OpKind::kSelection);
  ASSERT_NE(sel, nullptr);
  EXPECT_NE(sel->predicate->ToString().find("#p.lang"), std::string::npos);
  EXPECT_NE(sel->predicate->ToString().find("#c.lang"), std::string::npos);
}

TEST(PropertyPushdownTest, SharedAccessesShareOneExtract) {
  OpPtr fra = Fra("MATCH (n:A) WHERE n.x > 1 RETURN n.x AS x");
  const LogicalOp* leaf = FindKind(fra, OpKind::kGetVertices);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->extracts.size(), 1u);
  EXPECT_EQ(leaf->extracts[0].column_name, "#n.x");
}

TEST(PropertyPushdownTest, EdgePropertiesExtractAtGetEdges) {
  OpPtr fra = Fra("MATCH (a)-[r:T]->(b) WHERE r.w > 1 RETURN a");
  const LogicalOp* edges = FindKind(fra, OpKind::kGetEdges);
  ASSERT_NE(edges, nullptr);
  ASSERT_EQ(edges->extracts.size(), 1u);
  EXPECT_EQ(edges->extracts[0].column_name, "#r.w");
}

TEST(PropertyPushdownTest, LabelsAndTypeExtracted) {
  OpPtr fra = Fra("MATCH (a)-[r:T]->(b) RETURN labels(a) AS la, "
                  "type(r) AS tr");
  bool found_labels = false, found_type = false;
  for (const LogicalOp* leaf : FindAll(fra, OpKind::kGetVertices)) {
    for (const PropertyExtract& extract : leaf->extracts) {
      if (extract.what == PropertyExtract::What::kLabels) found_labels = true;
    }
  }
  for (const LogicalOp* leaf : FindAll(fra, OpKind::kGetEdges)) {
    for (const PropertyExtract& extract : leaf->extracts) {
      if (extract.what == PropertyExtract::What::kType) found_type = true;
    }
  }
  EXPECT_TRUE(found_labels);
  EXPECT_TRUE(found_type);
}

TEST(PropertyPushdownTest, AccessAboveProjectionThreadsThrough) {
  // b aliases a across the WITH; the pushdown must thread #a.name through
  // the projection.
  OpPtr fra = Fra("MATCH (a:A) WITH a AS b RETURN b.name AS n");
  const LogicalOp* leaf = FindKind(fra, OpKind::kGetVertices);
  ASSERT_NE(leaf, nullptr);
  ASSERT_EQ(leaf->extracts.size(), 1u);
  bool threaded = false;
  for (const LogicalOp* proj : FindAll(fra, OpKind::kProjection)) {
    for (const auto& [name, expr] : proj->projections) {
      if (name == "#a.name") threaded = true;
    }
  }
  EXPECT_TRUE(threaded) << PrintPlan(fra);
}

TEST(PropertyPushdownTest, UnnestedPathVerticesGetDynamicLeaf) {
  // n comes out of the path at runtime: pushdown joins a fresh ◯(n) leaf
  // with the lang extract so the view stays incremental.
  OpPtr fra = Fra(
      "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) "
      "UNWIND nodes(t) AS n RETURN n.lang AS l");
  bool found = false;
  for (const LogicalOp* leaf : FindAll(fra, OpKind::kGetVertices)) {
    if (leaf->vertex_var == "n" && !leaf->extracts.empty()) found = true;
  }
  EXPECT_TRUE(found) << PrintPlan(fra);
}

TEST(PropertyPushdownTest, ComprehensionShadowingBlocksPushdown) {
  // The comprehension local `x` shadows the pattern variable `x` inside the
  // body: `x.k` there reads the list element (a map), not the vertex. Only
  // the list expression `x.tags` (unshadowed) is pushed down.
  OpPtr fra = Fra(
      "MATCH (x:A) WHERE any(x IN x.tags WHERE x.k = 1) RETURN x");
  const LogicalOp* leaf = FindKind(fra, OpKind::kGetVertices);
  ASSERT_NE(leaf, nullptr);
  ASSERT_EQ(leaf->extracts.size(), 1u);
  EXPECT_EQ(leaf->extracts[0].column_name, "#x.tags");
}

TEST(PropertyPushdownTest, NaiveModeShipsWholeMaps) {
  PlanOptions naive;
  naive.naive_property_maps = true;
  OpPtr fra = Fra("MATCH (n:A) WHERE n.x > 1 RETURN n.y AS y", naive);
  const LogicalOp* leaf = FindKind(fra, OpKind::kGetVertices);
  ASSERT_NE(leaf, nullptr);
  ASSERT_EQ(leaf->extracts.size(), 1u);
  EXPECT_EQ(leaf->extracts[0].what, PropertyExtract::What::kPropertyMap);
  // Accesses become map lookups on the map column.
  const LogicalOp* sel = FindKind(fra, OpKind::kSelection);
  ASSERT_NE(sel, nullptr);
  EXPECT_NE(sel->predicate->ToString().find("#props(n).x"),
            std::string::npos);
}

// Pushdown always runs; the E6 flag only picks what the leaves extract.
// Either way a property-reading plan lowers, and the selection reads a
// column its leaf extracted.
TEST(PropertyPushdownTest, BothMapModesLowerPropertyReads) {
  for (bool naive : {false, true}) {
    PlanOptions options;
    options.naive_property_maps = naive;
    OpPtr fra = Fra("MATCH (a:A)-[:R]->(b:B) WHERE a.x = b.y "
                    "RETURN a.x AS x, count(*) AS c",
                    options);
    ASSERT_NE(fra, nullptr) << "naive=" << naive;
    size_t extracts = 0;
    for (OpKind leaf : {OpKind::kGetVertices, OpKind::kGetEdges}) {
      for (const LogicalOp* op : FindAll(fra, leaf)) {
        for (const PropertyExtract& extract : op->extracts) {
          EXPECT_EQ(extract.what == PropertyExtract::What::kPropertyMap,
                    naive)
              << extract.column_name;
          ++extracts;
        }
      }
    }
    EXPECT_GT(extracts, 0u) << "naive=" << naive;
    EXPECT_NE(FindKind(fra, OpKind::kSelection), nullptr) << "naive=" << naive;
  }
}

// ---- Filter pushdown --------------------------------------------------------

TEST(FilterPushdownTest, ConjunctsSplitAcrossJoinSides) {
  OpPtr fra = Fra("MATCH (a:A), (b:B) WHERE a.x = 1 AND b.y = 2 "
                  "RETURN a, b");
  // Each conjunct lands below the join, directly above its leaf.
  const LogicalOp* join = FindKind(fra, OpKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->children[0]->kind, OpKind::kSelection);
  EXPECT_EQ(join->children[1]->kind, OpKind::kSelection);
}

// Filter pushdown is a fixed pass, not a canonical-form side effect: a
// plan lowered without canonicalization still has the one-side conjunct
// below the join.
TEST(FilterPushdownTest, PushedBelowJoinWithoutCanonicalization) {
  PlanOptions options;
  options.canonicalize = false;
  OpPtr fra = Fra("MATCH (a:A), (b:B) WHERE a.x = 1 RETURN a, b", options);
  const LogicalOp* join = FindKind(fra, OpKind::kJoin);
  ASSERT_NE(join, nullptr);
  int pushed = 0;
  for (const OpPtr& child : join->children) {
    pushed += child->kind == OpKind::kSelection ? 1 : 0;
  }
  EXPECT_EQ(pushed, 1);
  for (const LogicalOp* sel : FindAll(fra, OpKind::kSelection)) {
    EXPECT_NE(sel->children[0]->kind, OpKind::kJoin);
  }
}

TEST(FilterPushdownTest, CrossSideConjunctStaysAboveJoin) {
  OpPtr fra = Fra("MATCH (a:A), (b:B) WHERE a.x = b.y RETURN a, b");
  const LogicalOp* sel = FindKind(fra, OpKind::kSelection);
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(sel->children[0]->kind, OpKind::kJoin);
}

// ---- Column pruning ---------------------------------------------------------

TEST(ColumnPruningTest, UnreferencedExtractRemoved) {
  // Lower manually so we can observe the pre-pruning state.
  OpPtr plan = RewriteExpandToJoin(Gra("MATCH (n:A) RETURN n"));
  ASSERT_TRUE(ComputeSchemas(plan).ok());
  ASSERT_TRUE(PushDownProperties(plan, false).ok());
  // Inject a stray extract.
  LogicalOp* leaf = const_cast<LogicalOp*>(FindKind(plan,
                                                    OpKind::kGetVertices));
  leaf->extracts.push_back(
      {PropertyExtract::What::kProperty, "n", "junk", "#n.junk"});
  ASSERT_TRUE(ComputeSchemas(plan).ok());
  PruneUnusedExtracts(plan);
  EXPECT_TRUE(leaf->extracts.empty());
}

// ---- Unnest narrowing (FGN prerequisite) -----------------------------------

TEST(NarrowUnnestTest, CollectionColumnDroppedFromUnnestOutput) {
  OpPtr fra = Fra("MATCH (n:A) UNWIND n.tags AS tag RETURN n, tag");
  const LogicalOp* unnest = FindKind(fra, OpKind::kUnnest);
  ASSERT_NE(unnest, nullptr);
  EXPECT_EQ(unnest->unnest_drop_columns,
            std::vector<std::string>{"#n.tags"});
  EXPECT_FALSE(unnest->schema.Contains("#n.tags"));
}

TEST(NarrowUnnestTest, ColumnKeptWhenReferencedAbove) {
  OpPtr fra = Fra("MATCH (n:A) UNWIND n.tags AS tag "
                  "RETURN n.tags AS whole, tag");
  const LogicalOp* unnest = FindKind(fra, OpKind::kUnnest);
  ASSERT_NE(unnest, nullptr);
  EXPECT_TRUE(unnest->unnest_drop_columns.empty());
}

TEST(NarrowUnnestTest, DistinctAboveAllowsDependentColumnDrop) {
  // #n.tags is functionally dependent on n (which stays), so dropping it
  // cannot merge rows — narrowing is allowed even under DISTINCT.
  OpPtr fra = Fra("MATCH (n:A) UNWIND n.tags AS tag RETURN DISTINCT tag");
  const LogicalOp* unnest = FindKind(fra, OpKind::kUnnest);
  ASSERT_NE(unnest, nullptr);
  EXPECT_EQ(unnest->unnest_drop_columns,
            std::vector<std::string>{"#n.tags"});
}

TEST(NarrowUnnestTest, DistinctAboveBlocksNonDependentDrop) {
  // Unnesting a computed list (not a leaf extract): under DISTINCT the
  // collection column must stay, since nothing kept determines it.
  OpPtr fra = Fra("UNWIND [1,2] AS a WITH [a, a] AS pair "
                  "UNWIND pair AS x RETURN DISTINCT x");
  std::vector<const LogicalOp*> unnests = FindAll(fra, OpKind::kUnnest);
  ASSERT_EQ(unnests.size(), 2u);
  // The inner UNWIND (over `pair`) keeps its collection column.
  EXPECT_TRUE(unnests[1]->unnest_drop_columns.empty());
}

TEST(NarrowUnnestTest, DisabledByOption) {
  PlanOptions options;
  options.fine_grained_unnest = false;
  OpPtr fra = Fra("MATCH (n:A) UNWIND n.tags AS tag RETURN n, tag", options);
  const LogicalOp* unnest = FindKind(fra, OpKind::kUnnest);
  ASSERT_NE(unnest, nullptr);
  EXPECT_TRUE(unnest->unnest_drop_columns.empty());
}

// ---- Endpoint-label folding ------------------------------------------------

TEST(FoldEndpointLabelsTest, FriendOfFriendKeepsOnlyEdgeLeaves) {
  OpPtr fra = Fra(
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN a, c");
  EXPECT_EQ(CountKind(fra, OpKind::kGetVertices), 0) << PrintPlan(fra);
  std::vector<const LogicalOp*> edges = FindAll(fra, OpKind::kGetEdges);
  ASSERT_EQ(edges.size(), 2u) << PrintPlan(fra);
  for (const LogicalOp* leaf : edges) {
    EXPECT_EQ(leaf->src_labels, std::vector<std::string>{"Person"});
    EXPECT_EQ(leaf->dst_labels, std::vector<std::string>{"Person"});
  }
  EXPECT_NE(PrintPlan(fra).find("(a:Person)-["), std::string::npos)
      << PrintPlan(fra);
}

TEST(FoldEndpointLabelsTest, LeafWithExtractsStaysAndLendsItsLabels) {
  OpPtr fra = Fra("MATCH (a:A)-[:R]->(b:B) WHERE b.x > 0 RETURN a, b");
  std::vector<const LogicalOp*> vertices = FindAll(fra, OpKind::kGetVertices);
  ASSERT_EQ(vertices.size(), 1u) << PrintPlan(fra);
  EXPECT_EQ(vertices[0]->vertex_var, "b");
  EXPECT_FALSE(vertices[0]->extracts.empty());
  const LogicalOp* edges = FindKind(fra, OpKind::kGetEdges);
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->src_labels, std::vector<std::string>{"A"});
  EXPECT_EQ(edges->dst_labels, std::vector<std::string>{"B"});
}

TEST(FoldEndpointLabelsTest, NothingFoldsAcrossOptionalOrExists) {
  // OPTIONAL MATCH: the outer label stays on the outer vertex leaf.
  OpPtr optional =
      Fra("MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b) RETURN a, b");
  ASSERT_EQ(CountKind(optional, OpKind::kGetVertices), 1);
  ASSERT_NE(FindKind(optional, OpKind::kGetEdges), nullptr);
  EXPECT_TRUE(FindKind(optional, OpKind::kGetEdges)->src_labels.empty());

  // exists(): labels fold inside the probe pattern, never out of it.
  OpPtr exists = Fra("MATCH (a:A) WHERE exists((a)-[:R]->(:B)) RETURN a");
  ASSERT_EQ(CountKind(exists, OpKind::kGetVertices), 1) << PrintPlan(exists);
  const LogicalOp* probe = FindKind(exists, OpKind::kGetEdges);
  ASSERT_NE(probe, nullptr);
  EXPECT_TRUE(probe->src_labels.empty());
  EXPECT_EQ(probe->dst_labels, std::vector<std::string>{"B"});

  // A labelled path's end stays out of the outer region's path leaf.
  OpPtr path = Fra(
      "MATCH (a:A) OPTIONAL MATCH (a)-[:R*]->(b:B) WHERE a.x = b.x "
      "RETURN a, b");
  const LogicalOp* paths = FindKind(path, OpKind::kGetPaths);
  ASSERT_NE(paths, nullptr) << PrintPlan(path);
  EXPECT_TRUE(paths->src_labels.empty()) << PrintPlan(path);
  EXPECT_EQ(paths->dst_labels, std::vector<std::string>{"B"});
  ASSERT_EQ(CountKind(path, OpKind::kGetVertices), 1) << PrintPlan(path);
  EXPECT_EQ(FindKind(path, OpKind::kGetVertices)->labels,
            std::vector<std::string>{"A"});
}

TEST(FoldEndpointLabelsTest, PathEndpointsFoldIntoThePathLeaf) {
  OpPtr labels_only = Fra("MATCH (a:A)-[:R*]->(b:B) RETURN a, b");
  EXPECT_EQ(CountKind(labels_only, OpKind::kGetVertices), 0)
      << PrintPlan(labels_only);
  EXPECT_EQ(CountKind(labels_only, OpKind::kJoin), 0)
      << PrintPlan(labels_only);
  const LogicalOp* paths = FindKind(labels_only, OpKind::kGetPaths);
  ASSERT_NE(paths, nullptr);
  EXPECT_EQ(paths->src_labels, std::vector<std::string>{"A"});
  EXPECT_EQ(paths->dst_labels, std::vector<std::string>{"B"});
}

TEST(FoldEndpointLabelsTest, ReplyPathViewIsOnePathLeaf) {
  // The SNB REPLY* view: labels and both lang reads move onto the path
  // leaf, so the plan is path leaf -> Selection -> Projection.
  OpPtr fra = Fra(
      "MATCH (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang "
      "RETURN p, c");
  EXPECT_EQ(CountKind(fra, OpKind::kGetVertices), 0) << PrintPlan(fra);
  EXPECT_EQ(CountKind(fra, OpKind::kJoin), 0) << PrintPlan(fra);
  std::vector<const LogicalOp*> paths = FindAll(fra, OpKind::kGetPaths);
  ASSERT_EQ(paths.size(), 1u) << PrintPlan(fra);
  EXPECT_EQ(paths[0]->src_labels, std::vector<std::string>{"Post"});
  EXPECT_EQ(paths[0]->dst_labels, std::vector<std::string>{"Comm"});
  std::vector<std::string> columns;
  for (const PropertyExtract& extract : paths[0]->extracts) {
    columns.push_back(extract.column_name);
  }
  EXPECT_EQ(columns, (std::vector<std::string>{"#p.lang", "#c.lang"}))
      << PrintPlan(fra);
  EXPECT_NE(PrintPlan(fra).find(
                "GetPaths (p:Post)-[:REPLY*1..]->(c:Comm) {p.lang -> "
                "#p.lang, c.lang -> #c.lang}"),
            std::string::npos)
      << PrintPlan(fra);
}

TEST(FoldEndpointLabelsTest, PathExtractsGoToExactlyOnePathLeaf) {
  // b ends one path and starts the other: its extract lands on one of
  // them only, and its selection moves above the joined paths.
  OpPtr fra = Fra(
      "MATCH (a)-[:R*]->(b:B)-[:S*]->(c) WHERE b.x = 1 RETURN a, c");
  EXPECT_EQ(CountKind(fra, OpKind::kGetVertices), 0) << PrintPlan(fra);
  std::vector<const LogicalOp*> paths = FindAll(fra, OpKind::kGetPaths);
  ASSERT_EQ(paths.size(), 2u) << PrintPlan(fra);
  int carriers = 0;
  for (const LogicalOp* leaf : paths) {
    if (!leaf->extracts.empty()) ++carriers;
  }
  EXPECT_EQ(carriers, 1) << PrintPlan(fra);
}

TEST(FoldEndpointLabelsTest, UnlabelledChainStartLeafIsDropped) {
  OpPtr fra = Fra("MATCH (a)-[r:R]->(b) RETURN a, r, b");
  EXPECT_EQ(CountKind(fra, OpKind::kGetVertices), 0) << PrintPlan(fra);
  EXPECT_EQ(CountKind(fra, OpKind::kJoin), 0) << PrintPlan(fra);
}

/// True when some extract-free get-vertices leaf is joined (kJoin) onto an
/// input — the label-only scans the fold deletes.
bool HasLabelOnlyVertexJoin(const OpPtr& op) {
  if (op->kind == OpKind::kJoin) {
    for (const OpPtr& child : op->children) {
      if (child->kind == OpKind::kGetVertices && child->extracts.empty()) {
        return true;
      }
    }
  }
  for (const OpPtr& child : op->children) {
    if (HasLabelOnlyVertexJoin(child)) return true;
  }
  return false;
}

TEST(FoldEndpointLabelsTest, WorkloadPlansHaveNoLabelOnlyVertexJoins) {
  std::vector<std::string> queries = SnbDriver::ComplexReadQueries();
  for (const std::string& query : SnbDriver::ShortReadQueries()) {
    queries.push_back(query);
  }
  for (const std::string& query :
       {RailwayGenerator::PosLengthQuery(),
        RailwayGenerator::SwitchMonitoredQuery(),
        RailwayGenerator::RouteSensorQuery(),
        RailwayGenerator::SwitchSetQuery()}) {
    queries.push_back(query);
  }
  for (const std::string& query : queries) {
    OpPtr fra = Fra(query);
    EXPECT_FALSE(HasLabelOnlyVertexJoin(fra)) << query << "\n"
                                              << PrintPlan(fra);
  }
}

// ---- Full pipeline invariants ----------------------------------------------

TEST(LowerToFraTest, NoExpandRemainsAndSchemasValid) {
  for (const char* query : {
           "MATCH (a:A)-[r:T]->(b:B) WHERE a.x = b.y RETURN a, r, b",
           "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) RETURN t",
           "MATCH (a:A) OPTIONAL MATCH (a)-[r:T]->(b) RETURN a, b",
           "MATCH (n:A) RETURN n.x AS x, count(*) AS c",
           "UNWIND [1,2] AS x RETURN x",
       }) {
    OpPtr fra = Fra(query);
    EXPECT_EQ(CountKind(fra, OpKind::kExpand), 0) << query;
    EXPECT_TRUE(ComputeSchemas(fra).ok()) << query;
  }
}

}  // namespace
}  // namespace pgivm
