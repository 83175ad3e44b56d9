// Canonical plan normalization (PlanOptions::canonicalize): logically equal
// query spellings — alias renames, MATCH clause/part permutations, commuted
// WHERE conjuncts, swapped UNION branches, flipped commutative operands —
// must lower to plans with identical canonical fingerprints, so a live
// catalog resolves them onto the same shared Rete sub-network (registry
// hits only; the per-view production is the single new node). And the
// normal form must be purely structural: snapshots are bit-identical to
// the un-canonicalized plan under both propagation strategies.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/passes/pass_manager.h"
#include "algebra/plan_fingerprint.h"
#include "algebra/plan_printer.h"
#include "engine/query_engine.h"
#include "workload/random_graph.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

EngineOptions CanonicalizeDisabled() {
  EngineOptions options;
  options.plan.canonicalize = false;
  return options;
}

/// One logical query in several spellings. `same_aliases` marks groups
/// whose variants keep every variable name, where canonicalization must
/// produce *byte-identical* plans (PlanEqual), not just equal fingerprints.
struct VariantGroup {
  const char* name;
  bool same_aliases;
  std::vector<const char*> variants;
};

std::vector<VariantGroup> Groups() {
  return {
      {"alias_rename",
       false,
       {"MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang "
        "RETURN p, c",
        "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang "
        "RETURN x, y"}},
      {"conjunct_commute",
       true,
       {"MATCH (p:Post)-[:REPLY]->(c:Comm) "
        "WHERE p.lang = c.lang AND p.length > 10 RETURN p, c",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) "
        "WHERE p.length > 10 AND p.lang = c.lang RETURN p, c"}},
      {"operand_commute",
       true,
       {"MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
        "MATCH (p:Post) WHERE 'en' = p.lang RETURN p"}},
      // Edges named explicitly: anonymous elements would draw
      // fresh-counter names in part order and spoil byte-identity.
      {"part_permutation",
       true,
       {"MATCH (u:Person)-[l:LIKES]->(m:Post), (m)-[r:REPLY]->(c:Comm) "
        "RETURN u, c",
        "MATCH (m)-[r:REPLY]->(c:Comm), (u:Person)-[l:LIKES]->(m:Post) "
        "RETURN u, c"}},
      {"clause_permutation",
       true,
       {"MATCH (a:Person) MATCH (b:Comm) WHERE a.country = 'de' "
        "RETURN a, b",
        "MATCH (b:Comm) MATCH (a:Person) WHERE a.country = 'de' "
        "RETURN a, b"}},
      {"cross_join_permutation",
       false,
       {"MATCH (a:Person), (b:Post) WHERE a.country = b.lang RETURN a, b",
        "MATCH (b:Post), (a:Person) WHERE b.lang = a.country RETURN a, b"}},
      {"union_branch_swap",
       true,
       {"MATCH (a:Post) RETURN a AS n UNION MATCH (b:Comm) RETURN b AS n",
        "MATCH (b:Comm) RETURN b AS n UNION MATCH (a:Post) RETURN a AS n"}},
      // Not byte-identical: anonymous pattern elements draw fresh-counter
      // names in conjunct order, so only the (alias-insensitive)
      // fingerprints coincide.
      {"exists_commute",
       false,
       {"MATCH (a:Person) WHERE exists((a)-[:KNOWS]->(:Person)) AND "
        "NOT exists((a)-[:LIKES]->(:Post)) RETURN a",
        "MATCH (a:Person) WHERE NOT exists((a)-[:LIKES]->(:Post)) AND "
        "exists((a)-[:KNOWS]->(:Person)) RETURN a"}},
      // Two same-shaped pattern elements (equal leaf fingerprints): the
      // ordering must fall back to the Weisfeiler–Leman-refined
      // attachment colors, never to clause position.
      {"duplicate_shape_permutation",
       true,
       {"MATCH (a:Post)-[r1:REPLY]->(b), (c:Post)-[r2:REPLY]->(d), "
        "(b)-[s:LIKES]->(c) RETURN a, d",
        "MATCH (c:Post)-[r2:REPLY]->(d), (a:Post)-[r1:REPLY]->(b), "
        "(b)-[s:LIKES]->(c) RETURN a, d"}},
      {"extract_order",
       true,
       {"MATCH (p:Post) WHERE p.lang = 'en' AND p.length > 5 "
        "RETURN p, p.lang AS l, p.length AS n",
        "MATCH (p:Post) WHERE p.length > 5 AND p.lang = 'en' "
        "RETURN p, p.lang AS l, p.length AS n"}},
      // An undirected scan emits both orientations of every edge, so the
      // two endpoint spellings bind identical rows; the canonicalizer
      // pins one orientation per leaf. Not byte-identical: the variants
      // disagree on which variable is src.
      {"undirected_endpoint_swap",
       false,
       {"MATCH (p:Post)-[r:REPLY]-(c:Comm) RETURN p, c",
        "MATCH (c:Comm)-[r:REPLY]-(p:Post) RETURN p, c"}},
      // Same with an asymmetric predicate: the extract for p.lang rides
      // on a different endpoint role in each spelling, which is exactly
      // the shape that made fingerprint-level orientation merging
      // unsound — the fix must rewrite the plan, not just the key.
      {"undirected_endpoint_swap_filtered",
       false,
       {"MATCH (p:Post)-[r:REPLY]-(c:Comm) WHERE p.lang = 'en' "
        "RETURN p, c",
        "MATCH (c:Comm)-[r:REPLY]-(p:Post) WHERE p.lang = 'en' "
        "RETURN p, c"}},
      // Two undirected legs through a shared middle: each leaf picks its
      // orientation inside the join region.
      {"undirected_two_hop_swap",
       false,
       {"MATCH (a:Person)-[k:KNOWS]-(b:Person), (b)-[l:LIKES]->(m:Post) "
        "RETURN a, m",
        "MATCH (b:Person)-[k:KNOWS]-(a:Person), (b)-[l:LIKES]->(m:Post) "
        "RETURN a, m"}},
  };
}

TEST(Canonicalize, LogicallyEqualSpellingsFingerprintIdentically) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  for (const VariantGroup& group : Groups()) {
    std::vector<std::string> keys;
    for (const char* variant : group.variants) {
      Result<OpPtr> plan = engine.Compile(variant);
      ASSERT_TRUE(plan.ok()) << group.name << ": " << plan.status();
      keys.push_back(CanonicalPlanKey(**plan));
      ASSERT_FALSE(keys.back().empty()) << group.name << ": " << variant;
    }
    for (size_t i = 1; i < keys.size(); ++i) {
      EXPECT_EQ(keys[0], keys[i])
          << group.name << " variant " << i << " fingerprints differently:\n"
          << group.variants[0] << "\nvs\n" << group.variants[i];
    }
  }
}

TEST(Canonicalize, SameAliasSpellingsProduceByteIdenticalPlans) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  PlanPrintOptions with_fp;
  with_fp.fingerprints = true;
  for (const VariantGroup& group : Groups()) {
    if (!group.same_aliases) continue;
    Result<OpPtr> first = engine.Compile(group.variants[0]);
    ASSERT_TRUE(first.ok()) << group.name;
    for (size_t i = 1; i < group.variants.size(); ++i) {
      Result<OpPtr> other = engine.Compile(group.variants[i]);
      ASSERT_TRUE(other.ok()) << group.name;
      EXPECT_TRUE(PlanEqual(*first, *other))
          << group.name << ":\n" << PrintPlan(*first, with_fp) << "vs\n"
          << PrintPlan(*other, with_fp);
      EXPECT_EQ(PlanHash(*first), PlanHash(*other)) << group.name;
    }
  }
}

TEST(Canonicalize, PermutedReregistrationIsAllRegistryHits) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 25;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  for (const VariantGroup& group : Groups()) {
    QueryEngine engine(&graph);
    std::vector<std::shared_ptr<View>> views;
    auto first = engine.Register(group.variants[0]);
    ASSERT_TRUE(first.ok()) << group.name << ": " << first.status();
    views.push_back(*first);
    size_t nodes_before = engine.catalog().Stats().total_nodes;
    int64_t misses_before = engine.catalog().Stats().registry_misses;

    for (size_t i = 1; i < group.variants.size(); ++i) {
      auto view = engine.Register(group.variants[i]);
      ASSERT_TRUE(view.ok()) << group.name << ": " << view.status();
      views.push_back(*view);
    }

    CatalogStats stats = engine.catalog().Stats();
    // Zero new Rete nodes per re-registration beyond the per-view
    // production root (productions are never shared), and zero registry
    // misses: the permuted spellings resolved entirely onto live nodes.
    EXPECT_EQ(stats.total_nodes,
              nodes_before + (group.variants.size() - 1))
        << group.name;
    EXPECT_EQ(stats.registry_misses, misses_before) << group.name;
    // Fully-shared registration reads nothing from the graph.
    EXPECT_EQ(engine.catalog().last_prime_stats().graph_primed_entries, 0)
        << group.name;

    // All spellings maintain the same live result.
    for (int step = 0; step < 10; ++step) {
      generator.ApplyRandomUpdate(&graph);
      std::vector<Tuple> reference = views[0]->Snapshot();
      for (size_t i = 1; i < views.size(); ++i) {
        ASSERT_EQ(views[i]->Snapshot(), reference)
            << group.name << " variant " << i << " diverged at step "
            << step;
      }
    }
  }
}

TEST(Canonicalize, OffKeepsPermutedSpellingsPrivate) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 10;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  // The ablation baseline: without the pass, a clause permutation lowers to
  // a different join shape and builds more than just a production.
  QueryEngine engine(&graph, CanonicalizeDisabled());
  auto first = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post), (m)-[:REPLY]->(c:Comm) "
      "RETURN u, c");
  ASSERT_TRUE(first.ok()) << first.status();
  size_t nodes_before = engine.catalog().Stats().total_nodes;
  auto second = engine.Register(
      "MATCH (m)-[:REPLY]->(c:Comm), (u:Person)-[:LIKES]->(m:Post) "
      "RETURN u, c");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(engine.catalog().Stats().total_nodes, nodes_before + 1);
}

/// The normal form must not change what any view computes: identical
/// update streams through a canonicalize-on and a canonicalize-off engine
/// yield bit-identical snapshots after every delta.
TEST(CanonicalizeParityTest, SnapshotsMatchUncanonicalizedPlans) {
  const std::vector<const char*> queries = {
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
      "MATCH (a:A)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
      "MATCH (a:A), (b:B) WHERE a.x = b.y AND a.x > 0 RETURN a, b",
      "MATCH (a:A)-[:R]->(b) RETURN b AS t, count(*) AS c, sum(a.x) AS s",
      "MATCH (a:A) WHERE NOT exists((a)-[:S]->()) AND "
      "exists((a)-[:R]->()) RETURN a",
      "MATCH (a:A) RETURN a AS n UNION MATCH (b:B) RETURN b AS n",
      "MATCH (n:B) UNWIND n.tags AS t RETURN t, count(*) AS c",
      "MATCH (a:A)-[:R*1..3]->(b) RETURN a, b",
      "MATCH (a:A)-[r:R]-(b) RETURN a, b",
  };

  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = 911;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  EngineOptions off;
  off.plan.canonicalize = false;
  QueryEngine engine_on(&graph);
  QueryEngine engine_off(&graph, off);
  std::vector<std::shared_ptr<View>> views_on;
  std::vector<std::shared_ptr<View>> views_off;
  for (const char* query : queries) {
    auto view_on = engine_on.Register(query);
    ASSERT_TRUE(view_on.ok()) << query << ": " << view_on.status();
    views_on.push_back(*view_on);
    auto view_off = engine_off.Register(query);
    ASSERT_TRUE(view_off.ok()) << query << ": " << view_off.status();
    views_off.push_back(*view_off);
  }

  for (int step = 0; step < 60; ++step) {
    if (step % 3 == 0) {
      graph.BeginBatch();
      for (int i = 0; i < 5; ++i) generator.ApplyRandomUpdate(&graph);
      graph.CommitBatch();
    } else {
      generator.ApplyRandomUpdate(&graph);
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(views_on[q]->Snapshot(), views_off[q]->Snapshot())
          << queries[q] << " diverged at step " << step;
    }
  }
}

/// A conjunct whose variables the region does not bind must surface as a
/// validation error — never be silently dropped (a vanished filter is the
/// worst possible failure mode for a normalization pass).
TEST(Canonicalize, UnboundConjunctSurfacesValidationError) {
  OpPtr leaf = MakeOp(OpKind::kGetVertices);
  leaf->vertex_var = "a";
  ASSERT_TRUE(ComputeSchemaShallow(leaf).ok());
  OpPtr selection = MakeOp(OpKind::kSelection, {leaf});
  selection->predicate = MakeBinary(BinaryOp::kEq, MakeVariable("zz"),
                                    MakeLiteral(Value::Int(1)));
  selection->schema = leaf->schema;  // bypass validation, as a bug would
  Result<OpPtr> canon = CanonicalizePlan(selection);
  EXPECT_FALSE(canon.ok());
}

/// Fingerprint coverage: every sub-plan of every pool query must render a
/// non-empty canonical key — an empty key silently forfeits sharing for
/// the whole ancestor chain, so regressions here are invisible without
/// this lock.
TEST(Canonicalize, FingerprintCoversEveryPoolSubPlan) {
  const std::vector<const char*> queries = {
      "MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
      "MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b:B) RETURN a, b",
      "MATCH (a:A) WHERE NOT exists((a)-[:S]->()) RETURN a",
      "MATCH (n:B) UNWIND n.tags AS t RETURN t, count(*) AS c",
      "MATCH t = (a:A)-[:R*1..2]->(b:B) RETURN t",
      "MATCH (a:A) RETURN a AS n UNION MATCH (b:B) RETURN b AS n",
      "MATCH (n:A) RETURN CASE WHEN n.x > 2 THEN 'hi' ELSE 'lo' END AS b, "
      "count(*) AS c",
      "MATCH (n:A) WHERE any(v IN n.tags WHERE v = 1) RETURN n",
      "MATCH (a:A)-[:R]->(b) WITH b, count(*) AS c WHERE c > 1 RETURN b, c",
  };
  PropertyGraph graph;
  QueryEngine engine(&graph);
  for (const char* query : queries) {
    Result<OpPtr> plan = engine.Compile(query);
    ASSERT_TRUE(plan.ok()) << query << ": " << plan.status();
    std::vector<OpPtr> nodes;
    CollectPostOrder(*plan, nodes);
    for (const OpPtr& node : nodes) {
      EXPECT_FALSE(CanonicalPlanKey(*node).empty())
          << query << " has an unshareable sub-plan: "
          << node->DebugString();
    }
  }
}

}  // namespace
}  // namespace pgivm
