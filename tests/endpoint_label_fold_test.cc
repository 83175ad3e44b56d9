// Independent oracle for endpoint folding. The differential harness
// evaluates the folded plan on both of its sides, so a wrong fold would
// agree with itself there. Here every folded pattern runs beside a
// spelling the fold cannot touch in the same way:
//  * labels: `(a:A)-[r:R]->(b:B)` against `(a)-[r:R]->(b) WHERE 'A' IN
//    labels(a) AND 'B' IN labels(b)`, whose plan carries no endpoint labels
//    at all — the label test happens in a selection over labels()
//    extracts, maintained by a different code path. Edge and path
//    patterns (variable-length, zero-hop, reversed, with a path variable)
//    both get one.
//  * extracts: a path pattern reading its endpoints' properties, labels()
//    and property maps — which the fold moves onto the path leaf — against
//    the same reads across a WITH boundary, where fresh vertex leaves
//    equated with the path's ends keep them.
// Random update streams mix single changes, BeginBatch/CommitBatch
// bursts, label add/remove and property updates on edge and trail
// endpoints, self-loops and detach-removes; after every step both views
// must hold identical rows.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/plan_printer.h"
#include "engine/query_engine.h"
#include "support/rng.h"
#include "workload/random_graph.h"

namespace pgivm {
namespace {

struct FoldPair {
  const char* folded;
  const char* oracle;
};

const FoldPair kPairs[] = {
    // Directed.
    {"MATCH (a:A)-[r:R]->(b:B) RETURN a, r, b",
     "MATCH (a)-[r:R]->(b) WHERE 'A' IN labels(a) AND 'B' IN labels(b) "
     "RETURN a, r, b"},
    // Undirected: each orientation is tested on its own.
    {"MATCH (a:A)-[r:R]-(b:B) RETURN a, r, b",
     "MATCH (a)-[r:R]-(b) WHERE 'A' IN labels(a) AND 'B' IN labels(b) "
     "RETURN a, r, b"},
    // Self-loops, undirected (one orientation tuple).
    {"MATCH (a:A)-[r:S]-(a) RETURN a, r",
     "MATCH (a)-[r:S]-(a) WHERE 'A' IN labels(a) RETURN a, r"},
    // A 2-hop chain: the middle vertex labels both edge leaves.
    {"MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a, b, c",
     "MATCH (a)-[r:R]->(b)-[s:S]->(c) WHERE 'A' IN labels(a) AND "
     "'B' IN labels(b) AND 'C' IN labels(c) RETURN a, b, c"},
    // OPTIONAL MATCH: the fold stays inside the optional side.
    {"MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b:B) RETURN a, r, b",
     "MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b) WHERE 'B' IN labels(b) "
     "RETURN a, r, b"},
    // Trails: the path leaf tests both ends.
    {"MATCH (a:A)-[:R*1..3]->(b:B) RETURN a, b",
     "MATCH (a)-[:R*1..3]->(b) WHERE 'A' IN labels(a) AND 'B' IN labels(b) "
     "RETURN a, b"},
    // Zero-hop trails need both label sets on their one vertex.
    {"MATCH (a:A)-[:S*0..2]->(b:C) RETURN a, b",
     "MATCH (a)-[:S*0..2]->(b) WHERE 'A' IN labels(a) AND 'C' IN labels(b) "
     "RETURN a, b"},
    // Reversed: steps follow edges backwards from the start.
    {"MATCH (a:B)<-[:R*1..3]-(b:A) RETURN a, b",
     "MATCH (a)<-[:R*1..3]-(b) WHERE 'B' IN labels(a) AND 'A' IN labels(b) "
     "RETURN a, b"},
    // A path variable, a multi-type trail and a start with two labels.
    {"MATCH t = (a:A:B)-[:R|S*1..3]->(b:C) RETURN t",
     "MATCH t = (a)-[:R|S*1..3]->(b) WHERE 'A' IN labels(a) AND "
     "'B' IN labels(a) AND 'C' IN labels(b) RETURN t"},
};

/// Path patterns reading their ends, against the same reads across a WITH
/// boundary: there the fresh vertex leaves x and y share no region with a
/// path leaf, so the reads stay on them.
const FoldPair kExtractPairs[] = {
    {"MATCH (a:A)-[:R*1..3]->(b:B) "
     "RETURN a, b, a.x AS ax, b.y AS yb, labels(b) AS lb, "
     "properties(a) AS pa",
     "MATCH (a:A)-[:R*1..3]->(b:B) WITH a AS s, b AS e "
     "MATCH (x:A), (y:B) WHERE x = s AND y = e "
     "RETURN s AS a, e AS b, x.x AS ax, y.y AS yb, labels(y) AS lb, "
     "properties(x) AS pa"},
    {"MATCH t = (a)<-[:S*0..2]-(b:C) WHERE a.x = b.x RETURN t, b.y AS y",
     "MATCH t = (a)<-[:S*0..2]-(b:C) WITH t, a AS s, b AS e "
     "MATCH (x), (y:C) WHERE x = s AND y = e AND x.x = y.x "
     "RETURN t, y.y AS y"},
};

bool AnyEdgeLeafHasLabels(const OpPtr& op) {
  if ((op->kind == OpKind::kGetEdges || op->kind == OpKind::kGetPaths) &&
      (!op->src_labels.empty() || !op->dst_labels.empty())) {
    return true;
  }
  for (const OpPtr& child : op->children) {
    if (AnyEdgeLeafHasLabels(child)) return true;
  }
  return false;
}

/// Extracts carried by leaves of `kind`.
int LeafExtracts(const OpPtr& op, OpKind kind) {
  int n = op->kind == kind ? static_cast<int>(op->extracts.size()) : 0;
  for (const OpPtr& child : op->children) n += LeafExtracts(child, kind);
  return n;
}

struct FoldCase {
  uint64_t seed;
  int threads;  // 1 = serial; otherwise parallel, every wave dispatched
};

class EndpointLabelFoldTest : public ::testing::TestWithParam<FoldCase> {};

TEST_P(EndpointLabelFoldTest, FoldedPatternsMatchTheirLabelsSpelling) {
  const FoldCase& param = GetParam();
  EngineOptions options;
  if (param.threads > 1) {
    options.network.num_threads = param.threads;
    options.network.parallel_min_wave_entries = 0;
  }

  PropertyGraph graph;
  RandomGraphConfig config;
  config.seed = param.seed;
  config.initial_vertices = 24;
  config.initial_edges = 60;
  RandomGraphGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph, options);
  std::vector<FoldPair> pairs;
  std::vector<std::shared_ptr<View>> folded;
  std::vector<std::shared_ptr<View>> oracle;
  auto add = [&](const FoldPair& pair) {
    Result<std::shared_ptr<View>> f = engine.Register(pair.folded);
    Result<std::shared_ptr<View>> o = engine.Register(pair.oracle);
    ASSERT_TRUE(f.ok()) << pair.folded << ": " << f.status();
    ASSERT_TRUE(o.ok()) << pair.oracle << ": " << o.status();
    pairs.push_back(pair);
    folded.push_back(*f);
    oracle.push_back(*o);
  };
  for (const FoldPair& pair : kPairs) {
    Result<OpPtr> folded_plan = engine.Compile(pair.folded);
    Result<OpPtr> oracle_plan = engine.Compile(pair.oracle);
    ASSERT_TRUE(folded_plan.ok() && oracle_plan.ok()) << pair.folded;
    ASSERT_TRUE(AnyEdgeLeafHasLabels(*folded_plan)) << pair.folded;
    ASSERT_FALSE(AnyEdgeLeafHasLabels(*oracle_plan)) << pair.oracle;
    add(pair);
  }
  for (const FoldPair& pair : kExtractPairs) {
    Result<OpPtr> folded_plan = engine.Compile(pair.folded);
    Result<OpPtr> oracle_plan = engine.Compile(pair.oracle);
    ASSERT_TRUE(folded_plan.ok() && oracle_plan.ok()) << pair.folded;
    EXPECT_GT(LeafExtracts(*folded_plan, OpKind::kGetPaths), 0)
        << PrintPlan(*folded_plan);
    EXPECT_EQ(LeafExtracts(*folded_plan, OpKind::kGetVertices), 0)
        << PrintPlan(*folded_plan);
    EXPECT_EQ(LeafExtracts(*oracle_plan, OpKind::kGetPaths), 0)
        << PrintPlan(*oracle_plan);
    EXPECT_GT(LeafExtracts(*oracle_plan, OpKind::kGetVertices), 0)
        << PrintPlan(*oracle_plan);
    add(pair);
  }

  // Endpoint churn the generator alone produces rarely: label toggles and
  // edges (self-loops included) around the same few vertices, so one batch
  // often changes a label and adds an incident edge.
  Rng control(param.seed * 104729 + 7);
  const std::vector<std::string> labels = {"A", "B", "C"};
  const std::vector<std::string> types = {"R", "S"};
  const std::vector<std::string> keys = {"x", "y"};
  auto endpoint_churn = [&]() {
    const std::vector<VertexId>& live = generator.live_vertices();
    if (live.empty()) return;
    VertexId v = live[control.NextBelow(live.size())];
    if (!graph.HasVertex(v)) return;
    uint64_t pick = control.NextBelow(4);
    if (pick == 3) {
      int64_t value = static_cast<int64_t>(control.NextBelow(3));
      (void)graph.SetVertexProperty(v, keys[control.NextBelow(keys.size())],
                                    value == 0 ? Value::Null()
                                               : Value::Int(value));
    } else if (pick == 0) {
      const std::string& label = labels[control.NextBelow(labels.size())];
      if (graph.VertexHasLabel(v, label)) {
        (void)graph.RemoveVertexLabel(v, label);
      } else {
        (void)graph.AddVertexLabel(v, label);
      }
    } else {
      VertexId w = pick == 1 ? v : live[control.NextBelow(live.size())];
      if (!graph.HasVertex(w)) return;
      (void)graph.AddEdge(v, w, types[control.NextBelow(types.size())]);
    }
  };

  constexpr int kSteps = 150;
  for (int step = 0; step < kSteps; ++step) {
    uint64_t mode = control.NextBelow(3);
    if (mode == 0) {
      generator.ApplyRandomUpdate(&graph);
    } else if (mode == 1) {
      endpoint_churn();
    } else {
      graph.BeginBatch();
      int burst = 2 + static_cast<int>(control.NextBelow(6));
      for (int i = 0; i < burst; ++i) {
        if (control.NextBool(0.5)) {
          endpoint_churn();
        } else {
          generator.ApplyRandomUpdate(&graph);
        }
      }
      graph.CommitBatch();
    }
    for (size_t q = 0; q < folded.size(); ++q) {
      std::vector<Tuple> actual = folded[q]->Snapshot();
      std::vector<Tuple> expected = oracle[q]->Snapshot();
      ASSERT_EQ(actual.size(), expected.size())
          << pairs[q].folded << " diverged at step " << step;
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(Tuple::Compare(actual[i], expected[i]), 0)
            << pairs[q].folded << " step " << step << " row " << i << ": "
            << actual[i].ToString() << " vs " << expected[i].ToString();
      }
    }
  }

  // The oracle could drift together with the fold; a fresh evaluation of
  // the oracle spelling pins both to the graph.
  for (size_t q = 0; q < oracle.size(); ++q) {
    Result<std::vector<Tuple>> fresh = engine.EvaluateOnce(pairs[q].oracle);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    std::vector<Tuple> maintained = oracle[q]->Snapshot();
    ASSERT_EQ(fresh.value().size(), maintained.size()) << pairs[q].oracle;
    for (size_t i = 0; i < maintained.size(); ++i) {
      EXPECT_EQ(Tuple::Compare(fresh.value()[i], maintained[i]), 0)
          << pairs[q].oracle << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EndpointLabelFoldTest,
    ::testing::Values(FoldCase{1, 1}, FoldCase{2, 1}, FoldCase{3, 1},
                      FoldCase{4, 4}, FoldCase{5, 4}, FoldCase{6, 4}),
    [](const ::testing::TestParamInfo<FoldCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_t" +
             std::to_string(info.param.threads);
    });

}  // namespace
}  // namespace pgivm
