// Independent oracle for endpoint-label folding. The differential harness
// evaluates the folded plan on both of its sides, so a wrong fold would
// agree with itself there. Here every folded pattern runs beside its
// labels() spelling — `(a:A)-[r:R]->(b:B)` against `(a)-[r:R]->(b) WHERE
// 'A' IN labels(a) AND 'B' IN labels(b)` — whose plan carries no endpoint
// labels at all: the label test happens in a selection over labels()
// extracts, maintained by a different code path. Random update streams mix
// single changes, BeginBatch/CommitBatch bursts, label add/remove on edge
// endpoints, self-loops and detach-removes; after every step both views
// must hold identical rows.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
};

bool AnyEdgeLeafHasLabels(const OpPtr& op) {
  if (op->kind == OpKind::kGetEdges &&
      (!op->src_labels.empty() || !op->dst_labels.empty())) {
    return true;
  }
  for (const OpPtr& child : op->children) {
    if (AnyEdgeLeafHasLabels(child)) return true;
  }
  return false;
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
    options.network.executor = ExecutorKind::kParallel;
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
  std::vector<std::shared_ptr<View>> folded;
  std::vector<std::shared_ptr<View>> oracle;
  for (const FoldPair& pair : kPairs) {
    Result<OpPtr> folded_plan = engine.Compile(pair.folded);
    Result<OpPtr> oracle_plan = engine.Compile(pair.oracle);
    ASSERT_TRUE(folded_plan.ok() && oracle_plan.ok()) << pair.folded;
    ASSERT_TRUE(AnyEdgeLeafHasLabels(*folded_plan)) << pair.folded;
    ASSERT_FALSE(AnyEdgeLeafHasLabels(*oracle_plan)) << pair.oracle;
    Result<std::shared_ptr<View>> f = engine.Register(pair.folded);
    Result<std::shared_ptr<View>> o = engine.Register(pair.oracle);
    ASSERT_TRUE(f.ok()) << pair.folded << ": " << f.status();
    ASSERT_TRUE(o.ok()) << pair.oracle << ": " << o.status();
    folded.push_back(*f);
    oracle.push_back(*o);
  }

  // Endpoint churn the generator alone produces rarely: label toggles and
  // edges (self-loops included) around the same few vertices, so one batch
  // often changes a label and adds an incident edge.
  Rng control(param.seed * 104729 + 7);
  const std::vector<std::string> labels = {"A", "B", "C"};
  const std::vector<std::string> types = {"R", "S"};
  auto endpoint_churn = [&]() {
    const std::vector<VertexId>& live = generator.live_vertices();
    if (live.empty()) return;
    VertexId v = live[control.NextBelow(live.size())];
    if (!graph.HasVertex(v)) return;
    uint64_t pick = control.NextBelow(3);
    if (pick == 0) {
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
          << kPairs[q].folded << " diverged at step " << step;
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(Tuple::Compare(actual[i], expected[i]), 0)
            << kPairs[q].folded << " step " << step << " row " << i << ": "
            << actual[i].ToString() << " vs " << expected[i].ToString();
      }
    }
  }

  // The oracle could drift together with the fold; a fresh evaluation of
  // the labels() spelling pins both to the graph.
  for (size_t q = 0; q < oracle.size(); ++q) {
    Result<std::vector<Tuple>> fresh = engine.EvaluateOnce(kPairs[q].oracle);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    std::vector<Tuple> maintained = oracle[q]->Snapshot();
    ASSERT_EQ(fresh.value().size(), maintained.size()) << kPairs[q].oracle;
    for (size_t i = 0; i < maintained.size(); ++i) {
      EXPECT_EQ(Tuple::Compare(fresh.value()[i], maintained[i]), 0)
          << kPairs[q].oracle << " row " << i;
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
