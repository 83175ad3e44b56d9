// SNB interactive driver: stream determinism, validation-mode bit-parity
// across engine shapes and scale factors, the PGIVM_REPRO replay recipe,
// and the generator determinism lock the validation contract stands on.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "graph/graph_stats.h"
#include "scoped_env_var.h"
#include "support/thread_pool.h"
#include "workload/snb_driver.h"

namespace pgivm {
namespace {

SnbDriverConfig SmallConfig() {
  SnbDriverConfig config;
  config.scale_factor = 0.02;
  config.seed = 42;
  config.operations = 200;
  return config;
}

// ---- operation stream ------------------------------------------------------

TEST(SnbStreamTest, DeterministicForSameConfig) {
  SnbDriver a(SmallConfig());
  SnbDriver b(SmallConfig());
  ASSERT_EQ(a.stream().size(), b.stream().size());
  for (size_t i = 0; i < a.stream().size(); ++i) {
    EXPECT_EQ(a.stream()[i].op_class, b.stream()[i].op_class);
    EXPECT_EQ(a.stream()[i].seed, b.stream()[i].seed);
  }
}

TEST(SnbStreamTest, SeedChangesStream) {
  SnbDriverConfig other = SmallConfig();
  other.seed = 43;
  SnbDriver a(SmallConfig());
  SnbDriver b(other);
  bool differs = false;
  for (size_t i = 0; i < a.stream().size() && !differs; ++i) {
    differs = a.stream()[i].seed != b.stream()[i].seed;
  }
  EXPECT_TRUE(differs);
}

TEST(SnbStreamTest, MixFollowsWeights) {
  SnbDriverConfig config = SmallConfig();
  config.operations = 4000;
  SnbDriver driver(config);
  int64_t counts[3] = {0, 0, 0};
  for (const SnbOp& op : driver.stream()) {
    ++counts[static_cast<int>(op.op_class)];
  }
  const double total = static_cast<double>(config.operations);
  // Defaults are 10/55/35; a 4000-op stream should land within a few
  // points of the expectation.
  EXPECT_NEAR(static_cast<double>(counts[0]) / total, 0.10, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[1]) / total, 0.55, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[2]) / total, 0.35, 0.03);
}

TEST(SnbStreamTest, PureReadMixNeedsNoUpdates) {
  SnbDriverConfig config = SmallConfig();
  config.update_weight = 0;
  config.complex_read_weight = 1;
  config.short_read_weight = 1;
  SnbDriver driver(config);
  for (const SnbOp& op : driver.stream()) {
    EXPECT_NE(op.op_class, SnbOpClass::kUpdate);
  }
}

TEST(SnbStreamTest, OpClassNames) {
  EXPECT_STREQ(SnbOpClassName(SnbOpClass::kComplexRead), "complex_read");
  EXPECT_STREQ(SnbOpClassName(SnbOpClass::kShortRead), "short_read");
  EXPECT_STREQ(SnbOpClassName(SnbOpClass::kUpdate), "update");
}

// ---- scale factors ---------------------------------------------------------

TEST(SnbScaleTest, AtScaleGrowsMonotonically) {
  SocialNetworkConfig sf01 = SocialNetworkConfig::AtScale(0.1);
  SocialNetworkConfig sf1 = SocialNetworkConfig::AtScale(1.0);
  SocialNetworkConfig sf4 = SocialNetworkConfig::AtScale(4.0);
  EXPECT_EQ(sf01.persons, 100);
  EXPECT_EQ(sf1.persons, 1000);
  EXPECT_EQ(sf4.persons, 4000);
  EXPECT_LE(sf01.knows_per_person, sf1.knows_per_person);
  EXPECT_LE(sf1.knows_per_person, sf4.knows_per_person);
  EXPECT_LE(sf01.comments_per_post, sf4.comments_per_post);
  EXPECT_LE(sf01.max_reply_depth, sf4.max_reply_depth);
  EXPECT_DOUBLE_EQ(sf4.scale_factor, 4.0);
}

TEST(SnbScaleTest, AtScaleFloorsTinyFactors) {
  EXPECT_GE(SocialNetworkConfig::AtScale(0.0).persons, 10);
  EXPECT_GE(SocialNetworkConfig::AtScale(0.001).persons, 10);
}

TEST(SnbScaleTest, GraphSizeTracksScaleFactor) {
  PropertyGraph small, large;
  SocialNetworkGenerator(SocialNetworkConfig::AtScale(0.02)).Populate(&small);
  SocialNetworkGenerator(SocialNetworkConfig::AtScale(0.1)).Populate(&large);
  EXPECT_GT(large.vertex_count(), small.vertex_count());
  EXPECT_GT(large.edge_count(), small.edge_count());
}

// ---- generator determinism lock (the validation contract) ------------------

TEST(SnbDeterminismTest, PopulatePlusUpdatesFingerprintIsStable) {
  // Same seed, same op-seed sequence => bit-identical graph, across
  // independent generator instances and regardless of engine thread
  // settings (the generator never looks at them — but make the claim
  // explicit by varying PGIVM_THREADS, which engines read, around it).
  auto build = [](const char* threads_env) {
    ScopedEnvVar env("PGIVM_THREADS", threads_env);
    PropertyGraph graph;
    SocialNetworkGenerator generator(SocialNetworkConfig::AtScale(0.02, 7));
    generator.Populate(&graph);
    Rng op_seeds(99);
    for (int k = 0; k < 50; ++k) {
      generator.ApplyUpdate(&graph, op_seeds.Next());
    }
    return GraphFingerprint(graph);
  };
  const uint64_t base = build(nullptr);
  EXPECT_EQ(build(nullptr), base);
  EXPECT_EQ(build("1"), base);
  EXPECT_EQ(build("8"), base);
}

TEST(SnbDeterminismTest, IndexScanOrderIsCanonical) {
  // Regression: VerticesWithLabel/EdgesWithType used to iterate hash
  // buckets, so scan order depended on process-specific hashing. The
  // indexes are sorted posting lists now: order is ascending by id — a
  // pure function of the mutation stream — and therefore identical
  // across independently built graphs, runs and processes. Built twice
  // to lock that.
  auto build = [] {
    auto graph = std::make_unique<PropertyGraph>();
    SocialNetworkGenerator generator(SocialNetworkConfig::AtScale(0.02, 7));
    generator.Populate(graph.get());
    Rng op_seeds(99);
    for (int k = 0; k < 50; ++k) {
      generator.ApplyUpdate(graph.get(), op_seeds.Next());
    }
    return graph;
  };
  std::unique_ptr<PropertyGraph> graph = build();
  std::unique_ptr<PropertyGraph> again = build();
  for (const char* label : {"Person", "Post", "Comm"}) {
    std::vector<VertexId> scan = graph->VerticesWithLabel(label);
    EXPECT_FALSE(scan.empty()) << label;
    EXPECT_TRUE(std::is_sorted(scan.begin(), scan.end())) << label;
    EXPECT_EQ(scan, again->VerticesWithLabel(label)) << label;
  }
  for (const char* type : {"KNOWS", "HAS_CREATOR", "LIKES", "REPLY"}) {
    std::vector<EdgeId> scan = graph->EdgesWithType(type);
    EXPECT_FALSE(scan.empty()) << type;
    EXPECT_TRUE(std::is_sorted(scan.begin(), scan.end())) << type;
    EXPECT_EQ(scan, again->EdgesWithType(type)) << type;
  }
  // Scans of never-interned names are empty, not an error.
  EXPECT_TRUE(graph->VerticesWithLabel("NoSuchLabel").empty());
  EXPECT_TRUE(graph->EdgesWithType("NO_SUCH_TYPE").empty());
}

TEST(SnbDeterminismTest, DifferentSeedsDiverge) {
  PropertyGraph a, b;
  SocialNetworkGenerator(SocialNetworkConfig::AtScale(0.02, 7)).Populate(&a);
  SocialNetworkGenerator(SocialNetworkConfig::AtScale(0.02, 8)).Populate(&b);
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(b));
}

TEST(SnbDeterminismTest, FingerprintSeesPropertyChanges) {
  PropertyGraph graph;
  VertexId v = graph.AddVertex({"Person"}, {{"name", Value::String("a")}});
  const uint64_t before = GraphFingerprint(graph);
  ASSERT_TRUE(graph.SetVertexProperty(v, "name", Value::String("b")).ok());
  EXPECT_NE(GraphFingerprint(graph), before);
}

// ---- repro spec ------------------------------------------------------------

TEST(ReproSpecTest, FormatParseRoundTrip) {
  ReproSpec spec;
  spec.seed = 1234;
  spec.threads = 8;
  spec.step = 17;
  EXPECT_EQ(spec.Format(), "seed=1234,threads=8,step=17");
  EXPECT_EQ(spec.EnvLine(), "PGIVM_REPRO=\"seed=1234,threads=8,step=17\"");
  Result<ReproSpec> parsed = ReproSpec::Parse(spec.Format());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->seed, 1234u);
  EXPECT_EQ(parsed->threads, 8);
  EXPECT_EQ(parsed->step, 17);
  EXPECT_TRUE(parsed->SameCase(spec));
}

TEST(ReproSpecTest, SameCaseIgnoresStep) {
  ReproSpec a, b;
  a.seed = b.seed = 5;
  a.step = 3;
  b.step = 99;
  EXPECT_TRUE(a.SameCase(b));
  b.threads = 4;
  EXPECT_FALSE(a.SameCase(b));
}

TEST(ReproSpecTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ReproSpec::Parse("").ok());
  EXPECT_FALSE(ReproSpec::Parse("seed=1").ok());  // missing required keys
  EXPECT_FALSE(ReproSpec::Parse("seed=x,threads=1").ok());
  EXPECT_FALSE(ReproSpec::Parse("seed=1,threads=1,bogus=1").ok());
  // Thread counts a pool would refuse, or that int would truncate.
  EXPECT_FALSE(ReproSpec::Parse("seed=1,threads=257").ok());
  EXPECT_FALSE(ReproSpec::Parse("seed=1,threads=4294967298").ok());
}

TEST(ReproSpecTest, StrategyFieldIsAnUnknownKey) {
  // Propagation has a single discipline, so a strategy field is as unknown
  // as any other key.
  Result<ReproSpec> spec =
      ReproSpec::Parse("seed=1,strategy=batched,threads=1");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("unknown key 'strategy'"),
            std::string::npos);
}

TEST(ReproSpecTest, MorselFieldIsAnUnknownKey) {
  // Nodes have no partitioned delivery mode, so a recipe naming one is
  // rejected rather than silently replaying some other case.
  Result<ReproSpec> spec = ReproSpec::Parse("seed=1,threads=8,morsel=1");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("unknown key 'morsel'"),
            std::string::npos);
}

TEST(ReproSpecTest, ThreadsAtTheCapParseAndRoundTrip) {
  // The cap itself is a valid recipe (one above it is rejected, see
  // ParseRejectsMalformedInput) and formats back to the same text.
  const std::string recipe =
      "seed=5,threads=" + std::to_string(ThreadPool::kMaxThreads) + ",step=3";
  Result<ReproSpec> spec = ReproSpec::Parse(recipe);
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec->threads, ThreadPool::kMaxThreads);
  EXPECT_EQ(spec->Format(), recipe);
}

TEST(ReproSpecTest, FromEnvReadsAndStripsQuotes) {
  ScopedEnvVar repro("PGIVM_REPRO", "\"seed=9,threads=2,step=-1\"");
  std::optional<ReproSpec> spec = ReproSpec::FromEnv();
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->seed, 9u);
  EXPECT_EQ(spec->threads, 2);
  EXPECT_EQ(spec->step, -1);
}

TEST(ReproSpecTest, FromEnvIgnoresMalformedValue) {
  ScopedEnvVar repro("PGIVM_REPRO", "not-a-spec");
  EXPECT_FALSE(ReproSpec::FromEnv().has_value());
}

TEST(ReproSpecTest, FromEnvAbsentIsNullopt) {
  ScopedEnvVar repro("PGIVM_REPRO", nullptr);
  EXPECT_FALSE(ReproSpec::FromEnv().has_value());
}

TEST(SnbDriverReproTest, WithReproAppliesEngineShape) {
  ReproSpec spec;
  spec.seed = 77;
  spec.threads = 4;
  SnbDriverConfig config = SnbDriver::WithRepro(SmallConfig(), spec);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_EQ(config.engine.network.num_threads, 4);
  EXPECT_EQ(config.engine.network.parallel_min_wave_entries, 0u);
  // Round trip: the driver built from the repro'd config reports the same
  // case, so recipes are stable across replay hops.
  SnbDriver driver(config);
  EXPECT_TRUE(driver.ReproCase().SameCase(spec));
}

TEST(SnbDriverReproTest, SingleThreadReproRunsSerial) {
  // A recipe recorded from a serial case replays serially even when the
  // config it is applied to asked for parallel waves.
  SnbDriverConfig parallel = SmallConfig();
  parallel.engine.network.num_threads = 4;
  ReproSpec spec;
  spec.seed = 9;
  spec.threads = 1;
  SnbDriverConfig config = SnbDriver::WithRepro(parallel, spec);
  EXPECT_EQ(config.seed, 9u);
  EXPECT_EQ(config.engine.network.num_threads, 1);
  SnbDriver driver(config);
  EXPECT_TRUE(driver.ReproCase().SameCase(spec));
}

// One thread count, three ways to give it: the option, PGIVM_THREADS and a
// PGIVM_REPRO spec applied through WithRepro all build the same executor.
TEST(SnbDriverReproTest, ThreadCountMeansTheSameEverywhere) {
  ScopedEnvVar pin("PGIVM_THREADS", nullptr);
  PropertyGraph graph;
  for (int threads : {0, 1, 4}) {
    const std::string value = std::to_string(threads);
    const int expected = threads > 1 ? threads : 1;

    EngineOptions options;
    options.network.num_threads = threads;
    QueryEngine by_option(&graph, options);
    EXPECT_EQ(by_option.catalog().network().executor_parallelism(), expected)
        << value;

    {
      ScopedEnvVar env("PGIVM_THREADS", value.c_str());
      QueryEngine by_env(&graph);
      EXPECT_EQ(by_env.catalog().network().executor_parallelism(), expected)
          << value;
    }

    ReproSpec spec;
    spec.threads = threads;
    SnbDriverConfig config = SnbDriver::WithRepro(SmallConfig(), spec);
    EXPECT_EQ(config.engine.network.num_threads, threads) << value;
    QueryEngine by_repro(&graph, config.engine);
    EXPECT_EQ(by_repro.catalog().network().executor_parallelism(), expected)
        << value;
    EXPECT_EQ(SnbDriver(config).ReproCase().threads, threads) << value;
  }
}

// ---- validation mode: bit-parity across engine shapes ----------------------

struct EngineShape {
  const char* name;
  bool parallel;
};

constexpr EngineShape kShapes[] = {
    {"serial", false},
    {"parallel", true},
};

TEST(SnbValidationTest, BitParityAcrossSeedsAndShapes) {
  // The acceptance gate: >= 3 seeds at the small scale (and one seed at
  // each larger scale), each under serial and parallel execution of the
  // engine under test, all bit-identical to the serial reference.
  // PGIVM_THREADS must not override the shapes.
  ScopedEnvVar pin("PGIVM_THREADS", nullptr);
  struct Case {
    double scale_factor;
    uint64_t seed;
  };
  for (const Case& c : {Case{0.02, 11}, Case{0.02, 22}, Case{0.02, 33},
                        Case{0.05, 42}, Case{0.20, 42}}) {
    std::set<uint64_t> fingerprints;
    for (const EngineShape& shape : kShapes) {
      SnbDriverConfig config = SmallConfig();
      config.scale_factor = c.scale_factor;
      config.seed = c.seed;
      config.operations = 120;
      config.validate_every = 2;
      config.baseline_every = 10;
      if (shape.parallel) {
        config.engine.network.num_threads = 4;
        config.engine.network.parallel_min_wave_entries = 0;
      }
      SnbDriver driver(config);
      Result<SnbReport> report = driver.RunValidation();
      ASSERT_TRUE(report.ok())
          << "sf " << c.scale_factor << " seed " << c.seed << " shape "
          << shape.name << ": " << report.status().message();
      EXPECT_GT(report->parity_checks, 0) << shape.name;
      EXPECT_GT(report->updates, 0) << shape.name;
      fingerprints.insert(report->graph_fingerprint);
    }
    // Same seed, same stream, same order => same final graph under every
    // engine shape.
    EXPECT_EQ(fingerprints.size(), 1u)
        << "sf " << c.scale_factor << " seed " << c.seed;
  }
}

TEST(SnbValidationTest, FingerprintStableAcrossRuns) {
  ScopedEnvVar pin("PGIVM_THREADS", nullptr);
  SnbDriverConfig config = SmallConfig();
  config.operations = 80;
  SnbDriver driver(config);
  Result<SnbReport> first = driver.RunValidation();
  Result<SnbReport> second = driver.RunValidation();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->graph_fingerprint, second->graph_fingerprint);
  EXPECT_EQ(first->parity_checks, second->parity_checks);
}

TEST(SnbValidationTest, FinalGraphIsTheStreamReplayedWithoutViews) {
  // The reported fingerprint is the graph the update stream alone builds:
  // maintaining two engines' worth of views over it never writes to it.
  ScopedEnvVar pin("PGIVM_THREADS", nullptr);
  SnbDriverConfig config = SmallConfig();
  config.operations = 120;
  config.validate_every = 2;
  config.baseline_every = 10;
  SnbDriver driver(config);
  Result<SnbReport> report = driver.RunValidation();
  ASSERT_TRUE(report.ok()) << report.status().message();

  PropertyGraph graph;
  SocialNetworkGenerator generator(
      SocialNetworkConfig::AtScale(config.scale_factor, config.seed));
  generator.Populate(&graph);
  int64_t updates = 0;
  for (const SnbOp& op : driver.stream()) {
    if (op.op_class != SnbOpClass::kUpdate) continue;
    generator.ApplyUpdate(&graph, op.seed);
    ++updates;
  }
  EXPECT_GT(updates, 0);
  EXPECT_EQ(report->updates, updates);
  EXPECT_EQ(report->graph_fingerprint, GraphFingerprint(graph));
}

TEST(SnbValidationTest, ReportCountsEveryOperationByClass) {
  // The report's per-class counts are exactly the stream's mix: every
  // operation is replayed once, reads included.
  ScopedEnvVar pin("PGIVM_THREADS", nullptr);
  SnbDriverConfig config = SmallConfig();
  config.operations = 120;
  SnbDriver driver(config);
  Result<SnbReport> report = driver.RunValidation();
  ASSERT_TRUE(report.ok()) << report.status().message();

  int64_t complex_reads = 0;
  int64_t short_reads = 0;
  int64_t updates = 0;
  for (const SnbOp& op : driver.stream()) {
    switch (op.op_class) {
      case SnbOpClass::kComplexRead:
        ++complex_reads;
        break;
      case SnbOpClass::kShortRead:
        ++short_reads;
        break;
      case SnbOpClass::kUpdate:
        ++updates;
        break;
    }
  }
  EXPECT_GT(complex_reads, 0);
  EXPECT_GT(short_reads, 0);
  EXPECT_GT(updates, 0);
  EXPECT_EQ(report->complex_reads, complex_reads);
  EXPECT_EQ(report->short_reads, short_reads);
  EXPECT_EQ(report->updates, updates);
  EXPECT_EQ(complex_reads + short_reads + updates, config.operations);
  EXPECT_GT(report->elapsed_ns, 0);
  EXPECT_GT(report->operations_per_second, 0.0);
}

TEST(SnbValidationTest, EmptyStreamIsAnError) {
  SnbDriverConfig config = SmallConfig();
  config.operations = 0;
  SnbDriver driver(config);
  EXPECT_FALSE(driver.RunValidation().ok());
}

}  // namespace
}  // namespace pgivm
