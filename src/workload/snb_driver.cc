#include "workload/snb_driver.h"

#include <cstdio>
#include <sstream>

#include "graph/graph_stats.h"
#include "support/string_util.h"

namespace pgivm {

const char* SnbOpClassName(SnbOpClass op_class) {
  switch (op_class) {
    case SnbOpClass::kComplexRead:
      return "complex_read";
    case SnbOpClass::kShortRead:
      return "short_read";
    case SnbOpClass::kUpdate:
      return "update";
  }
  return "?";
}

std::string SnbReport::ToString() const {
  std::ostringstream os;
  os << "SNB validation report: " << complex_reads + short_reads + updates
     << " ops in " << elapsed_ns / 1000000 << "ms ("
     << static_cast<int64_t>(operations_per_second) << " ops/s)\n";
  os << "  complex_reads=" << complex_reads << " short_reads=" << short_reads
     << " updates=" << updates << "\n";
  os << "  parity_checks=" << parity_checks << " fingerprint=" << std::hex
     << graph_fingerprint << std::dec << "\n";
  return os.str();
}

const std::vector<std::string>& SnbDriver::ComplexReadQueries() {
  // IC-flavoured standing views: a friend-feed join, the reply-tree
  // transitive path with a language predicate, posts-per-creator and
  // likes-per-author aggregates.
  static const auto* queries = new std::vector<std::string>{
      "MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post) "
      "RETURN p, f, m",
      "MATCH (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang "
      "RETURN p, c",
      "MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) "
      "RETURN p AS person, count(*) AS posts",
      "MATCH (pe:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(a:Person) "
      "RETURN a, count(*) AS likes",
  };
  return *queries;
}

const std::vector<std::string>& SnbDriver::ShortReadQueries() {
  // IS-flavoured point-lookup views: person profiles and message bodies.
  static const auto* queries = new std::vector<std::string>{
      "MATCH (p:Person) RETURN p, p.name AS name, p.country AS country",
      "MATCH (m:Post) RETURN m, m.lang AS lang, m.length AS len",
  };
  return *queries;
}

SnbDriver::SnbDriver(const SnbDriverConfig& config) : config_(config) {
  const int64_t total_weight = config_.complex_read_weight +
                               config_.short_read_weight +
                               config_.update_weight;
  // The stream is a pure function of (seed, weights, operations): the mix
  // RNG picks the class, a second draw becomes the op's own seed.
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ULL + 1);
  stream_.reserve(static_cast<size_t>(std::max<int64_t>(0, config_.operations)));
  for (int64_t i = 0; i < config_.operations && total_weight > 0; ++i) {
    int64_t pick =
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(total_weight)));
    SnbOpClass op_class;
    if (pick < config_.complex_read_weight) {
      op_class = SnbOpClass::kComplexRead;
    } else if (pick < config_.complex_read_weight + config_.short_read_weight) {
      op_class = SnbOpClass::kShortRead;
    } else {
      op_class = SnbOpClass::kUpdate;
    }
    stream_.push_back({op_class, rng.Next()});
  }
}

ReproSpec SnbDriver::ReproCase() const {
  ReproSpec spec;
  spec.seed = config_.seed;
  spec.threads = config_.engine.network.executor == ExecutorKind::kParallel
                     ? config_.engine.network.num_threads
                     : 1;
  return spec;
}

SnbDriverConfig SnbDriver::WithRepro(SnbDriverConfig config,
                                     const ReproSpec& spec) {
  config.seed = spec.seed;
  if (spec.threads > 1) {
    config.engine.network.executor = ExecutorKind::kParallel;
    config.engine.network.num_threads = spec.threads;
    config.engine.network.parallel_min_wave_entries = 0;
  } else {
    config.engine.network.executor = ExecutorKind::kSerial;
  }
  return config;
}

Result<SnbReport> SnbDriver::RunValidation() {
  if (stream_.empty()) {
    return Status::InvalidArgument("SNB driver: empty operation stream");
  }

  PropertyGraph graph;
  SocialNetworkGenerator generator(
      SocialNetworkConfig::AtScale(config_.scale_factor, config_.seed));
  generator.Populate(&graph);

  QueryEngine engine(&graph, config_.engine);
  // The reference engine is the serial twin with canonicalization off:
  // every parity assertion below then also proves the canonical normal
  // form and the configured executor change no result
  // (same discipline as the randomized differential harness).
  EngineOptions reference_options;
  reference_options.plan.canonicalize = false;
  QueryEngine reference(&graph, reference_options);

  std::vector<std::string> queries = ComplexReadQueries();
  for (const std::string& query : ShortReadQueries()) {
    queries.push_back(query);
  }
  std::vector<std::shared_ptr<View>> views;
  std::vector<std::shared_ptr<View>> reference_views;
  for (const std::string& query : queries) {
    Result<std::shared_ptr<View>> view = engine.Register(query);
    if (!view.ok()) return view.status();
    views.push_back(*view);
    Result<std::shared_ptr<View>> ref = reference.Register(query);
    if (!ref.ok()) return ref.status();
    reference_views.push_back(*ref);
  }

  SnbReport report;
  int64_t update_index = 0;

  auto parity_failure = [&](size_t q, int64_t step,
                            const std::string& detail) -> Status {
    ReproSpec spec = ReproCase();
    spec.step = step;
    std::string recipe = spec.EnvLine();
    std::fprintf(stderr,
                 "pgivm SNB parity FAILURE at update %lld, view '%s': %s\n"
                 "  replay with: %s\n",
                 static_cast<long long>(step), queries[q].c_str(),
                 detail.c_str(), recipe.c_str());
    return Status::Internal(StrCat("SNB validation parity failure (", recipe,
                                   ") view '", queries[q], "': ", detail));
  };

  auto check_view = [&](size_t q, int64_t step) -> Status {
    std::vector<Tuple> actual = views[q]->Snapshot();
    std::vector<Tuple> expected = reference_views[q]->Snapshot();
    if (actual.size() != expected.size()) {
      return parity_failure(
          q, step,
          StrCat("row count ", actual.size(), " vs ", expected.size()));
    }
    for (size_t i = 0; i < actual.size(); ++i) {
      if (Tuple::Compare(actual[i], expected[i]) != 0) {
        return parity_failure(q, step,
                              StrCat("row ", i, ": ", actual[i].ToString(),
                                     " vs ", expected[i].ToString()));
      }
    }
    ++report.parity_checks;
    return Status::Ok();
  };

  auto check_all = [&](int64_t step) -> Status {
    for (size_t q = 0; q < views.size(); ++q) {
      Status status = check_view(q, step);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  };

  const int64_t start_ns = MonotonicNowNs();
  for (const SnbOp& op : stream_) {
    switch (op.op_class) {
      case SnbOpClass::kComplexRead:
      case SnbOpClass::kShortRead: {
        // Reads replay as parity probes: the pinned view must equal its
        // reference twin at this same committed point.
        const bool complex = op.op_class == SnbOpClass::kComplexRead;
        const size_t base = complex ? 0 : ComplexReadQueries().size();
        const size_t count = complex ? ComplexReadQueries().size()
                                     : ShortReadQueries().size();
        Status status = check_view(base + op.seed % count, update_index);
        if (!status.ok()) return status;
        if (complex) {
          ++report.complex_reads;
        } else {
          ++report.short_reads;
        }
        break;
      }
      case SnbOpClass::kUpdate: {
        generator.ApplyUpdate(&graph, op.seed);
        ++update_index;
        ++report.updates;
        if (config_.validate_every > 0 &&
            update_index % config_.validate_every == 0) {
          Status status = check_all(update_index);
          if (!status.ok()) return status;
        }
        if (config_.baseline_every > 0 &&
            update_index % config_.baseline_every == 0) {
          // Rotating EvaluateOnce cross-check: maintained state vs a fresh
          // one-shot evaluation of the same plan.
          const size_t q =
              static_cast<size_t>(update_index / config_.baseline_every) %
              queries.size();
          Result<std::vector<Tuple>> once = engine.EvaluateOnce(queries[q]);
          if (!once.ok()) return once.status();
          std::vector<Tuple> actual = views[q]->Snapshot();
          if (actual.size() != once.value().size()) {
            return parity_failure(q, update_index,
                                  StrCat("EvaluateOnce row count ",
                                         actual.size(), " vs ",
                                         once.value().size()));
          }
          for (size_t i = 0; i < actual.size(); ++i) {
            if (Tuple::Compare(actual[i], once.value()[i]) != 0) {
              return parity_failure(
                  q, update_index,
                  StrCat("EvaluateOnce row ", i, ": ",
                         actual[i].ToString(), " vs ",
                         once.value()[i].ToString()));
            }
          }
          ++report.parity_checks;
        }
        break;
      }
    }
  }
  Status final_check = check_all(-1);
  if (!final_check.ok()) return final_check;

  report.elapsed_ns = MonotonicNowNs() - start_ns;
  report.operations_per_second =
      report.elapsed_ns > 0 ? static_cast<double>(stream_.size()) * 1e9 /
                                  static_cast<double>(report.elapsed_ns)
                            : 0.0;
  report.graph_fingerprint = GraphFingerprint(graph);
  return report;
}

}  // namespace pgivm
