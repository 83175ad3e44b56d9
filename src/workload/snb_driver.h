#ifndef PGIVM_WORKLOAD_SNB_DRIVER_H_
#define PGIVM_WORKLOAD_SNB_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "support/repro.h"
#include "workload/social_network.h"

namespace pgivm {

/// Operation classes of the interactive mix, LDBC-SNB-flavoured:
///  * complex reads — standing pattern/aggregate/path views, maintained
///    incrementally and served by View::Pin (the IC queries' role);
///  * short reads — point lookups against a pinned profile/message
///    snapshot (the IS queries' role);
///  * updates — SNB-like insert/delete operations (replies, likes, knows
///    edges, profile edits, comment deletions) submitted through the
///    serving ingest queue.
enum class SnbOpClass { kComplexRead, kShortRead, kUpdate };

const char* SnbOpClassName(SnbOpClass op_class);

/// One operation of the deterministic stream. `seed` fully determines the
/// op's content: which view a read pins, which row a short read looks up,
/// and — combined with the generator state at apply time — which mutation
/// an update performs.
struct SnbOp {
  SnbOpClass op_class;
  uint64_t seed;
};

/// Scale-factor-parameterized interactive driver configuration.
/// RunValidation replays the stream single-threaded against a serial
/// reference engine with bit-parity checks. Timed runs of the same mix
/// live in the repository benchmark (`ivmbench`, workload
/// `snb_interactive`), which reads the query sets and op weights from here.
struct SnbDriverConfig {
  /// Graph size via SocialNetworkConfig::AtScale (SF 1.0 ≈ 1000 persons).
  double scale_factor = 0.1;
  /// Seeds the graph population and the operation stream.
  uint64_t seed = 42;
  /// Total operations in the stream.
  int64_t operations = 1000;
  /// Operation mix weights (need not sum to 100). The defaults follow the
  /// short-read-heavy interactive shape of the SNB workload.
  int complex_read_weight = 10;
  int short_read_weight = 55;
  int update_weight = 35;
  /// Full cross-view parity check after every Nth update (1 = after every
  /// update — the strongest, default); reads always check the view they
  /// touched.
  int64_t validate_every = 1;
  /// Every Nth update additionally cross-checks one rotating view against
  /// a fresh EvaluateOnce, so the maintained pair cannot drift together.
  int64_t baseline_every = 16;
  /// Options of the engine under test (plan flags, thread count). The
  /// validation reference engine always runs the default serial
  /// configuration with canonicalization off.
  EngineOptions engine;
};

/// Result of one validation run. ToString renders it on one block.
struct SnbReport {
  /// Operations replayed per class.
  int64_t complex_reads = 0;
  int64_t short_reads = 0;
  int64_t updates = 0;
  /// Wall time of the replay (excludes population and registration).
  int64_t elapsed_ns = 0;
  /// Throughput over the whole mixed stream, parity checks included.
  double operations_per_second = 0.0;
  /// GraphFingerprint of the final graph (deterministic: stream order).
  uint64_t graph_fingerprint = 0;
  /// Cross-view parity checks that passed.
  int64_t parity_checks = 0;

  std::string ToString() const;
};

/// LDBC-SNB-style interactive driver over SocialNetworkGenerator.
///
/// The operation stream is a pure function of the config (seed, weights,
/// operation count). Each RunValidation call builds a fresh graph,
/// generator and engines, so runs are independent.
class SnbDriver {
 public:
  explicit SnbDriver(const SnbDriverConfig& config);

  /// The deterministic operation stream this config generates.
  const std::vector<SnbOp>& stream() const { return stream_; }

  /// Replays the stream single-threaded against the engine under test
  /// (config.engine) and a serial reference engine (canonicalize off,
  /// graph-primed) attached to the same graph. Every touched view must be
  /// bit-identical between the two after every operation batch, with
  /// periodic EvaluateOnce cross-checks. Fails if the stream is empty. On
  /// a parity failure the error message carries a one-line PGIVM_REPRO
  /// replay recipe (also printed to stderr) naming seed, threads and the
  /// diverging update index.
  Result<SnbReport> RunValidation();

  /// The ReproSpec describing this config's engine case (for recipe
  /// printing and PGIVM_REPRO matching).
  ReproSpec ReproCase() const;

  /// Applies a PGIVM_REPRO spec onto a config: seed and thread count
  /// override the corresponding fields, and a thread count above 1 also
  /// sets the work-size gate to 0, as the validation sweep runs its
  /// parallel cases.
  static SnbDriverConfig WithRepro(SnbDriverConfig config,
                                   const ReproSpec& spec);

  /// The standing complex-read views (joins over KNOWS/HAS_CREATOR/LIKES,
  /// a reply-tree transitive path, per-creator aggregates).
  static const std::vector<std::string>& ComplexReadQueries();

  /// The point-lookup views (person profiles, message bodies).
  static const std::vector<std::string>& ShortReadQueries();

 private:
  SnbDriverConfig config_;
  std::vector<SnbOp> stream_;
};

}  // namespace pgivm

#endif  // PGIVM_WORKLOAD_SNB_DRIVER_H_
