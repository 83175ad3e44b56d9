#ifndef PGIVM_SUPPORT_REPRO_H_
#define PGIVM_SUPPORT_REPRO_H_

#include <cstdint>
#include <optional>
#include <string>

#include "support/status.h"

namespace pgivm {

/// One-line replay recipe for a differential-harness or SNB-driver
/// bit-parity failure: everything needed to rerun exactly the diverging
/// case locally — the RNG seed, the wave thread count, and the index of
/// the update batch at which the divergence was observed.
///
/// On any parity failure the harnesses print `EnvLine()`
/// (`PGIVM_REPRO=seed=42,threads=8,step=17`);
/// exporting that variable makes the randomized differential harness skip
/// every non-matching case (so one `ctest -R Randomized` reruns only the
/// flake) and makes the SNB example replay that validation case. The
/// `step` field is informational — streams are deterministic, so replaying
/// the whole case reproduces the failure at the recorded step.
struct ReproSpec {
  uint64_t seed = 0;
  int threads = 1;
  /// Update-batch index of the observed divergence; -1 = end-state check.
  int64_t step = -1;

  /// `seed=42,threads=8,step=17`.
  std::string Format() const;

  /// `PGIVM_REPRO="<Format()>"` — copy-paste-able shell prefix.
  std::string EnvLine() const;

  /// True when `other` names the same engine configuration (seed,
  /// threads); `step` is ignored — it records where the failure surfaced,
  /// not which case to run.
  bool SameCase(const ReproSpec& other) const;

  /// Parses the Format() syntax. Unknown keys, malformed numbers and a
  /// thread count above ThreadPool::kMaxThreads are errors; every field
  /// except `step` is required.
  static Result<ReproSpec> Parse(const std::string& text);

  /// Reads PGIVM_REPRO. Unset returns nullopt; a malformed value warns on
  /// stderr and returns nullopt (the harness then runs normally rather
  /// than silently skipping everything).
  static std::optional<ReproSpec> FromEnv();
};

}  // namespace pgivm

#endif  // PGIVM_SUPPORT_REPRO_H_
