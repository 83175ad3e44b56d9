// LDBC-SNB-style interactive driver demo: the scale-factor-parameterized
// read/write mix of workload/snb_driver.h in validation mode. The
// deterministic operation stream replays single-threaded against the
// engine under test AND a serial reference engine, with bit-parity checks
// after every update and periodic EvaluateOnce cross-checks. A divergence
// prints a one-line PGIVM_REPRO replay recipe.
//
// Exporting PGIVM_REPRO="seed=...,threads=..." (the recipe a parity
// failure prints) replays exactly that validation case instead of the
// default demo configuration. Timed runs of the same mix are the
// repository benchmark's `snb_interactive` workload (ivmbench/).

#include <cstdio>

#include "workload/snb_driver.h"

int main() {
  using namespace pgivm;

  SnbDriverConfig config;
  config.scale_factor = 0.05;
  config.seed = 42;
  config.operations = 400;

  if (std::optional<ReproSpec> repro = ReproSpec::FromEnv()) {
    std::printf("replaying %s\n", repro->Format().c_str());
    config = SnbDriver::WithRepro(config, *repro);
  }

  SnbDriver driver(config);
  std::printf("== validation mode (sf=%.2f, %lld ops, case %s) ==\n",
              config.scale_factor, static_cast<long long>(config.operations),
              driver.ReproCase().Format().c_str());
  Result<SnbReport> report = driver.RunValidation();
  if (!report.ok()) {
    std::fprintf(stderr, "validation FAILED: %s\n",
                 report.status().message().c_str());
    return 1;
  }
  std::printf("%s", report->ToString().c_str());
  return 0;
}
