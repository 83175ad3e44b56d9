// LDBC-SNB-style interactive driver demo: the scale-factor-parameterized
// read/write mix of workload/snb_driver.h in both of its modes.
//
//  1. Validation: the deterministic operation stream replays
//     single-threaded against the engine under test AND a serial reference
//     engine, with bit-parity checks after every update and periodic
//     EvaluateOnce cross-checks. A divergence prints a one-line
//     PGIVM_REPRO replay recipe.
//  2. Timed: the same stream replays from concurrent client threads
//     against the serving ingest loop, reporting p50/p95/p99 latency per
//     operation class (complex read / short read / update) plus sustained
//     throughput.
//
// Exporting PGIVM_REPRO="seed=...,threads=...,morsel=..."
// (the recipe a parity failure prints) replays exactly that validation
// case instead of the default demo configuration.

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

  {
    SnbDriver driver(config);
    std::printf("== validation mode (sf=%.2f, %lld ops, case %s) ==\n",
                config.scale_factor,
                static_cast<long long>(config.operations),
                driver.ReproCase().Format().c_str());
    Result<SnbReport> report = driver.RunValidation();
    if (!report.ok()) {
      std::fprintf(stderr, "validation FAILED: %s\n",
                   report.status().message().c_str());
      return 1;
    }
    std::printf("%s", report->ToString().c_str());
  }

  {
    SnbDriverConfig timed = config;
    timed.client_threads = 4;
    timed.operations = 2000;
    SnbDriver driver(timed);
    std::printf("== timed mode (sf=%.2f, %lld ops, %d client threads) ==\n",
                timed.scale_factor, static_cast<long long>(timed.operations),
                timed.client_threads);
    Result<SnbReport> report = driver.RunTimed();
    if (!report.ok()) {
      std::fprintf(stderr, "timed run FAILED: %s\n",
                   report.status().message().c_str());
      return 1;
    }
    std::printf("%s", report->ToString().c_str());
  }
  return 0;
}
