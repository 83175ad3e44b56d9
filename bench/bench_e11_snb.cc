// E11 — LDBC-SNB-style interactive mix: latency percentiles under load.
//
// The SNB driver (workload/snb_driver.h) replays a deterministic weighted
// read/write stream — complex reads pin standing IC-style views, short
// reads do point lookups against pinned profile snapshots, updates flow
// through the serving ingest queue — from N concurrent client threads.
// This benchmark sweeps scale factor × client threads × morsel delivery
// and reports the per-op-class p50/p95/p99 (microseconds) as counters,
// which is what BENCH_bench_e11_snb.json carries into the results table.
//
// BM_E11_SnbValidationSweep additionally replays the stream in validation
// mode (single-threaded, serial reference engine, bit-parity checks) for
// each engine shape, so the numbers above are backed by a correctness
// proof on the same workload: parity_ok=1 means every check passed.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <cstdint>

#include "workload/snb_driver.h"

namespace pgivm {
namespace {

/// sf is passed in hundredths (benchmark args are integers): 5 -> SF 0.05.
SnbDriverConfig DriverConfig(int sf_hundredths, int clients, bool morsel) {
  SnbDriverConfig config;
  config.scale_factor = static_cast<double>(sf_hundredths) / 100.0;
  config.seed = 42;
  config.client_threads = clients;
  config.operations = 2000;
  if (clients > 1) {
    // Concurrent clients get a parallel drain to push against.
    config.engine.network.executor = ExecutorKind::kParallel;
    config.engine.network.num_threads = 4;
    config.engine.network.parallel_min_wave_entries = 0;
  }
  if (morsel) {
    config.engine.network.morsel_min_node_entries = 0;
  } else {
    config.engine.network.morsel_partitions = 1;
  }
  return config;
}

void ExportClass(benchmark::State& state, const char* prefix,
                 const SnbClassStats& stats) {
  const HistogramSnapshot& h = stats.latency_ns;
  state.counters[std::string(prefix) + "_ops"] =
      static_cast<double>(stats.operations);
  state.counters[std::string(prefix) + "_p50_us"] =
      static_cast<double>(h.P50()) / 1000.0;
  state.counters[std::string(prefix) + "_p95_us"] =
      static_cast<double>(h.P95()) / 1000.0;
  state.counters[std::string(prefix) + "_p99_us"] =
      static_cast<double>(h.P99()) / 1000.0;
}

/// Timed interactive mix. Manual time: one iteration is one full stream
/// replay, clocked by the driver itself (excludes population/registration).
void BM_E11_SnbInteractive(benchmark::State& state) {
  const int sf_hundredths = static_cast<int>(state.range(0));
  const int clients = static_cast<int>(state.range(1));
  const bool morsel = state.range(2) != 0;
  SnbReport last;
  for (auto _ : state) {
    SnbDriver driver(DriverConfig(sf_hundredths, clients, morsel));
    Result<SnbReport> report = driver.RunTimed();
    if (!report.ok()) {
      state.SkipWithError(report.status().message().c_str());
      return;
    }
    last = *report;
    state.SetIterationTime(static_cast<double>(last.elapsed_ns) / 1e9);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
  ExportClass(state, "complex", last.complex_read);
  ExportClass(state, "short", last.short_read);
  ExportClass(state, "update", last.update);
  state.counters["ops_per_s"] = last.operations_per_second;
  state.counters["ingest_batches"] = static_cast<double>(last.ingest_batches);
}
BENCHMARK(BM_E11_SnbInteractive)
    ->ArgNames({"sf", "clients", "morsel"})
    ->Args({5, 1, 0})
    ->Args({5, 8, 0})
    ->Args({5, 8, 1})
    ->Args({20, 1, 0})
    ->Args({20, 8, 0})
    ->Args({20, 8, 1})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Validation replay of the same workload shapes: parity_ok=1 means the
/// maintained views stayed bit-identical to the serial reference across
/// the whole stream. One iteration is plenty — the stream is deterministic.
void BM_E11_SnbValidationSweep(benchmark::State& state) {
  const int sf_hundredths = static_cast<int>(state.range(0));
  const bool morsel = state.range(1) != 0;
  SnbDriverConfig config = DriverConfig(sf_hundredths, /*clients=*/1, morsel);
  config.operations = 500;
  config.validate_every = 4;  // full cross-view sweep every 4th update
  double parity_ok = 1.0;
  double parity_checks = 0.0;
  for (auto _ : state) {
    SnbDriver driver(config);
    Result<SnbReport> report = driver.RunValidation();
    if (!report.ok()) {
      parity_ok = 0.0;
      state.SkipWithError(report.status().message().c_str());
      return;
    }
    parity_checks = static_cast<double>(report->parity_checks);
  }
  state.counters["parity_ok"] = parity_ok;
  state.counters["parity_checks"] = parity_checks;
}
BENCHMARK(BM_E11_SnbValidationSweep)
    ->ArgNames({"sf", "morsel"})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({20, 0})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pgivm

PGIVM_BENCHMARK_MAIN();
