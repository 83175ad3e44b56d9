#ifndef PGIVM_SUPPORT_METRICS_H_
#define PGIVM_SUPPORT_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/status.h"

namespace pgivm {

/// Nanoseconds since a process-wide steady-clock origin (captured on first
/// use). Monotonic, comparable across threads, never affected by wall-clock
/// adjustments — the timebase of every histogram sample and trace event.
int64_t MonotonicNowNs();

/// Lock-free monotonically increasing counter. Add() is a relaxed atomic
/// fetch-add, safe from any number of threads; value() is a relaxed load,
/// safe concurrently with writers (readers may observe a slightly stale
/// total mid-update, never a torn one).
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Bucket count of every LatencyHistogram: 64 power-of-two buckets cover
/// the full non-negative int64 range (bucket 0 holds <= 0, bucket i holds
/// [2^(i-1), 2^i - 1]), so a nanosecond-resolution histogram spans from
/// single nanoseconds to ~292 years with ~2x relative error — fixed-size,
/// allocation-free, no configuration needed.
inline constexpr size_t kHistogramBuckets = 64;

/// A point-in-time copy of a LatencyHistogram, safe to keep and query after
/// the histogram keeps moving. Percentile() is exact with respect to the
/// bucket layout: it returns the upper bound of the bucket containing the
/// requested rank (clamped to the observed maximum), so tests can compute
/// the expected value from first principles.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  std::array<int64_t, kHistogramBuckets> buckets{};

  /// Inclusive upper bound of bucket `index`: 0, 1, 3, 7, ... 2^i - 1.
  static int64_t BucketUpperBound(size_t index);

  /// Value at or below which a fraction `p` (in (0, 1]) of recorded samples
  /// fall: the upper bound of the bucket holding rank ceil(p * count),
  /// clamped to max. Returns 0 for an empty histogram.
  int64_t Percentile(double p) const;

  int64_t P50() const { return Percentile(0.50); }
  int64_t P95() const { return Percentile(0.95); }
  int64_t P99() const { return Percentile(0.99); }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket log2-scale latency histogram. Record() touches four relaxed
/// atomics (bucket, count, sum, max) — lock-free, wait-free except for the
/// max CAS loop, safe from any number of threads. Snapshot() is a relaxed
/// read of every cell: concurrent with writers the copy may be mid-update
/// by a few samples (count/sum/buckets can disagree transiently by the
/// in-flight recordings), which is the usual monitoring contract; quiescent
/// reads are exact.
class LatencyHistogram {
 public:
  /// Records one sample (negative values clamp to bucket 0).
  void Record(int64_t value);

  HistogramSnapshot Snapshot() const;

  /// Bucket a value lands in: 0 for <= 0, else 1 + floor(log2(value)),
  /// capped at kHistogramBuckets - 1. Exposed for the bucket-math tests.
  static size_t BucketIndex(int64_t value);

 private:
  std::array<std::atomic<int64_t>, kHistogramBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// Named counters and histograms with stable addresses. Creation
/// (GetCounter/GetHistogram) takes a mutex and returns a reference that
/// stays valid for the registry's lifetime, so hot paths resolve their
/// instruments once at setup and then record lock-free. The snapshot
/// accessors copy name -> value pairs in name order (deterministic output).
///
/// Thread-safety: Get* and the snapshot accessors may be called from any
/// thread; recording through previously resolved references is lock-free.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  LatencyHistogram& GetHistogram(const std::string& name);

  std::vector<std::pair<std::string, int64_t>> CounterValues() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> HistogramValues()
      const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// One completed span for the Chrome/Perfetto trace export ("X" phase
/// events). `args` is a preformatted JSON object body without the braces
/// (e.g. `"entries":12,"level":3`) — kept as a string so recording does not
/// depend on any JSON machinery.
struct TraceEvent {
  std::string name;
  const char* category = "pgivm";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int tid = 1;
  std::string args;
};

/// Capacity, in events, of the engine's trace buffers (each network's
/// profiling trace and the ingest-span trace). Events past it are dropped
/// and counted, so a long profiled session truncates its trace instead of
/// growing without bound; each event is ~100 bytes.
inline constexpr size_t kTraceCapacity = 1 << 16;

/// Capacity-bounded in-memory trace sink. Append() is single-writer (the
/// network's draining thread, or the ingest thread for the engine's ingest
/// buffer) and drops events beyond capacity, counting the drops — a long
/// profiling session degrades to a truncated trace, never to unbounded
/// memory. Reading (events()/dropped()) is writer-thread-only too; the
/// engine's DumpTrace documents when that is.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns false (and counts a drop) once the buffer is full.
  bool Append(TraceEvent event);

  const std::vector<TraceEvent>& events() const { return events_; }
  int64_t dropped() const { return dropped_; }
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  size_t capacity_;
  std::vector<TraceEvent> events_;
  int64_t dropped_ = 0;
};

/// Writes the merged events of `buffers` (nulls skipped) as a Chrome
/// tracing / Perfetto-compatible JSON object ({"traceEvents": [...]}) to
/// `path`. Timestamps are emitted in microseconds with nanosecond
/// fractions, as chrome://tracing expects. Fails with an IO error if the
/// file cannot be written.
Status WriteChromeTrace(const std::string& path,
                        const std::vector<const TraceBuffer*>& buffers);

}  // namespace pgivm

#endif  // PGIVM_SUPPORT_METRICS_H_
