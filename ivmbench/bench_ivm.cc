// bench_ivm: the binary of the repository benchmark (see README.md in
// this directory; run.py builds and runs it).
//
// One process runs one workload. It sets the workload up several times,
// keeps the last set-up, runs the workload's load for a fixed wall-clock
// time, checks every maintained view against a from-scratch EvaluateOnce,
// sets the workload up several times more (the median of all set-ups is the
// set-up time), and prints one JSON document on stdout: sample summaries,
// counts, a determinism checkpoint and the correctness verdict. run.py turns
// that document into named metrics.
//
//   bench_ivm --workload=<name> --seed=<n> --seconds=<s> [--trace=<dir>]
//
// Every layer is measured from outside, by timing calls to its public
// functions: the generators' Populate (workload), QueryEngine::Register and
// view teardown (catalog), the PropertyGraph mutation calls of one update
// (graph), PropertyGraph::CommitBatch (rete propagation and epoch publish),
// QueryEngine::SubmitAsync and View::Pin (engine), and
// QueryEngine::EvaluateOnce (baseline). With --trace the same calls are
// also recorded as spans in per-thread buffers and written at exit as one
// Chrome-trace JSON file, engine profiling is switched on so per-node busy
// time can be read back, and each registration also times ParseQuery
// (cypher) and QueryEngine::Compile (algebra) on their own.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cypher/parser.h"
#include "engine/query_engine.h"
#include "graph/graph_stats.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "workload/railway.h"
#include "workload/snb_driver.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

// ---- Workload sizing ------------------------------------------------------
// Fixed per workload: a run varies only in its seed and its length.

constexpr double kInteractiveScale = 1.0;
constexpr double kBulkScale = 2.0;
constexpr double kChurnScale = 1.0;
constexpr int64_t kRailwayRoutes = 2000;

/// Set-ups per run: set-up time is their median. Half run before the load
/// and half after it: on a shared host set-up time drifts in phases of a
/// few seconds, so the median draws on two moments a load apart. The first,
/// cold set-up does not set it.
constexpr int kSetups = 6;

/// snb_interactive: closed-loop clients with no think time, in SnbDriver's
/// default op mix. Two clients plus the ingest thread keep the process at
/// three busy threads.
constexpr int kClients = 2;
constexpr int64_t kInteractiveWarmupOps = 2000;
/// Rows a complex read touches per pin: interactive clients page.
constexpr size_t kComplexReadRows = 64;
/// An update not visible after this long counts as failed and stops the run.
constexpr int64_t kUpdateTimeoutNs = 10'000'000'000;

constexpr int kBulkBatchUpdates = 1024;
constexpr int64_t kBulkWarmupBatches = 2;
constexpr int64_t kRailwayWarmupCycles = 200;

constexpr int kChurnUpdatesPerCycle = 8;
constexpr size_t kChurnMaxLive = 4;
/// Every kChurnCheckEvery-th churn cycle checks its registration's first pin
/// against EvaluateOnce, and every kChurnCountEvery-th counts its updates'
/// rete work, both outside the timed region. Both periods are coprime with
/// the pool size, so each pool query takes its turn.
constexpr int64_t kChurnCheckEvery = 9;
constexpr int64_t kChurnCountEvery = 17;

/// Load-phase op index after which single-writer workloads record the
/// determinism checkpoint (graph fingerprint plus rete/catalog counts).
/// Small enough that every run reaches it.
constexpr int64_t kBulkCheckpointBatch = 8;
constexpr int64_t kRailwayCheckpointCycle = 1000;
constexpr int64_t kChurnCheckpointCycle = 40;

/// With --trace, spans are kept for one op in kTraceEvery, so a run's trace
/// stays a few MB. Set-ups and view_churn cycles are always kept: churn
/// cycles are few, and one in eight would always be the same pool query.
constexpr int64_t kTraceEvery = 8;
constexpr size_t kSpanCapacityPerThread = 1 << 19;

/// Churn registrations cycle through this pool. The first four are
/// alias-renamed or clause-permuted copies of standing views (registry hits,
/// primed by replay); the last four overlap the standing views only in part
/// (friend-of-friend, posts per language, a REPLY* path with <>, comments
/// per person) and get graph-primed sources.
const std::vector<std::string>& ChurnPool() {
  static const auto* pool = new std::vector<std::string>{
      "MATCH (a:Person)-[:KNOWS]->(b:Person)<-[:HAS_CREATOR]-(post:Post) "
      "RETURN a, b, post",
      "MATCH (root:Post)-[:REPLY*]->(reply:Comm) "
      "WHERE root.lang = reply.lang RETURN root, reply",
      "MATCH (msg:Post)-[:HAS_CREATOR]->(author:Person) "
      "RETURN author AS person, count(*) AS posts",
      "MATCH (fan:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(a:Person) "
      "RETURN a, count(*) AS likes",
      "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(fof:Person) "
      "RETURN p, fof",
      "MATCH (m:Post) RETURN m.lang AS lang, count(*) AS posts",
      "MATCH (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang <> c.lang "
      "RETURN p, c",
      "MATCH (c:Comm)-[:HAS_CREATOR]->(p:Person) "
      "RETURN p, count(*) AS comments",
  };
  return *pool;
}

std::vector<std::string> SnbStandingQueries() {
  std::vector<std::string> queries = SnbDriver::ComplexReadQueries();
  for (const std::string& q : SnbDriver::ShortReadQueries()) {
    queries.push_back(q);
  }
  return queries;
}

std::vector<std::string> RailwayQueries() {
  return {RailwayGenerator::PosLengthQuery(),
          RailwayGenerator::SwitchMonitoredQuery(),
          RailwayGenerator::RouteSensorQuery(),
          RailwayGenerator::SwitchSetQuery()};
}

/// Independent, reproducible sub-seed for stream `stream` of a run.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return (seed + 1) * 0x9e3779b97f4a7c15ULL ^ (stream + 1) * 0xbf58476d1ce4e5b9ULL;
}

int64_t Now() { return MonotonicNowNs(); }

// ---- Spans ----------------------------------------------------------------

/// One timed call: [start_ns, end_ns) on thread `tid`, caused by span
/// `parent` (0 = none), belonging to op `op` (the id of the op's root span).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t op = 0;
  int tid = 0;
};

/// Single-writer in-memory span buffer, one per thread. Spans beyond the
/// capacity are dropped and counted.
class SpanBuffer {
 public:
  SpanBuffer(int tid, size_t capacity) : tid_(tid), capacity_(capacity) {}

  int64_t NewId() { return (static_cast<int64_t>(tid_ + 1) << 40) | ++next_; }

  /// Records a span under a fresh id.
  void Add(const char* name, int64_t start, int64_t end, int64_t parent,
           int64_t op, int tid = -1) {
    AddWithId(NewId(), name, start, end, parent, op, tid);
  }

  void AddWithId(int64_t id, const char* name, int64_t start, int64_t end,
                 int64_t parent, int64_t op, int tid = -1) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(
        Span{name, start, end, id, parent, op, tid < 0 ? tid_ : tid});
  }

  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  int tid_;
  size_t capacity_;
  int64_t next_ = 0;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

/// Owns every thread's span buffer; null buffers (no tracing) make every
/// recording call a no-op at the call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A fresh buffer for one thread, or null when tracing is off. Call
  /// before the thread starts; the buffer lives as long as the tracer.
  SpanBuffer* NewBuffer(int tid) {
    if (!enabled_) return nullptr;
    buffers_.push_back(
        std::make_unique<SpanBuffer>(tid, kSpanCapacityPerThread));
    return buffers_.back().get();
  }

  bool enabled() const { return enabled_; }

  int64_t span_count() const {
    int64_t n = 0;
    for (const auto& b : buffers_) n += static_cast<int64_t>(b->spans().size());
    return n;
  }

  int64_t dropped() const {
    int64_t n = 0;
    for (const auto& b : buffers_) n += b->dropped();
    return n;
  }

  /// Chrome-trace JSON ("X" events; ts/dur in microseconds with nanosecond
  /// fractions; span id, parent and op id in args).
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    bool first = true;
    auto us = [](int64_t ns) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                    ns % 1000);
      return std::string(buf);
    };
    for (const auto& buffer : buffers_) {
      for (const Span& s : buffer->spans()) {
        if (!first) out << ",\n";
        first = false;
        const char* dot = std::strchr(s.name, '.');
        const std::string cat =
            dot == nullptr ? std::string(s.name)
                           : std::string(s.name, static_cast<size_t>(dot - s.name));
        out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << cat
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << us(s.start_ns) << ",\"dur\":"
            << us(s.end_ns - s.start_ns) << ",\"args\":{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
      }
    }
    out << "],\"droppedSpans\":" << dropped() << "}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// ---- Measurements ---------------------------------------------------------

/// Nanosecond samples of one timed call.
using Samples = std::vector<int64_t>;

void Append(Samples& to, const Samples& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Rete and catalog totals from one MetricsSnapshot (writer thread only).
struct EngineCounts {
  int64_t changes = 0;
  int64_t emitted = 0;
  int64_t source_emitted = 0;
  int64_t epochs = 0;

  static EngineCounts Read(const QueryEngine& engine) {
    const EngineMetricsSnapshot s = engine.MetricsSnapshot();
    return {s.changes_processed, s.total_emitted_entries,
            s.source_emitted_entries, s.epochs_published};
  }

  EngineCounts& operator+=(const EngineCounts& o) {
    changes += o.changes;
    emitted += o.emitted;
    source_emitted += o.source_emitted;
    epochs += o.epochs;
    return *this;
  }
  EngineCounts operator-(const EngineCounts& o) const {
    return {changes - o.changes, emitted - o.emitted,
            source_emitted - o.source_emitted, epochs - o.epochs};
  }
};

/// Everything one run measures. Filled by the main thread; client threads
/// keep their own samples and hand them over after they are joined.
struct Measurements {
  std::vector<double> setup_s;
  std::vector<double> populate_s;

  // Load phase.
  Samples write_visible;  // one write transaction: start -> visible
  Samples read;           // Pin plus row touches or scan
  Samples apply;          // one update's mutation calls
  Samples commit;         // CommitBatch, or last apply end -> visible stamp
  Samples submit;         // SubmitAsync
  Samples queue_wait;     // SubmitAsync return -> the mutation starts
  Samples wake;           // visible stamp -> the client sees it
  Samples pin_new;        // Pin of an epoch this reader has not seen
  Samples pin_same;       // Pin of an epoch this reader already saw

  // Registration and teardown (set-up and churn).
  Samples parse;
  Samples compile;  // Compile minus ParseQuery
  Samples install;  // Register minus Compile
  Samples register_total;
  Samples first_pin;
  Samples deregister;
  int64_t registrations = 0;
  int64_t replayed_entries = 0;
  int64_t graph_primed_entries = 0;

  Samples evaluate_once;  // end-of-run check, every live view

  int64_t ops = 0;
  int64_t updates = 0;
  int64_t batches = 0;
  int64_t graph_changes = 0;  // from the benchmark's graph listener
  int64_t active_ns = 0;
  EngineCounts rete;           // over the load phase, or its probed part
  int64_t probed_updates = 0;  // the updates `rete` covers

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  // Determinism checkpoint (single-writer workloads).
  int64_t checkpoint_op = -1;
  uint64_t checkpoint_fingerprint = 0;
  std::vector<std::pair<std::string, int64_t>> checkpoint_counts;

  // Filled at the end of the load and its checks.
  double peak_rss_mb = 0;
  double graph_memory_mb = 0;
  double catalog_memory_mb = 0;
  int64_t catalog_nodes = 0;
  int64_t catalog_shared_nodes = 0;
  int64_t registry_hits = 0;  // lifetime, the kept set-up's catalog
  int64_t registry_misses = 0;
  std::map<std::string, int64_t> busy_ns_by_kind;
  double drain_mean_ns = 0;
  double translate_mean_ns = 0;
  double wave_mean_ns = 0;

  void Error(std::string message) {
    std::fprintf(stderr, "bench_ivm: %s\n", message.c_str());
    errors.push_back(std::move(message));
  }
};

/// Wall-clock time of the load phase minus the intervals spent in
/// benchmark-only work (checkpoints, correctness probes).
class ActiveClock {
 public:
  void Start() { start_ = Now(); }
  void Pause() { pause_start_ = Now(); }
  void Resume() { paused_ += Now() - pause_start_; }
  int64_t ActiveNs() const { return Now() - start_ - paused_; }

 private:
  int64_t start_ = 0;
  int64_t pause_start_ = 0;
  int64_t paused_ = 0;
};

// ---- Graph listener ---------------------------------------------------------

/// Per-update visibility slot of snb_interactive. The client resets it and
/// submits; the ingest thread fills in the apply interval and the listener
/// stamps `visible_ns` (release) once the update's batch is committed; the
/// client spins until it reads a non-zero stamp (acquire).
struct UpdateSlot {
  std::atomic<int64_t> visible_ns{0};
  int64_t apply_start_ns = 0;
  int64_t apply_end_ns = 0;
};

/// Added to the graph after the views, so the network's drain and epoch
/// publish have finished when it runs. Counts deltas and changes; on
/// snb_interactive it also stamps the updates of each committed batch.
/// Every member is touched only by the graph's writer thread.
class BenchListener : public GraphListener {
 public:
  void OnGraphDelta(const GraphDelta& delta) override {
    const int64_t now = Now();
    changes_ += static_cast<int64_t>(delta.size());
    ++deltas_;
    if (!pending_.empty()) {
      commits_.push_back({now, now - pending_.back()->apply_end_ns});
      for (UpdateSlot* slot : pending_) {
        slot->visible_ns.store(now, std::memory_order_release);
      }
      pending_.clear();
    }
  }

  void AddPending(UpdateSlot* slot) { pending_.push_back(slot); }

  int64_t changes() const { return changes_; }
  int64_t deltas() const { return deltas_; }

  /// (stamp time, last apply end -> stamp) per committed batch.
  const std::vector<std::pair<int64_t, int64_t>>& commits() const {
    return commits_;
  }

 private:
  int64_t changes_ = 0;
  int64_t deltas_ = 0;
  std::vector<UpdateSlot*> pending_;
  std::vector<std::pair<int64_t, int64_t>> commits_;
};

// ---- SNB updates --------------------------------------------------------------

/// The SNB-like update stream of the social workloads, over a graph that
/// SocialNetworkGenerator populated: new reply comments, language flips,
/// likes, knows edges and spoken-language list edits.
///
/// SocialNetworkGenerator::ApplyUpdate adds more than it deletes, so a run
/// that lasts a fixed time would grow the graph, and grow it more the
/// faster the program is: a faster program would pay for a bigger graph and
/// a higher peak RSS. This stream keeps the graph's size constant instead:
/// Fill adds kWindow replies, likes and knows edges before the load, and
/// from then on each one the stream adds retires the oldest of its kind.
/// Replies attach only to populated messages, so every retired reply is a
/// leaf. Every update changes the graph, so no committed batch has an empty
/// delta.
///
/// Deterministic in (populated graph, seeds in order). Writer thread only.
class SnbUpdater {
 public:
  static constexpr size_t kWindow = 1024;

  explicit SnbUpdater(const SocialNetworkGenerator& generator)
      : persons_(generator.persons()), posts_(generator.posts()) {
    messages_ = posts_;
    messages_.insert(messages_.end(), generator.comments().begin(),
                     generator.comments().end());
  }

  /// Brings every window to kWindow, in one batch. Call once, first.
  void Fill(PropertyGraph* graph, uint64_t seed) {
    Rng rng(seed);
    graph->BeginBatch();
    for (size_t i = 0; i < kWindow; ++i) {
      AddReply(graph, rng);
      AddLike(graph, rng);
      AddKnows(graph, rng);
    }
    graph->CommitBatch();
  }

  void Apply(PropertyGraph* graph, uint64_t op_seed) {
    Rng rng(op_seed);
    const uint64_t pick = rng.NextBelow(100);
    if (pick < 35) {
      AddReply(graph, rng);
    } else if (pick < 55) {
      const VertexId message = Pick(messages_, rng);
      const Value lang = graph->GetVertexProperty(message, "lang");
      size_t next = rng.NextBelow(kLangs);
      if (lang.is_string() && lang.AsString() == Language(next)) {
        next = (next + 1) % kLangs;
      }
      (void)graph->SetVertexProperty(message, "lang",
                                     Value::String(Language(next)));
    } else if (pick < 75) {
      AddLike(graph, rng);
    } else if (pick < 85) {
      AddKnows(graph, rng);
    } else {
      EditSpokenLanguages(graph, Pick(persons_, rng), rng);
    }
  }

 private:
  void AddReply(PropertyGraph* graph, Rng& rng) {
    if (replies_.size() == kWindow) {
      (void)graph->DetachRemoveVertex(replies_.front());
      replies_.pop_front();
    }
    const VertexId reply = graph->AddVertex(
        {"Comm"}, {{"lang", Value::String(Language(rng.NextBelow(kLangs)))},
                   {"length", Value::Int(rng.NextInRange(5, 500))}});
    (void)graph->AddEdge(Pick(messages_, rng), reply, "REPLY");
    (void)graph->AddEdge(reply, Pick(persons_, rng), "HAS_CREATOR");
    replies_.push_back(reply);
  }

  void AddLike(PropertyGraph* graph, Rng& rng) {
    AddWindowed(graph, &likes_, Pick(persons_, rng), Pick(posts_, rng),
                "LIKES");
  }

  void AddKnows(PropertyGraph* graph, Rng& rng) {
    const size_t a = rng.NextBelow(persons_.size());
    const size_t b =
        (a + 1 + rng.NextBelow(persons_.size() - 1)) % persons_.size();
    AddWindowed(graph, &knows_, persons_[a], persons_[b], "KNOWS");
  }

  static constexpr size_t kLangs = 8;

  static const std::string& Language(size_t i) {
    return SocialNetworkGenerator::Languages()[i % kLangs];
  }

  static VertexId Pick(const std::vector<VertexId>& from, Rng& rng) {
    return from[rng.NextBelow(from.size())];
  }

  static void AddWindowed(PropertyGraph* graph, std::deque<EdgeId>* window,
                          VertexId src, VertexId dst, const char* type) {
    if (window->size() == kWindow) {
      (void)graph->RemoveEdge(window->front());
      window->pop_front();
    }
    Result<EdgeId> edge = graph->AddEdge(src, dst, type);
    if (edge.ok()) window->push_back(*edge);
  }

  /// Removes one of several spoken languages, or adds a missing one.
  static void EditSpokenLanguages(PropertyGraph* graph, VertexId person,
                                  Rng& rng) {
    const Value speaks = graph->GetVertexProperty(person, "speaks");
    std::vector<std::string> have;
    if (speaks.is_list()) {
      for (const Value& v : speaks.AsList()) {
        if (v.is_string()) have.push_back(v.AsString());
      }
    }
    const bool remove =
        have.size() == kLangs || (have.size() > 1 && rng.NextBool(0.5));
    if (remove) {
      (void)graph->ListRemoveFirst(
          person, "speaks", Value::String(have[rng.NextBelow(have.size())]));
      return;
    }
    size_t lang = rng.NextBelow(kLangs);
    while (std::find(have.begin(), have.end(), Language(lang)) != have.end()) {
      lang = (lang + 1) % kLangs;
    }
    (void)graph->ListAppend(person, "speaks", Value::String(Language(lang)));
  }

  std::vector<VertexId> persons_;
  std::vector<VertexId> posts_;
  std::vector<VertexId> messages_;  // populated posts and comments
  std::deque<VertexId> replies_;
  std::deque<EdgeId> likes_;
  std::deque<EdgeId> knows_;
};

// ---- Railway transformations ----------------------------------------------

/// The Train Benchmark transformations of railway_recheck, over a graph that
/// RailwayGenerator populated. Each transformation picks one constraint
/// (PosLength 30%, SwitchSet 25%, SwitchMonitored 20%, RouteSensor 25%, the
/// generator's mix) and makes exactly one change: it injects a fault into a
/// random healthy element while the constraint has no more faults than it
/// had after population, and repairs a random faulty element otherwise.
///
/// RailwayGenerator::ApplyRandomUpdate breaks more than it repairs, so
/// violations pile up and every recheck costs more the longer a run lasts:
/// within one fixed-time run the per-cycle latency climbs several-fold, and
/// a faster program would climb further. Here each violation count stays
/// within one of its populated value.
///
/// Deterministic in (populated graph, seed). Writer thread only.
class RailwayUpdater {
 public:
  RailwayUpdater(const PropertyGraph& graph, const RailwayGenerator& generator,
                 uint64_t seed)
      : rng_(seed) {
    for (VertexId segment : generator.segments()) {
      const Value length = graph.GetVertexProperty(segment, "length");
      Add(kPosLength, {segment}, length.is_int() && length.AsInt() <= 0);
    }
    // RailwayGenerator creates each switch together with its own sensor,
    // so the two lists pair up by position.
    const std::vector<VertexId>& switches = generator.switches();
    const std::vector<VertexId>& sensors = generator.sensors();
    std::map<VertexId, VertexId> own_sensor;
    for (size_t i = 0; i < switches.size() && i < sensors.size(); ++i) {
      const VertexId sw = switches[i];
      own_sensor[sw] = sensors[i];
      Element set{sw};
      for (EdgeId e : graph.InEdges(sw)) {
        if (graph.EdgeType(e) == "target") {
          set.prescribed =
              graph.GetVertexProperty(graph.EdgeSource(e), "position").AsInt();
        }
      }
      Add(kSwitchSet, set,
          graph.GetVertexProperty(sw, "position").AsInt() != set.prescribed);
      Element monitored{sw, sensors[i]};
      monitored.edge = FindEdge(graph, sw, "monitoredBy", kInvalidId);
      Add(kSwitchMonitored, monitored, monitored.edge == kInvalidId);
    }
    for (VertexId route : generator.routes()) {
      for (EdgeId f : graph.OutEdges(route)) {
        if (graph.EdgeType(f) != "follows") continue;
        for (EdgeId t : graph.OutEdges(graph.EdgeTarget(f))) {
          auto it = own_sensor.find(graph.EdgeTarget(t));
          if (graph.EdgeType(t) != "target" || it == own_sensor.end()) continue;
          Element required{route, it->second};
          required.edge = FindEdge(graph, route, "requires", it->second);
          Add(kRouteSensor, required, required.edge == kInvalidId);
        }
      }
    }
    for (Constraint& c : constraints_) c.target = c.faulty.size();
  }

  void Apply(PropertyGraph* graph) {
    const uint64_t pick = rng_.NextBelow(100);
    const Kind kind = pick < 30   ? kPosLength
                      : pick < 55 ? kSwitchSet
                      : pick < 75 ? kSwitchMonitored
                                  : kRouteSensor;
    Constraint& c = constraints_[kind];
    const bool repair = c.healthy.empty() ||
                        (!c.faulty.empty() && c.faulty.size() > c.target);
    std::vector<size_t>& from = repair ? c.faulty : c.healthy;
    if (from.empty()) return;
    const size_t slot = rng_.NextBelow(from.size());
    Element& e = c.elements[from[slot]];
    (repair ? c.healthy : c.faulty).push_back(from[slot]);
    from[slot] = from.back();
    from.pop_back();
    switch (kind) {
      case kPosLength:
        (void)graph->SetVertexProperty(
            e.subject, "length",
            Value::Int(repair ? rng_.NextInRange(1, 1000)
                              : -rng_.NextInRange(0, 10)));
        break;
      case kSwitchSet:
        (void)graph->SetVertexProperty(
            e.subject, "position",
            Value::Int(repair ? e.prescribed
                              : (e.prescribed + 1 +
                                 static_cast<int64_t>(rng_.NextBelow(3))) %
                                    4));
        break;
      case kSwitchMonitored:
      case kRouteSensor:
        if (repair) {
          Result<EdgeId> edge = graph->AddEdge(
              e.subject, e.sensor,
              kind == kSwitchMonitored ? "monitoredBy" : "requires");
          e.edge = edge.ok() ? *edge : kInvalidId;
        } else {
          (void)graph->RemoveEdge(e.edge);
          e.edge = kInvalidId;
        }
        break;
    }
  }

 private:
  enum Kind { kPosLength, kSwitchSet, kSwitchMonitored, kRouteSensor };

  /// One element a constraint judges: a segment, a switch, or a route with
  /// one of its switches' sensors; plus what breaking or repairing it needs.
  struct Element {
    VertexId subject = kInvalidId;
    VertexId sensor = kInvalidId;
    int64_t prescribed = 0;   // SwitchSet: the route's switch position
    EdgeId edge = kInvalidId;  // the monitoredBy or requires edge, if present
  };

  struct Constraint {
    std::vector<Element> elements;
    std::vector<size_t> faulty;   // indices into elements
    std::vector<size_t> healthy;  // indices into elements
    size_t target = 0;            // faults after population
  };

  void Add(Kind kind, const Element& element, bool faulty) {
    Constraint& c = constraints_[kind];
    (faulty ? c.faulty : c.healthy).push_back(c.elements.size());
    c.elements.push_back(element);
  }

  /// The first out-edge of `from` of `type` (to `to`, unless kInvalidId).
  static EdgeId FindEdge(const PropertyGraph& graph, VertexId from,
                         const char* type, VertexId to) {
    for (EdgeId e : graph.OutEdges(from)) {
      if (graph.EdgeType(e) == type &&
          (to == kInvalidId || graph.EdgeTarget(e) == to)) {
        return e;
      }
    }
    return kInvalidId;
  }

  Rng rng_;
  Constraint constraints_[4];
};

// ---- Set-up -----------------------------------------------------------------

/// One set-up of a workload. Member order is destruction order reversed:
/// views go before the engine, the engine before the graph.
struct Instance {
  std::unique_ptr<PropertyGraph> graph;
  std::unique_ptr<SocialNetworkGenerator> social;
  std::unique_ptr<SnbUpdater> updater;
  std::unique_ptr<RailwayGenerator> railway;
  std::unique_ptr<RailwayUpdater> railway_updater;
  std::unique_ptr<QueryEngine> engine;
  std::vector<std::shared_ptr<View>> views;
  BenchListener listener;

  ~Instance() {
    if (graph != nullptr) graph->RemoveListener(&listener);
  }
};

/// Registers `query`, timing the Register call.
///
/// With a `layers` clock (traced runs only), ParseQuery and Compile are
/// first called on their own, so each layer's cost can be read separately;
/// Register repeats them internally. A client never makes these calls, so
/// `layers` is paused around them and untraced runs skip them.
std::shared_ptr<View> RegisterTimed(QueryEngine& engine,
                                    const std::string& query,
                                    Measurements& m, ActiveClock* layers,
                                    SpanBuffer* spans, int64_t parent,
                                    int64_t op) {
  int64_t parse_ns = 0;
  int64_t compile_ns = 0;  // Compile, which parses again
  if (layers != nullptr) {
    layers->Pause();
    // An untimed parse first, so the timed one runs as warm as the parses
    // inside Compile and Register that it is subtracted from.
    (void)ParseQuery(query);
    const int64_t t0 = Now();
    const Status parsed = ParseQuery(query).status();
    const int64_t t1 = Now();
    const Status compiled =
        parsed.ok() ? engine.Compile(query).status() : parsed;
    const int64_t t2 = Now();
    layers->Resume();
    if (!compiled.ok()) {
      m.Error((parsed.ok() ? "Compile failed: " : "ParseQuery failed: ") +
              compiled.ToString());
      return nullptr;
    }
    parse_ns = t1 - t0;
    compile_ns = t2 - t1;
    if (spans != nullptr) {
      spans->Add("cypher.parse", t0, t1, parent, op);
      spans->Add("algebra.compile", t1, t2, parent, op);
    }
  }
  const int64_t r0 = Now();
  Result<std::shared_ptr<View>> view = engine.Register(query);
  const int64_t r1 = Now();
  if (!view.ok()) {
    m.Error("Register failed: " + view.status().ToString());
    return nullptr;
  }
  m.register_total.push_back(r1 - r0);
  if (layers != nullptr) {
    m.parse.push_back(parse_ns);
    m.compile.push_back(std::max<int64_t>(0, compile_ns - parse_ns));
    m.install.push_back(std::max<int64_t>(0, (r1 - r0) - compile_ns));
  }
  ++m.registrations;
  m.replayed_entries += (*view)->prime_stats().replayed_entries;
  m.graph_primed_entries += (*view)->prime_stats().graph_primed_entries;
  if (spans != nullptr) spans->Add("catalog.register", r0, r1, parent, op);
  return *view;
}

/// First pin of a freshly registered view (builds its rendering).
void FirstPin(const View& view, Measurements& m, SpanBuffer* spans,
              int64_t parent, int64_t op) {
  const int64_t t0 = Now();
  std::shared_ptr<const ViewSnapshot> snap = view.Pin();
  const int64_t t1 = Now();
  m.first_pin.push_back(t1 - t0);
  if (spans != nullptr) spans->Add("catalog.first_pin", t0, t1, parent, op);
}

/// Drops `view` (the last reference) and times the deregistration.
void DropView(std::shared_ptr<View>& view, Measurements& m, SpanBuffer* spans,
              int64_t parent, int64_t op) {
  const int64_t t0 = Now();
  view.reset();
  const int64_t t1 = Now();
  m.deregister.push_back(t1 - t0);
  if (spans != nullptr) spans->Add("catalog.deregister", t0, t1, parent, op);
}

enum class Workload { kSnbInteractive, kSnbBulkLoad, kRailwayRecheck, kViewChurn };

bool ParseWorkload(const std::string& name, Workload* out) {
  static const std::pair<const char*, Workload> kNames[] = {
      {"snb_interactive", Workload::kSnbInteractive},
      {"snb_bulk_load", Workload::kSnbBulkLoad},
      {"railway_recheck", Workload::kRailwayRecheck},
      {"view_churn", Workload::kViewChurn},
  };
  for (const auto& [n, w] : kNames) {
    if (name == n) {
      *out = w;
      return true;
    }
  }
  return false;
}

/// Builds one set-up: populate, then register the standing views. Returns
/// null after recording an error. The returned time is the set-up time;
/// populate time is recorded on its own too.
std::unique_ptr<Instance> SetUp(Workload workload, uint64_t seed,
                                Measurements& m, SpanBuffer* spans,
                                double* setup_s) {
  auto inst = std::make_unique<Instance>();
  const int64_t root = spans != nullptr ? spans->NewId() : 0;
  ActiveClock clock;
  clock.Start();
  const int64_t t0 = Now();
  inst->graph = std::make_unique<PropertyGraph>();
  std::vector<std::string> queries;
  if (workload == Workload::kRailwayRecheck) {
    RailwayConfig config;
    config.routes = kRailwayRoutes;
    config.seed = seed;
    inst->railway = std::make_unique<RailwayGenerator>(config);
    inst->railway->Populate(inst->graph.get());
    queries = RailwayQueries();
  } else {
    const double sf = workload == Workload::kSnbBulkLoad  ? kBulkScale
                      : workload == Workload::kViewChurn ? kChurnScale
                                                          : kInteractiveScale;
    inst->social = std::make_unique<SocialNetworkGenerator>(
        SocialNetworkConfig::AtScale(sf, seed));
    inst->social->Populate(inst->graph.get());
    queries = SnbStandingQueries();
  }
  const int64_t t1 = Now();
  if (spans != nullptr) spans->Add("workload.populate", t0, t1, root, root);
  inst->engine = std::make_unique<QueryEngine>(inst->graph.get());
  for (const std::string& query : queries) {
    std::shared_ptr<View> view = RegisterTimed(
        *inst->engine, query, m, spans != nullptr ? &clock : nullptr, spans,
        root, root);
    if (view == nullptr) return nullptr;
    inst->views.push_back(std::move(view));
  }
  // Added after the views: the network (attached at the first Register)
  // is notified first, so this listener runs after drain and publish.
  inst->graph->AddListener(&inst->listener);
  const int64_t t2 = Now();
  if (spans != nullptr) spans->AddWithId(root, "bench.setup", t0, t2, 0, root);
  m.populate_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  *setup_s = static_cast<double>(clock.ActiveNs()) / 1e9;
  if (inst->social != nullptr) {
    inst->updater = std::make_unique<SnbUpdater>(*inst->social);
  } else {
    inst->railway_updater = std::make_unique<RailwayUpdater>(
        *inst->graph, *inst->railway, SubSeed(seed, 4));
  }
  return inst;
}

/// Tears a set-up down view by view, timing each deregistration.
void TearDown(std::unique_ptr<Instance> inst, Measurements& m) {
  inst->engine->StopIngest();
  for (std::shared_ptr<View>& view : inst->views) {
    DropView(view, m, nullptr, 0, 0);
  }
}

// ---- Checks -----------------------------------------------------------------

/// Compares `view`'s pinned rows with a fresh EvaluateOnce of its query.
/// Returns the EvaluateOnce time; records an error on any difference.
int64_t CheckAgainstBaseline(const QueryEngine& engine, const View& view,
                             Measurements& m, SpanBuffer* spans) {
  const int64_t t0 = Now();
  Result<std::vector<Tuple>> expected = engine.EvaluateOnce(view.query());
  const int64_t t1 = Now();
  if (spans != nullptr) spans->Add("baseline.evaluate_once", t0, t1, 0, 0);
  if (!expected.ok()) {
    m.Error("EvaluateOnce failed for '" + view.query() +
            "': " + expected.status().ToString());
    return t1 - t0;
  }
  const std::vector<Tuple>& actual = view.Pin()->rows();
  if (actual.size() != expected->size()) {
    m.Error("view '" + view.query() + "' has " + std::to_string(actual.size()) +
            " rows, EvaluateOnce " + std::to_string(expected->size()));
    return t1 - t0;
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (Tuple::Compare(actual[i], (*expected)[i]) != 0) {
      m.Error("view '" + view.query() + "' row " + std::to_string(i) +
              " differs from EvaluateOnce: " + actual[i].ToString() + " vs " +
              (*expected)[i].ToString());
      break;
    }
  }
  return t1 - t0;
}

/// The determinism anchor of single-writer workloads: the same seed must
/// give the same graph and the same rete/catalog counts at this op.
void TakeCheckpoint(const Instance& inst, int64_t op, Measurements& m) {
  const EngineMetricsSnapshot s = inst.engine->MetricsSnapshot();
  m.checkpoint_op = op;
  m.checkpoint_fingerprint = GraphFingerprint(*inst.graph);
  m.checkpoint_counts = {
      {"vertices", static_cast<int64_t>(inst.graph->vertex_count())},
      {"edges", static_cast<int64_t>(inst.graph->edge_count())},
      {"deltas_processed", s.deltas_processed},
      {"changes_processed", s.changes_processed},
      {"total_emitted_entries", s.total_emitted_entries},
      {"source_emitted_entries", s.source_emitted_entries},
      {"epochs_published", s.epochs_published},
      {"catalog_views", static_cast<int64_t>(s.catalog.views)},
      {"catalog_nodes", static_cast<int64_t>(s.catalog.total_nodes)},
      {"catalog_shared_nodes", static_cast<int64_t>(s.catalog.shared_nodes)},
      {"registry_hits", s.catalog.registry_hits},
      {"registry_misses", s.catalog.registry_misses},
      {"replayed_entries", s.catalog.replayed_entries},
      {"graph_primed_entries", s.catalog.graph_primed_entries},
  };
}

/// Reads end-of-run sizes and, when profiling ran, per-kind busy time and
/// the propagation histograms' means (sum/count, not their 2x buckets).
void ReadEndState(const Instance& inst, Measurements& m) {
  const EngineMetricsSnapshot s = inst.engine->MetricsSnapshot();
  m.graph_memory_mb = static_cast<double>(inst.graph->ApproxMemoryBytes()) / 1e6;
  m.catalog_memory_mb = static_cast<double>(s.catalog.memory_bytes) / 1e6;
  m.catalog_nodes = static_cast<int64_t>(s.catalog.total_nodes);
  m.catalog_shared_nodes = static_cast<int64_t>(s.catalog.shared_nodes);
  m.registry_hits = s.catalog.registry_hits;
  m.registry_misses = s.catalog.registry_misses;
  if (!s.profiling) return;
  for (const ReteNetwork::NodeMetrics& node : s.nodes) {
    m.busy_ns_by_kind[node.kind] += node.busy_ns;
  }
  auto mean = [&s](const char* name) {
    const HistogramSnapshot* h = s.FindHistogram(name);
    return h == nullptr ? 0.0 : h->Mean();
  };
  m.drain_mean_ns = mean("propagation.drain_ns");
  m.translate_mean_ns = mean("propagation.translate_ns");
  m.wave_mean_ns = mean("propagation.wave_ns");
}

// ---- Loads --------------------------------------------------------------------

struct RunConfig {
  Workload workload = Workload::kSnbInteractive;
  std::string workload_name;
  uint64_t seed = 42;
  double seconds = 10;
  std::string trace_dir;
};

/// One client of snb_interactive: everything it measured in the timed
/// region, merged into Measurements after it is joined. Outlives the
/// ingest session, so a late stamp of `slot` never writes freed memory.
struct ClientState {
  SpanBuffer* spans = nullptr;
  UpdateSlot slot;  // reused: a client has one update in flight at a time
  Samples write_visible, read, apply, submit, queue_wait, wake, pin_new,
      pin_same;
  int64_t ops = 0;
  int64_t updates = 0;
  int64_t failed = 0;
  int64_t end_ns = 0;
  uint64_t checksum = 0;
  std::string error;
};

/// snb_interactive: two closed-loop clients, no think time, the SNB mix of
/// complex reads, short reads and updates. Updates go through SubmitAsync
/// and the client spin-yields until the listener stamps the update visible.
void RunInteractive(const RunConfig& config, Instance& inst, Measurements& m,
                    Tracer& tracer) {
  QueryEngine& engine = *inst.engine;
  SnbUpdater* updater = inst.updater.get();
  BenchListener* listener = &inst.listener;
  const size_t complex_views = SnbDriver::ComplexReadQueries().size();
  const size_t short_views = SnbDriver::ShortReadQueries().size();
  const SnbDriverConfig mix;
  const uint64_t complex_weight =
      static_cast<uint64_t>(mix.complex_read_weight);
  const uint64_t read_weight =
      complex_weight + static_cast<uint64_t>(mix.short_read_weight);
  const uint64_t total_weight =
      read_weight + static_cast<uint64_t>(mix.update_weight);

  std::vector<ClientState> clients(kClients);
  for (int c = 0; c < kClients; ++c) clients[c].spans = tracer.NewBuffer(c + 2);
  std::atomic<int> arrived{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> deadline_ns{0};

  engine.StartIngest();
  auto client_body = [&](int c) {
    ClientState& state = clients[c];
    Rng rng(SubSeed(config.seed, 100 + static_cast<uint64_t>(c)));
    std::vector<uint64_t> seen_epoch(inst.views.size(), UINT64_MAX);
    UpdateSlot& slot = state.slot;
    const int64_t warmup = kInteractiveWarmupOps / kClients;
    bool timed = false;
    for (int64_t i = 0;; ++i) {
      if (i == warmup) {
        arrived.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        timed = true;
      }
      if (timed && Now() >= deadline_ns.load(std::memory_order_relaxed)) break;
      const bool traced = timed && state.spans != nullptr && i % kTraceEvery == 0;
      SpanBuffer* spans = traced ? state.spans : nullptr;
      const int64_t root = spans != nullptr ? spans->NewId() : 0;
      const uint64_t pick = rng.NextBelow(total_weight);
      if (pick < read_weight) {
        const bool complex = pick < complex_weight;
        const size_t v = complex ? rng.NextBelow(complex_views)
                                 : complex_views + rng.NextBelow(short_views);
        const uint64_t row_pick = rng.Next();
        const int64_t t0 = Now();
        std::shared_ptr<const ViewSnapshot> snap = inst.views[v]->Pin();
        const int64_t t1 = Now();
        const std::vector<Tuple>& rows = snap->rows();
        if (complex) {
          const size_t limit = std::min(rows.size(), kComplexReadRows);
          for (size_t r = 0; r < limit; ++r) state.checksum += rows[r].size();
        } else if (!rows.empty()) {
          state.checksum += rows[row_pick % rows.size()].Hash() & 0xff;
        }
        const int64_t t2 = Now();
        const bool new_epoch = snap->epoch() != seen_epoch[v];
        seen_epoch[v] = snap->epoch();
        if (!timed) continue;
        state.read.push_back(t2 - t0);
        (new_epoch ? state.pin_new : state.pin_same).push_back(t1 - t0);
        ++state.ops;
        if (spans != nullptr) {
          spans->Add("engine.pin", t0, t1, root, root);
          spans->AddWithId(root, "bench.read", t0, t2, 0, root);
        }
        continue;
      }
      const uint64_t op_seed = rng.Next();
      slot.visible_ns.store(0, std::memory_order_relaxed);
      slot.apply_start_ns = 0;
      slot.apply_end_ns = 0;
      UpdateSlot* slot_ptr = &slot;
      const int64_t t0 = Now();
      const bool accepted = engine.SubmitAsync(
          [slot_ptr, updater, listener, op_seed](PropertyGraph& g) {
            slot_ptr->apply_start_ns = Now();
            updater->Apply(&g, op_seed);
            slot_ptr->apply_end_ns = Now();
            listener->AddPending(slot_ptr);
          });
      const int64_t submitted = Now();
      if (!accepted) {
        if (timed) {
          ++state.failed;
          ++state.ops;
        }
        continue;
      }
      int64_t visible = 0;
      while ((visible = slot.visible_ns.load(std::memory_order_acquire)) == 0) {
        if (Now() - t0 > kUpdateTimeoutNs) {
          // The slot may still be written later: stop this client for good.
          state.error = "an update was never stamped visible";
          ++state.failed;
          state.end_ns = Now();
          if (!timed) arrived.fetch_add(1);
          return;
        }
        std::this_thread::yield();
      }
      const int64_t seen = Now();
      if (!timed) continue;
      // The ingest thread may start the mutation before SubmitAsync
      // returns; clamping keeps the five stages an exact partition.
      const int64_t submit_end = std::min(submitted, slot.apply_start_ns);
      state.write_visible.push_back(seen - t0);
      state.submit.push_back(submit_end - t0);
      state.queue_wait.push_back(slot.apply_start_ns - submit_end);
      state.apply.push_back(slot.apply_end_ns - slot.apply_start_ns);
      state.wake.push_back(seen - visible);
      ++state.ops;
      ++state.updates;
      if (spans != nullptr) {
        const int ingest_tid = 1;
        spans->Add("engine.submit", t0, submit_end, root, root);
        spans->Add("engine.queue_wait", submit_end, slot.apply_start_ns, root,
                   root, ingest_tid);
        spans->Add("graph.apply", slot.apply_start_ns, slot.apply_end_ns, root,
                   root, ingest_tid);
        spans->Add("rete.commit", slot.apply_end_ns, visible, root, root,
                   ingest_tid);
        spans->Add("engine.wake", visible, seen, root, root);
        spans->AddWithId(root, "bench.update", t0, seen, 0, root);
      }
    }
    state.end_ns = Now();
  };

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_body, c);

  // Warm-up done: every client is parked and its last update is visible.
  // Pause ingest so this thread may read the engine's counters, then start
  // the timed region.
  while (arrived.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.StopIngest();
  if (tracer.enabled()) engine.set_profiling(true);
  const EngineCounts before = EngineCounts::Read(engine);
  const int64_t deltas_before = listener->deltas();
  const int64_t changes_before = listener->changes();
  const size_t commits_before = listener->commits().size();
  engine.StartIngest();
  const int64_t start = Now();
  deadline_ns.store(start + static_cast<int64_t>(config.seconds * 1e9));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  engine.StopIngest();

  int64_t end = start;
  uint64_t checksum = 0;
  for (ClientState& c : clients) {
    Append(m.write_visible, c.write_visible);
    Append(m.read, c.read);
    Append(m.apply, c.apply);
    Append(m.submit, c.submit);
    Append(m.queue_wait, c.queue_wait);
    Append(m.wake, c.wake);
    Append(m.pin_new, c.pin_new);
    Append(m.pin_same, c.pin_same);
    m.ops += c.ops;
    m.updates += c.updates;
    m.failed += c.failed;
    end = std::max(end, c.end_ns);
    checksum += c.checksum;
    if (!c.error.empty()) m.Error(c.error);
  }
  m.attempted = m.ops;
  m.active_ns = end - start;
  m.rete = EngineCounts::Read(engine) - before;
  m.probed_updates = m.updates;
  m.batches = listener->deltas() - deltas_before;
  m.graph_changes = listener->changes() - changes_before;
  for (size_t i = commits_before; i < listener->commits().size(); ++i) {
    m.commit.push_back(listener->commits()[i].second);
  }
  if (checksum == 0) m.Error("snb_interactive reads touched no rows");
}

/// snb_bulk_load: one writer, batches of 1,024 updates, each batch in its
/// own BeginBatch/CommitBatch. No readers.
void RunBulkLoad(const RunConfig& config, Instance& inst, Measurements& m,
                 SpanBuffer* spans) {
  PropertyGraph& graph = *inst.graph;
  Rng rng(SubSeed(config.seed, 1));
  auto run_batch = [&](bool timed, int64_t b) {
    const bool traced = timed && spans != nullptr && b % kTraceEvery == 0;
    SpanBuffer* s = traced ? spans : nullptr;
    const int64_t root = s != nullptr ? s->NewId() : 0;
    const int64_t t0 = Now();
    graph.BeginBatch();
    for (int i = 0; i < kBulkBatchUpdates; ++i) {
      const uint64_t op_seed = rng.Next();
      const int64_t a0 = Now();
      inst.updater->Apply(&graph, op_seed);
      if (timed) m.apply.push_back(Now() - a0);
    }
    const int64_t t1 = Now();
    graph.CommitBatch();
    const int64_t t2 = Now();
    if (!timed) return;
    m.write_visible.push_back(t2 - t0);
    m.commit.push_back(t2 - t1);
    m.updates += kBulkBatchUpdates;
    m.ops += kBulkBatchUpdates;
    ++m.batches;
    if (s != nullptr) {
      s->Add("graph.apply", t0, t1, root, root);
      s->Add("rete.commit", t1, t2, root, root);
      s->AddWithId(root, "bench.batch", t0, t2, 0, root);
    }
  };
  for (int64_t b = 0; b < kBulkWarmupBatches; ++b) run_batch(false, b);

  if (spans != nullptr) inst.engine->set_profiling(true);
  const EngineCounts before = EngineCounts::Read(*inst.engine);
  const int64_t changes_before = inst.listener.changes();
  ActiveClock clock;
  clock.Start();
  const int64_t deadline = Now() + static_cast<int64_t>(config.seconds * 1e9);
  for (int64_t b = 0; Now() < deadline; ++b) {
    run_batch(true, b);
    if (b + 1 == kBulkCheckpointBatch) {
      clock.Pause();
      TakeCheckpoint(inst, b + 1, m);
      clock.Resume();
    }
  }
  m.active_ns = clock.ActiveNs();
  m.attempted = m.ops;
  m.rete = EngineCounts::Read(*inst.engine) - before;
  m.probed_updates = m.updates;
  m.graph_changes = inst.listener.changes() - changes_before;
}

/// Pins `view` and reads every row; records read and pin samples.
void ScanView(const View& view, uint64_t* seen_epoch, Measurements& m,
              uint64_t* checksum, SpanBuffer* spans, int64_t root) {
  const int64_t r0 = Now();
  std::shared_ptr<const ViewSnapshot> snap = view.Pin();
  const int64_t r1 = Now();
  for (const Tuple& row : snap->rows()) *checksum += row.size();
  const int64_t r2 = Now();
  const bool new_epoch = snap->epoch() != *seen_epoch;
  *seen_epoch = snap->epoch();
  m.read.push_back(r2 - r0);
  (new_epoch ? m.pin_new : m.pin_same).push_back(r1 - r0);
  if (spans != nullptr) spans->Add("engine.pin", r0, r1, root, root);
}

/// railway_recheck: the Train Benchmark's continuous validation loop. Each
/// cycle commits one transformation alone, then rechecks by pinning each
/// constraint view and reading every row.
void RunRailway(const RunConfig& config, Instance& inst, Measurements& m,
                SpanBuffer* spans) {
  PropertyGraph& graph = *inst.graph;
  std::vector<uint64_t> seen_epoch(inst.views.size(), UINT64_MAX);
  uint64_t checksum = 0;
  auto cycle = [&](bool timed, int64_t c) {
    const bool traced = timed && spans != nullptr && c % kTraceEvery == 0;
    SpanBuffer* s = traced ? spans : nullptr;
    const int64_t root = s != nullptr ? s->NewId() : 0;
    const int64_t t0 = Now();
    graph.BeginBatch();
    inst.railway_updater->Apply(&graph);
    const int64_t t1 = Now();
    graph.CommitBatch();
    const int64_t t2 = Now();
    if (!timed) {
      for (const std::shared_ptr<View>& view : inst.views) view->Pin();
      return;
    }
    for (size_t v = 0; v < inst.views.size(); ++v) {
      ScanView(*inst.views[v], &seen_epoch[v], m, &checksum, s, root);
    }
    const int64_t t3 = Now();
    m.write_visible.push_back(t2 - t0);
    m.apply.push_back(t1 - t0);
    m.commit.push_back(t2 - t1);
    ++m.updates;
    ++m.batches;
    ++m.ops;
    if (s != nullptr) {
      s->Add("graph.apply", t0, t1, root, root);
      s->Add("rete.commit", t1, t2, root, root);
      s->AddWithId(root, "bench.cycle", t0, t3, 0, root);
    }
  };
  for (int64_t c = 0; c < kRailwayWarmupCycles; ++c) cycle(false, c);

  if (spans != nullptr) inst.engine->set_profiling(true);
  const EngineCounts before = EngineCounts::Read(*inst.engine);
  const int64_t changes_before = inst.listener.changes();
  ActiveClock clock;
  clock.Start();
  const int64_t deadline = Now() + static_cast<int64_t>(config.seconds * 1e9);
  for (int64_t c = 0; Now() < deadline; ++c) {
    cycle(true, c);
    if (c + 1 == kRailwayCheckpointCycle) {
      clock.Pause();
      TakeCheckpoint(inst, c + 1, m);
      clock.Resume();
    }
  }
  m.active_ns = clock.ActiveNs();
  m.attempted = m.ops;
  m.rete = EngineCounts::Read(*inst.engine) - before;
  m.probed_updates = m.updates;
  m.graph_changes = inst.listener.changes() - changes_before;
  if (checksum == 0) m.Error("railway_recheck scans read no rows");
}

/// view_churn: each cycle registers one query from the pool, pins it,
/// applies single updates, and drops the oldest churned view once more
/// than kChurnMaxLive are live.
void RunChurn(const RunConfig& config, Instance& inst, Measurements& m,
              SpanBuffer* spans) {
  QueryEngine& engine = *inst.engine;
  PropertyGraph& graph = *inst.graph;
  Rng rng(SubSeed(config.seed, 2));
  std::deque<std::shared_ptr<View>> churned;
  if (spans != nullptr) engine.set_profiling(true);
  const int64_t changes_before = inst.listener.changes();
  ActiveClock clock;
  ActiveClock* layers = spans != nullptr ? &clock : nullptr;
  clock.Start();
  const int64_t deadline = Now() + static_cast<int64_t>(config.seconds * 1e9);
  for (int64_t c = 0; Now() < deadline; ++c) {
    const int64_t root = spans != nullptr ? spans->NewId() : 0;
    // The pool is walked in order, so every run registers the same queries
    // beside the same live ones whatever its seed.
    const std::string& query =
        ChurnPool()[static_cast<size_t>(c) % ChurnPool().size()];
    const int64_t t0 = Now();
    ++m.attempted;
    std::shared_ptr<View> view =
        RegisterTimed(engine, query, m, layers, spans, root, root);
    if (view == nullptr) {
      ++m.failed;
      continue;
    }
    FirstPin(*view, m, spans, root, root);
    // Probes are benchmark-only work: paused out of the active clock and
    // traced under their own "probe" layer. The rete counts are read per
    // update block, because the node set changes between cycles and
    // lifetime totals would lose the emissions of dropped nodes; rarely,
    // because a MetricsSnapshot walks every node memory.
    auto probe = [&](auto&& work) {
      clock.Pause();
      const int64_t p0 = Now();
      work();
      if (spans != nullptr) spans->Add("probe.pause", p0, Now(), root, root);
      clock.Resume();
    };
    if (c % kChurnCheckEvery == 0) {
      probe([&] { CheckAgainstBaseline(engine, *view, m, nullptr); });
    }
    const bool count_rete = c % kChurnCountEvery == 0;
    EngineCounts before;
    if (count_rete) probe([&] { before = EngineCounts::Read(engine); });
    churned.push_back(std::move(view));
    for (int u = 0; u < kChurnUpdatesPerCycle; ++u) {
      const uint64_t op_seed = rng.Next();
      const int64_t u0 = Now();
      graph.BeginBatch();
      inst.updater->Apply(&graph, op_seed);
      const int64_t u1 = Now();
      graph.CommitBatch();
      const int64_t u2 = Now();
      m.write_visible.push_back(u2 - u0);
      m.apply.push_back(u1 - u0);
      m.commit.push_back(u2 - u1);
      ++m.updates;
      ++m.batches;
      if (spans != nullptr) {
        spans->Add("graph.apply", u0, u1, root, root);
        spans->Add("rete.commit", u1, u2, root, root);
      }
    }
    if (count_rete) {
      probe([&] { m.rete += EngineCounts::Read(engine) - before; });
      m.probed_updates += kChurnUpdatesPerCycle;
    }
    if (churned.size() > kChurnMaxLive) {
      DropView(churned.front(), m, spans, root, root);
      churned.pop_front();
    }
    const int64_t t1 = Now();
    ++m.ops;
    if (spans != nullptr) {
      spans->AddWithId(root, "bench.churn", t0, t1, 0, root);
    }
    if (c + 1 == kChurnCheckpointCycle) {
      clock.Pause();
      TakeCheckpoint(inst, c + 1, m);
      clock.Resume();
    }
  }
  m.active_ns = clock.ActiveNs();
  m.graph_changes = inst.listener.changes() - changes_before;
  // The churned views still live are checked with the standing ones.
  for (std::shared_ptr<View>& view : churned) {
    inst.views.push_back(std::move(view));
  }
}

// ---- Output -------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Nearest-rank percentile of sorted samples, `permille` in [1, 1000]: the
/// value at rank ceil(permille / 1000 * n), in integer arithmetic.
int64_t Percentile(const Samples& sorted, size_t permille) {
  if (sorted.empty()) return 0;
  const size_t rank = (permille * sorted.size() + 999) / 1000;
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

/// {"n":..,"mean":..,"p50":..,...} in microseconds.
std::string Summary(Samples samples) {
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (int64_t v : samples) sum += static_cast<double>(v);
  const double n = static_cast<double>(samples.size());
  std::ostringstream os;
  os << "{\"n\":" << samples.size()
     << ",\"mean\":" << Num(samples.empty() ? 0.0 : sum / n / 1e3);
  static const std::pair<const char*, size_t> kPoints[] = {
      {"p50", 500}, {"p90", 900}, {"p95", 950}, {"p99", 990},
      {"p999", 999}, {"max", 1000}};
  for (const auto& [name, p] : kPoints) {
    os << ",\"" << name
       << "\":" << Num(static_cast<double>(Percentile(samples, p)) / 1e3);
  }
  os << "}";
  return os.str();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintReport(const RunConfig& config, const Measurements& m,
                 const std::string& trace_path, const Tracer& tracer) {
  std::ostringstream os;
  os << "{\"workload\":\"" << config.workload_name << "\",\"seed\":"
     << config.seed << ",\"seconds\":" << Num(config.seconds);
  os << ",\"correct\":" << (m.errors.empty() && m.failed == 0 ? "true" : "false");
  os << ",\"errors\":[";
  for (size_t i = 0; i < m.errors.size(); ++i) {
    os << (i ? "," : "") << "\"" << JsonEscape(m.errors[i]) << "\"";
  }
  os << "],\"attempted\":" << m.attempted << ",\"failed\":" << m.failed;
  auto list = [&os](const char* name, const std::vector<double>& v) {
    os << ",\"" << name << "\":[";
    for (size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << Num(v[i]);
    os << "]";
  };
  list("setup_s", m.setup_s);
  list("populate_s", m.populate_s);
  os << ",\"active_s\":" << Num(static_cast<double>(m.active_ns) / 1e9)
     << ",\"ops\":" << m.ops << ",\"updates\":" << m.updates
     << ",\"batches\":" << m.batches
     << ",\"graph_changes\":" << m.graph_changes
     << ",\"peak_rss_mb\":" << Num(m.peak_rss_mb);
  os << ",\"rete\":{\"updates\":" << m.probed_updates
     << ",\"changes\":" << m.rete.changes << ",\"emitted\":" << m.rete.emitted
     << ",\"source_emitted\":" << m.rete.source_emitted
     << ",\"epochs\":" << m.rete.epochs << "}";
  os << ",\"registrations\":" << m.registrations
     << ",\"replayed_entries\":" << m.replayed_entries
     << ",\"graph_primed_entries\":" << m.graph_primed_entries
     << ",\"registry_hits\":" << m.registry_hits
     << ",\"registry_misses\":" << m.registry_misses;
  os << ",\"graph_memory_mb\":" << Num(m.graph_memory_mb)
     << ",\"catalog_memory_mb\":" << Num(m.catalog_memory_mb)
     << ",\"catalog_nodes\":" << m.catalog_nodes
     << ",\"catalog_shared_nodes\":" << m.catalog_shared_nodes;
  os << ",\"samples_us\":{";
  const std::pair<const char*, const Samples*> samples[] = {
      {"write_visible", &m.write_visible}, {"read", &m.read},
      {"apply", &m.apply},                 {"commit", &m.commit},
      {"submit", &m.submit},               {"queue_wait", &m.queue_wait},
      {"wake", &m.wake},                   {"pin_new", &m.pin_new},
      {"pin_same", &m.pin_same},           {"parse", &m.parse},
      {"compile", &m.compile},             {"install", &m.install},
      {"register", &m.register_total},     {"first_pin", &m.first_pin},
      {"deregister", &m.deregister},       {"evaluate_once", &m.evaluate_once},
  };
  for (size_t i = 0; i < std::size(samples); ++i) {
    os << (i ? "," : "") << "\"" << samples[i].first
       << "\":" << Summary(*samples[i].second);
  }
  int64_t evaluate_once_total = 0;
  for (int64_t v : m.evaluate_once) evaluate_once_total += v;
  os << "},\"evaluate_once_total_ms\":"
     << Num(static_cast<double>(evaluate_once_total) / 1e6);
  os << ",\"checkpoint\":";
  if (m.checkpoint_op < 0) {
    os << "null";
  } else {
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64, m.checkpoint_fingerprint);
    os << "{\"op\":" << m.checkpoint_op << ",\"fingerprint\":\"" << fp
       << "\",\"counts\":{";
    for (size_t i = 0; i < m.checkpoint_counts.size(); ++i) {
      os << (i ? "," : "") << "\"" << m.checkpoint_counts[i].first
         << "\":" << m.checkpoint_counts[i].second;
    }
    os << "}}";
  }
  os << ",\"profile\":{\"drain_mean_us\":" << Num(m.drain_mean_ns / 1e3)
     << ",\"translate_mean_us\":" << Num(m.translate_mean_ns / 1e3)
     << ",\"wave_mean_us\":" << Num(m.wave_mean_ns / 1e3) << ",\"busy_ms\":{";
  size_t k = 0;
  for (const auto& [kind, ns] : m.busy_ns_by_kind) {
    os << (k++ ? "," : "") << "\"" << kind
       << "\":" << Num(static_cast<double>(ns) / 1e6);
  }
  os << "}}";
  os << ",\"trace\":";
  if (trace_path.empty()) {
    os << "null";
  } else {
    os << "{\"path\":\"" << JsonEscape(trace_path)
       << "\",\"spans\":" << tracer.span_count()
       << ",\"dropped\":" << tracer.dropped() << "}";
  }
  os << "}\n";
  std::fputs(os.str().c_str(), stdout);
}

// ---- Main -----------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bench_ivm: bad argument '%s'\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      config->workload_name = value;
      if (!ParseWorkload(value, &config->workload)) {
        std::fprintf(stderr, "bench_ivm: unknown workload '%s'\n", value.c_str());
        return false;
      }
    } else if (key == "seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      config->trace_dir = value;
    } else {
      std::fprintf(stderr, "bench_ivm: unknown option '--%s'\n", key.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "bench_ivm: bad value in '%s'\n", arg.c_str());
      return false;
    }
  }
  if (config->workload_name.empty() || !(config->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: bench_ivm --workload=<name> --seed=<n> --seconds=<s> "
                 "[--trace=<dir>]\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) return 2;

  Tracer tracer(!config.trace_dir.empty());
  SpanBuffer* main_spans = tracer.NewBuffer(0);
  Measurements m;

  // The first half of the set-ups; the last one is kept for the load.
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < kSetups / 2; ++k) {
    if (inst != nullptr) TearDown(std::move(inst), m);
    double seconds = 0;
    inst = SetUp(config.workload, config.seed, m, main_spans, &seconds);
    if (inst == nullptr) break;
    m.setup_s.push_back(seconds);
  }
  if (inst == nullptr) {
    m.peak_rss_mb = PeakRssMb();
    PrintReport(config, m, "", tracer);
    return 1;
  }

  // First pins of the standing views; then the update stream's steady
  // size, and renderings warm as a serving process would have them.
  for (const std::shared_ptr<View>& view : inst->views) {
    FirstPin(*view, m, nullptr, 0, 0);
  }
  if (inst->updater != nullptr) {
    inst->updater->Fill(inst->graph.get(), SubSeed(config.seed, 3));
  }
  for (const std::shared_ptr<View>& view : inst->views) view->Pin();

  switch (config.workload) {
    case Workload::kSnbInteractive:
      RunInteractive(config, *inst, m, tracer);
      break;
    case Workload::kSnbBulkLoad:
      RunBulkLoad(config, *inst, m, main_spans);
      break;
    case Workload::kRailwayRecheck:
      RunRailway(config, *inst, m, main_spans);
      break;
    case Workload::kViewChurn:
      RunChurn(config, *inst, m, main_spans);
      break;
  }
  inst->engine->StopIngest();

  // Cross-layer consistency: the network saw exactly the graph's changes
  // (view_churn reads rete counts for sampled cycles only).
  if (config.workload != Workload::kViewChurn &&
      m.rete.changes != m.graph_changes) {
    m.Error("rete processed " + std::to_string(m.rete.changes) +
            " changes, the graph emitted " + std::to_string(m.graph_changes));
  }
  if (m.ops == 0) m.Error("the load completed no operation");

  ReadEndState(*inst, m);
  // Correctness gate: every live view equals a from-scratch evaluation.
  for (const std::shared_ptr<View>& view : inst->views) {
    m.evaluate_once.push_back(
        CheckAgainstBaseline(*inst->engine, *view, m, main_spans));
  }
  m.peak_rss_mb = PeakRssMb();

  // The second half of the set-ups, one at a time after the load.
  TearDown(std::move(inst), m);
  for (int k = kSetups / 2; k < kSetups; ++k) {
    double seconds = 0;
    std::unique_ptr<Instance> extra =
        SetUp(config.workload, config.seed, m, main_spans, &seconds);
    if (extra == nullptr) break;
    m.setup_s.push_back(seconds);
    TearDown(std::move(extra), m);
  }

  std::string trace_path;
  if (tracer.enabled()) {
    trace_path = config.trace_dir + "/" + config.workload_name + ".trace.json";
    if (!tracer.Write(trace_path)) {
      m.Error("cannot write " + trace_path);
      trace_path.clear();
    }
  }
  PrintReport(config, m, trace_path, tracer);
  return m.errors.empty() && m.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pgivm

int main(int argc, char** argv) { return pgivm::Main(argc, argv); }
