#!/usr/bin/env python3
"""Runner of the repository benchmark (see README.md beside this file).

Builds the bench_ivm binary (a Release tree, tests and examples off) and runs
it. Three modes:

  run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Prints every metric by name with its unit,
      then, as the last line, one JSON object with the keys correct,
      attempted, failed and metrics (end-to-end metrics with --trace 0,
      per-layer metrics with --trace 1).

  run.py [--repeats 5] [--seed 42] [--seconds S] [--trace] [--out FILE]
      Every workload, repeats interleaved (W1..W4, W1..W4, ...). Prints each
      end-to-end metric's median, quartiles and sample count per workload,
      checks correctness and that single-writer workloads are deterministic
      at one seed, and writes the results to FILE. With --trace, each
      workload then runs once more traced: per-layer metrics, each layer's
      self time and trace.overhead_ratio.

  run.py compare A.json B.json
      Applies each end-to-end metric's bound and direction per workload and
      reports better, worse, same or unresolved.

Every run clears the PGIVM_* environment variables, which change the program.
Exit status is non-zero when any correctness check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFINITION_FILE = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ["snb_interactive", "snb_bulk_load", "railway_recheck", "view_churn"]
# Single-writer workloads replay identically at one seed; their
# checkpoint (graph fingerprint plus rete/catalog counts) must match.
DETERMINISTIC = {"snb_bulk_load", "railway_recheck", "view_churn"}
NODE_KINDS = ["VertexInput", "EdgeInput", "PathInput", "UnitInput", "Filter",
              "Project", "Join", "SemiJoin", "AntiJoin", "Aggregate",
              "Distinct", "Union", "Unnest", "Production"]
# Layers whose spans can sit inside a load-phase op.
SELF_TIME_LAYERS = ["bench", "cypher", "algebra", "catalog", "graph", "rete",
                    "engine"]
PERCENTILES = (99.9, 99, 95, 90, 50)
MIN_BEYOND = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- Statistics -------------------------------------------------------------

def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    permille = round(p * 10)
    return n - (permille * n + 999) // 1000  # rank ceil(p/100 * n), exactly


def supported_percentile(n, min_beyond=MIN_BEYOND):
    """The highest percentile in PERCENTILES with at least min_beyond
    samples beyond it, or None when even the median has fewer."""
    for p in PERCENTILES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def compare_metric(base, new, better, bound):
    """Verdict for one metric: 'better', 'worse', 'same' or 'unresolved'.

    base and new are dicts with 'median' and 'values'. A change counts only
    when the medians differ by more than `bound` (a share of the base
    median) and every run of one side reads better than every run of the
    other; a shift with overlapping runs is unresolved. Medians within the
    bound are the same, unless either side's quartile spread is wider than
    the bound, which leaves them unresolved; every new run reading better
    than every base run still rules out a regression.
    """
    sign = 1 if better == "higher" else -1
    gain = sign * (new["median"] - base["median"]) / abs(base["median"])
    all_better = all(sign * v > sign * w for v in new["values"] for w in base["values"])
    all_worse = all(sign * v < sign * w for v in new["values"] for w in base["values"])
    if gain > bound:
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse" if all_worse else "unresolved"
    spread = max(relative_spread(base["values"]), relative_spread(new["values"]))
    return "same" if spread <= bound or all_better else "unresolved"


# ---- Spans --------------------------------------------------------------------

def load_spans(path):
    """Spans of a bench_ivm Chrome trace, times in integer nanoseconds."""
    with open(path) as f:
        trace = json.load(f)
    spans = []
    for e in trace["traceEvents"]:
        start = round(e["ts"] * 1000)
        spans.append({"name": e["name"], "start": start,
                      "end": start + round(e["dur"] * 1000),
                      "id": e["args"]["id"], "parent": e["args"]["parent"],
                      "op": e["args"]["op"]})
    return spans, trace.get("droppedSpans", 0)


def covered_length(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans):
    """{span id: its duration minus the part its child spans cover}."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered_length(s["start"], s["end"], children[s["id"]])
            for s in spans}


def layer_of(name):
    return name.split(".", 1)[0]


def is_op_root(span):
    return span["parent"] == 0 and span["name"].startswith("bench.") \
        and span["name"] != "bench.setup"


def self_time_per_op(spans):
    """{layer: mean self time in us per traced load op}, and the op count."""
    roots = {s["id"] for s in spans if is_op_root(s)}
    own = self_times(spans)
    totals = defaultdict(int)
    for s in spans:
        if s["op"] in roots:
            totals[layer_of(s["name"])] += own[s["id"]]
    n = max(1, len(roots))
    return {layer: totals[layer] / n / 1000.0 for layer in SELF_TIME_LAYERS}, len(roots)


def partition_errors(spans):
    """Updates of snb_interactive whose stage spans do not sum exactly to
    the update's visible latency."""
    sums = defaultdict(int)
    for s in spans:
        if s["parent"]:
            sums[s["parent"]] += s["end"] - s["start"]
    return sum(1 for s in spans if s["name"] == "bench.update"
               and sums[s["id"]] != s["end"] - s["start"])


# ---- Metrics ------------------------------------------------------------------

def sample(report, name, point):
    return report["samples_us"][name][point]


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(report):
    """End-to-end metric values of one untraced run."""
    return {
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "ops_per_s": ratio(report["ops"], report["active_s"]),
        "write_visible_p50_us": sample(report, "write_visible", "p50"),
    }


def percentile_key(p):
    return "p999" if p == 99.9 else "p%d" % p


def per_layer(report, spans=None):
    """Per-layer metric values of one traced run."""
    r = report
    rete = r["rete"]
    busy = r["profile"]["busy_ms"]
    commit_p50 = sample(r, "commit", "p50")
    pins = r["samples_us"]["pin_new"]["n"] + r["samples_us"]["pin_same"]["n"]
    values = {
        "workload.populate_s": statistics.median(r["populate_s"]),
        "cypher.parse_us": sample(r, "parse", "p50"),
        "algebra.compile_us": sample(r, "compile", "p50"),
        "catalog.install_p50_ms": sample(r, "install", "p50") / 1e3,
        "catalog.install_p95_ms": sample(r, "install", "p95") / 1e3,
        "catalog.register_p50_ms": sample(r, "register", "p50") / 1e3,
        "catalog.register_p95_ms": sample(r, "register", "p95") / 1e3,
        "catalog.first_pin_ms": sample(r, "first_pin", "p50") / 1e3,
        "catalog.deregister_p50_ms": sample(r, "deregister", "p50") / 1e3,
        "catalog.replayed_per_register": ratio(r["replayed_entries"], r["registrations"]),
        "catalog.graph_primed_per_register": ratio(r["graph_primed_entries"], r["registrations"]),
        "catalog.registry_hit_ratio": ratio(r["registry_hits"], r["registry_hits"] + r["registry_misses"]),
        "catalog.nodes": r["catalog_nodes"],
        "catalog.shared_nodes": r["catalog_shared_nodes"],
        "catalog.memory_mb": r["catalog_memory_mb"],
        "graph.memory_mb": r["graph_memory_mb"],
        "graph.apply_p50_us": sample(r, "apply", "p50"),
        "graph.apply_p99_us": sample(r, "apply", "p99"),
        "graph.changes_per_update": ratio(r["graph_changes"], r["updates"]),
        "rete.commit_p50_us": commit_p50,
        "rete.commit_p99_us": sample(r, "commit", "p99"),
        "rete.emitted_per_update": ratio(rete["emitted"], rete["updates"]),
        "rete.source_emitted_per_update": ratio(rete["source_emitted"], rete["updates"]),
        "rete.epochs_per_update": ratio(rete["epochs"], rete["updates"]),
        "rete.drain_mean_us": r["profile"]["drain_mean_us"],
        "rete.translate_mean_us": r["profile"]["translate_mean_us"],
        "rete.wave_mean_us": r["profile"]["wave_mean_us"],
        "engine.batch_updates": ratio(r["updates"], r["batches"]),
        "engine.submit_p99_us": sample(r, "submit", "p99"),
        "engine.queue_wait_p50_us": sample(r, "queue_wait", "p50"),
        "engine.queue_wait_p99_us": sample(r, "queue_wait", "p99"),
        "engine.wake_p50_us": sample(r, "wake", "p50"),
        "engine.read_p50_us": sample(r, "read", "p50"),
        "engine.read_p99_us": sample(r, "read", "p99"),
        "engine.pin_new_epoch_p50_us": sample(r, "pin_new", "p50"),
        "engine.pin_new_epoch_p99_us": sample(r, "pin_new", "p99"),
        "engine.new_epoch_pin_ratio": ratio(r["samples_us"]["pin_new"]["n"], pins),
        "engine.pin_same_epoch_p50_ns": sample(r, "pin_same", "p50") * 1e3,
        "baseline.evaluate_once_ms": r["evaluate_once_total_ms"],
        "baseline.ivm_speedup": ratio(r["evaluate_once_total_ms"] * 1e3, commit_p50),
    }
    for kind in NODE_KINDS:
        values["rete.busy_us_per_update." + kind] = ratio(busy.get(kind, 0.0) * 1e3, r["updates"])
    per_op, _ = self_time_per_op(spans or [])
    for layer in SELF_TIME_LAYERS:
        values["trace.self_us_per_op." + layer] = per_op[layer]
    return values


def load_definition():
    with open(DEFINITION_FILE) as f:
        return json.load(f)


# ---- Build and run -------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or "build-bench")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PGIVM_")}


def run_quiet(cmd, timeout):
    result = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if result.returncode != 0:
        log(result.stdout)
        raise SystemExit("command failed: " + " ".join(cmd))


def cache_value(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def ensure_built():
    """Configures (once) and builds bench_ivm; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("run.py: no pgivm source tree at " + ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", out, "--target", "bench_ivm", "-j", "3"],
              timeout=850)
    if cache_value("CMAKE_BUILD_TYPE") != "Release":
        log("warning: %s is a %r build, not Release" % (out, cache_value("CMAKE_BUILD_TYPE")))
    return os.path.join(out, "bench_ivm")


def run_workload(binary, workload, seed, seconds, trace_dir=None, timeout=170):
    """One bench_ivm process; returns its report (a dict)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append("--trace=" + trace_dir)
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                                text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("bench_ivm %s timed out after %ds" % (workload, timeout))
    try:
        report = json.loads(result.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit("bench_ivm %s printed no report (exit %d)"
                         % (workload, result.returncode))
    if result.returncode != 0:
        report["correct"] = False
    return report


def run_checks(report, spans=None):
    """Correctness problems of one run (empty when it passed)."""
    problems = list(report["errors"])
    if report["failed"]:
        problems.append("%d of %d operations failed" % (report["failed"], report["attempted"]))
    if not report["correct"] and not problems:
        problems.append("bench_ivm reported a failure")
    if spans is not None and report["workload"] == "snb_interactive":
        bad = partition_errors(spans)
        if bad:
            problems.append("%d updates whose stage spans do not sum to their latency" % bad)
    return problems


def fmt(value):
    return "%.6g" % value


# ---- Modes -----------------------------------------------------------------------

def single_run(args):
    definition = load_definition()
    started = time.monotonic()
    binary = ensure_built()
    trace_dir = os.path.join(build_dir(), "trace") if args.trace else None
    timeout = max(30, 175 - (time.monotonic() - started))
    report = run_workload(binary, args.workload, args.seed, args.seconds, trace_dir, timeout)
    spans = None
    if args.trace and report.get("trace"):
        spans, _ = load_spans(report["trace"]["path"])
    problems = run_checks(report, spans)
    if args.trace and spans is None:
        problems.append("bench_ivm wrote no trace")
    if args.trace:
        values = per_layer(report, spans)
        wanted = definition["per_layer"]
    else:
        values = end_to_end(report)
        wanted = definition["end_to_end"]
    print("%s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("  %-40s %14s %s" % (m["name"], fmt(values[m["name"]]), m["unit"]))
    for p in problems:
        print("  FAILED: " + p)
    print("  correct=%s attempted=%d failed=%d" % (not problems, report["attempted"], report["failed"]))
    print(json.dumps({"correct": not problems, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if not problems else 1


def describe_machine():
    meta = {"nproc": os.cpu_count(), "platform": platform.platform(),
            "build_type": cache_value("CMAKE_BUILD_TYPE")}
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        meta["compiler"] = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                          text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        meta["compiler"] = compiler
    try:
        meta["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
    except OSError:
        meta["git_commit"] = "unknown"
    return meta


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def suite(args):
    definition = load_definition()
    seconds = args.seconds or definition["run_seconds"]
    binary = ensure_built()
    meta = describe_machine()
    meta.update({"seed": args.seed, "seconds": seconds, "repeats": args.repeats,
                 "loadavg_start": os.getloadavg()})
    reports = defaultdict(list)
    failures = []
    for r in range(args.repeats):
        for w in WORKLOADS:
            log("run %d/%d %s" % (r + 1, args.repeats, w))
            report = run_workload(binary, w, args.seed, seconds)
            reports[w].append(report)
            failures += ["%s run %d: %s" % (w, r + 1, p) for p in run_checks(report)]
    meta["loadavg_end"] = os.getloadavg()

    results = {"meta": meta, "workloads": {}}
    print("seed=%d seconds=%g repeats=%d nproc=%s load=%.2f->%.2f commit=%s"
          % (args.seed, seconds, args.repeats, meta["nproc"], meta["loadavg_start"][0],
             meta["loadavg_end"][0], meta["git_commit"][:12]))
    for w in WORKLOADS:
        runs = reports[w]
        entry = {"metrics": {}, "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        print("%s (%d runs, %d ops attempted, %d failed, error_rate %g)"
              % (w, len(runs), entry["attempted"], entry["failed"],
                 ratio(entry["failed"], entry["attempted"])))
        per_run = [end_to_end(r) for r in runs]
        for m in definition["end_to_end"]:
            s = summarize([v[m["name"]] for v in per_run])
            s.update({"unit": m["unit"], "better": m["better"], "bound": m["bound"]})
            entry["metrics"][m["name"]] = s
            print("  %-24s median %12s  q1 %12s  q3 %12s  n=%d  %s"
                  % (m["name"], fmt(s["median"]), fmt(s["q1"]), fmt(s["q3"]), s["n"], m["unit"]))
        # The tail carries no bound: its spread between runs is wider than
        # the largest bound a metric may have (README.md, "End-to-end
        # metrics").
        writes = [r["samples_us"]["write_visible"]["n"] for r in runs]
        p = supported_percentile(min(writes))
        if p is not None:
            s = summarize([r["samples_us"]["write_visible"][percentile_key(p)] for r in runs])
            entry["write_visible_tail"] = dict(s, percentile=p)
            print("  %-24s median %12s  q1 %12s  q3 %12s  n=%d  us (p%g, no bound)"
                  % ("write_visible_tail", fmt(s["median"]), fmt(s["q1"]), fmt(s["q3"]), s["n"], p))
        print("  write_visible samples per run: %s" % writes)
        checkpoints = [r["checkpoint"] for r in runs]
        entry["checkpoint"] = checkpoints[0]
        if w in DETERMINISTIC:
            if any(c is None for c in checkpoints):
                failures.append("%s: a run ended before its determinism checkpoint" % w)
            elif any(c != checkpoints[0] for c in checkpoints):
                failures.append("%s: checkpoints differ across repeats at seed %d: %s"
                                % (w, args.seed, checkpoints))
            else:
                print("  deterministic: fingerprint %s identical in %d runs"
                      % (checkpoints[0]["fingerprint"], len(runs)))
        results["workloads"][w] = entry

    if args.trace:
        trace_dir = os.path.join(build_dir(), "trace")
        for w in WORKLOADS:
            report = run_workload(binary, w, args.seed, seconds, trace_dir)
            if not report.get("trace"):
                failures.append("%s traced: bench_ivm wrote no trace" % w)
                continue
            spans, dropped = load_spans(report["trace"]["path"])
            failures += ["%s traced: %s" % (w, p) for p in run_checks(report, spans)]
            values = per_layer(report, spans)
            untraced = results["workloads"][w]["metrics"]["ops_per_s"]["median"]
            overhead = ratio(end_to_end(report)["ops_per_s"], untraced)
            results["workloads"][w]["per_layer"] = values
            results["workloads"][w]["trace_overhead_ratio"] = overhead
            print_trace(w, report, spans, dropped, values, overhead, definition)

    results["correct"] = not failures
    results["failures"] = failures
    out = args.out or os.path.join(build_dir(), "results-seed%d.json" % args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    for failure in failures:
        print("FAILED: " + failure)
    print("correct=%s results=%s" % (not failures, os.path.relpath(out, ROOT)))
    return 0 if not failures else 1


def print_trace(workload, report, spans, dropped, values, overhead, definition):
    per_op, ops = self_time_per_op(spans)
    total = sum(per_op.values()) or 1.0
    print("%s traced: %d spans (%d dropped), %d traced ops" % (workload, len(spans), dropped, ops))
    print("  %-10s %14s %8s" % ("layer", "self us/op", "share"))
    for layer in SELF_TIME_LAYERS:
        print("  %-10s %14s %7.1f%%" % (layer, fmt(per_op[layer]), 100.0 * per_op[layer] / total))
    print("  trace.overhead_ratio %s (traced ops_per_s / untraced median)" % fmt(overhead))
    units = {m["name"]: m["unit"] for m in definition["per_layer"]}
    for name in sorted(values):
        print("  %-40s %14s %s" % (name, fmt(values[name]), units.get(name, "")))
    for name, s in sorted(report["samples_us"].items()):
        p = supported_percentile(s["n"])
        if p is None:
            continue
        print("  samples %-14s n=%-8d p50=%-12s p%g=%s us"
              % (name, s["n"], fmt(s["p50"]), p, fmt(s[percentile_key(p)])))


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    counts = defaultdict(int)
    print("%-16s %-24s %12s %12s %8s %8s  %s" % ("workload", "metric", "A median", "B median",
                                               "change", "bound", "verdict"))
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        for name, ma in a["workloads"][w]["metrics"].items():
            mb = b["workloads"][w]["metrics"].get(name)
            if mb is None:
                continue
            verdict = compare_metric(ma, mb, ma["better"], ma["bound"])
            counts[verdict] += 1
            change = (mb["median"] - ma["median"]) / abs(ma["median"])
            print("%-16s %-24s %12s %12s %+7.1f%% %7.0f%%  %s"
                  % (w, name, fmt(ma["median"]), fmt(mb["median"]), 100 * change,
                     100 * ma["bound"], verdict))
        ca, cb = a["workloads"][w].get("checkpoint"), b["workloads"][w].get("checkpoint")
        if ca and cb and a["meta"]["seed"] == b["meta"]["seed"]:
            print("%-16s checkpoint fingerprint %s, counts %s" % (
                w, "same" if ca["fingerprint"] == cb["fingerprint"] else "DIFFERENT",
                "same" if ca["counts"] == cb["counts"] else "different"))
    print(", ".join("%s=%d" % kv for kv in sorted(counts.items())))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload once and print its JSON result line")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="load time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="suite results file (default: in the build directory)")
    args = parser.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = load_definition()["run_seconds"]
        return single_run(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
