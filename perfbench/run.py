#!/usr/bin/env python3
"""Endpoint benchmark: closed-loop HTTP traffic over LUBM-8 through the real
SparqlServer, with every response checked.

    python3 perfbench/run.py --workload point-http --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds perfbench/ (a CMake package over
../src) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
generates LUBM-8 once into .../data (fixed generator seed; --seed only
drives the request streams, the bulk cycle start and the update batches),
then starts two processes:

  serve  loads the N-Triples file, builds a QueryEngine (point-http,
         bulk-http) or a LiveStore (live-http), starts the server and times
         that set-up several times until a readiness request is answered;
         it writes every text's expected body (built in-process with the
         public ResultEncoder);
  load   the load generator: fixed closed-loop keep-alive connections,
         a warm-up, then a --seconds window; every reply is checked.

Workloads:
  point-http  2 connections, Zipf(1.0) over ~1.4k selective LUBM texts
  bulk-http   1 connection, streamed Q8/Q9/Q6/Q14 cycled 4:3:2:1
  live-http   point-http's 2 readers over a LiveStore beside 1 writer whose
              seeded INSERT/DELETE DATA batches keep the delta in a fixed band

--trace 0 prints the end-to-end metrics (setup_s, qps, p50_ms, p90_ms,
rows_per_s, rss_mb). --trace 1 runs an untraced and a traced window of
--seconds/2 each, replays every requested text in-process, probes the live
store, and prints the per-layer metrics plus trace.overhead_<m> (traced
minus untraced) for each end-to-end metric. Spans go to
$CARGO_TARGET_DIR/perfbench/traces/. Every per-layer metric is reported on
every workload; the store.* figures come from the serving LiveStore on
live-http and from a LiveStore over a copy of the served dataset, filled
by the same batch stream in-process, on the other two (there
store.update_p50_ms is the in-process LiveStore::Update latency, not the
HTTP one). A streamed Open is lazy: the producer thread starts inside the
first Next, so sparql.first_row_us carries the thread start.

Host speed drifts by tens of percent over minutes on shared machines. Each
run prints a fixed CPU loop's time before and after the window and the
host's CPU steal share during it, so a run taken in a slow period shows;
neither ever scales a metric.

The last stdout line is the JSON result. The exit code is non-zero when any
operation failed or a check did not hold.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

WORKLOADS = ("point-http", "bulk-http", "live-http")
LUBM_UNIVERSITIES = 8
SETUP_REPS = 3          # untraced set-ups per run; setup_s is their median
TRACE_SETUP_REPS = 4    # traced runs alternate untraced and traced set-ups
WARMUP_S = 1.0
LIVE_SETUP_BATCHES = 8  # BatchStream::kLag: set-up fills the delta band
END_TO_END = (("setup_s", "s"), ("qps", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
              ("rows_per_s", "rows/s"), ("rss_mb", "MB"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Build and inputs.
# ---------------------------------------------------------------------------

def configured_for(build, source):
    """True when `build` holds a generated build system for `source`."""
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    if not any(os.path.exists(os.path.join(build, f)) for f in ("build.ninja", "Makefile")):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == os.path.realpath(source)
    return False


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not configured_for(build_dir, source):
        # A cache from another tree (or a half-written one) cannot be
        # reconfigured in place: start from an empty build directory.
        shutil.rmtree(build_dir, ignore_errors=True)
        os.makedirs(build_dir)
        cmd = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def inputs(binary, build_dir):
    data = os.path.join(build_dir, "data")
    nt, catalog = os.path.join(data, "lubm.nt"), os.path.join(data, "catalog.tsv")
    if not (os.path.exists(nt) and os.path.exists(catalog)):
        subprocess.run([binary, "gen", "--universities", str(LUBM_UNIVERSITIES), "--out", data],
                       check=True, stdout=sys.stderr, timeout=600)
    return nt, catalog


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------

class Server:
    """The serving process, driven line by line over stdin/stdout."""

    def __init__(self, cmd, timeout):
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.ready = self.read(timeout)

    def read(self, timeout):
        box = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(timeout)
        if not box or not box[0]:
            raise RuntimeError("serving process did not answer within %ds" % timeout)
        return json.loads(box[0])

    def ask(self, command, timeout=120):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        reply = self.read(timeout)
        if "error" in reply:
            raise RuntimeError("serving process failed on '%s'" % command)
        return reply

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def run_load(binary, port, paths, args, seconds, traced, updates_done):
    # The writer continues the batch stream after set-up's batches and any
    # an earlier window posted.
    first_batch = LIVE_SETUP_BATCHES + updates_done
    cmd = [binary, "load", "--port", str(port), "--expect", paths["expect"],
           "--first-batch", str(first_batch),
           "--catalog", paths["catalog"], "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--warmup", str(WARMUP_S), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--samples", paths["samples"], "--spans", paths["client_spans"]]
    before = cpu_times()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=seconds + WARMUP_S + 60)
    after = cpu_times()
    window = json.loads(out.stdout.strip().splitlines()[-1])
    total = sum(after) - sum(before)
    window["steal_pct"] = 100.0 * (after[7] - before[7]) / total if total and len(after) > 7 else 0.0
    return window


def cpu_times():
    """The host's aggregate CPU time counters (/proc/stat), empty if absent."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def read_samples(path):
    """The traced window's reads: [(text id, latency ms, first-byte ms)]."""
    with open(path) as f:
        return [(int(t), float(lat), float(ttfb)) for t, lat, ttfb in
                (line.split() for line in f)]


def median(values):
    return statistics.median(values) if values else 0.0


def weighted_median(pairs):
    """Median of values weighted by request counts: [(value, weight)]."""
    pairs = sorted(p for p in pairs if p[1] > 0)
    total = sum(w for _, w in pairs)
    if not total:
        return 0.0
    acc = 0
    for value, weight in pairs:
        acc += weight
        if acc * 2 >= total:
            return value
    return pairs[-1][0]


def end_to_end(setups, window, report_after):
    return {
        "setup_s": median(setups),
        "qps": window["qps"],
        "p50_ms": window["p50"]["value"],
        "p90_ms": window["p90"]["value"],
        "rows_per_s": window["rows_per_s"],
        "rss_mb": report_after["rss_kb"] / 1024.0,
    }


def server_delta(before, after, key):
    return after.get(key, 0) - before.get(key, 0)


def per_layer(args, setups_untraced, setups_traced, windows, reports, trace, samples):
    plain, traced = windows
    r0, r1, r2 = reports  # before the untraced window, between, after the traced window
    m = {}
    spin = [plain["spin_before_ms"], plain["spin_after_ms"],
            traced["spin_before_ms"], traced["spin_after_ms"]]
    m["client.spin_probe_ms"] = median(spin)

    hits = server_delta(r1, r2, "hits")
    looked = hits + server_delta(r1, r2, "misses") + server_delta(r1, r2, "revalidations")
    m["server.plan_cache_hit_rate"] = hits / looked if looked else 0.0
    reads = server_delta(r1, r2, "requests") - server_delta(r1, r2, "updates")
    m["server.revalidations_per_read"] = server_delta(r1, r2, "revalidations") / reads if reads else 0.0

    # Replays, aggregated per text (median over repeats) and weighted by how
    # often the traced window requested each text.
    by_id = {}
    for r in trace["replays"]:
        by_id.setdefault(int(r["id"]), []).append(r)
    rep = {i: {k: median([x[k] for x in rs]) for k in rs[0]} for i, rs in by_id.items()}
    weight = {}
    for text, _, _ in samples:
        weight[text] = weight.get(text, 0) + 1
    used = [(rep[i], w) for i, w in weight.items() if i in rep]

    def wmed(key, scale=1.0):
        return weighted_median([(r[key] * scale, w) for r, w in used])

    def wsum(key):
        return sum(r[key] * w for r, w in used)

    m["server.overhead_p50_ms"] = median([lat - rep[t]["replay_ms"] for t, lat, _ in samples
                                          if t in rep])
    m["server.ttfb_p50_ms"] = median([ttfb for _, _, ttfb in samples])
    rows = wsum("rows")
    m["server.encode_ns_per_row"] = wsum("encode_ms") * 1e6 / rows if rows else 0.0
    m["server.bytes_per_row"] = traced["bytes_per_row"]
    m["sparql.prepare_us"] = wmed("prepare_us")
    m["sparql.open_us"] = wmed("open_us")
    m["sparql.first_row_us"] = wmed("first_row_us")
    m["sparql.drain_stream_ms"] = wmed("drain_stream_ms")
    m["sparql.drain_mat_ms"] = wmed("drain_mat_ms")
    mat = wsum("drain_mat_ms")
    m["sparql.stream_ratio"] = wsum("drain_stream_ms") / mat if mat else 0.0
    m["sparql.allocs_per_row"] = wsum("allocs") / rows if rows else 0.0
    m["engine.order_us"] = wmed("order_ms", 1e3)
    m["engine.explore_us"] = wmed("explore_ms", 1e3)
    m["engine.search_us"] = wmed("search_ms", 1e3)
    checks = wsum("sig_checks")
    m["engine.sig_prune_ratio"] = wsum("sig_prunes") / checks if checks else 0.0
    starts = wsum("starts")
    m["engine.region_yield"] = wsum("regions") / starts if starts else 0.0

    setups = trace["setups"]
    m["rdf.load_ms"] = median([s["load_ms"] for s in setups])
    m["rdf.parse_ms"] = median([s["parse_ms"] for s in setups])
    m["rdf.merge_ms"] = median([s["merge_ms"] for s in setups])
    m["graph.build_ms"] = median([s["build_ms"] for s in setups])
    m["graph.bytes_per_triple"] = trace["bytes_per_triple"]

    m["store.base_index_ms"] = trace["base_index_ms"]
    if args.workload == "live-http":
        m["store.update_p50_ms"] = traced["update_p50"]["value"]
    else:
        m["store.update_p50_ms"] = median(trace["probe_update_ms"])
    engine_ms = wmed("drain_mat_ms")
    m["store.delta_read_ratio"] = wmed("store_ms") / engine_ms if engine_ms else 0.0
    m["store.delta_triples"] = trace["delta_triples"]
    m["store.compact_ms"] = trace["compact_ms"]

    e_plain = end_to_end(setups_untraced, plain, r1)
    e_traced = end_to_end(setups_traced, traced, r2)
    for name, _ in END_TO_END:
        m["trace.overhead_" + name] = e_traced[name] - e_plain[name]
    return m


PER_LAYER_UNITS = {
    "client.spin_probe_ms": "ms", "server.plan_cache_hit_rate": "ratio",
    "server.revalidations_per_read": "ratio", "server.overhead_p50_ms": "ms",
    "server.ttfb_p50_ms": "ms", "server.encode_ns_per_row": "ns",
    "server.bytes_per_row": "bytes", "sparql.prepare_us": "us", "sparql.open_us": "us",
    "sparql.first_row_us": "us", "sparql.drain_stream_ms": "ms",
    "sparql.drain_mat_ms": "ms", "sparql.stream_ratio": "ratio",
    "sparql.allocs_per_row": "count", "engine.order_us": "us", "engine.explore_us": "us",
    "engine.search_us": "us", "engine.sig_prune_ratio": "ratio",
    "engine.region_yield": "ratio", "rdf.load_ms": "ms", "rdf.parse_ms": "ms",
    "rdf.merge_ms": "ms", "graph.build_ms": "ms", "graph.bytes_per_triple": "bytes",
    "store.base_index_ms": "ms", "store.update_p50_ms": "ms",
    "store.delta_read_ratio": "ratio", "store.delta_triples": "count",
    "store.compact_ms": "ms",
}
PER_LAYER_UNITS.update({"trace.overhead_" + n: u for n, u in END_TO_END})


def window_checks(window, report_before, report_after, live):
    """Checks a window's own validity; returns a list of problems."""
    problems = []
    for key in ("p50", "p90"):
        p = window[key]
        if not p["valid"]:
            problems.append("%s has %d samples beyond it (< 10) over %d samples"
                            % (key, p["beyond"], p["samples"]))
    if server_delta(report_before, report_after, "rejected"):
        problems.append("the server refused connections (503)")
    if live and report_after.get("compactions", 0):
        problems.append("a compaction ran while traffic was timed")
    return problems


def describe(tag, window, setups):
    log("%s window: %d completed (%d reads, %d updates), %d attempted, %d failed; "
        "p50 over %d samples (%d beyond), p90 (%d beyond); set-ups %s s; "
        "host spin probe %.1f ms before, %.1f ms after, CPU steal %.1f%%"
        % (tag, window["completed"], window["reads"], window["updates"], window["attempted"],
           window["failed"], window["p50"]["samples"], window["p50"]["beyond"],
           window["p90"]["beyond"], ", ".join("%.3f" % s for s in setups),
           window["spin_before_ms"], window["spin_after_ms"], window["steal_pct"]))
    log("  per-second completions: " + " ".join("%d" % x for x in window["slices"]))
    for name, c in sorted(window["classes"].items()):
        log("  %-7s n=%-6d p10 %.3f  p50 %.3f  p90 %.3f ms"
            % (name, c["n"], c["p10_ms"], c["p50_ms"], c["p90_ms"]))
    for e in window["errors"]:
        log("  error: " + e["e"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: no library sources under ./src")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)
    nt, catalog = inputs(binary, build_dir)

    run_dir = os.path.join(build_dir, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    stem = os.path.join(trace_dir, "%s-seed%d" % (args.workload, args.seed))
    paths = {"expect": os.path.join(run_dir, "expected.bin"), "catalog": catalog,
             "samples": stem + ".samples.txt",
             "client_spans": stem + ".client.json"}

    traced_run = bool(args.trace)
    reps = TRACE_SETUP_REPS if traced_run else SETUP_REPS
    server = None
    try:
        server = Server([binary, "serve", "--nt", nt, "--catalog", catalog,
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--reps", str(reps), "--expect", paths["expect"],
                         "--trace", str(args.trace)], timeout=100)
        port = int(server.ready["port"])
        setups_plain = [s["setup_s"] for s in server.ready["setups"] if not s["traced"]]
        setups_traced = [s["setup_s"] for s in server.ready["setups"] if s["traced"]]
        live = args.workload == "live-http"

        seconds = args.seconds / 2 if traced_run else args.seconds
        r0 = server.ask("report")
        plain = run_load(binary, port, paths, args, seconds, False, r0["updates"])
        r1 = server.ask("report")
        windows, reports = [plain], [r0, r1]
        if traced_run:
            traced = run_load(binary, port, paths, args, seconds, True, r1["updates"])
            r2 = server.ask("report")
            windows.append(traced)
            reports.append(r2)
            trace = server.ask("trace " + stem + ".server.json")
    finally:
        if server:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = []
    for i, w in enumerate(windows):
        describe("traced" if i else "untraced", w, setups_traced if i else setups_plain)
        problems += window_checks(w, reports[i], reports[i + 1], live)
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)

    e2e = end_to_end(setups_plain, plain, r1)
    print("perfbench %s seed %d: %s" % (args.workload, args.seed, ", ".join(
        "%s=%.6g" % (n, e2e[n]) for n, _ in END_TO_END)))
    print("perfbench host: spin probe %.1f ms before, %.1f ms after the window; "
          "CPU steal %.1f%% during it; p50/p90 over %d samples"
          % (plain["spin_before_ms"], plain["spin_after_ms"], plain["steal_pct"],
             plain["p50"]["samples"]))
    if traced_run:
        layers = per_layer(args, setups_plain, setups_traced, windows, reports, trace,
                           read_samples(paths["samples"]))
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    for p in problems:
        log("perfbench: check failed: " + p)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
