#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite-cold-1t --seed 1 \
        --seconds 30 --trace 0

It builds the library and the measurement driver into .bench_build/
(reused across runs), runs the driver, checks its outputs and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, measured with
tracing off. With --trace 1 they are the per-layer metrics of a traced
run. The line before it ("record {...}") carries the host facts and
sample counts needed to compare runs. METRICS.md describes every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchmath as bm  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DRIVER_TIMEOUT_S = 170

WORKLOADS = ("suite-cold-1t", "suite-warm-2t", "serve-open")
SUITES = ("suite-cold-1t", "suite-warm-2t")
KERNELS = ("fmi", "bsw", "dbg", "phmm", "nn-variant", "chain", "spoa",
           "kmer-cnt", "abea", "grm", "nn-base", "pileup")

# serve-open runs are invalid when the generator sends this late at p95,
# or when the backlog grows across the run (benchmath.backlog_grows).
LATE_P95_LIMIT_MS = 50.0

# serve-open figures set by the arrival schedule, not by how fast the
# host runs; they are not scaled to the reference host speed.
SCHEDULE_BOUND = ("wall_s", "jobs_per_s", "serve.late_p95_ms")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("prepare_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_mem_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("e2e_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
)


def per_layer_units():
    units = []
    for k in KERNELS:
        units += [(f"kernel.{k}.prepare_s", "s"), (f"kernel.{k}.run_s", "s"),
                  (f"kernel.{k}.cpu_s", "s"), (f"kernel.{k}.tasks", "count")]
    units += [("simdata.genome_s", "s"), ("simdata.reads_s", "s"),
              ("index.fm_build_s", "s"),
              ("kernel.fmi.prepare_attributed_frac", "ratio")]
    units += [("store.builds", "count"), ("store.hits", "count"),
              ("store.misses", "count"), ("store.flight_waits", "count"),
              ("store.build_s", "s")]
    units += [("pool.busy_s", "s"), ("pool.wait_s", "s"),
              ("pool.wait_frac", "ratio"), ("pool.imbalance", "ratio"),
              ("pool.chunks", "count"), ("pool.steals", "count")]
    for stage in ("queue_wait", "prepare", "run", "dispatch"):
        units += [(f"serve.{stage}_p50_ms", "ms"),
                  (f"serve.{stage}_p95_ms", "ms")]
    units += [("serve.e2e_p50_ms", "ms"),
              ("serve.tiny.e2e_p50_ms", "ms"), ("serve.small.e2e_p50_ms", "ms"),
              ("serve.peak_busy_workers", "count"),
              ("serve.backlog_max", "count"), ("serve.rejected", "count"),
              ("serve.failed", "count"), ("serve.late_p95_ms", "ms")]
    units += [("trace.overhead_frac", "ratio"), ("trace.dropped", "count")]
    return tuple(units)


PER_LAYER = per_layer_units()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the driver up to date (a no-op when it is)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   stdout=sys.stderr, check=True)


def run_driver(args, workdir):
    """Run the driver; its gb-metrics-v1 rows grouped by table."""
    out = os.path.join(workdir, "raw.json")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out]
    subprocess.run(cmd, stdout=sys.stderr, check=True,
                   timeout=DRIVER_TIMEOUT_S)
    with open(out) as f:
        doc = json.load(f)
    tables = {"meta": [doc["meta"]]}
    for row in doc["rows"]:
        tables.setdefault(row["table"], []).append(row)
    return tables


def load_spans(path):
    with open(path) as f:
        doc = json.load(f)
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def span_total_s(spans, name):
    return sum(e["dur"] for e in spans if e["name"] == name) * 1e-6


def within(spans, window):
    begin, end = window
    return [e for e in spans if begin <= e["ts"] <= end]


def measure_window(spans):
    measure = [e for e in spans if e["name"] == "pb:measure"]
    if len(measure) != 1:
        raise ValueError("trace has no single pb:measure span")
    return measure[0]["ts"], measure[0]["ts"] + measure[0]["dur"]


def ms(seconds):
    return seconds * 1e3


# ---------------------------------------------------------------- checks

def rows(raw, table, traced=None):
    """Rows of `table`; only traced or untraced ones when `traced` is set."""
    return [r for r in raw.get(table, [])
            if traced is None or r["traced"] == traced]


def kernel_runs(raw):
    """Every suite kernel run; the suites run every kernel at `small`."""
    return [dict(k, size="small") for k in rows(raw, "kernel")]


def serve_validity(raw):
    """Problems that make an open-loop run invalid (empty when valid)."""
    problems = []
    for traced in {r["traced"] for r in rows(raw, "run")}:
        jobs = rows(raw, "job", traced)
        late = [ms(j["sent_s"] - j["due_s"]) for j in jobs]
        if bm.quantile(late, 0.95) > LATE_P95_LIMIT_MS:
            problems.append("generator fell behind its schedule")
        if bm.backlog_grows([j["backlog"] for j in jobs]):
            problems.append("backlog grew across the run")
    return problems


# --------------------------------------------------------- end to end

def kernel_medians(raw, key):
    """Per kernel, the median of `key` over its untraced runs."""
    runs = rows(raw, "kernel", traced=False)
    return {k: statistics.median(r[key] for r in runs if r["name"] == k)
            for k in KERNELS}


def suite_end_to_end(raw):
    """A pass as the sum of every kernel's median over passes.

    Per-kernel medians keep a burst of host noise in one pass from
    moving the result as long as it hits each kernel in fewer than half
    of the passes.
    """
    passes = rows(raw, "pass", traced=False)
    latency = kernel_medians(raw, "latency_s")
    wall_s = sum(latency.values())
    per_kernel_ms = [ms(v) for v in latency.values()]
    return {
        "wall_s": wall_s,
        "prepare_s": sum(kernel_medians(raw, "prepare_s").values()),
        "run_s": sum(kernel_medians(raw, "run_s").values()),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_mem_mb": statistics.median(p["rss_max_mb"] for p in passes),
        "e2e_p95_ms": bm.quantile(per_kernel_ms, 0.95),
        "jobs_per_s": len(KERNELS) / wall_s,
    }, {"passes": len(passes), "latency_samples": len(per_kernel_ms),
        "beyond_p95": bm.samples_beyond(per_kernel_ms, 0.95),
        "p95_has_tail": bm.tail_ok(per_kernel_ms, 0.95)}


def kind_sum(jobs, key, stat=statistics.median):
    """Sum of `key` over `jobs`, each job counted at `stat` of its kind
    (class and kernel), so that one job slowed by a chance overlap does
    not move the total."""
    kinds = {}
    for j in jobs:
        kinds.setdefault((j["class"], j["kernel"]), []).append(j[key])
    return sum(len(v) * stat(v) for v in kinds.values())


def serve_end_to_end(raw):
    run = rows(raw, "run", traced=False)[0]
    jobs = rows(raw, "job", traced=False)
    done = [j for j in jobs if j["status"] == "done"]
    e2e = [ms(bm.e2e_s(j)) for j in done]
    return {
        "wall_s": run["wall_s"],
        "prepare_s": kind_sum(jobs, "prepare_s"),
        # At each kind's fastest run: how many of a kind's few heavy tiny
        # jobs overlapped others moved the median-based sum by 0.17-0.19
        # between runs (see METRICS.md).
        "run_s": kind_sum(jobs, "run_s", min),
        "cpu_s": run["cpu_s"],
        # Allocated heap, not resident memory: glibc's per-thread arenas
        # keep freed heap resident, and how much moved the resident
        # peak by 0.16-0.24 between runs (see METRICS.md).
        "peak_mem_mb": run["heap_max_mb"],
        "e2e_p95_ms": bm.quantile(e2e, 0.95),
        "jobs_per_s": len(done) / run["wall_s"],
    }, {"jobs": len(jobs), "latency_samples": len(e2e),
        "beyond_p95": bm.samples_beyond(e2e, 0.95),
        "p95_has_tail": bm.tail_ok(e2e, 0.95)}


# ---------------------------------------------------------- per layer

def zero_layers():
    return {name: 0.0 for name, _ in PER_LAYER}


def stage_layers(spans, m):
    genome = span_total_s(spans, "pb:simdata.genome")
    reads = span_total_s(spans, "pb:simdata.reads")
    fm_build = span_total_s(spans, "pb:index.fm_build")
    m["simdata.genome_s"] = genome
    m["simdata.reads_s"] = reads
    m["index.fm_build_s"] = fm_build
    m["kernel.fmi.prepare_attributed_frac"] = (
        (genome + reads + fm_build)
        / span_total_s(spans, "pb:kernel.fmi.prepare_ref"))


def speed(raw, traced):
    """Host speed over a run's probe slices (traced or untraced)."""
    return bm.host_speed([r["seconds"] for r in rows(raw, "probe", traced)])


def suite_layers(raw, spans, m):
    traced = rows(raw, "pass", traced=True)
    untraced = rows(raw, "pass", traced=False)
    n = len(traced)
    inside = within(spans, measure_window(spans))
    for k in KERNELS:
        runs = [r for r in rows(raw, "kernel", True) if r["name"] == k]
        m[f"kernel.{k}.prepare_s"] = span_total_s(inside, f"pb:prepare:{k}") / n
        m[f"kernel.{k}.run_s"] = span_total_s(inside, f"pb:run:{k}") / n
        m[f"kernel.{k}.cpu_s"] = sum(r["cpu_run_s"] for r in runs) / n
        m[f"kernel.{k}.tasks"] = runs[-1]["tasks"]
    for key in ("builds", "hits", "misses", "flight_waits"):
        m[f"store.{key}"] = sum(r[key] for r in rows(raw, "kernel", True)) / n
    m["store.build_s"] = span_total_s(inside, "cache:build") / n
    ranks = rows(raw, "pool")
    busy = [r["busy_s"] for r in ranks]
    wait = sum(r["wait_s"] for r in ranks)
    m["pool.busy_s"] = sum(busy) / n
    m["pool.wait_s"] = wait / n
    m["pool.wait_frac"] = wait / (sum(busy) + wait)
    m["pool.imbalance"] = max(busy) / statistics.fmean(busy)
    m["pool.chunks"] = sum(r["chunks"] for r in ranks) / n
    m["pool.steals"] = sum(r["steals"] for r in ranks) / n
    cpu_traced = statistics.fmean(p["cpu_s"] for p in traced)
    cpu_untraced = statistics.fmean(p["cpu_s"] for p in untraced)
    m["trace.overhead_frac"] = (cpu_traced * speed(raw, True)) / (
        cpu_untraced * speed(raw, False)) - 1.0
    return {"traced_passes": n}


def serve_layers(raw, spans, m):
    untraced = rows(raw, "run", traced=False)[0]
    traced = rows(raw, "run", traced=True)[0]
    jobs = rows(raw, "job", traced=True)
    stages = {"queue_wait": [ms(j["queue_s"]) for j in jobs],
              "prepare": [ms(j["prepare_s"]) for j in jobs],
              "run": [ms(j["run_s"]) for j in jobs],
              "dispatch": [ms(bm.dispatch_s(j)) for j in jobs]}
    for stage, values in stages.items():
        m[f"serve.{stage}_p50_ms"] = bm.quantile(values, 0.50)
        m[f"serve.{stage}_p95_ms"] = bm.quantile(values, 0.95)
    for k in KERNELS:
        mine = [j for j in jobs if j["kernel"] == k]
        m[f"kernel.{k}.prepare_s"] = sum(j["prepare_s"] for j in mine)
        m[f"kernel.{k}.run_s"] = sum(j["run_s"] for j in mine)
        m[f"kernel.{k}.tasks"] = sum(j["tasks"] for j in mine)
    for key in ("builds", "hits", "misses", "flight_waits"):
        m[f"store.{key}"] = traced[key]
    m["store.build_s"] = span_total_s(within(spans, measure_window(spans)),
                                      "cache:build")
    m["serve.e2e_p50_ms"] = bm.quantile(
        [ms(bm.e2e_s(j)) for j in jobs if j["status"] == "done"], 0.50)
    for cls in ("tiny", "small"):
        e2e = [ms(bm.e2e_s(j)) for j in jobs if j["class"] == cls]
        m[f"serve.{cls}.e2e_p50_ms"] = bm.quantile(e2e, 0.50)
    m["serve.peak_busy_workers"] = traced["peak_busy_workers"]
    m["serve.backlog_max"] = max(j["backlog"] for j in jobs)
    m["serve.rejected"] = traced["rejected"]
    m["serve.failed"] = traced["failed"]
    m["serve.late_p95_ms"] = bm.quantile(
        [ms(j["sent_s"] - j["due_s"]) for j in jobs], 0.95)

    def cpu_per_job(r):
        return r["cpu_s"] * speed(raw, r["traced"]) / max(1, r["completed"])
    m["trace.overhead_frac"] = cpu_per_job(traced) / cpu_per_job(untraced) - 1
    return {"traced_jobs": len(jobs),
            "dispatch_beyond_p95": bm.samples_beyond(stages["dispatch"],
                                                     0.95)}


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    build()
    workdir = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        raw = run_driver(args, workdir)
        spans = load_spans(raw["trace"][0]["file"]) if args.trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(HERE, "expected_tasks.json")) as f:
        expected = json.load(f)
    suite = args.workload in SUITES
    attempted, failed = bm.count_failures(kernel_runs(raw), rows(raw, "job"),
                                          raw["oracle"], expected)
    problems = [] if suite else serve_validity(raw)
    dropped = raw["trace"][0]["dropped"] if args.trace else 0
    if dropped:
        problems.append(f"trace dropped {dropped} events")
    correct = failed == 0 and not problems

    setup = [r["seconds"] for r in raw["setup"]]
    host = raw["host"][0]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_sha": git_sha(), "nproc": host["nproc"],
              "simd_level": raw["meta"][0]["simd_level"],
              "perf_counters": host["perf_counters"],
              "setup_samples": setup, "problems": problems,
              "oracle": raw["oracle"]}
    if args.trace:
        metrics = zero_layers()
        stage_layers(spans, metrics)
        counts = (suite_layers if suite else serve_layers)(raw, spans, metrics)
        metrics["trace.dropped"] = dropped
        units = PER_LAYER
    else:
        metrics, counts = (suite_end_to_end if suite else serve_end_to_end)(raw)
        metrics["setup_s"] = statistics.median(setup)
        metrics["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END
    record["samples"] = counts
    # Times at the reference host speed; the run record keeps the
    # figures as measured and the speed they were scaled by.
    host_speed = speed(raw, bool(args.trace))
    record["host_speed"] = host_speed
    record["as_measured"] = metrics
    metrics = bm.at_reference_speed(metrics, units, host_speed,
                                    () if suite else SCHEDULE_BOUND)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0 if correct else 1


def git_sha():
    """HEAD of the repository the benchmark sits in, else "unknown"."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


if __name__ == "__main__":
    sys.exit(main())
