"""Arithmetic of the repository benchmark, kept apart so it can be tested.

run.py turns the measurement driver's raw records into metrics with
these functions; test_benchmath.py checks them.
"""

import math
import statistics

# Seconds one host-speed probe slice (probeSeconds in driver.cc) takes
# on the reference host (4 vCPUs of an Intel Xeon with AVX2) at its
# usual speed. Work times are reported as if the host ran at that speed.
PROBE_REF_S = 0.0025

# A percentile is reported only when at least this many samples lie
# beyond it (p95 therefore needs 200 samples).
MIN_TAIL_SAMPLES = 10


def quantile(values, q):
    """q-quantile (0 <= q <= 1) with linear interpolation between ranks."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(values, q):
    """Number of samples strictly greater than the q-quantile."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)


def min_samples_for(q):
    """Smallest sample count with MIN_TAIL_SAMPLES beyond the q-quantile."""
    return math.ceil(MIN_TAIL_SAMPLES / (1.0 - q) - 1e-9)


def tail_ok(values, q):
    """True when the q-quantile of `values` has enough samples beyond it."""
    return len(values) >= min_samples_for(q)


def e2e_s(job):
    """Open-loop latency: from the job's due time, not its send time."""
    return job["done_s"] - job["due_s"]


def count_failures(kernel_runs, jobs, oracles, expected_tasks):
    """(attempted, failed) over kernel runs, serve jobs and oracle families.

    A kernel run fails when it threw or returned another task count than
    expected for its (kernel, size). A serve job fails unless it ended
    done with the expected task count (rejected, failed and cancelled
    jobs all fail). Each oracle family counts once and fails on any
    mismatch.
    """
    attempted = 0
    failed = 0
    for run in kernel_runs:
        attempted += 1
        want = expected_tasks[run["size"]][run["name"]]
        if run["error"] or run["tasks"] != want:
            failed += 1
    for job in jobs:
        attempted += 1
        want = expected_tasks[job["size"]][job["kernel"]]
        if job["status"] != "done" or job["tasks"] != want:
            failed += 1
    for oracle in oracles:
        attempted += 1
        if oracle["mismatches"] != 0 or oracle["cases"] == 0:
            failed += 1
    return attempted, failed


def backlog_grows(backlogs, slack=5.0):
    """True when the queue backlog grew across an open-loop run.

    Compares the mean backlog seen at send times in the last third of the
    run with the first third. A stable system below capacity keeps both
    near the same small value; an overloaded one grows linearly.
    """
    n = len(backlogs)
    if n < 3:
        return False
    third = n // 3
    first = statistics.fmean(backlogs[:third])
    last = statistics.fmean(backlogs[-third:])
    return last - first > slack


def dispatch_s(job):
    """A serve job's time outside its queue wait, prepare and run.

    Its send-to-done time minus the three stage times the scheduler
    reports through JobHandle::metrics(): what dispatch, per-job pool
    set-up and hand-back cost. It is measured from the send, not the due
    time, so generator lateness (serve.late_p95_ms) stays out of it.
    """
    return ((job["done_s"] - job["sent_s"]) - job["queue_s"]
            - job["prepare_s"] - job["run_s"])


def host_speed(probe_seconds):
    """How fast the host ran during a run: reference probe time over the
    median probe time (below 1 when the host ran slow)."""
    return PROBE_REF_S / statistics.median(probe_seconds)


def at_reference_speed(metrics, units, speed, keep=()):
    """`metrics` as if measured at the reference host speed.

    Times (units s and ms) are multiplied by `speed` and rates (1/s)
    divided by it; counts, ratios, sizes and the names in `keep` are
    left as measured.
    """
    out = dict(metrics)
    for name, unit in units:
        if name in keep:
            continue
        if unit in ("s", "ms"):
            out[name] = metrics[name] * speed
        elif unit == "1/s":
            out[name] = metrics[name] / speed
    return out
