#!/usr/bin/env bash
# Full pre-merge check: tier-1 build + tests, the SIMD, batched-MLP,
# chain, poa, nn, grm and abea equivalence suites at every dispatch
# level (GB_SIMD_LEVEL=scalar|sse4|avx2), the GEMM and abea
# equivalence tests in a -march=native (FMA-capable) build, the
# gb::store, gb::simd, gb::mlp, gb::chain, gb::poa, nn, grm and abea
# test suites under ASan/UBSan, the
# thread-pool and metrics suites
# under TSan, a metrics smoke test (--json emission validated by
# scripts/bench_compare.py), the mlp ablation benches (self-verifying),
# a benchmark-baseline comparison against
# baselines/gb-metrics-v1.tiny.json (tolerance via GB_BENCH_TOLERANCE,
# percent), an end-to-end artifact-cache smoke test (store build ->
# store verify -> warm bench run + corruption and bad-flag rejection
# checks), a gb::serve smoke test (8-job list through the scheduler, JSON
# validated, single-flight prepare asserted), a chain + pileup serve
# smoke (one artifact build per family), a gb::net loopback
# smoke (`serve --listen` driven by the `client` subcommand over
# 127.0.0.1, priority dispatch order asserted from the JSON), and a
# gb::trace smoke riding on the net run: --trace must produce valid
# Perfetto JSON covering every instrumented layer with zero dropped
# events, submit->done coverage for all 8 jobs, and non-zero latency
# percentile columns on the serve_summary row (docs/tracing.md), bad
# flag values on the bench binaries and the CLI (exit 2, no stray
# std:: exception text), and the benchmark's own math self-tests
# (perfbench/test_benchmath.py).
#
# Usage: scripts/check.sh [--skip-sanitizers]
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD
JOBS=$(nproc 2>/dev/null || echo 4)
SKIP_SAN=0
[[ "${1:-}" == "--skip-sanitizers" ]] && SKIP_SAN=1

step() { printf '\n== %s ==\n' "$*"; }

# ----------------------------------------------------------------- tier 1
step "tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

step "tier-1: ctest"
(cd build && ctest --output-on-failure -j"$JOBS")

# ------------------------------------------------- SIMD dispatch levels
# The equivalence property test re-runs under every GB_SIMD_LEVEL so a
# host with AVX2 still exercises the SSE4 and scalar dispatch paths
# (the env override clamps to what the CPU supports, so this is safe
# on any machine).
step "gb::simd + gb::mlp + chain/poa/nn/grm/abea: equivalence at every dispatch level"
for level in scalar sse4 avx2; do
    echo "-- GB_SIMD_LEVEL=$level"
    GB_SIMD_LEVEL=$level ./build/tests/test_simd
    GB_SIMD_LEVEL=$level ./build/tests/test_mlp --gtest_brief=1
    GB_SIMD_LEVEL=$level ./build/tests/test_chain --gtest_brief=1
    GB_SIMD_LEVEL=$level ./build/tests/test_poa --gtest_brief=1
    GB_SIMD_LEVEL=$level ./build/tests/test_nn --gtest_brief=1
    GB_SIMD_LEVEL=$level ./build/tests/test_grm --gtest_brief=1
    GB_SIMD_LEVEL=$level ./build/tests/test_abea --gtest_brief=1
done

# The GEMM and the abea engine are bit-identical to their scalar
# oracles only while every multiply and add rounds separately. A
# -march=native build enables FMA, so this tree proves the
# -ffp-contract=off guards hold: the GEMM tests, the nn, grm and abea
# golden outputs recorded in the default build, and the abea
# engine-vs-oracle tests.
step "gb::simd GEMM + abea: bit-identity in a GB_NATIVE=ON build"
cmake -B build-native -S . -DGB_NATIVE=ON >/dev/null
cmake --build build-native -j"$JOBS" --target test_simd test_nn test_grm \
    test_abea
for level in scalar sse4 avx2; do
    GB_SIMD_LEVEL=$level ./build-native/tests/test_simd \
        --gtest_filter='SimdGemm.*' --gtest_brief=1
    GB_SIMD_LEVEL=$level ./build-native/tests/test_nn \
        --gtest_filter='NnGolden.*' --gtest_brief=1
    GB_SIMD_LEVEL=$level ./build-native/tests/test_grm \
        --gtest_filter='GrmGolden.*' --gtest_brief=1
    GB_SIMD_LEVEL=$level ./build-native/tests/test_abea \
        --gtest_filter='AbeaGolden.*:SimdAbea.*' --gtest_brief=1
done

# ------------------------------------------------------- sanitizer build
if [[ $SKIP_SAN -eq 0 ]]; then
    step "ASan/UBSan: build + run store + simd + mlp + chain + poa + nn + grm + abea tests"
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
        >/dev/null
    cmake --build build-asan -j"$JOBS" --target test_store test_simd \
        test_mlp test_chain test_poa test_nn test_grm test_abea
    ./build-asan/tests/test_store
    for level in scalar sse4 avx2; do
        GB_SIMD_LEVEL=$level ./build-asan/tests/test_simd \
            --gtest_brief=1
        GB_SIMD_LEVEL=$level ./build-asan/tests/test_mlp \
            --gtest_brief=1
        GB_SIMD_LEVEL=$level ./build-asan/tests/test_chain \
            --gtest_brief=1
        GB_SIMD_LEVEL=$level ./build-asan/tests/test_poa \
            --gtest_brief=1
        GB_SIMD_LEVEL=$level ./build-asan/tests/test_nn \
            --gtest_brief=1
        GB_SIMD_LEVEL=$level ./build-asan/tests/test_grm \
            --gtest_brief=1
        GB_SIMD_LEVEL=$level ./build-asan/tests/test_abea \
            --gtest_brief=1
    done
fi

# ------------------------------------------------------- TSan build
# The thread pool hands out chunks from a shared cursor and writes
# per-rank telemetry slots from worker threads, the gb::serve
# scheduler runs jobs on detached runner threads over a shared worker
# budget, the gb::net server multiplexes session threads, an accept
# loop and wake pipes over one scheduler, and gb::trace records into
# per-thread rings from all of the above; TSan proves the pool's job
# start/finish protocol and accounting, the metrics plumbing, the
# serving layer, the network layer and the trace recorder are
# race-free.
if [[ $SKIP_SAN -eq 0 ]]; then
    step "TSan: build + run thread-pool, metrics, serve, net and trace tests"
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
        >/dev/null
    cmake --build build-tsan -j"$JOBS" --target test_util test_metrics \
        test_serve test_net test_trace
    # The randomized scheduler stress first (skewed and throwing
    # bodies — docs/threading.md), then the full suites.
    ./build-tsan/tests/test_util \
        --gtest_filter='ThreadPool.SchedulerStress*'
    ./build-tsan/tests/test_util --gtest_brief=1
    ./build-tsan/tests/test_metrics --gtest_brief=1
    ./build-tsan/tests/test_serve --gtest_brief=1
    ./build-tsan/tests/test_net --gtest_brief=1
    ./build-tsan/tests/test_trace --gtest_brief=1
fi

# ------------------------------------------------------- metrics smoke
# Every bench binary emits gb-metrics-v1 JSON via --json=FILE;
# bench_compare.py is the consumer (docs/metrics.md). Emit from a
# google-benchmark binary and a table binary, validate both, and prove
# the self-comparison gate passes on identical runs.
step "metrics: JSON emission -> bench_compare.py"
MDIR=$(mktemp -d)
./build/bench/bench_kernels --size=tiny --json="$MDIR/kernels.json" \
    --benchmark_filter='bsw' >/dev/null
python3 scripts/bench_compare.py --self-check "$MDIR/kernels.json"
./build/bench/bench_fig4_task_imbalance --size=tiny --kernels=bsw \
    --json="$MDIR/fig4.json" >/dev/null
python3 scripts/bench_compare.py --self-check "$MDIR/fig4.json"
python3 scripts/bench_compare.py "$MDIR/fig4.json" "$MDIR/fig4.json"

# --------------------------------------------------- mlp ablation smoke
# Both ablation benches verify their engine outputs against the scalar
# reference internally and exit non-zero on any mismatch, so a plain
# tiny-size invocation doubles as a correctness gate for the batched
# FM-index and prefetch-pipelined k-mer paths.
step "mlp ablations: occ-spacing + kmer-prefetch smoke (tiny)"
./build/bench/bench_ablation_fmi_occ --size=tiny
./build/bench/bench_ablation_kmer_prefetch --size=tiny

# --------------------------------------------- chain simd ablation smoke
# Sweeps anchor density (minimizer window) and times scalar vs simd
# chaining; the binary bit-compares the chains per density and exits
# non-zero on any divergence, so this is also a correctness gate.
step "chain ablation: anchor density x engine smoke (tiny)"
./build/bench/bench_ablation_chain_simd --size=tiny

# --------------------------------------------------- benchmark baseline
# Compare a fresh tiny run of the four SIMD-enabled kernels against the
# committed baseline. The structural assertion is the strong one: every
# baseline row (engine:scalar AND engine:simd, threads 1 and 4) must
# exist in the fresh run or bench_compare.py fails. The timing gate is
# deliberately loose by default because tiny runs are ms-scale and this
# check must pass on shared/noisy hosts; tighten with GB_BENCH_TOLERANCE
# (percent) on a quiet machine.
step "baseline: bench_kernels tiny vs baselines/gb-metrics-v1.tiny.json"
./build/bench/bench_kernels --size=tiny --json="$MDIR/kernels_tiny.json" \
    --benchmark_filter='(bsw|phmm|fmi|kmer-cnt|chain|spoa)/' >/dev/null
python3 scripts/bench_compare.py baselines/gb-metrics-v1.tiny.json \
    "$MDIR/kernels_tiny.json" --tolerance "${GB_BENCH_TOLERANCE:-400}"
rm -rf "$MDIR"

# ------------------------------------------------------ cache smoke test
step "artifact cache: build -> verify -> warm run"
GB=./build/tools/genomicsbench
CACHE=$(mktemp -d)
trap 'rm -rf "$CACHE"' EXIT

"$GB" store build --cache-dir="$CACHE" --size=tiny
"$GB" store verify --cache-dir="$CACHE"

# Warm run must hit the cache for every cached kernel.
"$GB" run fmi --size=tiny --cache-dir="$CACHE" | tee /tmp/gb_warm.txt
grep -q "1 hit" /tmp/gb_warm.txt || {
    echo "FAIL: warm run did not hit the artifact cache" >&2
    exit 1
}

# Engine equivalence: chain and spoa under --engine=simd must report
# exactly the task counters of the --engine=scalar runs (the SIMD
# kernels are bit-identical to the scalar DP, so the work decomposition
# cannot change — docs/simd.md).
step "engine: run chain/spoa --engine=simd counters match scalar"
for kernel in chain spoa; do
    "$GB" run "$kernel" --size=tiny --repeat=2 \
        --json=/tmp/gb_eng_scalar.json >/dev/null
    "$GB" run "$kernel" --size=tiny --repeat=2 --engine=simd \
        --json=/tmp/gb_eng_simd.json >/dev/null
    python3 - "$kernel" /tmp/gb_eng_scalar.json /tmp/gb_eng_simd.json <<'EOF'
import json, sys
def tasks(path):
    doc = json.load(open(path))
    rows = [r for r in doc["rows"] if r["table"] == "run"]
    assert rows, f"{path}: no run rows"
    return sorted(r["tasks"] for r in rows)
scalar, simd = tasks(sys.argv[2]), tasks(sys.argv[3])
assert scalar == simd, \
    f"{sys.argv[1]}: task counters diverge: {scalar} vs {simd}"
print(f"engine smoke ok: {sys.argv[1]} tasks {scalar} under both engines")
EOF
done

# A flipped byte must be caught by store verify (exit 1).
victim=$(ls "$CACHE"/fmi-*.gbs | head -1)
python3 - "$victim" <<'EOF'
import sys
path = sys.argv[1]
with open(path, "r+b") as f:
    f.seek(100)
    byte = f.read(1)
    f.seek(100)
    f.write(bytes([byte[0] ^ 0x40]))
EOF
if "$GB" store verify "$victim" >/dev/null 2>&1; then
    echo "FAIL: store verify accepted a corrupted file" >&2
    exit 1
fi
echo "corruption detected as expected"

# ------------------------------------------------------ serve smoke
# Run a small job list through the gb::serve scheduler against a fresh
# cache: every job must complete, the JSON must validate, and the
# single-flight cache must have collapsed the 8 concurrent fmi
# prepares into exactly one artifact build.
step "serve: 8-job list -> scheduler -> gb-metrics-v1 + dedup check"
SERVE_CACHE=$(mktemp -d)
SERVE_JOBS=$(mktemp)
for _ in 1 2 3 4 5 6 7 8; do
    echo "fmi size=tiny threads=1" >> "$SERVE_JOBS"
done
"$GB" serve --jobs="$SERVE_JOBS" --workers=4 \
    --cache-dir="$SERVE_CACHE" --json=/tmp/gb_serve.json
python3 scripts/bench_compare.py --self-check /tmp/gb_serve.json
python3 - /tmp/gb_serve.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = [r for r in doc["rows"] if r["table"] == "serve_summary"]
assert len(rows) == 1, f"expected 1 serve_summary row, got {len(rows)}"
summary = rows[0]
assert summary["completed"] == 8, summary
assert summary["cache_builds"] == 1, \
    f"single-flight violated: {summary['cache_builds']} builds"
jobs = [r for r in doc["rows"] if r["table"] == "serve_job"]
assert len(jobs) == 8 and all(j["status"] == "done" for j in jobs)
print("serve smoke ok: 8/8 jobs done, 1 artifact build")
EOF
rm -rf "$SERVE_CACHE" "$SERVE_JOBS"

# ------------------------------------------- serve chain/pileup smoke
# The chain anchors and pileup alignment records are store artifacts
# too: 4 concurrent chain and 2 concurrent pileup prepares against a
# fresh cache must collapse into one build per family, and every job
# must still finish.
step "serve: chain + pileup jobs -> one artifact build per family"
SERVE_CACHE=$(mktemp -d)
SERVE_JOBS=$(mktemp)
for _ in 1 2 3 4; do
    echo "chain size=tiny threads=1" >> "$SERVE_JOBS"
done
for _ in 1 2; do
    echo "pileup size=tiny threads=1" >> "$SERVE_JOBS"
done
"$GB" serve --jobs="$SERVE_JOBS" --workers=4 \
    --cache-dir="$SERVE_CACHE" --json=/tmp/gb_serve_cp.json >/dev/null
python3 - /tmp/gb_serve_cp.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
summary = [r for r in doc["rows"] if r["table"] == "serve_summary"][0]
assert summary["completed"] == 6, summary
assert summary["cache_builds"] == 2, \
    f"single-flight violated: {summary['cache_builds']} builds"
jobs = [r for r in doc["rows"] if r["table"] == "serve_job"]
assert len(jobs) == 6 and all(j["status"] == "done" for j in jobs)
print("serve chain/pileup smoke ok: 6/6 jobs done, 2 artifact builds")
EOF
rm -rf "$SERVE_CACHE" "$SERVE_JOBS" /tmp/gb_serve_cp.json

# ------------------------------------------------ network serve smoke
# Start `serve --listen` on an ephemeral loopback port, drive a mixed-
# priority 8-job list through the `client` subcommand (DRAIN at the
# end shuts the server down), then assert from the server's JSON that
# (a) all jobs completed with one artifact build and (b) the dispatch
# order respected the priority classes: job 1 (high, repeats=40) pins
# the single worker while the other 7 queue, so every later dispatch
# must come out high -> normal -> batch regardless of submission
# order.
step "net: serve --listen + client over 127.0.0.1, priority order"
NET_CACHE=$(mktemp -d)
NET_JOBS=$(mktemp)
NET_LOG=$(mktemp)
{
    echo "fmi size=tiny threads=1 repeats=40 priority=high"
    echo "fmi size=tiny threads=1 priority=batch"
    echo "fmi size=tiny threads=1 priority=normal"
    echo "fmi size=tiny threads=1 priority=high"
    echo "fmi size=tiny threads=1 priority=batch"
    echo "fmi size=tiny threads=1 priority=normal"
    echo "fmi size=tiny threads=1 priority=high"
    echo "fmi size=tiny threads=1 priority=batch"
} > "$NET_JOBS"
"$GB" serve --listen=127.0.0.1:0 --workers=1 \
    --cache-dir="$NET_CACHE" --json=/tmp/gb_net_serve.json \
    --trace=/tmp/gb_trace.json \
    > "$NET_LOG" 2>&1 &
NET_PID=$!
NET_PORT=
for _ in $(seq 1 100); do
    NET_PORT=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "$NET_LOG")
    [[ -n "$NET_PORT" ]] && break
    sleep 0.1
done
if [[ -z "$NET_PORT" ]]; then
    echo "FAIL: serve --listen did not come up" >&2
    cat "$NET_LOG" >&2
    kill "$NET_PID" 2>/dev/null || true
    exit 1
fi
"$GB" client --connect=127.0.0.1:"$NET_PORT" --jobs="$NET_JOBS" --drain
wait "$NET_PID"
python3 scripts/bench_compare.py --self-check /tmp/gb_net_serve.json
python3 - /tmp/gb_net_serve.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
summary = [r for r in doc["rows"] if r["table"] == "serve_summary"][0]
assert summary["completed"] == 8, summary
assert summary["cache_builds"] == 1, \
    f"single-flight violated: {summary['cache_builds']} builds"
jobs = [r for r in doc["rows"] if r["table"] == "serve_job"]
assert len(jobs) == 8 and all(j["status"] == "done" for j in jobs)
seqs = sorted(j["dispatch_seq"] for j in jobs)
assert seqs == list(range(1, 9)), f"bad dispatch seqs: {seqs}"
# Strict class order for everything queued behind the first dispatch.
rank = {"high": 0, "normal": 1, "batch": 2}
ordered = sorted(jobs, key=lambda j: j["dispatch_seq"])[1:]
classes = [rank[j["priority"]] for j in ordered]
assert classes == sorted(classes), \
    f"priority order violated: {[j['priority'] for j in ordered]}"
print("net smoke ok: 8/8 jobs done over TCP, 1 build, "
      f"dispatch classes {classes}")
EOF
rm -rf "$NET_CACHE" "$NET_JOBS" "$NET_LOG"

# ------------------------------------------------------- trace smoke
# The net smoke above ran with --trace, so its timeline exercises every
# instrumented layer at once: scheduler lifecycle (serve), single-
# flight prepare (cache), TCP sessions (net), worker participation
# (pool) and kernel phases (kernel). Validate the Perfetto JSON
# end-to-end and assert the serve_summary latency percentiles are
# populated; `trace inspect` must digest the same file.
step "trace: Perfetto JSON covers all layers, latency columns non-zero"
python3 - /tmp/gb_trace.json /tmp/gb_net_serve.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
other = doc["otherData"]
assert other["dropped_events"] == 0, f"dropped events: {other}"
spans = [e for e in events if e.get("ph") == "X"]
instants = [e for e in events if e.get("ph") == "i"]
assert spans and instants, f"empty trace: {other}"
for e in spans:
    assert e["dur"] >= 0, f"negative span duration: {e}"
cats = {e["cat"] for e in spans} | {e["cat"] for e in instants}
for cat in ("serve", "cache", "net", "pool", "kernel"):
    assert cat in cats, f"no {cat} events in trace, got {sorted(cats)}"
# Every admitted job has submit -> terminal coverage.
def jobs_with(name):
    return {e["args"]["job"] for e in instants if e["name"] == name}
submits = jobs_with("job:submit")
dones = jobs_with("job:done")
assert submits == set(range(1, 9)), f"submit coverage: {sorted(submits)}"
assert dones == submits, \
    f"done coverage: {sorted(dones)} vs {sorted(submits)}"
summary = [r for r in json.load(open(sys.argv[2]))["rows"]
           if r["table"] == "serve_summary"][0]
for key in ("queue_wait_p50_ms", "queue_wait_p95_ms",
            "queue_wait_p99_ms", "e2e_p50_ms", "e2e_p95_ms",
            "e2e_p99_ms"):
    assert summary[key] > 0, f"{key} not populated: {summary.get(key)}"
print(f"trace smoke ok: {len(spans)} spans + {len(instants)} instants, "
      "0 dropped, all 5 layers covered, latency columns non-zero")
EOF
"$GB" trace inspect /tmp/gb_trace.json --top=5
rm -f /tmp/gb_trace.json

# ------------------------------------------------- CLI error handling
step "bench CLI: unknown flags and bad values are rejected"
set +e
./build/bench/bench_table2_overview --thread=8 >/dev/null 2>/tmp/gb_flag.txt
status=$?
set -e
if [[ $status -ne 2 ]] || ! grep -q "did you mean --threads" /tmp/gb_flag.txt; then
    echo "FAIL: --thread=8 was not rejected with a suggestion" >&2
    cat /tmp/gb_flag.txt >&2
    exit 1
fi
echo "bad flag rejected with: $(cat /tmp/gb_flag.txt | head -1)"

# Every bad number or empty path exits 2 with a message naming the
# flag, never a std:: exception text or an abort, and counts above the
# thread cap are refused while parsing (no thread is started).
probe() {
    local flag=$1
    shift
    set +e
    "$@" >/dev/null 2>/tmp/gb_flag.txt
    local status=$?
    set -e
    if [[ $status -ne 2 ]] || ! grep -q -- "$flag" /tmp/gb_flag.txt ||
        grep -qE 'std::|stoul|stod|terminate' /tmp/gb_flag.txt; then
        echo "FAIL: '$*' exited $status:" >&2
        cat /tmp/gb_flag.txt >&2
        exit 1
    fi
    echo "rejected '$*': $(head -1 /tmp/gb_flag.txt)"
}
cli_probe() {
    local flag=$1
    shift
    probe "$flag" "$GB" "$@"
}
probe "error: unknown engine" ./build/bench/bench_kernels --engine=bogus
probe --json ./build/bench/bench_kernels --json=
cli_probe --json run dbg --size=tiny --json=
cli_probe --cache-dir run dbg --size=tiny --cache-dir=
cli_probe --threads run dbg --size=tiny --threads=-1
cli_probe --threads run dbg --size=tiny --threads=abc
cli_probe --threads run dbg --size=tiny --threads=1025
cli_probe --repeat run dbg --size=tiny --repeat=0
cli_probe --workers serve --jobs=/dev/null --workers=100000
cli_probe --queue-depth serve --jobs=/dev/null --queue-depth=-1
cli_probe --wait-timeout client --connect=127.0.0.1:1 --jobs=/dev/null \
    --wait-timeout=soon
cli_probe --top trace inspect /dev/null --top=-5
for help in --help -h; do
    usage_text=$("$GB" run "$help")
    grep -q "usage:" <<< "$usage_text" || {
        echo "FAIL: run $help did not print usage" >&2
        exit 1
    }
done
echo "run --help and -h print usage and exit 0"

# ------------------------------------------------ benchmark self-tests
# The repository benchmark's statistics (percentile tail rule, dispatch
# subtraction, failure counting, host-speed scaling) and its
# BENCHMARK.json <-> run.py consistency.
step "perfbench: benchmark math self-tests"
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench

step "all checks passed"
