/**
 * @file
 * Measurement driver of the repository benchmark (perfbench/run.py).
 *
 * It drives the library only through public entry points and writes
 * raw per-operation records as one gb-metrics-v1 document (one row per
 * set-up, pass, kernel call, serve job, pool rank and oracle family);
 * run.py turns them into the reported metrics. Workloads:
 *
 *   suite-cold-1t  all 12 kernels at `small`, 1 thread, a fresh empty
 *                  artifact cache per kernel: construct -> prepare ->
 *                  repeats, kernel order permuted by the seed.
 *   suite-warm-2t  the same kernels on a 2-thread pool with the
 *                  artifact cache built during set-up.
 *   serve-open     an in-process serve::Scheduler (4 workers) fed by
 *                  one generator thread on an open loop: seeded
 *                  Poisson arrivals at a fixed rate, 90% tiny jobs
 *                  over all kernels and 10% small chain/pileup/
 *                  kmer-cnt jobs.
 *
 * With --trace 1 the first half of the time runs untraced and the
 * second half under gb::trace; the benchmark records its own spans
 * ("pb:*") around every call into a layer and exports the ring
 * contents (with the program's own spans) to a Chrome trace file.
 *
 * After the timed region the public SIMD entry points are compared
 * with their scalar oracles on a fixed tiny sample.
 *
 * Usage:
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    --workdir DIR --out FILE
 *   perfbench_driver --workload serve-burst --seconds S --workdir DIR
 *                    --out FILE     (serve capacity, for calibration)
 */
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "align/banded_sw.h"
#include "arch/probe.h"
#include "chain/chain.h"
#include "core/benchmark.h"
#include "index/fm_index.h"
#include "io/dna.h"
#include "metrics/metrics_sink.h"
#include "metrics/perf_counters.h"
#include "mlp/fmi_batch.h"
#include "phmm/pairhmm.h"
#include "serve/scheduler.h"
#include "simd/bsw_engine.h"
#include "simd/chain_engine.h"
#include "simd/phmm_engine.h"
#include "simd/simd.h"
#include "simdata/genome.h"
#include "simdata/reads.h"
#include "simdata/variants.h"
#include "store/cache.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fs = std::filesystem;
using namespace gb;

namespace {

using Clock = std::chrono::steady_clock;
using Sink = metrics::MetricsSink;

// Offered load of serve-open, jobs per second: at most 45% of the
// serve-burst capacity of the 4-worker scheduler on the reference host
// (19.4 jobs/s with an earlier, heavier tiny mix). At 70% the queueing
// amplified host-speed drift into run-to-run median-latency spreads of
// 0.2-0.4 (see METRICS.md). Fixed, so that every commit is offered the
// same traffic.
constexpr double kServeRate = 9.0;
constexpr unsigned kServeWorkers = 4;
constexpr size_t kServeQueueDepth = 4096;
// Small jobs: one in ten, split chain:pileup:kmer-cnt = 8:1:1 (see
// planServe). With 6:2:2 the p95 of all jobs sat near the boundary
// between chain and the rest, and tiny jobs beside a pileup prepare or
// a kmer-cnt run slowed by up to 2-3x (a chain prepare: ~15%), which
// moved every tiny latency with the chance overlaps of a run.
constexpr double kSmallShare = 0.10;
// Tiny jobs beyond one per kernel in every block of 36 tiny jobs: grm
// 13 more times and dbg 11 more. Tiny latencies form one cluster per
// kernel; grm then makes up 35% of all jobs, with dbg and fmi (32.5%)
// faster and the rest (32.5%) slower, so the median job
// (serve.e2e_p50_ms) is a grm job in the middle of its own cluster
// rather than on the gap between two clusters (see METRICS.md).
const std::vector<std::string> kTinyExtra = {
    "grm", "grm", "grm", "grm", "grm", "grm", "grm", "grm", "grm",
    "grm", "grm", "grm", "grm", "dbg", "dbg", "dbg", "dbg", "dbg",
    "dbg", "dbg", "dbg", "dbg", "dbg", "dbg"};
// Set-up is repeated this many times per run; run.py reports the
// median.
constexpr int kSetupReps = 3;
// Pool size of suite-warm-2t: half the reference host's 4 vCPUs. With
// all 4, a parallel run waits at its barrier for any vCPU the hypervisor
// takes away, and whole runs slowed by 1.2-1.7x (see METRICS.md).
constexpr unsigned kWarmThreads = 2;
// Kernels whose prepare() goes through store::globalCache(); the warm
// suite builds their artifacts during set-up.
const std::vector<std::string> kStoreKernels = {"fmi", "kmer-cnt",
                                                "abea"};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Iterations of one host-speed probe slice (about 2.5 ms on the
// reference host).
constexpr u64 kProbeIters = u64{1} << 20;
volatile u64 probe_sink = 0;

/**
 * Seconds for a fixed chain of dependent integer operations that calls
 * no library code: a probe of how fast the host runs right now. Cycle
 * counters are unavailable on the reference host and its speed drifts
 * with load from other tenants, so run.py scales work times and
 * latencies by the probe's speed (see METRICS.md).
 */
double
probeSeconds()
{
    const auto t0 = Clock::now();
    u64 x = 0x9E3779B97F4A7C15ull;
    u64 acc = 0;
    for (u64 i = 0; i < kProbeIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += x >> 61;
    }
    probe_sink = acc;
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Resident memory right now, from /proc/self/statm. */
double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    u64 pages = 0;
    u64 resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Heap bytes the program has allocated and not freed, in MiB. */
double
currentHeapMb()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/** Highest memory figures seen by a MemSampler, in MiB. */
struct MemPeaks
{
    double rss_mb = 0.0;  ///< resident set
    double heap_mb = 0.0; ///< allocated heap, free heap not counted
};

/**
 * Samples resident memory and allocated heap every 5 ms on its own
 * thread until stop(), which returns the highest of each.
 */
class MemSampler
{
  public:
    MemSampler()
    {
        thread_ = std::thread([this] { loop(); });
    }
    ~MemSampler() { stop(); }
    MemSampler(const MemSampler&) = delete;
    MemSampler& operator=(const MemSampler&) = delete;

    MemPeaks
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) thread_.join();
        return peaks_;
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(m_);
        for (;;) {
            peaks_.rss_mb = std::max(peaks_.rss_mb, currentRssMb());
            peaks_.heap_mb = std::max(peaks_.heap_mb, currentHeapMb());
            if (done_) return;
            cv_.wait_for(lock, std::chrono::milliseconds(5),
                         [this] { return done_; });
        }
    }

    MemPeaks peaks_;    ///< guarded by m_
    bool done_ = false; ///< guarded by m_
    std::mutex m_;
    std::condition_variable cv_;
    std::thread thread_;
};

/** Interned span name, or 0 (inert span) while tracing is off. */
u32
spanName(const std::string& name)
{
    return trace::enabled() ? trace::internName(name) : 0u;
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;
    std::string out;
};

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        requireInput(i + 1 < argc, "missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
        } else if (flag == "--trace") {
            requireInput(v == "0" || v == "1", "--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--workdir") {
            a.workdir = v;
        } else if (flag == "--out") {
            a.out = v;
        } else {
            throw InputError("unknown flag " + flag);
        }
    }
    requireInput(!a.workload.empty() && !a.workdir.empty() &&
                     !a.out.empty(),
                 "need --workload, --workdir and --out");
    requireInput(a.seconds > 0.0, "--seconds must be > 0");
    return a;
}

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T>& v, Rng& rng)
{
    for (size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1], v[rng.below(i)]);
    }
}

struct StoreCounts
{
    u64 builds = 0;
    u64 hits = 0;
    u64 misses = 0;
    u64 flight_waits = 0;
};

StoreCounts
storeCounts()
{
    const auto& c = store::globalCache();
    return {c.builds(), c.hits(), c.misses(), c.flightWaits()};
}

void
addStore(Sink::Row& row, const StoreCounts& before, const StoreCounts& after)
{
    row.count("builds", after.builds - before.builds)
        .count("hits", after.hits - before.hits)
        .count("misses", after.misses - before.misses)
        .count("flight_waits", after.flight_waits - before.flight_waits);
}

// ---------------------------------------------------------------------
// Suites

struct SuiteConfig
{
    unsigned threads = 1;
    bool warm = false;
};

/**
 * Every kernel once at `tiny` with the cache disabled: pages in code,
 * resolves the SIMD dispatch and fills the allocator before timing.
 */
void
warmUp(ThreadPool& pool)
{
    store::setCacheDir("");
    for (const auto& name : kernelNames()) {
        auto kernel = createKernel(name);
        kernel->setEngine(Engine::kSimd);
        kernel->prepare(DatasetSize::kTiny);
        kernel->run(pool);
    }
}

/** Warm-up plus, for the warm suite, the artifact-cache build. */
double
setupSuite(const SuiteConfig& cfg, const fs::path& cache_dir,
           std::unique_ptr<ThreadPool>& pool)
{
    const auto t0 = Clock::now();
    pool = std::make_unique<ThreadPool>(cfg.threads);
    warmUp(*pool);
    if (cfg.warm) {
        store::setCacheDir(cache_dir.string());
        for (const auto& name : kStoreKernels) {
            createKernel(name)->prepare(DatasetSize::kSmall);
        }
        store::setCacheDir("");
    }
    return secondsBetween(t0, Clock::now());
}

/** One suite pass: every kernel once, in `order`. */
void
runPass(const SuiteConfig& cfg, const std::vector<std::string>& order,
        ThreadPool& pool, const fs::path& cache_root, u64 pass_no,
        bool traced, Sink& sink)
{
    std::vector<fs::path> cold_dirs;
    // Work between kernel calls, taken out of the pass's wall and CPU.
    double between_wall = 0.0;
    double between_cpu = 0.0;
    MemSampler mem;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    {
        trace::Span pass_span(spanName("pb:pass"),
                              trace::Category::kOther, pass_no);
        for (const auto& name : order) {
            // Free heap goes back to the OS first, so every kernel starts
            // from the same resident set whatever ran before it; else
            // the pass's peak depends on the kernel order and on which
            // thread's malloc arena kept what (see METRICS.md).
            const auto b0 = Clock::now();
            const double bc0 = cpuSeconds();
            malloc_trim(0);
            const double slice_s = probeSeconds();
            sink.newRow("probe").flag("traced", traced).num("seconds",
                                                            slice_s);
            between_wall += secondsBetween(b0, Clock::now());
            between_cpu += cpuSeconds() - bc0;
            if (!cfg.warm) {
                cold_dirs.push_back(cache_root /
                                    ("cold-" + std::to_string(pass_no) +
                                     "-" + name));
                store::setCacheDir(cold_dirs.back().string());
            }
            const StoreCounts s0 = storeCounts();
            const auto k0 = Clock::now();
            double prepare_s = 0.0;
            double run_s = 0.0;
            double cpu_run = 0.0;
            u64 tasks = 0;
            std::string error;
            try {
                auto kernel = createKernel(name);
                kernel->setEngine(Engine::kSimd);
                {
                    trace::Span span(spanName("pb:prepare:" + name),
                                     trace::Category::kKernel);
                    const auto p0 = Clock::now();
                    kernel->prepare(DatasetSize::kSmall);
                    prepare_s = secondsBetween(p0, Clock::now());
                }
                {
                    trace::Span span(spanName("pb:run:" + name),
                                     trace::Category::kKernel);
                    const double c = cpuSeconds();
                    const auto r0 = Clock::now();
                    tasks = kernel->run(pool);
                    run_s = secondsBetween(r0, Clock::now());
                    cpu_run = cpuSeconds() - c;
                }
            } catch (const std::exception& e) {
                error = e.what();
            }
            const double latency_s = secondsBetween(k0, Clock::now());
            const StoreCounts s1 = storeCounts();
            Sink::Row row = sink.newRow("kernel");
            row.count("pass", pass_no)
                .flag("traced", traced)
                .str("name", name)
                .num("prepare_s", prepare_s)
                .num("run_s", run_s)
                .num("cpu_run_s", cpu_run)
                .num("latency_s", latency_s)
                .count("tasks", tasks)
                .str("error", error);
            addStore(row, s0, s1);
            if (!cfg.warm) store::setCacheDir("");
        }
    }
    const double wall_s = secondsBetween(t0, Clock::now()) - between_wall;
    const double cpu_s = cpuSeconds() - cpu0 - between_cpu;
    const MemPeaks peaks = mem.stop();
    sink.newRow("pass")
        .count("pass", pass_no)
        .flag("traced", traced)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .num("rss_max_mb", peaks.rss_mb)
        .num("heap_max_mb", peaks.heap_mb);
    for (const auto& dir : cold_dirs) fs::remove_all(dir);
}

/**
 * Passes until the budget is spent: a new pass starts while the
 * elapsed time plus one average pass stays within 1.1x the budget,
 * and at least one pass always runs.
 */
void
runPasses(const SuiteConfig& cfg, Rng& rng, ThreadPool& pool,
          const fs::path& cache_root, double budget_s, bool traced,
          u64& pass_no, Sink& sink)
{
    const auto t0 = Clock::now();
    for (int passes = 1;; ++passes) {
        std::vector<std::string> order = kernelNames();
        shuffle(order, rng);
        runPass(cfg, order, pool, cache_root, pass_no++, traced, sink);
        const double elapsed = secondsBetween(t0, Clock::now());
        if (elapsed + elapsed / passes > 1.1 * budget_s) return;
    }
}

void
writePool(Sink& sink, const ThreadPool& pool)
{
    u64 rank = 0;
    for (const auto& t : pool.telemetry()) {
        sink.newRow("pool")
            .count("rank", rank++)
            .num("busy_s", t.busy_seconds)
            .num("wait_s", t.wait_seconds)
            .count("chunks", t.chunks)
            .count("steals", t.steals);
    }
}

/**
 * The fmi kernel's prepare stages, called directly with its `small`
 * parameters, plus one uncached fmi prepare they are compared with.
 */
void
runPrepareStages()
{
    store::setCacheDir("");
    {
        trace::Span span(spanName("pb:kernel.fmi.prepare_ref"),
                         trace::Category::kKernel);
        createKernel("fmi")->prepare(DatasetSize::kSmall);
    }
    GenomeParams gp;
    gp.length = 4'000'000;
    gp.seed = 101;
    std::optional<Genome> genome;
    {
        trace::Span span(spanName("pb:simdata.genome"),
                         trace::Category::kOther);
        genome = generateGenome(gp);
    }
    {
        trace::Span span(spanName("pb:index.fm_build"),
                         trace::Category::kOther);
        const FmIndex fm = FmIndex::build(genome->seq);
    }
    {
        trace::Span span(spanName("pb:simdata.reads"),
                         trace::Category::kOther);
        VariantParams vp;
        vp.seed = 102;
        const SampleGenome sample = injectVariants(genome->seq, vp);
        ShortReadParams rp;
        rp.seed = 103;
        rp.coverage = 20'000.0 * rp.read_len /
                      static_cast<double>(sample.seq.size());
        std::vector<std::vector<u8>> reads;
        for (const auto& read : simulateShortReads(sample.seq, rp)) {
            reads.push_back(encodeDna(read.record.seq));
        }
    }
}

// ---------------------------------------------------------------------
// serve-open

struct JobPlan
{
    serve::JobSpec spec;
    bool small = false;
    double due_s = 0.0;
};

/**
 * Kernels for `count` jobs drawn from `mix`: whole copies of `mix`,
 * then its first `count % mix.size()` entries, each part in seeded
 * order. How often each kernel runs depends on `count` alone.
 */
std::vector<std::string>
stratified(size_t count, const std::vector<std::string>& mix, Rng& rng)
{
    std::vector<std::string> out;
    for (size_t at = 0; at < count; at += mix.size()) {
        std::vector<std::string> part(
            mix.begin(),
            mix.begin() + static_cast<std::ptrdiff_t>(
                              std::min(mix.size(), count - at)));
        shuffle(part, rng);
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

/**
 * `rate * seconds` jobs at sorted uniform times in [0, seconds) — a
 * Poisson process conditioned on its count. The mix is stratified so
 * that the seed moves jobs without changing what runs or how lumpy the
 * load is: the middle job of every block of 10 consecutive jobs is
 * small, every 10 small jobs are 8 chain, 1 pileup and 1 kmer-cnt, and
 * every 36 tiny jobs cover each kernel once plus kTinyExtra.
 */
std::vector<JobPlan>
planServe(u64 seed, double seconds, double rate)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::llround(rate * seconds)));
    const size_t block = static_cast<size_t>(std::llround(1 / kSmallShare));
    const auto is_small = [block](size_t i) {
        return i % block == block / 2;
    };
    size_t n_small = 0;
    for (size_t i = 0; i < n; ++i) n_small += is_small(i) ? 1 : 0;
    const std::vector<std::string> small_mix = {
        "chain", "chain", "chain", "chain", "chain",
        "chain", "chain", "chain", "pileup", "kmer-cnt"};
    std::vector<std::string> tiny_mix = kernelNames();
    tiny_mix.insert(tiny_mix.end(), kTinyExtra.begin(), kTinyExtra.end());
    const auto small_kernels = stratified(n_small, small_mix, rng);
    const auto tiny_kernels = stratified(n - n_small, tiny_mix, rng);
    std::vector<JobPlan> plan(n);
    size_t next_small = 0;
    size_t next_tiny = 0;
    for (size_t i = 0; i < n; ++i) {
        JobPlan& p = plan[i];
        p.spec.engine = Engine::kSimd;
        p.small = is_small(i);
        if (p.small) {
            p.spec.kernel = small_kernels[next_small++];
            p.spec.size = DatasetSize::kSmall;
            p.spec.threads = 2;
            p.spec.priority = serve::Priority::kBatch;
        } else {
            p.spec.kernel = tiny_kernels[next_tiny++];
            p.spec.size = DatasetSize::kTiny;
            p.spec.threads = 1;
            p.spec.priority = serve::Priority::kNormal;
        }
    }
    std::vector<double> due(n);
    for (auto& d : due) d = rng.uniform() * seconds;
    std::sort(due.begin(), due.end());
    for (size_t i = 0; i < n; ++i) plan[i].due_s = due[i];
    return plan;
}

/** One submitted job and the thread that waits for it. */
struct JobSlot
{
    JobSlot() = default;
    ~JobSlot()
    {
        if (waiter.joinable()) waiter.join();
    }
    JobSlot(const JobSlot&) = delete;
    JobSlot& operator=(const JobSlot&) = delete;

    std::optional<serve::JobHandle> handle;
    Clock::time_point sent{};
    Clock::time_point done{};
    u64 backlog = 0;
    std::thread waiter;
};

/**
 * Feed `plan` to a fresh scheduler on an open loop. Each job is timed
 * from its due time to the moment a waiter thread sees it terminal.
 */
void
runServe(const std::vector<JobPlan>& plan, const fs::path& cache_dir,
         bool traced, Sink& sink)
{
    store::setCacheDir(cache_dir.string());
    serve::Scheduler::Config config;
    config.workers = kServeWorkers;
    config.queue_depth = kServeQueueDepth;
    serve::Scheduler scheduler(config);
    const StoreCounts s0 = storeCounts();

    // Declared after the scheduler: slots join their waiters first.
    std::vector<JobSlot> slots(plan.size());
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto at = [t0](double offset_s) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset_s));
    };
    std::this_thread::sleep_until(t0);
    MemSampler mem;
    const double cpu0 = cpuSeconds();
    for (size_t i = 0; i < plan.size(); ++i) {
        // A host-speed probe slice wherever the generator has 10 ms to
        // spare, so that it never sends late because of one.
        const auto slack = at(plan[i].due_s) - Clock::now();
        if (slack > std::chrono::milliseconds(10)) {
            sink.newRow("probe").flag("traced", traced).num("seconds",
                                                            probeSeconds());
        }
        std::this_thread::sleep_until(at(plan[i].due_s));
        JobSlot& slot = slots[i];
        slot.backlog = scheduler.stats().queued;
        slot.sent = Clock::now();
        slot.handle = scheduler.submit(plan[i].spec);
        slot.waiter = std::thread([&slot] {
            slot.handle->wait();
            slot.done = Clock::now();
        });
    }
    Clock::time_point last = t0;
    for (auto& slot : slots) {
        slot.waiter.join();
        last = std::max(last, slot.done);
    }
    const double cpu_s = cpuSeconds() - cpu0;
    const MemPeaks peaks = mem.stop();
    const auto stats = scheduler.stats();
    scheduler.drain();
    const StoreCounts s1 = storeCounts();
    store::setCacheDir("");

    Sink::Row row = sink.newRow("run");
    row.flag("traced", traced)
        .num("wall_s", secondsBetween(at(plan.front().due_s), last))
        .num("cpu_s", cpu_s)
        .num("rss_max_mb", peaks.rss_mb)
        .num("heap_max_mb", peaks.heap_mb)
        .count("peak_busy_workers", stats.peak_workers_busy)
        .count("rejected", stats.rejected)
        .count("failed", stats.failed)
        .count("completed", stats.completed);
    addStore(row, s0, s1);
    for (size_t i = 0; i < plan.size(); ++i) {
        const JobSlot& slot = slots[i];
        const auto m = slot.handle->metrics();
        sink.newRow("job")
            .flag("traced", traced)
            .count("id", slot.handle->id())
            .str("kernel", plan[i].spec.kernel)
            .str("size", datasetSizeName(plan[i].spec.size))
            .str("class", plan[i].small ? "small" : "tiny")
            .num("due_s", plan[i].due_s)
            .num("sent_s", secondsBetween(t0, slot.sent))
            .num("done_s", secondsBetween(t0, slot.done))
            .str("status", serve::jobStatusName(slot.handle->status()))
            .str("error", slot.handle->error())
            .num("queue_s", m.queue_seconds)
            .num("prepare_s", m.prepare_seconds)
            .num("run_s", m.run_seconds)
            .count("tasks", m.tasks)
            .count("backlog", slot.backlog);
    }
}

double
setupServe()
{
    const auto t0 = Clock::now();
    ThreadPool pool(1);
    warmUp(pool);
    serve::Scheduler::Config config;
    config.workers = kServeWorkers;
    serve::Scheduler scheduler(config);
    return secondsBetween(t0, Clock::now());
}

// ---------------------------------------------------------------------
// Output check: SIMD engines vs their scalar oracles on a fixed sample

std::vector<u8>
randomCodes(Rng& rng, size_t n)
{
    std::vector<u8> v(n);
    for (auto& b : v) b = static_cast<u8>(rng.below(4));
    return v;
}

/** Copy of `src` with ~`rate` substitutions and short indels. */
std::vector<u8>
mutate(Rng& rng, const std::vector<u8>& src, double rate)
{
    std::vector<u8> out;
    out.reserve(src.size() + 16);
    for (const u8 b : src) {
        if (rng.chance(rate)) {
            const u64 kind = rng.below(3);
            if (kind == 0) out.push_back(static_cast<u8>(rng.below(4)));
            if (kind == 1) {
                out.push_back(b);
                out.push_back(static_cast<u8>(rng.below(4)));
            }
            continue; // kind 2: deletion
        }
        out.push_back(b);
    }
    return out;
}

struct OracleResult
{
    std::string name;
    u64 cases = 0;
    u64 mismatches = 0;
};

OracleResult
checkBsw()
{
    Rng rng(7001);
    std::vector<std::vector<u8>> queries;
    std::vector<std::vector<u8>> targets;
    for (int i = 0; i < 96; ++i) {
        queries.push_back(randomCodes(rng, 60 + rng.below(200)));
        targets.push_back(mutate(rng, queries.back(), 0.08));
    }
    std::vector<SwPair> pairs;
    for (size_t i = 0; i < queries.size(); ++i) {
        pairs.push_back({queries[i], targets[i]});
    }
    const SwParams params;
    const auto got = simd::bswAlign(pairs, params);
    OracleResult r{"bsw", pairs.size(), 0};
    for (size_t i = 0; i < pairs.size(); ++i) {
        NullProbe probe;
        const SwResult want = bandedSwScalar(
            std::span<const u8>(queries[i]),
            std::span<const u8>(targets[i]), params, probe);
        const bool same = i < got.size() && got[i].score == want.score &&
                          got[i].query_end == want.query_end &&
                          got[i].target_end == want.target_end &&
                          got[i].cell_updates == want.cell_updates &&
                          got[i].aborted == want.aborted;
        r.mismatches += same ? 0 : 1;
    }
    return r;
}

OracleResult
checkSmems()
{
    Rng rng(7002);
    const std::vector<u8> ref_codes = randomCodes(rng, 20'000);
    std::string ref(ref_codes.size(), 'A');
    for (size_t i = 0; i < ref.size(); ++i) ref[i] = "ACGT"[ref_codes[i]];
    const FmIndex fm = FmIndex::build(ref);
    std::vector<std::vector<u8>> reads;
    for (int i = 0; i < 128; ++i) {
        const size_t len = 60 + rng.below(100);
        const size_t at = rng.below(ref_codes.size() - len);
        reads.push_back(mutate(
            rng,
            std::vector<u8>(ref_codes.begin() + at,
                            ref_codes.begin() + at + len),
            0.02));
    }
    constexpr i32 kMinLen = 19;
    NullProbe probe;
    std::vector<std::vector<Smem>> got;
    mlp::smemsBatch(fm, std::span<const std::vector<u8>>(reads), kMinLen,
                    got, probe);
    OracleResult r{"fmi", reads.size(), 0};
    for (size_t q = 0; q < reads.size(); ++q) {
        std::vector<Smem> want;
        fm.smems(std::span<const u8>(reads[q]), kMinLen, want, probe);
        bool same = q < got.size() && got[q].size() == want.size();
        for (size_t m = 0; same && m < want.size(); ++m) {
            same = got[q][m].k == want[m].k && got[q][m].l == want[m].l &&
                   got[q][m].s == want[m].s &&
                   got[q][m].begin == want[m].begin &&
                   got[q][m].end == want[m].end;
        }
        r.mismatches += same ? 0 : 1;
    }
    return r;
}

OracleResult
checkChain()
{
    Rng rng(7003);
    OracleResult r{"chain", 0, 0};
    const MinimizerParams mp;
    for (int i = 0; i < 48; ++i) {
        const std::vector<u8> target = randomCodes(rng, 3000 + rng.below(4000));
        const std::vector<u8> query = mutate(rng, target, 0.05);
        const auto tm = extractMinimizers(target, mp);
        const auto qm = extractMinimizers(query, mp);
        std::vector<Anchor> anchors = matchAnchors(tm, qm, mp.k);
        std::sort(anchors.begin(), anchors.end(),
                  [](const Anchor& a, const Anchor& b) {
                      return a.tpos != b.tpos ? a.tpos < b.tpos
                                              : a.qpos < b.qpos;
                  });
        const auto want = chainAnchors(anchors);
        const auto got = simd::chainAnchorsSimd(anchors);
        bool same = got.size() == want.size();
        for (size_t c = 0; same && c < want.size(); ++c) {
            same = got[c].score == want[c].score &&
                   got[c].anchors == want[c].anchors;
        }
        ++r.cases;
        r.mismatches += same ? 0 : 1;
    }
    return r;
}

OracleResult
checkPhmm()
{
    Rng rng(7004);
    const PhmmParams params;
    OracleResult r{"phmm", 0, 0};
    for (int i = 0; i < 96; ++i) {
        const std::vector<u8> hap = randomCodes(rng, 80 + rng.below(120));
        const size_t len = 30 + rng.below(70);
        const size_t at = rng.below(hap.size() - len / 2);
        std::vector<u8> read(hap.begin() + at,
                             hap.begin() + std::min(hap.size(), at + len));
        read = mutate(rng, read, 0.03);
        if (read.empty()) read.push_back(0);
        std::vector<u8> quals(read.size());
        for (auto& q : quals) q = static_cast<u8>(10 + rng.below(31));
        const PhmmResult want =
            pairHmmLogLikelihood(read, quals, hap, params);
        const PhmmResult got =
            simd::phmmLogLikelihood(read, quals, hap, params);
        // The float lanes sum in a different order than the scalar
        // loop; the repository's equivalence tests use the same 1e-5.
        const bool same =
            std::abs(got.log10_likelihood - want.log10_likelihood) <=
                1e-5 &&
            got.cell_updates == want.cell_updates;
        ++r.cases;
        r.mismatches += same ? 0 : 1;
    }
    return r;
}

void
writeOracles(Sink& sink)
{
    for (const OracleResult& r :
         {checkBsw(), checkSmems(), checkChain(), checkPhmm()}) {
        sink.newRow("oracle")
            .str("name", r.name)
            .count("cases", r.cases)
            .count("mismatches", r.mismatches);
    }
}

void
writeHost(Sink& sink)
{
    metrics::PerfCounters counters;
    sink.newRow("host")
        .count("nproc", std::thread::hardware_concurrency())
        .str("perf_counters", counters.available()
                                  ? std::string("available")
                                  : counters.unavailableReason());
}

/** Start tracing; a serve run owns one ring per runner thread. */
void
startTrace(bool serve)
{
    trace::start(serve ? (1u << 12) : (1u << 16));
}

void
finishTrace(const fs::path& workdir, Sink& sink)
{
    trace::stop();
    const fs::path file = workdir / "trace.json";
    const auto stats = trace::writeChromeTraceFile(file.string());
    sink.newRow("trace")
        .str("file", file.string())
        .count("events", stats.events)
        .count("dropped", stats.dropped)
        .count("rings", stats.rings);
}

int
runWorkload(const Args& args)
{
    const fs::path workdir = args.workdir;
    fs::create_directories(workdir);
    const bool suite = args.workload == "suite-cold-1t" ||
                       args.workload == "suite-warm-2t";
    const bool serve = args.workload == "serve-open" ||
                       args.workload == "serve-burst";
    requireInput(suite || serve, "unknown workload " + args.workload);

    metrics::RunMeta meta;
    meta.experiment = "perfbench";
    meta.paper_ref = args.workload + " seed " + std::to_string(args.seed);
    meta.size = serve ? "tiny+small" : "small";
    meta.engine = engineName(Engine::kSimd);
    meta.simd_level = simd::simdLevelName(simd::activeSimdLevel());
    meta.threads =
        suite ? (args.workload == "suite-warm-2t" ? kWarmThreads : 1)
              : kServeWorkers;
    Sink sink;
    sink.open(args.out, meta);
    writeHost(sink);

    if (suite) {
        SuiteConfig cfg;
        cfg.warm = args.workload == "suite-warm-2t";
        cfg.threads = meta.threads;
        std::unique_ptr<ThreadPool> pool;
        fs::path warm_dir;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            if (!warm_dir.empty()) fs::remove_all(warm_dir);
            warm_dir = workdir / ("warm-" + std::to_string(rep));
            sink.newRow("setup").num("seconds",
                                     setupSuite(cfg, warm_dir, pool));
        }
        if (cfg.warm) store::setCacheDir(warm_dir.string());

        Rng rng(args.seed);
        u64 pass_no = 0;
        const double untraced_budget =
            args.trace ? args.seconds / 2 : args.seconds;
        runPasses(cfg, rng, *pool, workdir, untraced_budget, false,
                  pass_no, sink);
        if (args.trace) {
            pool->resetTelemetry();
            startTrace(false);
            {
                trace::Span span(spanName("pb:measure"),
                                 trace::Category::kOther);
                runPasses(cfg, rng, *pool, workdir, args.seconds / 2,
                          true, pass_no, sink);
            }
            writePool(sink, *pool);
            runPrepareStages();
            finishTrace(workdir, sink);
        }
        store::setCacheDir("");
    } else {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            sink.newRow("setup").num("seconds", setupServe());
        }
        const double half = args.trace ? args.seconds / 2 : args.seconds;
        auto plan = planServe(args.seed, half, kServeRate);
        if (args.workload == "serve-burst") {
            // Capacity calibration: the same jobs, all due at once.
            for (auto& p : plan) p.due_s = 0.0;
        }
        runServe(plan, workdir / "serve-cache-0", false, sink);
        if (args.trace) {
            startTrace(true);
            {
                trace::Span span(spanName("pb:measure"),
                                 trace::Category::kOther);
                runServe(plan, workdir / "serve-cache-1", true, sink);
            }
            runPrepareStages();
            finishTrace(workdir, sink);
        }
    }
    writeOracles(sink);
    sink.close();
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return runWorkload(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << '\n';
        return 2;
    }
}
