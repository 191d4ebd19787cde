/**
 * @file
 * Public suite API: the Benchmark interface and kernel registry.
 *
 * Mirrors the structure of the GenomicsBench release: 12 kernels, each
 * with small and large input datasets, multi-threaded timed runs
 * (OpenMP-dynamic-style scheduling via util::ThreadPool) and a
 * single-threaded characterization mode feeding the arch/ probes.
 */
#ifndef GB_CORE_BENCHMARK_H
#define GB_CORE_BENCHMARK_H

#include <memory>
#include <string>
#include <vector>

#include "arch/probe.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace gb {

/** Input scale, mirroring the paper's two dataset sizes. */
enum class DatasetSize : u8
{
    kTiny,  ///< trimmed inputs for trace-driven characterization
    kSmall, ///< paper "small" (scaled to finish in seconds here)
    kLarge, ///< paper "large"
};

/**
 * Execution engine for timed runs. kScalar is the portable
 * probe-compatible implementation every kernel has; kSimd swaps in a
 * real vectorized engine (gb::simd/gb::mlp, runtime-dispatched) where
 * one exists: bsw, phmm, fmi, kmer-cnt, chain, spoa, the shared GEMM
 * under grm, nn-base and nn-variant, and the band-parallel abea
 * aligner (10 of 12). Kernels without a SIMD engine (dbg, pileup) run
 * scalar under either setting.
 */
enum class Engine : u8
{
    kScalar,
    kSimd,
};

/** Parse "scalar"/"simd"; throws InputError otherwise. */
Engine parseEngine(const std::string& name);

/** Display name of an engine. */
const char* engineName(Engine engine);

/** Parse "tiny"/"small"/"large"; throws InputError otherwise. */
DatasetSize parseDatasetSize(const std::string& name);

/** Display name of a dataset size. */
const char* datasetSizeName(DatasetSize size);

/**
 * One suite kernel.
 *
 * Lifecycle: construct -> prepare(size) -> run()/taskWork()/
 * characterize() any number of times. prepare() generates the
 * deterministic synthetic dataset; run() executes the timed kernel.
 */
class Benchmark
{
  public:
    /** Static description (paper Tables II/III columns). */
    struct Info
    {
        std::string name;        ///< suite kernel name (e.g. "fmi")
        std::string source_tool; ///< tool it is drawn from
        std::string motif;       ///< parallelism motif (Table II)
        std::string granularity; ///< data-parallel granularity
        std::string work_unit;   ///< data-parallel computation unit
        bool regular = false;    ///< regular-compute kernel
        bool gpu = false;        ///< GPU kernel in the paper
    };

    virtual ~Benchmark() = default;

    virtual const Info& info() const = 0;

    /** Select the engine for subsequent run() calls. */
    void setEngine(Engine engine) { engine_ = engine; }

    /** Engine used by run(); characterize() is always scalar. */
    Engine engine() const { return engine_; }

    /** Generate the dataset for `size` (deterministic). */
    virtual void prepare(DatasetSize size) = 0;

    /**
     * Execute the kernel across all tasks using `pool`.
     * @return Work units processed (info().work_unit).
     */
    virtual u64 run(ThreadPool& pool) = 0;

    /**
     * Single-threaded instrumented execution feeding `probe`.
     * Uses the prepared dataset (prepare with kTiny for trace-driven
     * cache simulation; larger sizes are accurate but slow).
     * @return Work units processed.
     */
    virtual u64 characterize(CharProbe& probe) = 0;

    /**
     * Per-task work units of the prepared dataset (paper Fig. 4 /
     * Table III). Tasks are the unit of dynamic scheduling.
     */
    virtual std::vector<u64> taskWork() = 0;

  private:
    Engine engine_ = Engine::kScalar;
};

/** Names of all 12 kernels, pipeline order. */
std::vector<std::string> kernelNames();

/** Instantiate a kernel by name; throws InputError on unknown names. */
std::unique_ptr<Benchmark> createKernel(const std::string& name);

} // namespace gb

#endif // GB_CORE_BENCHMARK_H
