/**
 * @file
 * Internal factory functions for the 12 suite kernels (one per
 * paper-§III benchmark). Users go through createKernel(); these are
 * exposed for the registry and for tests that need a concrete type.
 */
#ifndef GB_CORE_KERNELS_H
#define GB_CORE_KERNELS_H

#include <memory>

#include "core/benchmark.h"
#include "simd/abea_engine.h"
#include "simd/gemm_engine.h"

namespace gb {

std::unique_ptr<Benchmark> makeFmiKernel();
std::unique_ptr<Benchmark> makeBswKernel();
std::unique_ptr<Benchmark> makeDbgKernel();
std::unique_ptr<Benchmark> makePhmmKernel();
std::unique_ptr<Benchmark> makeChainKernel();
std::unique_ptr<Benchmark> makeSpoaKernel();
std::unique_ptr<Benchmark> makeAbeaKernel();
std::unique_ptr<Benchmark> makeKmerCntKernel();
std::unique_ptr<Benchmark> makeGrmKernel();
std::unique_ptr<Benchmark> makePileupKernel();
std::unique_ptr<Benchmark> makeNnBaseKernel();
std::unique_ptr<Benchmark> makeNnVariantKernel();

/**
 * The GEMM grm, nn-base and nn-variant run on under an engine: the
 * portable reference, or the active SIMD level (same output bits).
 */
inline simd::SgemmFn
gemmFor(Engine engine)
{
    return engine == Engine::kSimd
               ? simd::sgemmFor(simd::activeSimdLevel())
               : simd::sgemmScalar;
}

/**
 * The event aligner abea runs on under an engine: the scalar oracle,
 * or the active band-parallel SIMD level (same results).
 */
inline simd::AbeaAlignFn
abeaAlignFor(Engine engine)
{
    return engine == Engine::kSimd
               ? simd::abeaAlignFor(simd::activeSimdLevel())
               : simd::alignEventsScalar;
}

} // namespace gb

#endif // GB_CORE_KERNELS_H
