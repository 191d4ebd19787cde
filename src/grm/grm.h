/**
 * @file
 * Genomic Relationship Matrix — the grm kernel.
 *
 * Faithful to PLINK2's GRM computation (paper §III): for individuals i
 * and j, G_ij = (1/S) * sum_s (x_is - 2 p_s)(x_js - 2 p_s) /
 * (2 p_s (1 - p_s)). The genotype matrix is first standardized into
 * Z (missing values mean-imputed to zero contribution), then
 * G = Z Z^T / S — dense matrix multiplication, the suite's
 * regular-compute / CPU-friendly kernel (87.7 % retiring in the
 * paper's Fig. 9).
 *
 * The multiply is blocked (64x64 tiles) and parallelized over output
 * tiles, computing only the upper triangle and mirroring. Each tile's
 * product over a 2048-site block is one call of the shared GEMM
 * (simd/gemm_engine.h).
 */
#ifndef GB_GRM_GRM_H
#define GB_GRM_GRM_H

#include <algorithm>
#include <utility>
#include <vector>

#include "arch/probe.h"
#include "simd/gemm_engine.h"
#include "simdata/genotypes.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace gb {

/** Dense symmetric N x N result. */
struct GrmResult
{
    u32 n = 0;
    std::vector<float> g; ///< row-major N x N

    float
    at(u32 i, u32 j) const
    {
        return g[static_cast<size_t>(i) * n + j];
    }
};

/** Output tile edge, and individuals per panel of Z. */
inline constexpr u32 kGrmTile = 64;

/**
 * Standardized genotype matrix Z (N x S floats) in site-major panels:
 * panel p holds individuals [64p, 64p + w), w = min(64, N - 64p), as
 * an [S][w] block at offset 64p * S. A panel is directly a GEMM
 * operand: B with ldb = w, or A^T with a_row_stride 1, a_col_stride w.
 */
std::vector<float> standardizeGenotypes(const GenotypeMatrix& m);

/**
 * Compute the GRM.
 *
 * @param m     Genotype matrix.
 * @param pool  Thread pool; output tiles are dynamically scheduled.
 * @param probe Instrumentation probe (ops counted per FMA).
 * @param gemm  GEMM the tiles run on; every choice gives the same bits.
 */
template <typename Probe>
GrmResult
computeGrm(const GenotypeMatrix& m, ThreadPool& pool, Probe& probe,
           simd::SgemmFn gemm = simd::sgemmScalar);

/** Uninstrumented single-call convenience wrapper. */
GrmResult computeGrm(const GenotypeMatrix& m, ThreadPool& pool,
                     simd::SgemmFn gemm = simd::sgemmScalar);

// ---------------------------------------------------------------------

template <typename Probe>
GrmResult
computeGrm(const GenotypeMatrix& m, ThreadPool& pool, Probe& probe,
           simd::SgemmFn gemm)
{
    constexpr u32 kTile = kGrmTile;
    const u32 n = m.num_individuals;
    const u32 s = m.num_sites;
    const std::vector<float> z = standardizeGenotypes(m);

    GrmResult result;
    result.n = n;
    result.g.assign(static_cast<size_t>(n) * n, 0.0f);

    // Enumerate upper-triangle tile pairs.
    const u32 tiles = ceilDiv(n, kTile);
    std::vector<std::pair<u32, u32>> tile_pairs;
    for (u32 ti = 0; ti < tiles; ++ti) {
        for (u32 tj = ti; tj < tiles; ++tj) {
            tile_pairs.emplace_back(ti, tj);
        }
    }

    // PLINK2-style blocked GEMM: the outer loop walks site blocks so
    // the N x kSiteBlock slice of Z stays LLC-resident while every
    // tile pair consumes it. A tile pair's block product sums from
    // zero, then joins the running upper-triangle totals in g.
    constexpr u32 kSiteBlock = 2048;
    auto width = [&](u32 tile) { return std::min(kTile, n - tile * kTile); };
    auto panel = [&](u32 tile, u32 site) {
        return &z[static_cast<size_t>(tile) * kTile * s +
                  static_cast<size_t>(site) * width(tile)];
    };
    for (u32 sb = 0; sb < s; sb += kSiteBlock) {
        const u32 block = std::min(kSiteBlock, s - sb);
        pool.parallelFor(tile_pairs.size(), [&](u64 t) {
            const auto [ti, tj] = tile_pairs[t];
            std::vector<float> sums(kTile * kTile, 0.0f);
            gemm({.m = width(ti), .n = width(tj), .k = block,
                  .a = panel(ti, sb), .a_row_stride = 1,
                  .a_col_stride = width(ti), .b = panel(tj, sb),
                  .ldb = width(tj), .c = sums.data(), .ldc = kTile});
            for (u32 r = 0; r < width(ti); ++r) {
                const u32 i = ti * kTile + r;
                for (u32 col = 0; col < width(tj); ++col) {
                    const u32 j = tj * kTile + col;
                    if (j >= i) {
                        result.g[static_cast<size_t>(i) * n + j] +=
                            sums[r * kTile + col];
                    }
                }
            }
            if constexpr (Probe::enabled) {
                // The row-major dot-product walk's accesses (row i's
                // block at i*s + sb of the same buffer): characterize
                // models the reference algorithm, not the panel order.
                const u32 i_end = std::min(n, (ti + 1) * kTile);
                const u32 j_end = std::min(n, (tj + 1) * kTile);
                for (u32 i = ti * kTile; i < i_end; ++i) {
                    probe.load(&z[static_cast<size_t>(i) * s + sb],
                               block * 4);
                    for (u32 j = std::max(tj * kTile, i); j < j_end; ++j) {
                        probe.op(OpClass::kVecAlu, ceilDiv(block, 8u));
                        probe.op(OpClass::kIntAlu, 2);
                        probe.load(&z[static_cast<size_t>(j) * s + sb],
                                   block * 4);
                    }
                }
            }
        });
    }
    const float inv_s = 1.0f / static_cast<float>(s);
    pool.parallelFor(tile_pairs.size(), [&](u64 t) {
        const auto [ti, tj] = tile_pairs[t];
        const u32 i_end = std::min(n, (ti + 1) * kTile);
        const u32 j_end = std::min(n, (tj + 1) * kTile);
        for (u32 i = ti * kTile; i < i_end; ++i) {
            for (u32 j = std::max(tj * kTile, i); j < j_end; ++j) {
                const float value =
                    result.g[static_cast<size_t>(i) * n + j] * inv_s;
                result.g[static_cast<size_t>(i) * n + j] = value;
                result.g[static_cast<size_t>(j) * n + i] = value;
                probe.store(&result.g[static_cast<size_t>(i) * n + j],
                            8);
            }
        }
    });
    return result;
}

} // namespace gb

#endif // GB_GRM_GRM_H
