/**
 * @file
 * ISA-generic implementation of the GEMM.
 *
 * Included by gemm_engine_sse4.cc / gemm_engine_avx2.cc with exactly
 * one of GB_SIMD_TARGET_SSE4 / GB_SIMD_TARGET_AVX2 defined (the vec.h
 * multi-include convention).
 *
 * Register blocking: a tile of kRows rows x kVecs vectors of C is
 * held in accumulators while p walks a chunk of at most kChunk inner
 * steps; each step loads kVecs vectors of B row p once and broadcasts
 * one A element per tile row. A single row (m % kRows, and the m == 1
 * recurrent LSTM step) uses a wider one-row tile instead, so enough
 * independent add chains are in flight to hide the add latency.
 * Columns that do not fill a whole vector are finished by the scalar
 * loop. Chunking p only spills the accumulators to C and reloads
 * them; the float values are the same, so the order contract of
 * gemm_engine.h holds for every tile shape.
 */
#if !defined(GB_SIMD_TARGET_SSE4) && !defined(GB_SIMD_TARGET_AVX2)
#error "gemm_engine_impl.h requires a GB_SIMD_TARGET_* definition"
#endif

#include <algorithm>

#include "simd/gemm_engine.h"
#include "simd/vec.h"

namespace gb::simd {

namespace {

inline constexpr u32 kRows = 4;     ///< rows of the multi-row tile
inline constexpr u32 kVecs = 2;     ///< vectors per row of that tile
inline constexpr u32 kRowVecs = 4;  ///< vectors of the one-row tile
inline constexpr u32 kChunk = 256;  ///< inner steps per B panel pass

/** C[i0.., j0..] += A[i0.., p0..p0+kc) * B[p0.., j0..] for one tile. */
template <u32 R, u32 V>
inline void
gemmTile(const SgemmArgs& g, u32 i0, u32 j0, u32 p0, u32 kc)
{
    VecF32 acc[R][V];
    const float* a_rows[R];
#pragma GCC unroll 8
    for (u32 r = 0; r < R; ++r) {
        a_rows[r] = g.a + (i0 + r) * g.a_row_stride + p0 * g.a_col_stride;
#pragma GCC unroll 8
        for (u32 v = 0; v < V; ++v) {
            acc[r][v] = vLoadF32(g.c + (i0 + r) * g.ldc + j0 + v * kF32Lanes);
        }
    }
    const float* b_row = g.b + p0 * g.ldb + j0;
    for (u32 p = 0; p < kc; ++p, b_row += g.ldb) {
        VecF32 b[V];
#pragma GCC unroll 8
        for (u32 v = 0; v < V; ++v) b[v] = vLoadF32(b_row + v * kF32Lanes);
#pragma GCC unroll 8
        for (u32 r = 0; r < R; ++r) {
            const VecF32 a = vSet1F32(a_rows[r][p * g.a_col_stride]);
#pragma GCC unroll 8
            for (u32 v = 0; v < V; ++v) {
                acc[r][v] = vAddF32(acc[r][v], vMulF32(a, b[v]));
            }
        }
    }
#pragma GCC unroll 8
    for (u32 r = 0; r < R; ++r) {
#pragma GCC unroll 8
        for (u32 v = 0; v < V; ++v) {
            vStoreF32(g.c + (i0 + r) * g.ldc + j0 + v * kF32Lanes,
                      acc[r][v]);
        }
    }
}

/** One R-row band of C over all columns, for inner steps [p0, p0+kc). */
template <u32 R, u32 V>
inline void
gemmBand(const SgemmArgs& g, u32 i0, u32 p0, u32 kc)
{
    u32 j = 0;
    for (; j + V * kF32Lanes <= g.n; j += V * kF32Lanes) {
        gemmTile<R, V>(g, i0, j, p0, kc);
    }
    for (; j + kF32Lanes <= g.n; j += kF32Lanes) {
        gemmTile<R, 1>(g, i0, j, p0, kc);
    }
    for (u32 r = 0; r < R; ++r) {
        const float* a_row = g.a + (i0 + r) * g.a_row_stride;
        float* c_row = g.c + (i0 + r) * g.ldc;
        for (u32 jj = j; jj < g.n; ++jj) {
            float acc = c_row[jj];
            for (u32 p = p0; p < p0 + kc; ++p) {
                acc += a_row[p * g.a_col_stride] * g.b[p * g.ldb + jj];
            }
            c_row[jj] = acc;
        }
    }
}

inline void
sgemmVec(const SgemmArgs& g)
{
    for (u32 p0 = 0; p0 < g.k; p0 += kChunk) {
        const u32 kc = std::min(kChunk, g.k - p0);
        u32 i = 0;
        for (; i + kRows <= g.m; i += kRows) {
            gemmBand<kRows, kVecs>(g, i, p0, kc);
        }
        for (; i < g.m; ++i) gemmBand<1, kRowVecs>(g, i, p0, kc);
    }
}

} // namespace

} // namespace gb::simd
