/**
 * @file
 * Single-precision GEMM shared by the dense-compute kernels: grm
 * (Z Z^T tiles), nn-base (Bonito convolutions) and nn-variant (Clair
 * LSTM gates and dense heads).
 *
 *   C[i][j] += sum_{p < k} A[i][p] * B[p][j]
 *
 * The caller seeds C (a bias row, zeros, or a running sum); the GEMM
 * only accumulates. Every level vectorizes across output columns j:
 * one A element is broadcast and multiplied against a row segment of
 * B, and the product is added to the lanes' accumulators. Each output
 * element therefore receives its k products one at a time, in
 * ascending p, each rounded as a separate multiply and add — exactly
 * the `acc += a * b` order of a plain dot-product loop. That makes
 * every level bit-identical to the scalar reference (and to the dot
 * loops the layers used before), so the engine switch cannot move a
 * single output bit. No level uses FMA (a fused multiply-add rounds
 * once, not twice), and the sources are built with -ffp-contract=off
 * so the compiler cannot fuse them either (see docs/simd.md).
 *
 * Dispatch follows the other gb::simd engines: a portable reference
 * plus SSE4 and AVX2 instantiations of one template, selected from
 * gb::simd::activeSimdLevel().
 */
#ifndef GB_SIMD_GEMM_ENGINE_H
#define GB_SIMD_GEMM_ENGINE_H

#include <cstddef>

#include "simd/simd.h"
#include "util/common.h"

namespace gb::simd {

/**
 * Operands of one GEMM call. A is addressed through a row and a
 * column stride, so a row-major matrix (a_col_stride == 1) and a
 * site-major panel read as its transpose (a_row_stride == 1) both
 * work without a copy. B and C are row-major with leading dimensions
 * ldb and ldc (the elements of one row are contiguous).
 */
struct SgemmArgs
{
    u32 m = 0; ///< rows of A and C
    u32 n = 0; ///< columns of B and C
    u32 k = 0; ///< inner dimension
    const float* a = nullptr;
    size_t a_row_stride = 0; ///< A(i, p) = a[i*a_row_stride + p*a_col_stride]
    size_t a_col_stride = 1;
    const float* b = nullptr;
    size_t ldb = 0; ///< B(p, j) = b[p*ldb + j]
    float* c = nullptr;
    size_t ldc = 0; ///< C(i, j) = c[i*ldc + j]
};

/** C += A * B (see SgemmArgs); a no-op when m, n or k is zero. */
using SgemmFn = void (*)(const SgemmArgs& args);

/** Portable reference: the same per-element order as every level. */
void sgemmScalar(const SgemmArgs& args);

/** Implementation for a dispatch level (clamped to CPU support). */
SgemmFn sgemmFor(SimdLevel level);

/** GEMM with the active dispatch level's implementation. */
inline void
sgemm(const SgemmArgs& args)
{
    sgemmFor(activeSimdLevel())(args);
}

} // namespace gb::simd

#endif // GB_SIMD_GEMM_ENGINE_H
