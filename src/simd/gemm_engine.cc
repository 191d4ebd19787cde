/**
 * @file
 * Dispatch layer for the GEMM: the portable reference plus the
 * function-pointer table over the per-ISA implementations
 * (gemm_engine_sse4.cc / gemm_engine_avx2.cc).
 */
#include "simd/gemm_engine.h"

#include <algorithm>

#include "simd/engines_internal.h"

namespace gb::simd {

void
sgemmScalar(const SgemmArgs& g)
{
    for (u32 i = 0; i < g.m; ++i) {
        float* c_row = g.c + i * g.ldc;
        for (u32 p = 0; p < g.k; ++p) {
            const float a = g.a[i * g.a_row_stride + p * g.a_col_stride];
            const float* b_row = g.b + p * g.ldb;
            for (u32 j = 0; j < g.n; ++j) c_row[j] += a * b_row[j];
        }
    }
}

SgemmFn
sgemmFor(SimdLevel level)
{
    switch (std::min(level, detectSimdLevel())) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2: return detail::sgemmAvx2;
      case SimdLevel::kSse4: return detail::sgemmSse4;
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return sgemmScalar;
}

} // namespace gb::simd
