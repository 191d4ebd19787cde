/** SSE4.2 instantiation of the GEMM. */
#define GB_SIMD_TARGET_SSE4 1
#include "simd/gemm_engine_impl.h"

#include "simd/engines_internal.h"

namespace gb::simd::detail {

void
sgemmSse4(const SgemmArgs& args)
{
    sgemmVec(args);
}

} // namespace gb::simd::detail
