/** SSE4.2 instantiation of the band-parallel abea engine. */
#define GB_SIMD_TARGET_SSE4 1
#include "simd/abea_engine_impl.h"

#include "simd/engines_internal.h"

namespace gb::simd::detail {

AbeaResult
abeaAlignSse4(std::span<const Event> events, const AbeaModel& model,
              std::string_view ref, const AbeaParams& params)
{
    return alignEventsVec(events, model, ref, params);
}

} // namespace gb::simd::detail
