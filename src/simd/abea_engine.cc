/**
 * @file
 * Dispatch layer for the band-parallel abea engine: the per-model
 * k-mer tables, the scalar oracle wrapper, and the function-pointer
 * table over the per-ISA implementations (abea_engine_sse4.cc /
 * abea_engine_avx2.cc).
 */
#include "simd/abea_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simd/engines_internal.h"

namespace gb::simd {

AbeaModel::AbeaModel(PoreModel model) : pore_(std::move(model))
{
    const u32 n = pore_.numKmers();
    mean_.resize(n);
    stdv_.resize(n);
    neg_log_stdv_.resize(n);
    for (u32 rank = 0; rank < n; ++rank) {
        const PoreKmerModel& km = pore_.byRank(rank);
        mean_[rank] = km.level_mean;
        stdv_[rank] = km.level_stdv;
        neg_log_stdv_[rank] = -std::log(km.level_stdv);
    }
}

AbeaResult
alignEventsScalar(std::span<const Event> events, const AbeaModel& model,
                  std::string_view ref, const AbeaParams& params)
{
    return alignEvents(events, model.pore(), ref, params);
}

AbeaAlignFn
abeaAlignFor(SimdLevel level)
{
    switch (std::min(level, detectSimdLevel())) {
#if GB_SIMD_HAVE_X86
      case SimdLevel::kAvx2: return detail::abeaAlignAvx2;
      case SimdLevel::kSse4: return detail::abeaAlignSse4;
#else
      case SimdLevel::kAvx2:
      case SimdLevel::kSse4:
#endif
      case SimdLevel::kScalar: break;
    }
    return alignEventsScalar;
}

} // namespace gb::simd
