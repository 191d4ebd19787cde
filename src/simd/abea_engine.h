/**
 * @file
 * Band-parallel adaptive banded event alignment (the abea engine).
 *
 * Executes the f5c GPU scheme on SIMD lanes: every cell of one
 * adaptive band depends only on the two bands before it, so a band's
 * cells are computed kF32Lanes at a time. The up, left and diagonal
 * predecessors of offset o sit at o + du, o + dl (band b-1) and
 * o + dd (band b-2), where each shift is fixed for the whole band and
 * lies in {-1, 0, 1}; with band rows padded by -inf cells, the three
 * reads are plain unaligned vector loads with no validity branches.
 *
 * Every cell is the oracle's expression with the same roundings
 * (separate sub, div, mul, add; no FMA; -ffp-contract=off) and the
 * oracle's strict-greater choice order (diagonal, up, left), so the
 * score bits, alignment, cells_computed and bands equal alignEvents()
 * at every dispatch level (docs/simd.md).
 *
 * Dispatch: AVX2 (8 float lanes) / SSE4.2 (4) / scalar, where the
 * scalar level is alignEvents() itself. Calls with record_bands set
 * or no events also run on alignEvents().
 */
#ifndef GB_SIMD_ABEA_ENGINE_H
#define GB_SIMD_ABEA_ENGINE_H

#include <span>
#include <string_view>
#include <vector>

#include "abea/abea.h"
#include "simd/simd.h"

namespace gb::simd {

/**
 * A pore model plus its k-mer levels as structure-of-arrays rows
 * indexed by k-mer rank: level_mean, level_stdv and -log(level_stdv),
 * the last filled once with the same scalar std::log(float) call as
 * logProbMatch so its bits match.
 */
class AbeaModel
{
  public:
    explicit AbeaModel(PoreModel model);

    const PoreModel& pore() const { return pore_; }
    const std::vector<float>& levelMean() const { return mean_; }
    const std::vector<float>& levelStdv() const { return stdv_; }
    const std::vector<float>& negLogStdv() const { return neg_log_stdv_; }

  private:
    PoreModel pore_;
    std::vector<float> mean_;
    std::vector<float> stdv_;
    std::vector<float> neg_log_stdv_;
};

/** alignEvents() under one engine implementation. */
using AbeaAlignFn = AbeaResult (*)(std::span<const Event> events,
                                   const AbeaModel& model,
                                   std::string_view ref,
                                   const AbeaParams& params);

/** The scalar oracle: alignEvents(events, model.pore(), ref, params). */
AbeaResult alignEventsScalar(std::span<const Event> events,
                             const AbeaModel& model, std::string_view ref,
                             const AbeaParams& params);

/** Implementation for a dispatch level (clamped to CPU support). */
AbeaAlignFn abeaAlignFor(SimdLevel level);

} // namespace gb::simd

#endif // GB_SIMD_ABEA_ENGINE_H
