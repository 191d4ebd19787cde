/**
 * @file
 * Width-generic band-parallel ABEA, instantiated once per ISA (see
 * vec.h for the inclusion protocol).
 *
 * Layout. Band row b holds offsets 0..w-1 at row(b)[0..w), with one
 * pad cell on the left and W = kF32Lanes on the right, all -inf
 * (trace rows: kFromNone). Cell (b, o) is event e_b - o and k-mer
 * k_b + o for the band anchor (e_b, k_b), so its predecessors are
 *
 *   up   = (event - 1, k-mer)      at o + (e_{b-1} - e_b + 1) in b-1
 *   left = (event, k-mer - 1)      at o + (k_b - k_{b-1} - 1) in b-1
 *   diag = (event - 1, k-mer - 1)  at o + (k_b - k_{b-2} - 1) in b-2
 *
 * Each band moves one step down or right, so every shift is fixed per
 * band and lies in {-1, 0, 1}: the three reads of W consecutive cells
 * are three unaligned loads, and an out-of-band predecessor reads a
 * -inf cell exactly where the oracle's validity check yields -inf.
 * Event means are stored in reverse (event e at n_events-1-e), so the
 * descending events of a band are an ascending load, and the k-mer
 * levels of the reference are gathered once per read into
 * structure-of-arrays rows.
 *
 * A band's [lo, hi) is walked in W-wide chunks from lo; the last chunk
 * may cover up to W-1 lanes past hi. Those lanes read pad entries
 * (the padding bounds every read inside its row or array) and store
 * -inf / kFromNone, the values their cells already hold: cells of
 * band b outside [lo, hi) are never written by the oracle (the trim
 * cell sits below lo), so they stay at their initial -inf. A real
 * lane stores its score and trace code only when best > -inf, the
 * oracle's `best > cell` test against the -inf the cell held.
 */
#if !defined(GB_SIMD_TARGET_SSE4) && !defined(GB_SIMD_TARGET_AVX2)
#error "abea_engine_impl.h requires a GB_SIMD_TARGET_* definition"
#endif

#include <algorithm>
#include <memory>
#include <vector>

#include "abea/abea_band.h"
#include "simd/abea_engine.h"
#include "simd/vec.h"

namespace gb::simd {

namespace {

using namespace gb::abea;

AbeaResult
alignEventsVec(std::span<const Event> events, const AbeaModel& model,
               std::string_view ref, const AbeaParams& params)
{
    if (params.record_bands || events.empty()) {
        return alignEvents(events, model.pore(), ref, params);
    }
    constexpr i64 W = kF32Lanes;
    AbeaResult result;
    const i64 n_events = static_cast<i64>(events.size());
    requireInput(ref.size() >= model.pore().k(),
                 "abea: reference shorter than the pore-model k");
    const std::vector<u32> ranks = model.pore().sequenceRanks(ref);
    const i64 n_kmers = static_cast<i64>(ranks.size());
    const i64 w = params.bandwidth;
    requireInput(w >= 4 && w % 2 == 0,
                 "abea: bandwidth must be even and >= 4");
    const i64 n_bands = n_events + n_kmers + 2;
    const Transitions lp = transitionsFor(n_events, n_kmers, params);

    // Per-read inputs, each padded by W entries for the last chunk.
    std::vector<float> event_mean(static_cast<size_t>(n_events + W), 0.0f);
    for (i64 e = 0; e < n_events; ++e) {
        event_mean[static_cast<size_t>(n_events - 1 - e)] =
            events[static_cast<size_t>(e)].mean;
    }
    const size_t kmer_len = static_cast<size_t>(n_kmers + W);
    std::vector<float> level_mean(kmer_len, 0.0f);
    std::vector<float> level_stdv(kmer_len, 1.0f);
    std::vector<float> neg_log_stdv(kmer_len, 0.0f);
    for (size_t k = 0; k < ranks.size(); ++k) {
        level_mean[k] = model.levelMean()[ranks[k]];
        level_stdv[k] = model.levelStdv()[ranks[k]];
        neg_log_stdv[k] = model.negLogStdv()[ranks[k]];
    }

    // Band and trace rows (see the layout above). Each row is cleared
    // just before its band is computed, while it is about to be hot.
    const i64 stride = w + W + 1;
    const size_t cells = static_cast<size_t>(n_bands * stride);
    const auto band = std::make_unique_for_overwrite<float[]>(cells);
    const auto trace = std::make_unique_for_overwrite<u8[]>(cells);
    auto row = [&](i64 b) { return band.get() + b * stride + 1; };
    auto traceRow = [&](i64 b) { return trace.get() + b * stride + 1; };
    auto clearRow = [&](i64 b) {
        std::fill_n(row(b) - 1, stride, kNegInf);
        std::fill_n(traceRow(b) - 1, stride, kFromNone);
    };

    std::vector<BandLL> band_ll(static_cast<size_t>(n_bands));
    band_ll[0] = firstBand(w);
    band_ll[1] = nextBand(band_ll[0], false);
    clearRow(0);
    clearRow(1);
    row(0)[w / 2] = 0.0f;
    row(1)[w / 2] = lp.trim;
    traceRow(1)[w / 2] = kFromUp;

    const VecF32 neg_inf = vSet1F32(kNegInf);
    const VecF32 neg_half = vSet1F32(-0.5f);
    const VecF32 log_sqrt_2pi = vSet1F32(kLogSqrt2Pi);
    const VecF32 lp_stay = vSet1F32(lp.stay);
    const VecF32 lp_skip = vSet1F32(lp.skip);
    const VecF32 lp_step = vSet1F32(lp.step);
    const VecI32 code_diag = vSet1I32(kFromDiag);
    const VecI32 code_up = vSet1I32(kFromUp);
    const VecI32 code_left = vSet1I32(kFromLeft);
    NullProbe probe;

    for (i64 b = 2; b < n_bands; ++b) {
        const BandLL prev = band_ll[static_cast<size_t>(b - 1)];
        const BandLL prev2 = band_ll[static_cast<size_t>(b - 2)];
        const BandLL ll = nextBand(
            prev, moveRight(prev, n_events, n_kmers, row(b - 1)[0],
                            row(b - 1)[w - 1], probe));
        band_ll[static_cast<size_t>(b)] = ll;
        clearRow(b);
        float* cur = row(b);
        u8* cur_trace = traceRow(b);

        // Trim column (kmer == -1): events skipped before alignment.
        const i64 trim_offset = -1 - ll.kmer_idx;
        if (trim_offset >= 0 && trim_offset < w) {
            const i64 event = ll.event_idx - trim_offset;
            if (event >= 0 && event < n_events) {
                cur[trim_offset] = lp.trim * static_cast<float>(event + 1);
                cur_trace[trim_offset] = kFromUp;
            }
        }

        const auto [lo, hi] = bandRange(ll, n_events, n_kmers, w);
        ++result.bands;
        if (lo >= hi) continue;
        result.cells_computed += static_cast<u64>(hi - lo);

        const float* up = row(b - 1) + (prev.event_idx - ll.event_idx + 1);
        const float* left = row(b - 1) + (ll.kmer_idx - prev.kmer_idx - 1);
        const float* diag = row(b - 2) + (ll.kmer_idx - prev2.kmer_idx - 1);
        // Index of offset 0's event / k-mer; every real lane's sum
        // with its offset is in range.
        const i64 event_base = n_events - 1 - ll.event_idx;
        const i64 kmer_base = ll.kmer_idx;
        const VecI32 hi_v = vSet1I32(static_cast<i32>(hi));

        for (i64 o = lo; o < hi; o += W) {
            const size_t e = static_cast<size_t>(event_base + o);
            const size_t k = static_cast<size_t>(kmer_base + o);
            // logProbMatch: ((-0.5 z) z - log(stdv)) - log(sqrt(2 pi)).
            const VecF32 z = vDivF32(
                vSubF32(vLoadF32(&event_mean[e]), vLoadF32(&level_mean[k])),
                vLoadF32(&level_stdv[k]));
            const VecF32 emission = vSubF32(
                vAddF32(vMulF32(vMulF32(neg_half, z), z),
                        vLoadF32(&neg_log_stdv[k])),
                log_sqrt_2pi);

            const VecF32 score_d =
                vAddF32(vAddF32(vLoadF32(diag + o), lp_step), emission);
            const VecF32 score_u =
                vAddF32(vAddF32(vLoadF32(up + o), lp_stay), emission);
            const VecF32 score_l = vAddF32(vLoadF32(left + o), lp_skip);

            const VecF32 take_up = vCmpGtF32(score_u, score_d);
            VecF32 best = vSelectF32(take_up, score_u, score_d);
            const VecF32 take_left = vCmpGtF32(score_l, best);
            best = vSelectF32(take_left, score_l, best);
            VecI32 from = vSelectI32(vF32Bits(take_up), code_up, code_diag);
            from = vSelectI32(vF32Bits(take_left), code_left, from);

            const VecI32 store =
                vAndI32(vF32Bits(vCmpGtF32(best, neg_inf)),
                        vCmpGtI32(hi_v, vIotaI32(static_cast<i32>(o))));
            vStoreF32(cur + o, vSelectF32(vAsF32(store), best, neg_inf));
            vStoreBytesI32(cur_trace + o, vAndI32(store, from));
        }
    }

    finishAlignment(
        band_ll, n_events, n_kmers, w, lp.trim,
        [&](i64 b, i64 offset) { return row(b)[offset]; },
        [&](i64 b, i64 offset) { return traceRow(b)[offset]; }, result);
    return result;
}

} // namespace

} // namespace gb::simd
