#include "abea/abea.h"

#include <cmath>

#include "abea/abea_band.h"

namespace gb {

namespace abea {

Transitions
transitionsFor(i64 n_events, i64 n_kmers, const AbeaParams& params)
{
    const double events_per_kmer =
        static_cast<double>(n_events) / static_cast<double>(n_kmers);
    const double p_stay = 1.0 - 1.0 / (events_per_kmer + 1.0);
    return {
        static_cast<float>(std::log(p_stay)),
        static_cast<float>(std::log(params.skip_prob)),
        static_cast<float>(std::log(
            std::max(1e-12, 1.0 - p_stay - params.skip_prob))),
        static_cast<float>(std::log(params.trim_prob)),
    };
}

} // namespace abea

using namespace abea;

float
logProbMatch(const PoreKmerModel& km, float event_mean)
{
    const float z = (event_mean - km.level_mean) / km.level_stdv;
    return -0.5f * z * z - std::log(km.level_stdv) - kLogSqrt2Pi;
}

template <typename Probe>
AbeaResult
alignEvents(std::span<const Event> events, const PoreModel& model,
            std::string_view ref, const AbeaParams& params, Probe& probe)
{
    AbeaResult result;
    const i64 n_events = static_cast<i64>(events.size());
    requireInput(ref.size() >= model.k(),
                 "abea: reference shorter than the pore-model k");
    const std::vector<u32> ranks = model.sequenceRanks(ref);
    const i64 n_kmers = static_cast<i64>(ranks.size());
    if (n_events == 0) return result;

    const i64 w = params.bandwidth;
    requireInput(w >= 4 && w % 2 == 0,
                 "abea: bandwidth must be even and >= 4");
    const i64 n_bands = n_events + n_kmers + 2;
    const Transitions lp = transitionsFor(n_events, n_kmers, params);

    std::vector<float> band(static_cast<size_t>(n_bands) * w, kNegInf);
    std::vector<u8> trace(static_cast<size_t>(n_bands) * w, kFromNone);
    std::vector<BandLL> band_ll(n_bands);
    auto cell = [&](i64 b, i64 offset) -> float& {
        return band[static_cast<size_t>(b) * w + offset];
    };
    auto tr = [&](i64 b, i64 offset) -> u8& {
        return trace[static_cast<size_t>(b) * w + offset];
    };
    auto kmerToOffset = [&](i64 b, i64 kmer) {
        return kmer - band_ll[b].kmer_idx;
    };
    auto eventToOffset = [&](i64 b, i64 event) {
        return band_ll[b].event_idx - event;
    };
    auto eventAt = [&](i64 b, i64 offset) {
        return band_ll[b].event_idx - offset;
    };
    auto kmerAt = [&](i64 b, i64 offset) {
        return band_ll[b].kmer_idx + offset;
    };
    auto offsetValid = [&](i64 offset) {
        return offset >= 0 && offset < w;
    };

    // Band 0 contains the virtual start cell (-1, -1); band 1 trims
    // the first event.
    band_ll[0] = firstBand(w);
    band_ll[1] = nextBand(band_ll[0], false);
    cell(0, kmerToOffset(0, -1)) = 0.0f;
    {
        const i64 first_trim = eventToOffset(1, 0);
        cell(1, first_trim) = lp.trim;
        tr(1, first_trim) = kFromUp;
    }

    if (params.record_bands) result.band_ranges.resize(n_bands, {0, 0});

    for (i64 b = 2; b < n_bands; ++b) {
        band_ll[b] = nextBand(
            band_ll[b - 1], moveRight(band_ll[b - 1], n_events, n_kmers,
                                      cell(b - 1, 0), cell(b - 1, w - 1),
                                      probe));

        // Trim column (kmer == -1): events skipped before alignment.
        const i64 trim_offset = kmerToOffset(b, -1);
        if (offsetValid(trim_offset)) {
            const i64 event = eventAt(b, trim_offset);
            if (event >= 0 && event < n_events) {
                cell(b, trim_offset) =
                    lp.trim * static_cast<float>(event + 1);
                tr(b, trim_offset) = kFromUp;
            }
        }

        const auto [min_offset, max_offset] =
            bandRange(band_ll[b], n_events, n_kmers, w);
        if (params.record_bands && min_offset < max_offset) {
            result.band_ranges[static_cast<size_t>(b)] = {
                static_cast<u16>(min_offset),
                static_cast<u16>(max_offset)};
        }
        ++result.bands;

        for (i64 offset = min_offset; offset < max_offset; ++offset) {
            const i64 event_idx = eventAt(b, offset);
            const i64 kmer_idx = kmerAt(b, offset);

            const u32 rank = ranks[static_cast<size_t>(kmer_idx)];
            const PoreKmerModel& km = model.byRank(rank);
            probe.load(&km, sizeof(PoreKmerModel));
            probe.load(&events[static_cast<size_t>(event_idx)],
                       sizeof(Event));
            const float lp_emission =
                logProbMatch(km, events[static_cast<size_t>(event_idx)]
                                     .mean);

            const i64 offset_up = eventToOffset(b - 1, event_idx - 1);
            const i64 offset_left = kmerToOffset(b - 1, kmer_idx - 1);
            const i64 offset_diag = kmerToOffset(b - 2, kmer_idx - 1);

            float up = kNegInf;
            if (offsetValid(offset_up)) {
                up = cell(b - 1, offset_up);
                probe.load(&cell(b - 1, offset_up), 4);
            }
            float left = kNegInf;
            if (offsetValid(offset_left)) {
                left = cell(b - 1, offset_left);
                probe.load(&cell(b - 1, offset_left), 4);
            }
            float diag = kNegInf;
            if (offsetValid(offset_diag)) {
                diag = cell(b - 2, offset_diag);
                probe.load(&cell(b - 2, offset_diag), 4);
            }

            const float score_d = diag + lp.step + lp_emission;
            const float score_u = up + lp.stay + lp_emission;
            const float score_l = left + lp.skip;

            float best = score_d;
            u8 from = kFromDiag;
            if (score_u > best) {
                best = score_u;
                from = kFromUp;
            }
            if (score_l > best) {
                best = score_l;
                from = kFromLeft;
            }
            if (best > cell(b, offset)) {
                cell(b, offset) = best;
                tr(b, offset) = from;
            }
            ++result.cells_computed;
            probe.op(OpClass::kFpAlu, 9);
            probe.op(OpClass::kIntAlu, 6);
            probe.store(&cell(b, offset), 4);
        }
    }

    finishAlignment(
        band_ll, n_events, n_kmers, w, lp.trim,
        [&](i64 b, i64 offset) { return cell(b, offset); },
        [&](i64 b, i64 offset) { return tr(b, offset); }, result);
    return result;
}

AbeaResult
alignEvents(std::span<const Event> events, const PoreModel& model,
            std::string_view ref, const AbeaParams& params)
{
    NullProbe probe;
    return alignEvents(events, model, ref, params, probe);
}

// Explicit instantiations.
template AbeaResult alignEvents<NullProbe>(std::span<const Event>,
                                           const PoreModel&,
                                           std::string_view,
                                           const AbeaParams&, NullProbe&);
template AbeaResult alignEvents<CountingProbe>(std::span<const Event>,
                                               const PoreModel&,
                                               std::string_view,
                                               const AbeaParams&,
                                               CountingProbe&);
template AbeaResult alignEvents<CharProbe>(std::span<const Event>,
                                           const PoreModel&,
                                           std::string_view,
                                           const AbeaParams&,
                                           CharProbe&);

} // namespace gb
