/**
 * @file
 * Band geometry of the adaptive banded event alignment, shared by the
 * scalar oracle (abea.cc) and the band-parallel SIMD engine
 * (simd/abea_engine*): trace codes, band anchors, per-read transition
 * log-probabilities, the emission constant, the adaptive move, each
 * band's valid offset range, and the termination + backtrace pass.
 *
 * Both DPs fill the same cells with the same values and differ only
 * in how a band row is stored, so the pass that reads the finished
 * rows takes the cell and trace stores as accessors.
 */
#ifndef GB_ABEA_ABEA_BAND_H
#define GB_ABEA_ABEA_BAND_H

#include <algorithm>
#include <limits>
#include <span>

#include "abea/abea.h"

namespace gb::abea {

inline constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/** log(sqrt(2 pi)), the Gaussian normalizer of logProbMatch. */
inline constexpr float kLogSqrt2Pi = 0.9189385332f;

/** Backtrace code of a cell: which predecessor its score came from. */
enum : u8 { kFromNone = 0, kFromDiag, kFromUp, kFromLeft };

/**
 * Band anchor: coordinates of offset 0 (the lower-left cell). Offset
 * o of a band is event `event_idx - o`, k-mer `kmer_idx + o`.
 */
struct BandLL
{
    i64 event_idx;
    i64 kmer_idx;
};

/** Transition log-probabilities of one read. */
struct Transitions
{
    float stay;
    float skip;
    float step;
    float trim;
};

/** Nanopolish parameterization from the event/k-mer ratio. */
Transitions transitionsFor(i64 n_events, i64 n_kmers,
                           const AbeaParams& params);

/**
 * Anchor of band 0 for bandwidth w: the virtual start cell (-1, -1)
 * sits at offset w / 2. Band 1 is one move down, so the first trimmed
 * event sits at offset w / 2 too.
 */
inline BandLL
firstBand(i64 w)
{
    return {w / 2 - 1, -1 - w / 2};
}

/**
 * Adaptive move out of band `prev` (Suzuki-Kasahara rule): follow
 * the higher band edge (ll = offset 0, ur = offset w - 1), forced at
 * the sequence boundaries. Only the free choice is a probed branch.
 */
template <typename Probe>
bool
moveRight(const BandLL& prev, i64 n_events, i64 n_kmers, float ll,
          float ur, Probe& probe)
{
    if (prev.kmer_idx >= n_kmers - 1) return false;
    if (prev.event_idx >= n_events - 1) return true;
    const bool right = ur > ll;
    probe.branch(60, right);
    return right;
}

/** Anchor of the band after `prev`. */
inline BandLL
nextBand(const BandLL& prev, bool right)
{
    return right ? BandLL{prev.event_idx, prev.kmer_idx + 1}
                 : BandLL{prev.event_idx + 1, prev.kmer_idx};
}

/**
 * Offsets [lo, hi) of band `ll` whose cell is a real (event, k-mer)
 * pair; lo >= hi for a band with none.
 */
inline std::pair<i64, i64>
bandRange(const BandLL& ll, i64 n_events, i64 n_kmers, i64 w)
{
    const i64 lo = std::max<i64>(
        {-ll.kmer_idx, ll.event_idx - (n_events - 1), 0});
    const i64 hi = std::min<i64>(
        {n_kmers - ll.kmer_idx, ll.event_idx + 1, w});
    return {lo, hi};
}

/**
 * Termination and backtrace: pick the best full-k-mer-coverage cell
 * (trailing events trimmed) and walk the trace codes back to the
 * start, filling result.score / valid / alignment. `cell(b, o)` and
 * `trace(b, o)` read the finished rows for 0 <= o < w.
 */
template <typename Cell, typename Trace>
void
finishAlignment(std::span<const BandLL> band_ll, i64 n_events,
                i64 n_kmers, i64 w, float lp_trim, Cell cell,
                Trace trace, AbeaResult& result)
{
    const i64 n_bands = static_cast<i64>(band_ll.size());
    auto eventToOffset = [&](i64 b, i64 event) {
        return band_ll[static_cast<size_t>(b)].event_idx - event;
    };

    float best_score = kNegInf;
    i64 best_event = -1;
    for (i64 event_idx = 0; event_idx < n_events; ++event_idx) {
        const i64 b = event_idx + (n_kmers - 1) + 2;
        if (b < 0 || b >= n_bands) continue;
        const i64 offset = eventToOffset(b, event_idx);
        if (offset < 0 || offset >= w) continue;
        const float s =
            cell(b, offset) +
            static_cast<float>(n_events - 1 - event_idx) * lp_trim;
        if (s > best_score) {
            best_score = s;
            best_event = event_idx;
        }
    }
    if (best_event < 0 || best_score == kNegInf) return;

    result.score = best_score;
    result.valid = true;

    i64 event_idx = best_event;
    i64 kmer_idx = n_kmers - 1;
    while (event_idx >= 0 && kmer_idx >= 0) {
        const i64 b = event_idx + kmer_idx + 2;
        const u8 from = trace(b, eventToOffset(b, event_idx));
        if (from == kFromNone) break;
        // Every visited in-band cell is an (event, k-mer) assignment
        // (Nanopolish emits skip-reached cells too).
        result.alignment.push_back({static_cast<u32>(event_idx),
                                    static_cast<u32>(kmer_idx)});
        if (from == kFromDiag) {
            --event_idx;
            --kmer_idx;
        } else if (from == kFromUp) {
            --event_idx;
        } else {
            --kmer_idx;
        }
    }
    std::reverse(result.alignment.begin(), result.alignment.end());
}

} // namespace gb::abea

#endif // GB_ABEA_ABEA_BAND_H
