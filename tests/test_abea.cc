/**
 * @file
 * Tests for event detection and adaptive banded event alignment.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "abea/abea.h"
#include "abea/event_detect.h"
#include "simdata/genome.h"
#include "simd/abea_engine.h"
#include "simdata/pore_model.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gb {
namespace {

std::string
randomDna(Rng& rng, u64 len)
{
    std::string s(len, 'A');
    for (auto& c : s) c = "ACGT"[rng.below(4)];
    return s;
}

TEST(EventDetect, EmptyAndTinySignals)
{
    EXPECT_TRUE(detectEvents(std::vector<float>{}).empty());
    const std::vector<float> tiny{80.f, 81.f, 80.f};
    const auto events = detectEvents(tiny);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].length, 3u);
}

TEST(EventDetect, StepSignalSegmented)
{
    // Three flat levels -> three events.
    std::vector<float> samples;
    for (int i = 0; i < 30; ++i) samples.push_back(70.0f);
    for (int i = 0; i < 30; ++i) samples.push_back(110.0f);
    for (int i = 0; i < 30; ++i) samples.push_back(85.0f);
    const auto events = detectEvents(samples);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_NEAR(events[0].mean, 70.0f, 0.5f);
    EXPECT_NEAR(events[1].mean, 110.0f, 0.5f);
    EXPECT_NEAR(events[2].mean, 85.0f, 0.5f);
    // Events tile the signal.
    u64 total = 0;
    for (const auto& e : events) total += e.length;
    EXPECT_EQ(total, samples.size());
}

TEST(EventDetect, RecoversSimulatedEventCount)
{
    Rng rng(101);
    PoreModel model(6, 17);
    const std::string seq = randomDna(rng, 120);
    // Boundaries between re-sampled events of the *same* k-mer carry
    // no level change and are inherently undetectable, so measure the
    // detector on a resample-free signal with comfortable dwells.
    SignalParams sp;
    sp.noise_stdv = 0.5;
    sp.dwell_mean = 14.0;
    sp.resample_prob = 0.0;
    sp.seed = 5;
    const auto sim = simulateSignal(model, seq, sp);

    const auto events = detectEvents(sim.samples);
    const double ratio = static_cast<double>(events.size()) /
                         static_cast<double>(sim.events.size());
    EXPECT_GT(ratio, 0.65) << events.size() << " vs "
                           << sim.events.size();
    EXPECT_LT(ratio, 1.35);
}

/** Build events directly from simulator ground truth. */
std::vector<Event>
truthEvents(const SimSignal& sim)
{
    std::vector<Event> events;
    for (const auto& te : sim.events) {
        events.push_back({te.start_sample, te.length, te.mean, 1.0f});
    }
    return events;
}

TEST(Abea, AlignsTrueSignalWithHighScore)
{
    Rng rng(102);
    PoreModel model(6, 17);
    const std::string ref = randomDna(rng, 300);
    SignalParams sp;
    sp.seed = 7;
    const auto sim = simulateSignal(model, ref, sp);
    const auto events = truthEvents(sim);

    const auto result = alignEvents(events, model, ref);
    ASSERT_TRUE(result.valid);
    EXPECT_FALSE(result.alignment.empty());

    // Score per event should be near the expected Gaussian log-pdf
    // scale (>> random alignment, tested below).
    const auto wrong =
        alignEvents(events, model, randomDna(rng, 300));
    ASSERT_TRUE(wrong.valid);
    EXPECT_GT(result.score, wrong.score + 100.0f);
}

TEST(Abea, AlignmentIsMonotone)
{
    Rng rng(103);
    PoreModel model(6, 19);
    const std::string ref = randomDna(rng, 250);
    const auto sim = simulateSignal(model, ref, SignalParams{});
    const auto events = truthEvents(sim);
    const auto result = alignEvents(events, model, ref);
    ASSERT_TRUE(result.valid);
    for (size_t i = 1; i < result.alignment.size(); ++i) {
        EXPECT_GE(result.alignment[i].event_idx,
                  result.alignment[i - 1].event_idx);
        EXPECT_GE(result.alignment[i].kmer_idx,
                  result.alignment[i - 1].kmer_idx);
    }
}

TEST(Abea, RecoversTrueEventToKmerMapping)
{
    Rng rng(104);
    PoreModel model(6, 23);
    const std::string ref = randomDna(rng, 200);
    SignalParams sp;
    sp.resample_prob = 0.3;
    sp.seed = 11;
    const auto sim = simulateSignal(model, ref, sp);
    const auto events = truthEvents(sim);

    const auto result = alignEvents(events, model, ref);
    ASSERT_TRUE(result.valid);

    // Compare against ground truth: most aligned events should map to
    // a k-mer close to their true k-mer.
    u64 close = 0;
    u64 total = 0;
    for (const auto& ea : result.alignment) {
        const auto& te = sim.events[ea.event_idx];
        ++total;
        if (std::abs(static_cast<i64>(te.kmer_index) -
                     static_cast<i64>(ea.kmer_idx)) <= 2) {
            ++close;
        }
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(close) / static_cast<double>(total),
              0.9);
}

TEST(Abea, OverRepresentedEventsHandledByStays)
{
    // Heavy resampling (~2x events per k-mer, the paper's case).
    Rng rng(105);
    PoreModel model(6, 29);
    const std::string ref = randomDna(rng, 150);
    SignalParams sp;
    sp.resample_prob = 0.5;
    sp.seed = 13;
    const auto sim = simulateSignal(model, ref, sp);
    const auto events = truthEvents(sim);
    ASSERT_GT(events.size(), ref.size() - 6 + 1); // over-represented

    const auto result = alignEvents(events, model, ref);
    ASSERT_TRUE(result.valid);
    // Nearly every event gets assigned (few trims).
    EXPECT_GT(result.alignment.size(), events.size() * 8 / 10);
}

TEST(Abea, BandAccountingMatchesStructure)
{
    Rng rng(106);
    PoreModel model(6, 31);
    const std::string ref = randomDna(rng, 100);
    const auto sim = simulateSignal(model, ref, SignalParams{});
    const auto events = truthEvents(sim);

    AbeaParams params;
    params.record_bands = true;
    const auto result = alignEvents(events, model, ref, params);
    ASSERT_TRUE(result.valid);
    const u64 n_kmers = ref.size() - 6 + 1;
    EXPECT_EQ(result.bands, events.size() + n_kmers);
    // Cells per band never exceed the bandwidth.
    u64 cells = 0;
    for (const auto& [lo, hi] : result.band_ranges) {
        EXPECT_LE(hi - lo, params.bandwidth);
        cells += hi - lo;
    }
    EXPECT_EQ(cells, result.cells_computed);
}

TEST(Abea, InputValidation)
{
    PoreModel model(6, 37);
    std::vector<Event> events{{0, 5, 80.0f, 1.0f}};
    EXPECT_THROW(alignEvents(events, model, "ACG"), InputError);
    AbeaParams odd;
    odd.bandwidth = 7;
    EXPECT_THROW(alignEvents(events, model, "ACGTACGTACGT", odd),
                 InputError);
    // No events: invalid result, no crash.
    const auto r =
        alignEvents(std::vector<Event>{}, model, "ACGTACGTACGT");
    EXPECT_FALSE(r.valid);
}

/** One fixed alignment problem of the golden set. */
struct GoldenRead
{
    const PoreModel* model;
    std::string ref;
    std::vector<Event> events;
    AbeaParams params;
};

/**
 * The abea tiny preset's inputs (genome seed 162, placement seed 163,
 * signal seeds 164 + r, pore model 6/161: the AbeaKernel prepare
 * recipe) followed by fixed simulated reads that vary the event/k-mer
 * ratio and the bandwidth.
 */
std::vector<GoldenRead>
goldenReads()
{
    static const PoreModel tiny_model(6, 161);
    static const PoreModel fixed_model(6, 17);
    std::vector<GoldenRead> reads;

    GenomeParams gp;
    gp.length = 200'000;
    gp.seed = 162;
    const Genome genome = generateGenome(gp);
    Rng rng(163);
    for (u64 r = 0; r < 5; ++r) {
        const u64 seg_len = 1000 + rng.below(2500);
        const u64 pos = rng.below(genome.seq.size() - seg_len - 1);
        GoldenRead read{&tiny_model, genome.seq.substr(pos, seg_len), {},
                        {}};
        SignalParams sp;
        sp.seed = 164 + r;
        read.events =
            detectEvents(simulateSignal(tiny_model, read.ref, sp).samples);
        reads.push_back(std::move(read));
    }

    struct Fixed
    {
        u64 len;
        double resample;
        u32 bandwidth;
    };
    const Fixed fixed[] = {
        {300, 0.35, 100}, {300, 0.35, 10}, {150, 0.5, 20},
        {20, 0.35, 6},    {400, 0.0, 512}, {120, 0.6, 4},
    };
    Rng fixed_rng(201);
    u64 seed = 300;
    for (const Fixed& f : fixed) {
        GoldenRead read{&fixed_model, randomDna(fixed_rng, f.len), {}, {}};
        SignalParams sp;
        sp.resample_prob = f.resample;
        sp.seed = seed++;
        read.events =
            truthEvents(simulateSignal(fixed_model, read.ref, sp));
        read.params.bandwidth = f.bandwidth;
        reads.push_back(std::move(read));
    }
    return reads;
}

u64
alignmentHash(const AbeaResult& r)
{
    return xxhash64(r.alignment.data(),
                    r.alignment.size() * sizeof(EventAlignment));
}

/** Exact record of one golden read's alignment. */
struct Golden
{
    u32 score_bits;
    u64 alignment_hash;
    u64 cells;
    u64 bands;
    std::vector<u64> totals; ///< CountingProbe op counts by class,
                             ///< then load and store bytes
};

/**
 * Recorded from the scalar alignEvents before the band-parallel SIMD
 * engine existed, one entry per goldenReads() read.
 */
const std::vector<Golden>&
goldenResults()
{
    static const std::vector<Golden> kGolden{
        {0xc60950cdu, 0x4a760b045167100eull, 381977, 3921,
         {2291862, 3437793, 0, 1904108, 381977, 3822, 0, 16783880,
          1527908}},
        {0xc63a96aeu, 0x1fcb1a52f9203e1dull, 540586, 5507,
         {3243516, 4865274, 0, 2694736, 540586, 5408, 0, 23753008,
          2162344}},
        {0xc5e8edb8u, 0xb2f255a0f0a1c321ull, 359593, 3697,
         {2157558, 3236337, 0, 1792565, 359593, 3598, 0, 15800492,
          1438372}},
        {0xc66bc97fu, 0x2330002f3de2741full, 698390, 7085,
         {4190340, 6285510, 0, 3481274, 698390, 6986, 0, 30686456,
          2793560}},
        {0xc62aa578u, 0xd89238aec1f60429ull, 506691, 5168,
         {3040146, 4560219, 0, 2525725, 506691, 5069, 0, 22263484,
          2026764}},
        {0xc48dbb18u, 0x845dbbbdacc1af88ull, 63762, 739,
         {382572, 573858, 0, 318007, 63762, 640, 0, 2802316, 255048}},
        {0xc489469fu, 0x1d7442ed571343c5ull, 7160, 727,
         {42960, 64440, 0, 34707, 7160, 718, 0, 310668, 28640}},
        {0xc42615f6u, 0x3d063578c668af0full, 7736, 409,
         {46416, 69624, 0, 38101, 7736, 390, 0, 338068, 30944}},
        {0xc236c251u, 0x942fd840c07ce4ebull, 154, 33,
         {924, 1386, 0, 740, 154, 28, 0, 6656, 616}},
        {0xc474e4cfu, 0x179679bf7ece3618ull, 156025, 790,
         {936150, 1404225, 0, 780125, 156025, 138, 0, 6865100,
          624100}},
        {0xc4063e22u, 0x8ba7b98973d5c749ull, 1278, 325,
         {7668, 11502, 0, 5911, 1278, 322, 0, 54316, 5112}},
    };
    return kGolden;
}

void
expectGolden(const AbeaResult& r, const Golden& g, const std::string& where)
{
    EXPECT_TRUE(r.valid) << where;
    EXPECT_EQ(std::bit_cast<u32>(r.score), g.score_bits) << where;
    EXPECT_EQ(alignmentHash(r), g.alignment_hash) << where;
    EXPECT_EQ(r.cells_computed, g.cells) << where;
    EXPECT_EQ(r.bands, g.bands) << where;
}

TEST(AbeaGolden, ScalarOracleResultsAndProbeTotals)
{
    const std::vector<GoldenRead> reads = goldenReads();
    ASSERT_EQ(reads.size(), goldenResults().size());
    for (size_t i = 0; i < reads.size(); ++i) {
        const GoldenRead& g = reads[i];
        const std::string where = "read " + std::to_string(i);
        expectGolden(alignEvents(g.events, *g.model, g.ref, g.params),
                     goldenResults()[i], where);

        CountingProbe probe;
        expectGolden(
            alignEvents(g.events, *g.model, g.ref, g.params, probe),
            goldenResults()[i], where + " (probed)");
        std::vector<u64> totals(probe.counts().by_class.begin(),
                                probe.counts().by_class.end());
        totals.push_back(probe.loadBytes());
        totals.push_back(probe.storeBytes());
        EXPECT_EQ(totals, goldenResults()[i].totals) << where;
    }
}

/**
 * Every aligner abea can run on: the scalar oracle behind the engine
 * signature, the active level (the one --engine=simd dispatches), and
 * each level this host executes.
 */
std::vector<std::pair<std::string, simd::AbeaAlignFn>>
alignersUnderTest()
{
    std::vector<std::pair<std::string, simd::AbeaAlignFn>> out{
        {"oracle", simd::alignEventsScalar},
        {"active", simd::abeaAlignFor(simd::activeSimdLevel())}};
    for (u8 l = 0; l <= static_cast<u8>(simd::detectSimdLevel()); ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        out.emplace_back(simd::simdLevelName(level),
                         simd::abeaAlignFor(level));
    }
    return out;
}

TEST(AbeaGolden, EveryEngineAndLevelMatchesRecord)
{
    const std::vector<GoldenRead> reads = goldenReads();
    ASSERT_EQ(reads.size(), goldenResults().size());
    for (const auto& [name, align] : alignersUnderTest()) {
        for (size_t i = 0; i < reads.size(); ++i) {
            const GoldenRead& g = reads[i];
            const simd::AbeaModel tables(*g.model);
            expectGolden(align(g.events, tables, g.ref, g.params),
                         goldenResults()[i],
                         "read " + std::to_string(i) + " on " + name);
        }
    }
}

/** Bit-for-bit equality of two alignment results. */
void
expectSameResult(const AbeaResult& got, const AbeaResult& want,
                 const std::string& where)
{
    EXPECT_EQ(got.valid, want.valid) << where;
    EXPECT_EQ(std::memcmp(&got.score, &want.score, sizeof(float)), 0)
        << where << ": " << got.score << " vs " << want.score;
    ASSERT_EQ(got.alignment.size(), want.alignment.size()) << where;
    if (!want.alignment.empty()) {
        EXPECT_EQ(std::memcmp(got.alignment.data(), want.alignment.data(),
                              want.alignment.size() *
                                  sizeof(EventAlignment)),
                  0)
            << where;
    }
    EXPECT_EQ(got.cells_computed, want.cells_computed) << where;
    EXPECT_EQ(got.bands, want.bands) << where;
    EXPECT_EQ(got.band_ranges, want.band_ranges) << where;
}

/** Compare every aligner under test against alignEvents(). */
void
expectEnginesMatchOracle(std::span<const Event> events,
                         const PoreModel& model, const std::string& ref,
                         const AbeaParams& params, const std::string& where)
{
    const AbeaResult want = alignEvents(events, model, ref, params);
    const simd::AbeaModel tables(model);
    for (const auto& [name, align] : alignersUnderTest()) {
        expectSameResult(align(events, tables, ref, params), want,
                         where + " on " + name);
    }
}

/** `count` events whose means follow `ref`'s k-mer levels plus noise. */
std::vector<Event>
noisyEvents(Rng& rng, const PoreModel& model, const std::string& ref,
            u64 count)
{
    const std::vector<u32> ranks = model.sequenceRanks(ref);
    std::vector<Event> events;
    for (u64 i = 0; i < count; ++i) {
        const u64 k = i * ranks.size() / std::max<u64>(count, 1);
        const PoreKmerModel& km = model.byRank(ranks[k]);
        const float noise =
            static_cast<float>(rng.uniform() * 6.0 - 3.0) * km.level_stdv;
        events.push_back({i * 10, 10, km.level_mean + noise, 1.0f});
    }
    return events;
}

TEST(SimdAbea, ShortReferencesAndFewEvents)
{
    // Fewer k-mers than one vector, and 1-3 events.
    Rng rng(401);
    const PoreModel model(6, 41);
    for (u64 len = 6; len <= 15; ++len) {
        for (u64 n_events = 1; n_events <= 3; ++n_events) {
            for (u32 bw : {4u, 6u, 10u, 100u}) {
                const std::string ref = randomDna(rng, len);
                AbeaParams params;
                params.bandwidth = bw;
                expectEnginesMatchOracle(
                    noisyEvents(rng, model, ref, n_events), model, ref,
                    params,
                    "len " + std::to_string(len) + " events " +
                        std::to_string(n_events) + " bw " +
                        std::to_string(bw));
            }
        }
    }
}

TEST(SimdAbea, EventKmerRatioExtremesForceBoundaryMoves)
{
    // Events >> k-mers and k-mers >> events drive the band into the
    // forced moves at both sequence ends.
    Rng rng(402);
    const PoreModel model(6, 43);
    struct Shape
    {
        u64 len;
        u64 n_events;
    };
    for (const Shape& shape : {Shape{30, 400}, Shape{12, 90},
                               Shape{400, 25}, Shape{250, 3},
                               Shape{60, 1000}}) {
        for (u32 bw : {4u, 8u, 10u, 100u}) {
            const std::string ref = randomDna(rng, shape.len);
            AbeaParams params;
            params.bandwidth = bw;
            expectEnginesMatchOracle(
                noisyEvents(rng, model, ref, shape.n_events), model, ref,
                params,
                "len " + std::to_string(shape.len) + " events " +
                    std::to_string(shape.n_events) + " bw " +
                    std::to_string(bw));
        }
    }
}

TEST(SimdAbea, BandwidthsEndingMidVector)
{
    Rng rng(403);
    const PoreModel model(6, 47);
    for (int trial = 0; trial < 4; ++trial) {
        const std::string ref = randomDna(rng, 80 + rng.below(400));
        SignalParams sp;
        sp.resample_prob = 0.1 * trial;
        sp.seed = 500 + trial;
        const auto sim = simulateSignal(model, ref, sp);
        const std::vector<Event> detected = detectEvents(sim.samples);
        const std::vector<Event> truth = truthEvents(sim);
        for (u32 bw : {4u, 6u, 8u, 10u, 12u, 14u, 18u, 100u, 512u}) {
            AbeaParams params;
            params.bandwidth = bw;
            const std::string where = "trial " + std::to_string(trial) +
                                      " bw " + std::to_string(bw);
            expectEnginesMatchOracle(detected, model, ref, params,
                                     where + " detected");
            expectEnginesMatchOracle(truth, model, ref, params,
                                     where + " truth");
        }
    }
}

TEST(SimdAbea, ExtremeEventMeans)
{
    Rng rng(404);
    const PoreModel model(6, 53);
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float extremes[] = {
        0.0f,
        -0.0f,
        1e-40f, // subnormal
        -5000.0f,
        1e6f,
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest(),
        kInf,
        -kInf,
    };
    for (int trial = 0; trial < 6; ++trial) {
        const std::string ref = randomDna(rng, 20 + rng.below(60));
        std::vector<Event> events =
            noisyEvents(rng, model, ref, 10 + rng.below(80));
        // Replace a random subset (or, in trial 0, all) of the means.
        for (Event& e : events) {
            if (trial == 0 || rng.below(3) == 0) {
                e.mean = extremes[rng.below(std::size(extremes))];
            }
        }
        for (u32 bw : {4u, 10u, 100u}) {
            AbeaParams params;
            params.bandwidth = bw;
            expectEnginesMatchOracle(events, model, ref, params,
                                     "trial " + std::to_string(trial) +
                                         " bw " + std::to_string(bw));
        }
    }
}

TEST(SimdAbea, ExactTiesKeepTheOracleChoiceOrder)
{
    // Repeated k-mers and events exactly at their level make many
    // candidate scores equal, so the diagonal-up-left order and the
    // strict > decide the trace codes.
    const PoreModel model(6, 61);
    for (const char* unit : {"A", "AC", "ACG"}) {
        for (u64 len : {8u, 20u, 60u}) {
            std::string ref;
            while (ref.size() < len) ref += unit;
            ref.resize(len);
            const std::vector<u32> ranks = model.sequenceRanks(ref);
            for (u64 n_events : {len - 5, len - 2, 2 * len}) {
                std::vector<Event> events;
                for (u64 i = 0; i < n_events; ++i) {
                    const u32 rank = ranks[i % ranks.size()];
                    events.push_back(
                        {i, 4, model.byRank(rank).level_mean, 1.0f});
                }
                for (u32 bw : {4u, 10u, 100u}) {
                    AbeaParams params;
                    params.bandwidth = bw;
                    params.skip_prob = 0.25;
                    expectEnginesMatchOracle(
                        events, model, ref, params,
                        std::string(unit) + " len " + std::to_string(len) +
                            " events " + std::to_string(n_events) +
                            " bw " + std::to_string(bw));
                }
            }
        }
    }
}

TEST(SimdAbea, RecordBandsAndEmptyEventsReturnOracleResult)
{
    Rng rng(405);
    const PoreModel model(6, 59);
    const std::string ref = randomDna(rng, 120);
    AbeaParams params;
    params.record_bands = true;
    expectEnginesMatchOracle(noisyEvents(rng, model, ref, 150), model,
                             ref, params, "record_bands");
    expectEnginesMatchOracle({}, model, ref, AbeaParams{}, "no events");
    AbeaParams odd;
    odd.bandwidth = 7; // not checked when there are no events
    expectEnginesMatchOracle({}, model, ref, odd, "no events, odd bw");
}

TEST(SimdAbea, InputValidationThroughEngine)
{
    const PoreModel model(6, 37);
    const simd::AbeaModel tables(model);
    const std::vector<Event> events{{0, 5, 80.0f, 1.0f}};
    AbeaParams odd;
    odd.bandwidth = 7;
    AbeaParams narrow;
    narrow.bandwidth = 2;
    for (const auto& [name, align] : alignersUnderTest()) {
        EXPECT_THROW(align(events, tables, "ACG", {}), InputError) << name;
        EXPECT_THROW(align({}, tables, "ACG", {}), InputError) << name;
        EXPECT_THROW(align(events, tables, "ACGTACGTACGT", odd),
                     InputError)
            << name;
        EXPECT_THROW(align(events, tables, "ACGTACGTACGT", narrow),
                     InputError)
            << name;
        EXPECT_FALSE(align({}, tables, "ACGTACGTACGT", {}).valid) << name;
    }
}

} // namespace
} // namespace gb
