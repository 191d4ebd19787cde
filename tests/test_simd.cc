/**
 * @file
 * Tests for the gb::simd execution engine: dispatch-level plumbing,
 * scalar/SIMD equivalence for banded-SW (bit-identical scores, end
 * positions and abort flags at every dispatch level) and PairHMM
 * (within 1e-5 of the scalar float path, exact double fallback).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "align/banded_sw.h"
#include "io/dna.h"
#include "phmm/pairhmm.h"
#include "simd/bsw_engine.h"
#include "simd/chain_engine.h"
#include "simd/gemm_engine.h"
#include "simd/phmm_engine.h"
#include "simd/poa_engine.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace gb {
namespace {

/** Restores the process-global dispatch level on scope exit. */
struct LevelGuard
{
    ~LevelGuard() { simd::resetSimdLevel(); }
};

/** Levels this host can actually execute (always includes scalar). */
std::vector<simd::SimdLevel>
testableLevels()
{
    std::vector<simd::SimdLevel> levels{simd::SimdLevel::kScalar};
    const simd::SimdLevel best = simd::detectSimdLevel();
    if (best >= simd::SimdLevel::kSse4) {
        levels.push_back(simd::SimdLevel::kSse4);
    }
    if (best >= simd::SimdLevel::kAvx2) {
        levels.push_back(simd::SimdLevel::kAvx2);
    }
    return levels;
}

TEST(SimdDispatch, ParseAcceptsKnownNames)
{
    EXPECT_EQ(simd::parseSimdLevel("scalar"), simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::parseSimdLevel("sse4"), simd::SimdLevel::kSse4);
    EXPECT_EQ(simd::parseSimdLevel("sse4.2"), simd::SimdLevel::kSse4);
    EXPECT_EQ(simd::parseSimdLevel("sse42"), simd::SimdLevel::kSse4);
    EXPECT_EQ(simd::parseSimdLevel("avx2"), simd::SimdLevel::kAvx2);
    EXPECT_FALSE(simd::parseSimdLevel("avx512").has_value());
    EXPECT_FALSE(simd::parseSimdLevel("").has_value());
}

TEST(SimdDispatch, NamesRoundTrip)
{
    for (const simd::SimdLevel level :
         {simd::SimdLevel::kScalar, simd::SimdLevel::kSse4,
          simd::SimdLevel::kAvx2}) {
        EXPECT_EQ(simd::parseSimdLevel(simd::simdLevelName(level)),
                  level);
    }
}

TEST(SimdDispatch, SetLevelClampsToDetected)
{
    LevelGuard guard;
    const simd::SimdLevel best = simd::detectSimdLevel();
    simd::setSimdLevel(simd::SimdLevel::kAvx2);
    EXPECT_LE(simd::activeSimdLevel(), best);
    simd::setSimdLevel(simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::activeSimdLevel(), simd::SimdLevel::kScalar);
}

TEST(SimdDispatch, LaneCountsMatchLevel)
{
    EXPECT_EQ(simd::bswLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kScalar), 1u);
    EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kScalar), 1u);
    const simd::SimdLevel best = simd::detectSimdLevel();
    if (best >= simd::SimdLevel::kSse4) {
        EXPECT_EQ(simd::bswLanes(simd::SimdLevel::kSse4), 8u);
        EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kSse4), 4u);
        EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kSse4), 4u);
        EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kSse4), 4u);
    }
    if (best >= simd::SimdLevel::kAvx2) {
        EXPECT_EQ(simd::bswLanes(simd::SimdLevel::kAvx2), 16u);
        EXPECT_EQ(simd::phmmLanes(simd::SimdLevel::kAvx2), 8u);
        EXPECT_EQ(simd::chainLanes(simd::SimdLevel::kAvx2), 8u);
        EXPECT_EQ(simd::poaLanes(simd::SimdLevel::kAvx2), 8u);
    }
}

/** Random pair mix covering the interesting regimes: similar pairs,
 *  unrelated pairs, z-drop triggers, N bases and ragged lengths. */
struct PairStorage
{
    std::vector<std::vector<u8>> queries;
    std::vector<std::vector<u8>> targets;
    std::vector<SwPair> pairs;

    void
    add(std::vector<u8> q, std::vector<u8> t)
    {
        queries.push_back(std::move(q));
        targets.push_back(std::move(t));
    }

    void
    finalize()
    {
        pairs.clear();
        for (size_t i = 0; i < queries.size(); ++i) {
            pairs.push_back({queries[i], targets[i]});
        }
    }
};

PairStorage
makeRandomPairs(u64 count, u64 seed)
{
    Rng rng(seed);
    PairStorage set;
    for (u64 i = 0; i < count; ++i) {
        const u64 m = 1 + rng.below(250);
        std::vector<u8> q(m);
        for (auto& c : q) c = static_cast<u8>(rng.below(4));
        std::vector<u8> t;
        switch (i % 4) {
          case 0: { // mutated copy: high scores, varied ends
            t = q;
            for (auto& c : t) {
                if (rng.chance(0.08)) c = static_cast<u8>(rng.below(4));
            }
            break;
          }
          case 1: { // unrelated: low scores, early z-drops
            t.resize(1 + rng.below(250));
            for (auto& c : t) c = static_cast<u8>(rng.below(4));
            break;
          }
          case 2: { // good prefix then divergence: z-drop mid-way
            t = q;
            for (size_t j = t.size() / 2; j < t.size(); ++j) {
                t[j] = static_cast<u8>(rng.below(4));
            }
            t.insert(t.end(), 40 + rng.below(40),
                     static_cast<u8>(rng.below(4)));
            break;
          }
          default: { // copy with N bases sprinkled in
            t = q;
            for (auto& c : t) {
                if (rng.chance(0.05)) c = 4; // N code
            }
            break;
          }
        }
        set.add(std::move(q), std::move(t));
    }
    set.finalize();
    return set;
}

void
expectEnginesAgree(const PairStorage& set, const SwParams& params)
{
    std::vector<SwResult> scalar(set.pairs.size());
    for (size_t i = 0; i < set.pairs.size(); ++i) {
        scalar[i] =
            bandedSw(set.pairs[i].query, set.pairs[i].target, params);
    }
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        ASSERT_EQ(simd::activeSimdLevel(), level);
        const auto got = simd::bswAlign(set.pairs, params);
        ASSERT_EQ(got.size(), set.pairs.size());
        for (size_t i = 0; i < set.pairs.size(); ++i) {
            const std::string ctx = "level " +
                std::string(simd::simdLevelName(level)) + ", pair " +
                std::to_string(i);
            EXPECT_EQ(got[i].score, scalar[i].score) << ctx;
            EXPECT_EQ(got[i].query_end, scalar[i].query_end) << ctx;
            EXPECT_EQ(got[i].target_end, scalar[i].target_end) << ctx;
            EXPECT_EQ(got[i].aborted, scalar[i].aborted) << ctx;
            EXPECT_EQ(got[i].cell_updates, scalar[i].cell_updates)
                << ctx;
        }
    }
}

TEST(SimdBsw, MatchesScalarOnRandomPairsAllLevels)
{
    // >= 1000 pairs across the regime mix, default parameters.
    expectEnginesAgree(makeRandomPairs(1024, 501), SwParams{});
}

TEST(SimdBsw, MatchesScalarWithTightZdrop)
{
    SwParams p;
    p.zdrop = 30;
    expectEnginesAgree(makeRandomPairs(256, 502), p);
}

TEST(SimdBsw, MatchesScalarAcrossBandWidths)
{
    for (const i32 band : {1, 7, 33, 128}) {
        SwParams p;
        p.band_width = band;
        expectEnginesAgree(makeRandomPairs(128, 503 + band), p);
    }
}

TEST(SimdBsw, OversizeSequencesFallBackToScalar)
{
    // Lengths beyond the i16-safe cap route to the scalar kernel but
    // must still produce identical results through the same API.
    Rng rng(504);
    PairStorage set;
    std::vector<u8> q(static_cast<u64>(simd::kBswMaxSimdLen) + 10);
    for (auto& c : q) c = static_cast<u8>(rng.below(4));
    std::vector<u8> t = q;
    for (auto& c : t) {
        if (rng.chance(0.02)) c = static_cast<u8>(rng.below(4));
    }
    set.add(std::move(q), std::move(t));
    // And one short pair in the same call to exercise mixed batches.
    std::vector<u8> q2(50);
    for (auto& c : q2) c = static_cast<u8>(rng.below(4));
    set.add(q2, q2);
    set.finalize();
    expectEnginesAgree(set, SwParams{});
}

TEST(SimdBsw, NonLocalModeFallsBackToScalar)
{
    SwParams p;
    p.local = false;
    expectEnginesAgree(makeRandomPairs(64, 505), p);
}

TEST(SimdBsw, StatsCountUsefulCellsExactly)
{
    const PairStorage set = makeRandomPairs(200, 506);
    const SwParams p;
    u64 scalar_cells = 0;
    for (const auto& pair : set.pairs) {
        scalar_cells +=
            bandedSw(pair.query, pair.target, p).cell_updates;
    }
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        BatchSwStats stats;
        simd::bswAlign(set.pairs, p, &stats);
        EXPECT_EQ(stats.useful_cells, scalar_cells)
            << simd::simdLevelName(level);
        EXPECT_GE(stats.totalCellUpdates(), scalar_cells)
            << simd::simdLevelName(level);
        EXPECT_GE(stats.overworkRatio(), 1.0)
            << simd::simdLevelName(level);
        EXPECT_EQ(stats.lanes, simd::bswLanes(level));
    }
}

/** Random PairHMM inputs: read + qualities + related haplotype. */
struct PhmmCase
{
    std::vector<u8> read;
    std::vector<u8> quals;
    std::vector<u8> hap;
};

std::vector<PhmmCase>
makePhmmCases(u64 count, u64 seed)
{
    Rng rng(seed);
    std::vector<PhmmCase> cases;
    for (u64 i = 0; i < count; ++i) {
        PhmmCase c;
        c.read.resize(1 + rng.below(150));
        for (auto& b : c.read) b = static_cast<u8>(rng.below(4));
        c.quals.resize(c.read.size());
        for (auto& q : c.quals) {
            q = static_cast<u8>(10 + rng.below(31));
        }
        if (i % 3 == 0) {
            c.hap.resize(1 + rng.below(200));
            for (auto& b : c.hap) b = static_cast<u8>(rng.below(4));
        } else {
            c.hap = c.read;
            for (auto& b : c.hap) {
                if (rng.chance(0.05)) b = static_cast<u8>(rng.below(4));
            }
            c.hap.insert(c.hap.end(), rng.below(30),
                         static_cast<u8>(rng.below(4)));
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

TEST(SimdPhmm, MatchesScalarWithin1e5AllLevels)
{
    const PhmmParams params;
    const auto cases = makePhmmCases(300, 601);
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        for (size_t i = 0; i < cases.size(); ++i) {
            const auto& c = cases[i];
            const PhmmResult scalar =
                pairHmmLogLikelihood(c.read, c.quals, c.hap, params);
            const PhmmResult got =
                simd::phmmLogLikelihood(c.read, c.quals, c.hap, params);
            EXPECT_NEAR(got.log10_likelihood, scalar.log10_likelihood,
                        1e-5)
                << "level " << simd::simdLevelName(level) << ", case "
                << i;
            EXPECT_EQ(got.cell_updates, scalar.cell_updates)
                << "level " << simd::simdLevelName(level) << ", case "
                << i;
        }
    }
}

TEST(SimdPhmm, UnderflowFallsBackToDoubleExactly)
{
    // A long read against an unrelated haplotype at high base quality
    // drives the float forward pass below kMinAcceptedFloat, forcing
    // the double re-run in both the scalar wrapper and the SIMD
    // engine; the fallback results must agree exactly.
    Rng rng(602);
    PhmmCase c;
    c.read.resize(280);
    for (auto& b : c.read) b = static_cast<u8>(rng.below(4));
    c.quals.assign(c.read.size(), 40);
    c.hap.resize(300);
    for (auto& b : c.hap) b = static_cast<u8>(rng.below(4));

    const PhmmParams params;
    const PhmmResult scalar =
        pairHmmLogLikelihood(c.read, c.quals, c.hap, params);
    ASSERT_TRUE(scalar.used_double)
        << "test input no longer triggers the float underflow";
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        const PhmmResult got =
            simd::phmmLogLikelihood(c.read, c.quals, c.hap, params);
        EXPECT_TRUE(got.used_double)
            << simd::simdLevelName(level);
        EXPECT_DOUBLE_EQ(got.log10_likelihood, scalar.log10_likelihood)
            << simd::simdLevelName(level);
    }
}

// ---- GEMM -------------------------------------------------------------

/** Operands of one GEMM case; leading dimensions carry random padding. */
struct GemmCase
{
    simd::SgemmArgs args;
    std::vector<float> a;
    std::vector<float> b;
    std::vector<float> c;
};

enum class GemmStart { kZero, kBias, kExisting };

GemmCase
makeGemmCase(u32 m, u32 n, u32 k, bool a_transposed, GemmStart start,
             Rng& rng)
{
    GemmCase g;
    const u32 pad = static_cast<u32>(rng.below(3));
    g.args.m = m;
    g.args.n = n;
    g.args.k = k;
    if (a_transposed) {
        // Site-major panel layout: A(i, p) at p * (m + pad) + i.
        g.args.a_row_stride = 1;
        g.args.a_col_stride = m + pad;
        g.a.resize(static_cast<size_t>(m + pad) * k);
    } else {
        g.args.a_row_stride = k + pad;
        g.args.a_col_stride = 1;
        g.a.resize(static_cast<size_t>(m) * (k + pad));
    }
    g.args.ldb = n + pad;
    g.args.ldc = n + pad;
    g.b.resize(static_cast<size_t>(k) * g.args.ldb);
    g.c.resize(static_cast<size_t>(m) * g.args.ldc);
    for (auto& v : g.a) v = static_cast<float>(rng.normal());
    for (auto& v : g.b) v = static_cast<float>(rng.normal());
    std::vector<float> bias(g.args.ldc);
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    for (size_t i = 0; i < g.c.size(); ++i) {
        switch (start) {
          case GemmStart::kZero: g.c[i] = 0.0f; break;
          case GemmStart::kBias: g.c[i] = bias[i % g.args.ldc]; break;
          case GemmStart::kExisting:
            g.c[i] = static_cast<float>(rng.normal());
            break;
        }
    }
    g.args.a = g.a.data();
    g.args.b = g.b.data();
    g.args.c = g.c.data();
    return g;
}

bool
sameBits(const std::vector<float>& x, const std::vector<float>& y)
{
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) ==
                0);
}

TEST(SimdGemm, MatchesScalarBitForBitAllLevels)
{
    const u32 dims[] = {0, 1, 7, 8, 9, 17, 63, 65, 130};
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        Rng rng(701);
        for (u32 m : dims) {
            for (u32 n : dims) {
                for (u32 k : dims) {
                    for (const GemmStart start :
                         {GemmStart::kZero, GemmStart::kBias,
                          GemmStart::kExisting}) {
                        GemmCase ref = makeGemmCase(
                            m, n, k, rng.chance(0.5), start, rng);
                        GemmCase got = ref;
                        got.args.c = got.c.data();
                        simd::sgemmScalar(ref.args);
                        simd::sgemm(got.args);
                        EXPECT_TRUE(sameBits(ref.c, got.c))
                            << simd::simdLevelName(level) << " m=" << m
                            << " n=" << n << " k=" << k << " start="
                            << static_cast<int>(start);
                    }
                }
            }
        }
    }
}

TEST(SimdGemm, KeepsTheDotLoopOrderAcrossInnerChunks)
{
    // Long inner dimensions cross the engine's B-panel chunks; every
    // element must still equal `acc = c; acc += a * b` in ascending p,
    // the loop the nn layers and grm tiles used before the GEMM.
    Rng rng(702);
    for (const simd::SimdLevel level : testableLevels()) {
        LevelGuard guard;
        simd::setSimdLevel(level);
        for (const u32 k : {255u, 256u, 257u, 600u, 2048u}) {
            GemmCase g = makeGemmCase(6, 37, k, rng.chance(0.5),
                                      GemmStart::kBias, rng);
            std::vector<float> expect = g.c;
            for (u32 i = 0; i < g.args.m; ++i) {
                for (u32 j = 0; j < g.args.n; ++j) {
                    float acc = expect[i * g.args.ldc + j];
                    for (u32 p = 0; p < k; ++p) {
                        acc += g.a[i * g.args.a_row_stride +
                                   p * g.args.a_col_stride] *
                               g.b[p * g.args.ldb + j];
                    }
                    expect[i * g.args.ldc + j] = acc;
                }
            }
            simd::sgemm(g.args);
            EXPECT_TRUE(sameBits(expect, g.c))
                << simd::simdLevelName(level) << " k=" << k;
        }
    }
}

} // namespace
} // namespace gb
