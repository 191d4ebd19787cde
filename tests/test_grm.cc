/**
 * @file
 * Tests for genotype synthesis and the GRM kernel: naive-oracle
 * equality, symmetry, population structure, missing-data handling.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "grm/grm.h"
#include "simd/gemm_engine.h"
#include "simdata/genotypes.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace gb {
namespace {

/** Naive GRM straight from the definition. */
std::vector<double>
naiveGrm(const GenotypeMatrix& m)
{
    const u32 n = m.num_individuals;
    const u32 s = m.num_sites;
    // Observed frequencies.
    std::vector<double> p(s);
    for (u32 site = 0; site < s; ++site) {
        u64 sum = 0;
        u64 called = 0;
        for (u32 i = 0; i < n; ++i) {
            if (m.at(i, site) == kMissingGenotype) continue;
            sum += static_cast<u64>(m.at(i, site));
            ++called;
        }
        p[site] = called ? static_cast<double>(sum) / (2.0 * called)
                         : 0.0;
    }
    std::vector<double> g(static_cast<size_t>(n) * n, 0.0);
    for (u32 i = 0; i < n; ++i) {
        for (u32 j = 0; j < n; ++j) {
            double acc = 0.0;
            for (u32 site = 0; site < s; ++site) {
                const double denom = 2.0 * p[site] * (1.0 - p[site]);
                if (denom <= 1e-9) continue;
                const i8 gi = m.at(i, site);
                const i8 gj = m.at(j, site);
                const double zi =
                    gi == kMissingGenotype
                        ? 0.0
                        : (gi - 2.0 * p[site]) / std::sqrt(denom);
                const double zj =
                    gj == kMissingGenotype
                        ? 0.0
                        : (gj - 2.0 * p[site]) / std::sqrt(denom);
                acc += zi * zj;
            }
            g[static_cast<size_t>(i) * n + j] = acc / s;
        }
    }
    return g;
}

TEST(Genotypes, ShapeAndRange)
{
    GenotypeParams p;
    p.num_individuals = 40;
    p.num_sites = 300;
    const auto m = generateGenotypes(p);
    EXPECT_EQ(m.genotypes.size(), 40u * 300u);
    for (i8 g : m.genotypes) {
        EXPECT_TRUE(g == kMissingGenotype || (g >= 0 && g <= 2));
    }
    for (double f : m.allele_freq) {
        EXPECT_GT(f, 0.0);
        EXPECT_LE(f, 0.5);
    }
}

TEST(Genotypes, Deterministic)
{
    GenotypeParams p;
    p.num_individuals = 10;
    p.num_sites = 50;
    const auto a = generateGenotypes(p);
    const auto b = generateGenotypes(p);
    EXPECT_EQ(a.genotypes, b.genotypes);
}

TEST(Genotypes, RejectsDegenerate)
{
    GenotypeParams p;
    p.num_individuals = 1;
    EXPECT_THROW(generateGenotypes(p), InputError);
}

TEST(Grm, MatchesNaiveOracle)
{
    GenotypeParams gp;
    gp.num_individuals = 70; // crosses the 64-wide tile boundary
    gp.num_sites = 400;
    gp.missing_rate = 0.01;
    const auto m = generateGenotypes(gp);

    ThreadPool pool(2);
    const auto result = computeGrm(m, pool);
    const auto oracle = naiveGrm(m);

    ASSERT_EQ(result.n, 70u);
    for (u32 i = 0; i < result.n; ++i) {
        for (u32 j = 0; j < result.n; ++j) {
            EXPECT_NEAR(result.at(i, j),
                        oracle[static_cast<size_t>(i) * result.n + j],
                        1e-4)
                << i << "," << j;
        }
    }
}

TEST(Grm, Symmetric)
{
    GenotypeParams gp;
    gp.num_individuals = 65;
    gp.num_sites = 200;
    const auto m = generateGenotypes(gp);
    ThreadPool pool(3);
    const auto result = computeGrm(m, pool);
    for (u32 i = 0; i < result.n; ++i) {
        for (u32 j = i + 1; j < result.n; ++j) {
            EXPECT_FLOAT_EQ(result.at(i, j), result.at(j, i));
        }
    }
}

TEST(Grm, DiagonalNearOneForUnrelatedIndividuals)
{
    // With one homogeneous population, diagonal entries of the GRM
    // concentrate around 1 (standard population-genetics property).
    GenotypeParams gp;
    gp.num_individuals = 300; // large N tempers the 1/(p(1-p))
                              // inflation from rare variants
    gp.num_sites = 3000;
    gp.num_populations = 1;
    gp.missing_rate = 0.0;
    const auto m = generateGenotypes(gp);
    ThreadPool pool(2);
    const auto result = computeGrm(m, pool);
    double diag_mean = 0.0;
    double offdiag_mean = 0.0;
    for (u32 i = 0; i < result.n; ++i) {
        diag_mean += result.at(i, i);
        for (u32 j = 0; j < result.n; ++j) {
            if (j != i) offdiag_mean += result.at(i, j);
        }
    }
    diag_mean /= result.n;
    offdiag_mean /= static_cast<double>(result.n) * (result.n - 1);
    EXPECT_NEAR(diag_mean, 1.0, 0.1);
    EXPECT_NEAR(offdiag_mean, 0.0, 0.05);
}

TEST(Grm, PopulationStructureRaisesWithinPopSimilarity)
{
    // Individuals from the same latent population should be more
    // related on average than cross-population pairs.
    GenotypeParams gp;
    gp.num_individuals = 80;
    gp.num_sites = 2000;
    gp.num_populations = 2;
    gp.fst = 0.15;
    gp.seed = 99;
    const auto m = generateGenotypes(gp);
    ThreadPool pool(2);
    const auto result = computeGrm(m, pool);

    // Recover the latent assignment by clustering on the first
    // individual's relatedness sign.
    std::vector<bool> cluster(result.n);
    for (u32 i = 0; i < result.n; ++i) {
        cluster[i] = result.at(0, i) > 0;
    }
    double within = 0.0;
    double across = 0.0;
    u64 nw = 0;
    u64 na = 0;
    for (u32 i = 0; i < result.n; ++i) {
        for (u32 j = i + 1; j < result.n; ++j) {
            if (cluster[i] == cluster[j]) {
                within += result.at(i, j);
                ++nw;
            } else {
                across += result.at(i, j);
                ++na;
            }
        }
    }
    ASSERT_GT(nw, 0u);
    ASSERT_GT(na, 0u);
    EXPECT_GT(within / nw, across / na);
}

TEST(Grm, SingleThreadAndMultiThreadAgree)
{
    GenotypeParams gp;
    gp.num_individuals = 33;
    gp.num_sites = 150;
    const auto m = generateGenotypes(gp);
    ThreadPool pool1(1);
    ThreadPool pool4(4);
    const auto a = computeGrm(m, pool1);
    const auto b = computeGrm(m, pool4);
    EXPECT_EQ(a.g, b.g);
}

/**
 * Every GEMM the tiles can run on: the reference, each level this host
 * executes, and the active level (the one --engine=simd dispatches).
 */
std::vector<std::pair<std::string, simd::SgemmFn>>
gemmsUnderTest()
{
    std::vector<std::pair<std::string, simd::SgemmFn>> out{
        {"reference", simd::sgemmScalar},
        {"active", simd::sgemmFor(simd::activeSimdLevel())}};
    for (u8 l = 0; l <= static_cast<u8>(simd::detectSimdLevel()); ++l) {
        const auto level = static_cast<simd::SimdLevel>(l);
        out.emplace_back(simd::simdLevelName(level), simd::sgemmFor(level));
    }
    return out;
}

TEST(GrmGolden, ExactBitsAndProbeTotalsUnderEveryGemm)
{
    // Recorded before the tiles moved onto the shared GEMM: 70 x 400
    // crosses the 64-wide tile edge into a 6-wide panel;
    // 130 x 2100 also crosses a 2048-site block.
    struct Case
    {
        u32 n;
        u32 sites;
        u64 bits;
        std::vector<u64> totals; ///< op counts by class, load/store bytes
    };
    const Case cases[] = {
        {70, 400, 0x8d60a58a3c607024ull,
         {4970, 0, 124250, 130950, 2485, 0, 0, 4190400, 19880}},
        {130, 2100, 0xc6d1cfad6e50fdd5ull,
         {34060, 0, 2239445, 2324131, 8515, 0, 0, 74230800, 68120}},
    };
    ThreadPool pool1(1);
    ThreadPool pool3(3);
    for (const Case& c : cases) {
        GenotypeParams gp;
        gp.num_individuals = c.n;
        gp.num_sites = c.sites;
        gp.missing_rate = 0.01;
        const auto m = generateGenotypes(gp);
        for (const auto& [name, gemm] : gemmsUnderTest()) {
            CountingProbe probe;
            const auto r = computeGrm(m, pool1, probe, gemm);
            EXPECT_EQ(xxhash64(r.g.data(), r.g.size() * sizeof(float)),
                      c.bits)
                << c.n << "x" << c.sites << " on " << name;
            std::vector<u64> totals(probe.counts().by_class.begin(),
                                    probe.counts().by_class.end());
            totals.push_back(probe.loadBytes());
            totals.push_back(probe.storeBytes());
            EXPECT_EQ(totals, c.totals)
                << c.n << "x" << c.sites << " on " << name;
            EXPECT_EQ(computeGrm(m, pool3, gemm).g, r.g) << name;
        }
    }
}
} // namespace
} // namespace gb
