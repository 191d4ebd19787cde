#include "grm/grm.h"

#include <algorithm>
#include <cmath>

namespace gb {

std::vector<float>
standardizeGenotypes(const GenotypeMatrix& m)
{
    requireInput(m.num_individuals > 0 && m.num_sites > 0,
                 "GRM: empty genotype matrix");
    std::vector<float> z(static_cast<size_t>(m.num_individuals) *
                         m.num_sites);

    // Per-site observed allele frequency (PLINK uses observed, not the
    // generating frequency) and scale 1/sqrt(2p(1-p)).
    std::vector<float> mean(m.num_sites);
    std::vector<float> scale(m.num_sites);
    for (u32 s = 0; s < m.num_sites; ++s) {
        u64 sum = 0;
        u64 called = 0;
        for (u32 i = 0; i < m.num_individuals; ++i) {
            const i8 g = m.at(i, s);
            if (g == kMissingGenotype) continue;
            sum += static_cast<u64>(g);
            ++called;
        }
        const double p =
            called ? static_cast<double>(sum) /
                         (2.0 * static_cast<double>(called))
                   : 0.0;
        const double denom = 2.0 * p * (1.0 - p);
        mean[s] = static_cast<float>(2.0 * p);
        scale[s] = denom > 1e-9
                       ? static_cast<float>(1.0 / std::sqrt(denom))
                       : 0.0f; // monomorphic site contributes nothing
    }

    for (u32 i0 = 0; i0 < m.num_individuals; i0 += kGrmTile) {
        const u32 width = std::min(kGrmTile, m.num_individuals - i0);
        float* panel = &z[static_cast<size_t>(i0) * m.num_sites];
        for (u32 s = 0; s < m.num_sites; ++s) {
            for (u32 r = 0; r < width; ++r) {
                const i8 g = m.at(i0 + r, s);
                float v = 0.0f; // missing -> mean imputation -> 0
                if (g != kMissingGenotype) {
                    v = (static_cast<float>(g) - mean[s]) * scale[s];
                }
                panel[static_cast<size_t>(s) * width + r] = v;
            }
        }
    }
    return z;
}

GrmResult
computeGrm(const GenotypeMatrix& m, ThreadPool& pool, simd::SgemmFn gemm)
{
    NullProbe probe;
    return computeGrm(m, pool, probe, gemm);
}

} // namespace gb
