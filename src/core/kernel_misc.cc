/**
 * @file
 * The kmer-cnt, grm, pileup and nn-variant kernel drivers.
 */
#include "core/kernels.h"

#include <algorithm>

#include "grm/grm.h"
#include "io/dna.h"
#include "kmer/kmer_counter.h"
#include "nn/clair.h"
#include "pileup/pileup.h"
#include "simdata/genome.h"
#include "simdata/genotypes.h"
#include "simdata/reads.h"
#include "simdata/variants.h"
#include "store/artifacts.h"
#include "store/cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gb {

namespace {

u64
sizesFor(DatasetSize size, u64 tiny, u64 small, u64 large)
{
    switch (size) {
      case DatasetSize::kTiny: return tiny;
      case DatasetSize::kSmall: return small;
      case DatasetSize::kLarge: return large;
    }
    return tiny;
}

class KmerCntKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "kmer-cnt", "Flye",
            "hash-table counting", "read batch",
            "k-mers inserted", true, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // Paper: ~8 GB count table over long reads. Scaled: the table
        // still far exceeds the LLC so the access pattern is
        // preserved.
        total_bases_ = sizesFor(size, 200'000, 5'000'000, 20'000'000);
        capacity_log2_ =
            size == DatasetSize::kTiny
                ? 19u
                : (size == DatasetSize::kSmall ? 23u : 25u);
        // The simulated reads are a pure function of total_bases_ (the
        // genome size, seeds and coverage all derive from it), so they
        // cache under that single parameter. The count table itself is
        // never cached: building it IS the kernel under measurement.
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("kmer-cnt-reads/v1")
                            .mix(total_bases_)
                            .mix(181)
                            .mix(182)
                            .value();
        cache.fetchOrBuild(
            "kmer-reads", key,
            [&](const auto& reader) {
                reads_ = store::readPodRows<u8>(*reader, "reads");
            },
            [&] {
                GenomeParams gp;
                gp.length = std::max<u64>(total_bases_ / 10, 50'000);
                gp.seed = 181;
                const Genome genome = generateGenome(gp);
                LongReadParams lp;
                lp.seed = 182;
                lp.coverage = static_cast<double>(total_bases_) /
                              static_cast<double>(genome.seq.size());
                reads_.clear();
                for (const auto& read :
                     simulateLongReads(genome.seq, lp)) {
                    reads_.push_back(encodeDna(read.record.seq));
                }
                cache.write(
                    "kmer-reads", key,
                    [&](store::StoreWriter& writer) {
                        store::addPodRows<u8>(writer, "reads", reads_);
                    });
            });
        // Read-batch tasks of ~16 reads for dynamic scheduling.
        batches_.clear();
        for (size_t begin = 0; begin < reads_.size(); begin += 16) {
            batches_.push_back(
                {begin, std::min(reads_.size(), begin + 16)});
        }
    }

    u64
    run(ThreadPool& pool) override
    {
        // Per-thread tables merged at the end (lock-free counting as
        // in the real tools); the table working set per thread still
        // exceeds the LLC.
        const unsigned threads = pool.numThreads();
        std::vector<std::unique_ptr<KmerCounter>> tables;
        for (unsigned t = 0; t < threads; ++t) {
            tables.push_back(std::make_unique<KmerCounter>(
                capacity_log2_, HashScheme::kRobinHood));
        }
        // --engine=simd routes through the prefetch-pipelined
        // addBatch path (gb::mlp); table contents are identical.
        const bool pipelined = engine() == Engine::kSimd;
        pool.parallelForRanked(
            batches_.size(),
            [&](u64 b, unsigned rank) {
                NullProbe probe;
                const auto [lo, hi] = batches_[b];
                const auto span =
                    std::span<const std::vector<u8>>(reads_)
                        .subspan(lo, hi - lo);
                if (pipelined) {
                    countKmersPrefetch(span, kK, *tables[rank], probe);
                } else {
                    countKmers(span, kK, *tables[rank], probe);
                }
            },
            1);
        treeMergeKmerTables(tables, pool);
        return batches_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        KmerCounter counter(capacity_log2_, HashScheme::kRobinHood);
        countKmers(std::span<const std::vector<u8>>(reads_), kK,
                   counter, probe);
        return batches_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(batches_.size());
        for (const auto& [lo, hi] : batches_) {
            u64 kmers = 0;
            for (size_t r = lo; r < hi; ++r) {
                if (reads_[r].size() >= kK) {
                    kmers += reads_[r].size() - kK + 1;
                }
            }
            work.push_back(kmers);
        }
        return work;
    }

  private:
    static constexpr u32 kK = 17;

    u64 total_bases_ = 0;
    u32 capacity_log2_ = 20;
    std::vector<std::vector<u8>> reads_;
    std::vector<std::pair<size_t, size_t>> batches_;
};

class GrmKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "grm",  "PLINK2",
            "dense matrix multiply", "output tile",
            "multiply-accumulates", true, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // Paper: 2504 individuals x 194K / 1.07M markers.
        GenotypeParams gp;
        gp.seed = 191;
        switch (size) {
          case DatasetSize::kTiny:
            gp.num_individuals = 64;
            gp.num_sites = 2'000;
            break;
          case DatasetSize::kSmall:
            gp.num_individuals = 256;
            gp.num_sites = 20'000;
            break;
          case DatasetSize::kLarge:
            gp.num_individuals = 512;
            gp.num_sites = 50'000;
            break;
        }
        matrix_ = generateGenotypes(gp);
    }

    u64
    run(ThreadPool& pool) override
    {
        computeGrm(matrix_, pool, gemmFor(engine()));
        const u64 tiles = ceilDiv(matrix_.num_individuals, 64u);
        return tiles * (tiles + 1) / 2;
    }

    u64
    characterize(CharProbe& probe) override
    {
        ThreadPool pool(1);
        computeGrm(matrix_, pool, probe);
        const u64 tiles = ceilDiv(matrix_.num_individuals, 64u);
        return tiles * (tiles + 1) / 2;
    }

    std::vector<u64>
    taskWork() override
    {
        // Regular kernel: every output tile costs the same MACs.
        const u64 tiles = ceilDiv(matrix_.num_individuals, 64u);
        const u64 per_tile =
            64ull * 64ull * matrix_.num_sites;
        return std::vector<u64>(tiles * (tiles + 1) / 2, per_tile);
    }

  private:
    GenotypeMatrix matrix_;
};

class PileupKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "pileup", "Medaka",
            "CIGAR walking + counting", "genome region (100 kb)",
            "CIGAR ops walked", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        const u64 genome_len =
            sizesFor(size, 200'000, 1'000'000, 4'000'000);
        constexpr double kCoverage = 15.0;
        // The sorted records are a pure function of the genome length,
        // seeds and coverage; on a cache hit no genome is generated.
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("pileup-aln/v1")
                            .mix(genome_len)
                            .mix(201)
                            .mix(202)
                            .mix(kCoverage)
                            .value();
        cache.fetchOrBuild(
            "pileup", key,
            [&](const auto& reader) {
                records_ = store::readAlnRecords(*reader, "aln");
            },
            [&] {
                // Release earlier records before the simulation peak.
                records_.clear();
                GenomeParams gp;
                gp.length = genome_len;
                gp.seed = 201;
                const Genome genome = generateGenome(gp);
                LongReadParams lp;
                lp.seed = 202;
                lp.coverage = kCoverage;
                records_ =
                    toAlignments(simulateLongReads(genome.seq, lp));
                cache.write("pileup", key,
                            [&](store::StoreWriter& writer) {
                                store::addAlnRecords(writer, "aln",
                                                     records_);
                            });
            });

        // Index the sorted records per region (as the real tools do
        // via BAM indices): [first, last) overlapping each region.
        regions_.clear();
        u64 max_span = 0;
        for (const auto& rec : records_) {
            max_span = std::max(max_span, rec.cigar.refLen());
        }
        for (u64 start = 0; start < genome_len; start += kRegionLen) {
            Region region;
            region.start = start;
            region.len =
                std::min<u64>(kRegionLen, genome_len - start);
            const u64 lo = start > max_span ? start - max_span : 0;
            auto first = std::lower_bound(
                records_.begin(), records_.end(), lo,
                [](const AlnRecord& r, u64 pos) {
                    return r.pos < pos;
                });
            auto last = std::lower_bound(
                records_.begin(), records_.end(), start + region.len,
                [](const AlnRecord& r, u64 pos) {
                    return r.pos < pos;
                });
            region.first =
                static_cast<size_t>(first - records_.begin());
            region.last = static_cast<size_t>(last - records_.begin());
            regions_.push_back(region);
        }
    }

    u64
    run(ThreadPool& pool) override
    {
        pool.parallelFor(regions_.size(), [&](u64 i) {
            const Region& region = regions_[i];
            countPileup(recordSpan(region), region.start, region.len);
        });
        return regions_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const Region& region : regions_) {
            countPileup(recordSpan(region), region.start, region.len,
                        probe);
        }
        return regions_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(regions_.size());
        for (const Region& region : regions_) {
            const auto pileup = countPileup(recordSpan(region),
                                            region.start, region.len);
            work.push_back(pileup.cigar_ops_walked);
        }
        return work;
    }

  private:
    static constexpr u64 kRegionLen = 100'000;

    struct Region
    {
        u64 start;
        u64 len;
        size_t first;
        size_t last;
    };

    std::span<const AlnRecord>
    recordSpan(const Region& region) const
    {
        return std::span<const AlnRecord>(records_).subspan(
            region.first, region.last - region.first);
    }

    std::vector<AlnRecord> records_;
    std::vector<Region> regions_;
};

class NnVariantKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "nn-variant", "Clair",
            "bi-LSTM inference", "candidate position",
            "multiply-accumulates", true, true};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // Paper: first 10K / 500K reference positions of chr20 q13.12.
        const u64 num_positions = sizesFor(size, 20, 500, 2500);
        GenomeParams gp;
        gp.length = 100'000;
        gp.seed = 211;
        const Genome genome = generateGenome(gp);
        VariantParams vp;
        vp.seed = 212;
        const SampleGenome sample = injectVariants(genome.seq, vp);
        LongReadParams lp;
        lp.seed = 213;
        lp.coverage = 12.0;
        const auto records =
            toAlignments(simulateLongReads(sample.seq, lp));
        const auto pileup =
            countPileup(records, 0, genome.seq.size());
        const auto ref_codes = encodeDna(genome.seq);

        Rng rng(214);
        features_.clear();
        features_.reserve(num_positions);
        for (u64 i = 0; i < num_positions; ++i) {
            const u64 center =
                100 + rng.below(genome.seq.size() - 200);
            features_.push_back(
                clairFeatures(pileup, ref_codes, center));
        }
    }

    u64
    run(ThreadPool& pool) override
    {
        const simd::SgemmFn gemm = gemmFor(engine());
        pool.parallelFor(
            features_.size(),
            [&](u64 i) {
                NullProbe probe;
                model_.predict(features_[i], probe, gemm);
            },
            8);
        return features_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& f : features_) model_.predict(f, probe);
        return features_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        // Fixed tensor geometry: uniform per-position work.
        const u64 macs =
            2ull *
            (static_cast<u64>(kClairWindow) * 4 * 48 * (32 + 48) +
             static_cast<u64>(kClairWindow) * 4 * 48 * (96 + 48));
        return std::vector<u64>(features_.size(), macs);
    }

  private:
    ClairModel model_;
    std::vector<std::vector<float>> features_;
};

} // namespace

std::unique_ptr<Benchmark>
makeKmerCntKernel()
{
    return std::make_unique<KmerCntKernel>();
}

std::unique_ptr<Benchmark>
makeGrmKernel()
{
    return std::make_unique<GrmKernel>();
}

std::unique_ptr<Benchmark>
makePileupKernel()
{
    return std::make_unique<PileupKernel>();
}

std::unique_ptr<Benchmark>
makeNnVariantKernel()
{
    return std::make_unique<NnVariantKernel>();
}

} // namespace gb
