/**
 * @file
 * The fmi kernel driver: SMEM search of short reads against an
 * FM-indexed reference (BWA-MEM2's seeding stage).
 *
 * Paper datasets: 1M / 10M human 151 bp reads against GRCh38. Here:
 * synthetic genome + simulated reads at matching read length, scaled
 * so the large set runs in minutes on one core.
 */
#include "core/kernels.h"

#include "index/fm_index.h"
#include "io/dna.h"
#include "mlp/fmi_batch.h"
#include "simdata/genome.h"
#include "simdata/reads.h"
#include "simdata/variants.h"
#include "store/artifacts.h"
#include "store/cache.h"
#include "util/hash.h"

namespace gb {

namespace {

class FmiKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "fmi",   "BWA-MEM2",
            "FM-index backward search", "read",
            "occ-table lookups", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // The occ table must exceed the LLC for the small/large sets
        // (the paper's index is ~10 GB; ours is ~11/44 MB vs an 8 MB
        // modelled LLC — same irregular-miss regime).
        u64 genome_len = 100'000;
        u64 num_reads = 200;
        switch (size) {
          case DatasetSize::kTiny:
            break;
          case DatasetSize::kSmall:
            genome_len = 4'000'000;
            num_reads = 20'000;
            break;
          case DatasetSize::kLarge:
            genome_len = 16'000'000;
            num_reads = 100'000;
            break;
        }
        // Everything below is a pure function of (genome_len,
        // num_reads) and the fixed seeds, so the whole prepared state
        // — index and encoded reads — is cacheable under that key.
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("fmi/v1")
                            .mix(genome_len)
                            .mix(num_reads)
                            .mix(101)
                            .mix(102)
                            .mix(103)
                            .value();
        // fetchOrBuild: under concurrent prepares of the same key
        // (gb::serve), one caller generates, the rest block then load.
        cache.fetchOrBuild(
            "fmi", key,
            [&](const auto& reader) {
                fm_ = std::make_unique<FmIndex>(
                    store::viewFmIndex(reader));
                reads_ = store::readPodRows<u8>(*reader, "reads");
            },
            [&] {
                GenomeParams gp;
                gp.length = genome_len;
                gp.seed = 101;
                const Genome genome = generateGenome(gp);
                fm_ = std::make_unique<FmIndex>(
                    FmIndex::build(genome.seq));

                VariantParams vp;
                vp.seed = 102;
                const SampleGenome sample =
                    injectVariants(genome.seq, vp);
                ShortReadParams rp;
                rp.seed = 103;
                rp.coverage = static_cast<double>(num_reads) *
                              rp.read_len /
                              static_cast<double>(sample.seq.size());
                reads_.clear();
                for (const auto& read :
                     simulateShortReads(sample.seq, rp)) {
                    reads_.push_back(encodeDna(read.record.seq));
                }

                cache.write(
                    "fmi", key, [&](store::StoreWriter& writer) {
                        store::addFmIndex(writer, *fm_);
                        store::addPodRows<u8>(writer, "reads", reads_);
                    });
            });
    }

    u64
    run(ThreadPool& pool) override
    {
        std::vector<u64> found(reads_.size());
        if (engine() == Engine::kSimd) {
            // Batched engine: chunks of reads advance through the
            // index in prefetch-pipelined lockstep (gb::mlp). Results
            // are bit-identical to the scalar path.
            const u64 chunks = ceilDiv<u64>(reads_.size(), kChunk);
            pool.parallelFor(
                chunks,
                [&](u64 ci) {
                    NullProbe probe;
                    const size_t lo = ci * kChunk;
                    const size_t n =
                        std::min<size_t>(kChunk, reads_.size() - lo);
                    std::vector<std::vector<Smem>> mems;
                    mlp::smemsBatch(
                        *fm_,
                        std::span<const std::vector<u8>>(reads_)
                            .subspan(lo, n),
                        kMinSeedLen, mems, probe);
                    for (size_t j = 0; j < n; ++j) {
                        found[lo + j] = mems[j].size();
                    }
                },
                1);
            return reads_.size();
        }
        pool.parallelFor(
            reads_.size(),
            [&](u64 i) {
                NullProbe probe;
                std::vector<Smem> mems;
                fm_->smems(std::span<const u8>(reads_[i]), kMinSeedLen,
                           mems, probe);
                found[i] = mems.size();
            },
            16);
        return reads_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& read : reads_) {
            std::vector<Smem> mems;
            fm_->smems(std::span<const u8>(read), kMinSeedLen, mems,
                       probe);
        }
        return reads_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(reads_.size());
        for (const auto& read : reads_) {
            CountingProbe probe;
            std::vector<Smem> mems;
            fm_->smems(std::span<const u8>(read), kMinSeedLen, mems,
                       probe);
            // Each occAll() is one occ-table lookup.
            work.push_back(probe.counts()[OpClass::kLoad]);
        }
        return work;
    }

  private:
    static constexpr i32 kMinSeedLen = 19;
    /** Reads per parallel work item on the batched path (several
     *  pipeline refills per chunk at mlp::kDefaultFmiWidth). */
    static constexpr size_t kChunk = 64;

    std::unique_ptr<FmIndex> fm_;
    std::vector<std::vector<u8>> reads_;
};

} // namespace

std::unique_ptr<Benchmark>
makeFmiKernel()
{
    return std::make_unique<FmiKernel>();
}

} // namespace gb
