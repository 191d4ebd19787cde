/**
 * @file
 * The chain and spoa kernel drivers: long-read overlap chaining
 * (Minimap2) and window consensus (Racon) — the de-novo assembly and
 * polishing kernels.
 */
#include "core/kernels.h"

#include "chain/chain.h"
#include "io/dna.h"
#include "poa/poa.h"
#include "simd/chain_engine.h"
#include "simdata/genome.h"
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

class ChainKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "chain", "Minimap2",
            "1-D DP over anchors", "read",
            "input anchors", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // Paper: anchors for 1K / 10K reads, all-vs-self overlap. We
        // synthesize overlapping long-read pairs and precompute their
        // anchors (the kernel input is the anchor list). The anchors
        // are a pure function of the pair count, genome, seeds and
        // minimizer parameters, so they cache under those.
        const u64 num_pairs = sizesFor(size, 20, 1000, 10'000);
        constexpr u64 kGenomeLen = 400'000;
        const MinimizerParams mp;
        auto& cache = store::globalCache();
        const u64 key = KeyMixer()
                            .mix("chain-anchors/v1")
                            .mix(num_pairs)
                            .mix(kGenomeLen)
                            .mix(141)
                            .mix(142)
                            .mix(mp.k)
                            .mix(mp.w)
                            .value();
        cache.fetchOrBuild(
            "chain", key,
            [&](const auto& reader) {
                anchor_sets_ =
                    store::readPodRows<Anchor>(*reader, "anchors");
            },
            [&] {
                anchor_sets_.clear();
                anchor_sets_.reserve(num_pairs);
                GenomeParams gp;
                gp.length = kGenomeLen;
                gp.seed = 141;
                const Genome genome = generateGenome(gp);
                Rng rng(142);

                for (u64 i = 0; i < num_pairs; ++i) {
                    const u64 len =
                        3000 + rng.below(9000); // 3-12 kb reads
                    const u64 overlap = len / 2 + rng.below(len / 3);
                    const u64 a_pos =
                        rng.below(genome.seq.size() - 2 * len);
                    const u64 b_pos = a_pos + (len - overlap);

                    auto noisy = [&](u64 pos, u64 l) {
                        std::string s = genome.seq.substr(pos, l);
                        std::string out;
                        for (char c : s) {
                            if (rng.chance(0.04)) continue;
                            if (rng.chance(0.04)) {
                                out += "ACGT"[rng.below(4)];
                            }
                            out += rng.chance(0.03)
                                       ? "ACGT"[rng.below(4)]
                                       : c;
                        }
                        return out;
                    };
                    const auto a = encodeDna(noisy(a_pos, len));
                    const auto b = encodeDna(noisy(b_pos, len));
                    const auto ma = extractMinimizers(a, mp);
                    const auto mb = extractMinimizers(b, mp);
                    anchor_sets_.push_back(matchAnchors(ma, mb, mp.k));
                }
                cache.write("chain", key,
                            [&](store::StoreWriter& writer) {
                                store::addPodRows<Anchor>(
                                    writer, "anchors", anchor_sets_);
                            });
            });
    }

    u64
    run(ThreadPool& pool) override
    {
        const bool simd = engine() == Engine::kSimd;
        pool.parallelFor(anchor_sets_.size(), [&](u64 i) {
            if (simd) {
                simd::chainAnchorsSimd(anchor_sets_[i], params_);
            } else {
                chainAnchors(anchor_sets_[i], params_);
            }
        });
        return anchor_sets_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& anchors : anchor_sets_) {
            chainAnchors(anchors, params_, probe);
        }
        return anchor_sets_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(anchor_sets_.size());
        for (const auto& anchors : anchor_sets_) {
            work.push_back(anchors.size());
        }
        return work;
    }

  private:
    ChainParams params_;
    std::vector<std::vector<Anchor>> anchor_sets_;
};

class SpoaKernel final : public Benchmark
{
  public:
    const Info&
    info() const override
    {
        static const Info kInfo{
            "spoa", "Racon",
            "DP over a partial-order graph", "read chunk window",
            "cell updates", false, false};
        return kInfo;
    }

    void
    prepare(DatasetSize size) override
    {
        // Paper: 1000 / 6000 consensus tasks from S. aureus polishing.
        const u64 num_windows = sizesFor(size, 5, 200, 1200);
        GenomeParams gp;
        gp.length = std::max<u64>(num_windows * 250, 20'000);
        gp.seed = 151;
        const Genome genome = generateGenome(gp);
        Rng rng(152);

        tasks_.clear();
        tasks_.reserve(num_windows);
        for (u64 w = 0; w < num_windows; ++w) {
            const u64 window_len = 150 + rng.below(150);
            const u64 start =
                rng.below(genome.seq.size() - window_len - 1);
            const std::string truth =
                genome.seq.substr(start, window_len);
            PoaTask task;
            const u64 depth = 8 + rng.below(10);
            for (u64 d = 0; d < depth; ++d) {
                std::string read;
                for (char c : truth) {
                    if (rng.chance(0.04)) continue;
                    if (rng.chance(0.04)) {
                        read += "ACGT"[rng.below(4)];
                    }
                    read += rng.chance(0.03) ? "ACGT"[rng.below(4)]
                                             : c;
                }
                if (read.empty()) read = "A";
                task.reads.push_back(encodeDna(read));
            }
            tasks_.push_back(std::move(task));
        }
    }

    u64
    run(ThreadPool& pool) override
    {
        const bool simd = engine() == Engine::kSimd;
        pool.parallelFor(tasks_.size(), [&](u64 i) {
            if (simd) {
                poaConsensusSimd(tasks_[i], params_);
            } else {
                poaConsensus(tasks_[i], params_);
            }
        });
        return tasks_.size();
    }

    u64
    characterize(CharProbe& probe) override
    {
        for (const auto& task : tasks_) {
            poaConsensus(task, params_, probe, nullptr);
        }
        return tasks_.size();
    }

    std::vector<u64>
    taskWork() override
    {
        std::vector<u64> work;
        work.reserve(tasks_.size());
        NullProbe probe;
        for (const auto& task : tasks_) {
            u64 cells = 0;
            poaConsensus(task, params_, probe, &cells);
            work.push_back(cells);
        }
        return work;
    }

  private:
    PoaParams params_;
    std::vector<PoaTask> tasks_;
};

} // namespace

std::unique_ptr<Benchmark>
makeChainKernel()
{
    return std::make_unique<ChainKernel>();
}

std::unique_ptr<Benchmark>
makeSpoaKernel()
{
    return std::make_unique<SpoaKernel>();
}

} // namespace gb
