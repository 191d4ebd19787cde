/**
 * @file
 * CNN basecaller — the nn-base kernel.
 *
 * Models Bonito's CTC basecaller (paper §III): raw signal is split
 * into fixed 4,000-sample chunks, normalized, pushed through a stack
 * of separable 1-D convolutions (total downsample 3x, like Bonito's
 * stride-3 front end), and the per-frame {blank, A, C, G, T}
 * probabilities are CTC-decoded. Weights are deterministic synthetic
 * values (the paper profiles inference performance, which depends on
 * the architecture, not on trained weights — see DESIGN.md §5).
 */
#ifndef GB_NN_BONITO_H
#define GB_NN_BONITO_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/probe.h"
#include "nn/layers.h"
#include "util/common.h"

namespace gb {

/** Model geometry. */
struct BonitoConfig
{
    u32 chunk_size = 4000;  ///< raw samples per inference chunk
    u32 stride = 3;         ///< total temporal downsampling
    u32 base_channels = 16; ///< width of the front-end convs
    u64 seed = 12345;       ///< weight initialization seed
};

/** A Bonito-like separable-convolution basecaller network. */
class BonitoModel
{
  public:
    explicit BonitoModel(const BonitoConfig& config = {});

    /**
     * Run the network on one normalized chunk.
     *
     * @param chunk [T][1] normalized samples (T <= chunk_size).
     * @param gemm  GEMM the convolutions run on (layers.h).
     * @return [T/stride][5] per-frame class probabilities.
     */
    template <typename Probe>
    Tensor2 forward(const Tensor2& chunk, Probe& probe,
                    simd::SgemmFn gemm = simd::sgemmScalar) const;

    /** CTC decoding strategy for basecall(). */
    enum class Decoder : u8 { kGreedy, kBeam };

    /**
     * Basecall a raw signal end to end: chunking, median/MAD
     * normalization, network, CTC decode, stitching.
     *
     * @param decoder    Greedy best-path (fast) or prefix beam search
     *                   (Bonito's default strategy).
     * @param beam_width Beam width when decoder == kBeam.
     */
    template <typename Probe>
    std::string basecall(std::span<const float> samples, Probe& probe,
                         Decoder decoder = Decoder::kGreedy,
                         u32 beam_width = 8) const;

    /** Total multiply-accumulates for one full chunk (work metric). */
    u64 macsPerChunk() const;

    const BonitoConfig& config() const { return config_; }

  private:
    BonitoConfig config_;
    std::vector<Conv1d> layers_;
};

/** Median/MAD-normalize a signal chunk (Bonito's preprocessing). */
std::vector<float> normalizeSignal(std::span<const float> samples);

} // namespace gb

#endif // GB_NN_BONITO_H
