/**
 * @file
 * Recurrent variant-calling network — the nn-variant kernel.
 *
 * Models the Clair architecture (paper §III): the input is the
 * 33 x 8 x 4 pileup feature tensor (pileup/pileup.h), treated as a
 * 33-step sequence of 32 features, pushed through stacked
 * bidirectional LSTMs and fully connected layers, with four prediction
 * heads: alternate base (4), zygosity (2), variant type (4) and indel
 * length (6). Weights are deterministic synthetic values; the suite
 * characterizes inference performance (see DESIGN.md §5).
 */
#ifndef GB_NN_CLAIR_H
#define GB_NN_CLAIR_H

#include <array>
#include <span>
#include <vector>

#include "arch/probe.h"
#include "nn/layers.h"
#include "util/common.h"

namespace gb {

/** Model geometry (Clair-like). */
struct ClairConfig
{
    u32 window = 33;
    u32 features = 32;   ///< 8 counts x 4 encodings per position
    u32 lstm_hidden = 48;
    u32 fc_width = 96;
    u64 seed = 54321;
};

/** Probabilities from the four heads (each sums to 1). */
struct ClairOutput
{
    std::array<float, 4> alt_base;   ///< A, C, G, T
    std::array<float, 2> zygosity;   ///< het, hom
    std::array<float, 4> var_type;   ///< ref, snp, ins, del
    std::array<float, 6> indel_len;  ///< 0..4, >=5
};

/** Clair-like bi-LSTM variant-calling network. */
class ClairModel
{
  public:
    explicit ClairModel(const ClairConfig& config = {});

    /**
     * Predict for one feature tensor (kClairFeatureSize floats),
     * with every layer on `gemm` (layers.h).
     */
    template <typename Probe>
    ClairOutput predict(std::span<const float> features, Probe& probe,
                        simd::SgemmFn gemm = simd::sgemmScalar) const;

    /** Batched prediction (the kernel's data-parallel unit). */
    template <typename Probe>
    std::vector<ClairOutput>
    predictBatch(std::span<const std::vector<float>> batch,
                 Probe& probe) const;

  private:
    ClairConfig config_;
    BiLstm lstm1_;
    BiLstm lstm2_;
    Dense fc1_;
    Dense head_alt_;
    Dense head_zyg_;
    Dense head_type_;
    Dense head_indel_;
};

} // namespace gb

#endif // GB_NN_CLAIR_H
