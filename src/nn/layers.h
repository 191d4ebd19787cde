/**
 * @file
 * Inference layers: 1-D convolutions (grouped/depthwise), dense,
 * bidirectional LSTM, activations, softmax.
 *
 * Weights are initialized deterministically (seeded Xavier); the suite
 * characterizes inference *performance*, not trained accuracy (the
 * paper does the same — its nn kernels are profiled, their calls are
 * not validated against truth sets). Layer forward passes are
 * templated on the Probe policy; one op(kVecAlu) is reported per
 * 8-wide FMA bundle, matching how the real kernels map onto SIMD/tensor
 * units.
 *
 * Dense, LSTM and (non-depthwise) convolution multiply-accumulates run
 * on one GEMM (simd/gemm_engine.h), passed in as `gemm`:
 * simd::sgemmScalar (the default, and what characterization uses) or
 * a dispatched SIMD level. All of them sum each output in the same
 * order, so the choice never changes a bit. Weights are stored
 * transposed for it, input-major ([in][out]).
 */
#ifndef GB_NN_LAYERS_H
#define GB_NN_LAYERS_H

#include <cmath>
#include <vector>

#include "arch/probe.h"
#include "nn/tensor.h"
#include "simd/gemm_engine.h"
#include "util/common.h"
#include "util/rng.h"

namespace gb {

/** Activation functions applied elementwise. */
enum class Activation : u8 { kNone, kRelu, kSwish, kTanh, kSigmoid };

/** Apply an activation in place, reporting FP work to the probe. */
template <typename Probe>
void applyActivation(Tensor2& t, Activation act, Probe& probe);

/**
 * 1-D convolution over [time][channels] input, SAME padding.
 * groups == in_channels gives a depthwise convolution.
 */
class Conv1d
{
  public:
    /**
     * @param seed Deterministic weight initialization seed.
     */
    Conv1d(u32 in_channels, u32 out_channels, u32 kernel, u32 stride,
           u32 groups, Activation act, u64 seed);

    /** Forward: input [T][in_ch] -> output [ceil(T/stride)][out_ch]. */
    template <typename Probe>
    Tensor2 forward(const Tensor2& input, Probe& probe,
                    simd::SgemmFn gemm = simd::sgemmScalar) const;

    /** Multiply-accumulates per input timestep (work accounting). */
    u64 macsPerFrame() const;

    u32 stride() const { return stride_; }

  private:
    u32 in_channels_;
    u32 out_channels_;
    u32 kernel_;
    u32 stride_;
    u32 groups_;
    Activation act_;
    // weights_[ic * kernel + k][oc]: tap k's GEMM operand starts at row
    // k with ldb = kernel * out_channels (group g: columns g*oc/groups).
    Tensor2 weights_;
    std::vector<float> bias_;
};

/** Fully connected layer. */
class Dense
{
  public:
    Dense(u32 in_features, u32 out_features, Activation act, u64 seed);

    /** Forward: [N][in] -> [N][out]. */
    template <typename Probe>
    Tensor2 forward(const Tensor2& input, Probe& probe,
                    simd::SgemmFn gemm = simd::sgemmScalar) const;

  private:
    u32 in_features_;
    u32 out_features_;
    Activation act_;
    Tensor2 weights_; ///< [in][out]
    std::vector<float> bias_;
};

/**
 * Bidirectional LSTM layer: input [T][in] -> output [T][2*hidden]
 * (forward and backward hidden states concatenated).
 */
class BiLstm
{
  public:
    BiLstm(u32 in_features, u32 hidden, u64 seed);

    template <typename Probe>
    Tensor2 forward(const Tensor2& input, Probe& probe,
                    simd::SgemmFn gemm = simd::sgemmScalar) const;

  private:
    /**
     * One direction's parameters. Rows [0, in) of w are W_x and rows
     * [in, in+hidden) are W_h, so the gate pre-activations are one
     * GEMM over all timesteps (bias + x W_x) continued per step by
     * h W_h — each gate still sums its x terms, then its h terms.
     */
    struct Direction
    {
        Tensor2 w;               ///< [in+hidden][4*hidden]
        std::vector<float> bias; ///< [4*hidden]
    };

    template <typename Probe>
    void runDirection(const Direction& dir, const Tensor2& input,
                      bool backward, Tensor2& out, u32 out_offset,
                      Probe& probe, simd::SgemmFn gemm) const;

    u32 in_features_;
    u32 hidden_;
    Direction fwd_;
    Direction bwd_;
};

/** Row-wise softmax in place. */
void softmaxRows(Tensor2& t);

} // namespace gb

#endif // GB_NN_LAYERS_H
