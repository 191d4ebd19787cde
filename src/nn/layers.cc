#include "nn/layers.h"

#include <algorithm>

namespace gb {

namespace {

/**
 * Xavier-uniform weights, drawn in [fan_out][fan_in] order and stored
 * input-major, [fan_in][fan_out]: the GEMM's B operand layout.
 */
Tensor2
xavierInputMajor(u32 fan_out, u32 fan_in, Rng& rng)
{
    const double limit = std::sqrt(6.0 / (fan_in + fan_out));
    Tensor2 w(fan_in, fan_out);
    for (u32 o = 0; o < fan_out; ++o) {
        for (u32 i = 0; i < fan_in; ++i) {
            w.at(i, o) =
                static_cast<float>((rng.uniform() * 2.0 - 1.0) * limit);
        }
    }
    return w;
}

float
sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

} // namespace

template <typename Probe>
void
applyActivation(Tensor2& t, Activation act, Probe& probe)
{
    if (act == Activation::kNone) return;
    for (auto& v : t.data) {
        switch (act) {
          case Activation::kRelu:
            v = v > 0.0f ? v : 0.0f;
            break;
          case Activation::kSwish:
            v = v * sigmoidf(v);
            break;
          case Activation::kTanh:
            v = std::tanh(v);
            break;
          case Activation::kSigmoid:
            v = sigmoidf(v);
            break;
          case Activation::kNone:
            break;
        }
    }
    probe.op(OpClass::kVecAlu, ceilDiv<u64>(t.data.size(), 8) * 2);
}

Conv1d::Conv1d(u32 in_channels, u32 out_channels, u32 kernel, u32 stride,
               u32 groups, Activation act, u64 seed)
    : in_channels_(in_channels), out_channels_(out_channels),
      kernel_(kernel), stride_(stride), groups_(groups), act_(act)
{
    requireInput(groups >= 1 && in_channels % groups == 0 &&
                     out_channels % groups == 0,
                 "conv1d: channels must divide groups");
    requireInput(stride >= 1 && kernel >= 1, "conv1d: bad geometry");
    Rng rng(seed);
    const u32 ic_per_group = in_channels / groups;
    weights_ = xavierInputMajor(out_channels, ic_per_group * kernel, rng);
    bias_.assign(out_channels, 0.0f);
    for (auto& b : bias_) {
        b = static_cast<float>((rng.uniform() * 2.0 - 1.0) * 0.05);
    }
}

u64
Conv1d::macsPerFrame() const
{
    return static_cast<u64>(out_channels_) * (in_channels_ / groups_) *
           kernel_;
}

template <typename Probe>
Tensor2
Conv1d::forward(const Tensor2& input, Probe& probe,
                simd::SgemmFn gemm) const
{
    requireInput(input.cols == in_channels_,
                 "conv1d: input channel mismatch");
    const u32 t_in = input.rows;
    const u32 t_out = ceilDiv(t_in, stride_);
    Tensor2 out(t_out, out_channels_);
    for (u32 to = 0; to < t_out; ++to) {
        std::copy(bias_.begin(), bias_.end(), out.row(to));
        // One weight pass + one activation row per output frame.
        probe.op(OpClass::kVecAlu, ceilDiv(macsPerFrame(), u64{8}));
        probe.op(OpClass::kIntAlu, 4);
        probe.load(weights_.row(0),
                   static_cast<u32>(std::min<u64>(
                       weights_.data.size() * 4, 1u << 16)));
        probe.load(input.row(std::min(t_in - 1, to * stride_)),
                   input.cols * 4);
        probe.store(out.row(to), out.cols * 4);
    }
    const u32 pad = kernel_ / 2;
    const u32 ic_per_group = in_channels_ / groups_;
    const u32 oc_per_group = out_channels_ / groups_;
    const size_t in_step = static_cast<size_t>(stride_) * in_channels_;

    // Tap k reads input row to*stride + k - pad and adds to the output
    // rows [lo, hi) whose read stays inside the input (SAME padding
    // skips the rest), taps in ascending k like the direct loop.
    for (u32 k = 0; k < kernel_; ++k) {
        const u32 lo = k >= pad ? 0 : ceilDiv(pad - k, stride_);
        const u32 hi = t_in + pad > k
                           ? std::min(t_out, (t_in + pad - k - 1) / stride_ + 1)
                           : 0;
        if (lo >= hi) continue;
        const float* in_lo = input.row(lo * stride_ + k - pad);
        const float* w = weights_.row(k); // row ic*kernel + k: tap k
        if (ic_per_group == 1 && oc_per_group == 1) {
            // Depthwise: out[t][c] += w_k[c] * in[t + k - pad][c].
            for (u32 to = lo; to < hi; ++to) {
                const float* in_row = in_lo + (to - lo) * in_step;
                float* out_row = out.row(to);
                for (u32 c = 0; c < out_channels_; ++c) {
                    out_row[c] += w[c] * in_row[c];
                }
            }
            continue;
        }
        for (u32 g = 0; g < groups_; ++g) {
            gemm({.m = hi - lo, .n = oc_per_group, .k = ic_per_group,
                  .a = in_lo + g * ic_per_group, .a_row_stride = in_step,
                  .b = w + g * oc_per_group,
                  .ldb = static_cast<size_t>(kernel_) * out_channels_,
                  .c = out.row(lo) + g * oc_per_group,
                  .ldc = out_channels_});
        }
    }
    applyActivation(out, act_, probe);
    return out;
}

Dense::Dense(u32 in_features, u32 out_features, Activation act, u64 seed)
    : in_features_(in_features), out_features_(out_features), act_(act)
{
    Rng rng(seed);
    weights_ = xavierInputMajor(out_features, in_features, rng);
    bias_.assign(out_features, 0.0f);
    for (auto& b : bias_) {
        b = static_cast<float>((rng.uniform() * 2.0 - 1.0) * 0.05);
    }
}

template <typename Probe>
Tensor2
Dense::forward(const Tensor2& input, Probe& probe,
               simd::SgemmFn gemm) const
{
    requireInput(input.cols == in_features_,
                 "dense: input feature mismatch");
    Tensor2 out(input.rows, out_features_);
    for (u32 r = 0; r < input.rows; ++r) {
        std::copy(bias_.begin(), bias_.end(), out.row(r));
        probe.op(OpClass::kVecAlu,
                 ceilDiv<u64>(static_cast<u64>(out_features_) *
                                  in_features_,
                              8));
        probe.load(weights_.row(0),
                   static_cast<u32>(std::min<u64>(
                       weights_.data.size() * 4, 1u << 16)));
        probe.load(input.row(r), input.cols * 4);
        probe.store(out.row(r), out.cols * 4);
    }
    gemm({.m = input.rows, .n = out_features_, .k = in_features_,
          .a = input.data.data(), .a_row_stride = in_features_,
          .b = weights_.data.data(), .ldb = out_features_,
          .c = out.data.data(), .ldc = out_features_});
    applyActivation(out, act_, probe);
    return out;
}

BiLstm::BiLstm(u32 in_features, u32 hidden, u64 seed)
    : in_features_(in_features), hidden_(hidden)
{
    Rng rng(seed);
    auto init = [&](Direction& dir) {
        dir.w = xavierInputMajor(4 * hidden, in_features + hidden, rng);
        dir.bias.assign(4 * hidden, 0.0f);
        // Forget-gate bias starts positive (standard LSTM practice).
        for (u32 h = 0; h < hidden; ++h) dir.bias[hidden + h] = 1.0f;
    };
    init(fwd_);
    init(bwd_);
}

template <typename Probe>
void
BiLstm::runDirection(const Direction& dir, const Tensor2& input,
                     bool backward, Tensor2& out, u32 out_offset,
                     Probe& probe, simd::SgemmFn gemm) const
{
    const u32 t_len = input.rows;
    const u32 gate_rows = 4 * hidden_;
    std::vector<float> h(hidden_, 0.0f);
    std::vector<float> c(hidden_, 0.0f);

    // gates = W [x; h] + b, split: bias + x W_x for every step at
    // once, then each step continues the same sums with h W_h.
    Tensor2 gates(t_len, gate_rows);
    for (u32 t = 0; t < t_len; ++t) {
        std::copy(dir.bias.begin(), dir.bias.end(), gates.row(t));
    }
    gemm({.m = t_len, .n = gate_rows, .k = in_features_,
          .a = input.data.data(), .a_row_stride = in_features_,
          .b = dir.w.data.data(), .ldb = gate_rows,
          .c = gates.data.data(), .ldc = gate_rows});

    for (u32 step = 0; step < t_len; ++step) {
        const u32 t = backward ? t_len - 1 - step : step;
        float* g = gates.row(t);
        gemm({.m = 1, .n = gate_rows, .k = hidden_, .a = h.data(),
              .a_row_stride = hidden_, .b = dir.w.row(in_features_),
              .ldb = gate_rows, .c = g, .ldc = gate_rows});
        for (u32 j = 0; j < hidden_; ++j) {
            const float in_g = sigmoidf(g[j]);
            const float forget_g = sigmoidf(g[hidden_ + j]);
            const float cell_g = std::tanh(g[2 * hidden_ + j]);
            const float out_g = sigmoidf(g[3 * hidden_ + j]);
            c[j] = forget_g * c[j] + in_g * cell_g;
            h[j] = out_g * std::tanh(c[j]);
        }
        float* out_row = out.row(t);
        std::copy(h.begin(), h.end(), out_row + out_offset);

        probe.op(OpClass::kVecAlu,
                 ceilDiv<u64>(static_cast<u64>(gate_rows) *
                                  (in_features_ + hidden_),
                              8) +
                     hidden_);
        probe.op(OpClass::kFpAlu, gate_rows);
        probe.load(dir.w.row(0),
                   static_cast<u32>(
                       std::min<u64>(dir.w.data.size() * 4, 1u << 16)));
        probe.load(input.row(t), input.cols * 4);
        probe.store(out_row + out_offset, hidden_ * 4);
    }
}

template <typename Probe>
Tensor2
BiLstm::forward(const Tensor2& input, Probe& probe,
                simd::SgemmFn gemm) const
{
    requireInput(input.cols == in_features_,
                 "bilstm: input feature mismatch");
    Tensor2 out(input.rows, 2 * hidden_);
    runDirection(fwd_, input, false, out, 0, probe, gemm);
    runDirection(bwd_, input, true, out, hidden_, probe, gemm);
    return out;
}

void
softmaxRows(Tensor2& t)
{
    for (u32 r = 0; r < t.rows; ++r) {
        float* row = t.row(r);
        float best = row[0];
        for (u32 c = 1; c < t.cols; ++c) best = std::max(best, row[c]);
        float sum = 0.0f;
        for (u32 c = 0; c < t.cols; ++c) {
            row[c] = std::exp(row[c] - best);
            sum += row[c];
        }
        for (u32 c = 0; c < t.cols; ++c) row[c] /= sum;
    }
}

// Explicit instantiations.
#define GB_NN_INSTANTIATE(P)                                            \
    template void applyActivation<P>(Tensor2&, Activation, P&);        \
    template Tensor2 Conv1d::forward<P>(const Tensor2&, P&,            \
                                        simd::SgemmFn) const;          \
    template Tensor2 Dense::forward<P>(const Tensor2&, P&,             \
                                       simd::SgemmFn) const;           \
    template Tensor2 BiLstm::forward<P>(const Tensor2&, P&,            \
                                        simd::SgemmFn) const;

GB_NN_INSTANTIATE(NullProbe)
GB_NN_INSTANTIATE(CountingProbe)
GB_NN_INSTANTIATE(CharProbe)
#undef GB_NN_INSTANTIATE

} // namespace gb
