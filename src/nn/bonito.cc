#include "nn/bonito.h"

#include <algorithm>
#include <cmath>

#include "nn/ctc.h"

namespace gb {

std::vector<float>
normalizeSignal(std::span<const float> samples)
{
    std::vector<float> sorted(samples.begin(), samples.end());
    if (sorted.empty()) return {};
    std::nth_element(sorted.begin(),
                     sorted.begin() + sorted.size() / 2, sorted.end());
    const float median = sorted[sorted.size() / 2];
    for (auto& v : sorted) v = std::abs(v - median);
    std::nth_element(sorted.begin(),
                     sorted.begin() + sorted.size() / 2, sorted.end());
    const float mad = std::max(1e-3f, sorted[sorted.size() / 2]);

    std::vector<float> out(samples.begin(), samples.end());
    const float scale = 1.4826f * mad;
    for (auto& v : out) v = (v - median) / scale;
    return out;
}

BonitoModel::BonitoModel(const BonitoConfig& config) : config_(config)
{
    const u32 c = config.base_channels;
    const u64 s = config.seed;
    // Front end: widen, then stride-3 downsample (Bonito-like).
    layers_.emplace_back(1, c, 5, 1, 1, Activation::kSwish, s + 1);
    layers_.emplace_back(c, c, 5, config.stride, 1, Activation::kSwish,
                         s + 2);
    // Body: depthwise-separable blocks with growing width.
    const u32 widths[] = {2 * c, 3 * c, 4 * c, 4 * c};
    u32 prev = c;
    u64 seed = s + 3;
    for (u32 width : widths) {
        // depthwise k=9 on prev channels, then pointwise expand.
        layers_.emplace_back(prev, prev, 9, 1, prev,
                             Activation::kSwish, seed++);
        layers_.emplace_back(prev, width, 1, 1, 1, Activation::kSwish,
                             seed++);
        prev = width;
    }
    // Head: pointwise to 5 CTC classes.
    layers_.emplace_back(prev, kCtcClasses, 1, 1, 1, Activation::kNone,
                         seed++);
}

u64
BonitoModel::macsPerChunk() const
{
    u64 total = 0;
    u32 t = config_.chunk_size;
    for (const auto& layer : layers_) {
        t = ceilDiv(t, layer.stride());
        total += static_cast<u64>(t) * layer.macsPerFrame();
    }
    return total;
}

template <typename Probe>
Tensor2
BonitoModel::forward(const Tensor2& chunk, Probe& probe,
                     simd::SgemmFn gemm) const
{
    Tensor2 x = chunk;
    for (const auto& layer : layers_) {
        x = layer.forward(x, probe, gemm);
    }
    softmaxRows(x);
    probe.op(OpClass::kFpAlu,
             static_cast<u64>(x.rows) * x.cols * 3);
    return x;
}

template <typename Probe>
std::string
BonitoModel::basecall(std::span<const float> samples, Probe& probe,
                      Decoder decoder, u32 beam_width) const
{
    std::string sequence;
    const std::vector<float> normalized = normalizeSignal(samples);
    for (size_t begin = 0; begin < normalized.size();
         begin += config_.chunk_size) {
        const size_t len = std::min<size_t>(config_.chunk_size,
                                            normalized.size() - begin);
        if (len < 16) break; // ignore a tiny tail
        Tensor2 chunk(static_cast<u32>(len), 1);
        for (size_t i = 0; i < len; ++i) {
            chunk.at(static_cast<u32>(i), 0) = normalized[begin + i];
        }
        const Tensor2 probs = forward(chunk, probe);
        sequence += decoder == Decoder::kGreedy
                        ? ctcGreedyDecode(probs)
                        : ctcBeamDecode(probs, beam_width);
    }
    return sequence;
}

// Explicit instantiations.
#define GB_BONITO_INSTANTIATE(P)                                        \
    template Tensor2 BonitoModel::forward<P>(const Tensor2&, P&,        \
                                             simd::SgemmFn) const;      \
    template std::string BonitoModel::basecall<P>(                     \
        std::span<const float>, P&, Decoder, u32) const;

GB_BONITO_INSTANTIATE(NullProbe)
GB_BONITO_INSTANTIATE(CountingProbe)
GB_BONITO_INSTANTIATE(CharProbe)
#undef GB_BONITO_INSTANTIATE

} // namespace gb
