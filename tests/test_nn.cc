/**
 * @file
 * Tests for the NN inference engine: layers, CTC decoders, and the
 * Bonito/Clair model assemblies.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "nn/bonito.h"
#include "nn/clair.h"
#include "nn/ctc.h"
#include "nn/layers.h"
#include "pileup/pileup.h"
#include "simd/gemm_engine.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gb {
namespace {

TEST(Layers, ConvShapeAndDeterminism)
{
    Conv1d conv(4, 8, 5, 1, 1, Activation::kNone, 7);
    Tensor2 input(100, 4);
    Rng rng(1);
    for (auto& v : input.data) v = static_cast<float>(rng.normal());
    NullProbe probe;
    const Tensor2 a = conv.forward(input, probe);
    const Tensor2 b = conv.forward(input, probe);
    EXPECT_EQ(a.rows, 100u);
    EXPECT_EQ(a.cols, 8u);
    EXPECT_EQ(a.data, b.data);
}

TEST(Layers, ConvStrideDownsamples)
{
    Conv1d conv(1, 2, 5, 3, 1, Activation::kNone, 7);
    Tensor2 input(100, 1);
    NullProbe probe;
    EXPECT_EQ(conv.forward(input, probe).rows, 34u); // ceil(100/3)
}

TEST(Layers, DepthwiseConvIsPerChannel)
{
    // groups == channels: each output channel depends only on its own
    // input channel.
    Conv1d conv(2, 2, 3, 1, 2, Activation::kNone, 11);
    Tensor2 a(20, 2);
    Tensor2 b(20, 2);
    Rng rng(2);
    for (u32 t = 0; t < 20; ++t) {
        a.at(t, 0) = static_cast<float>(rng.normal());
        a.at(t, 1) = static_cast<float>(rng.normal());
        b.at(t, 0) = a.at(t, 0);
        b.at(t, 1) = a.at(t, 1) + 5.0f; // perturb channel 1 only
    }
    NullProbe probe;
    const Tensor2 ra = conv.forward(a, probe);
    const Tensor2 rb = conv.forward(b, probe);
    for (u32 t = 0; t < 20; ++t) {
        EXPECT_FLOAT_EQ(ra.at(t, 0), rb.at(t, 0)); // ch0 unaffected
    }
}

TEST(Layers, ConvRejectsBadConfig)
{
    EXPECT_THROW(Conv1d(4, 8, 3, 1, 3, Activation::kNone, 1),
                 InputError);
    Conv1d conv(4, 8, 3, 1, 1, Activation::kNone, 1);
    Tensor2 wrong(10, 5);
    NullProbe probe;
    EXPECT_THROW(conv.forward(wrong, probe), InputError);
}

TEST(Layers, DenseLinearity)
{
    Dense dense(6, 3, Activation::kNone, 13);
    Tensor2 x(1, 6);
    Tensor2 zero(1, 6);
    Rng rng(3);
    for (auto& v : x.data) v = static_cast<float>(rng.normal());
    NullProbe probe;
    const Tensor2 fx = dense.forward(x, probe);
    const Tensor2 f0 = dense.forward(zero, probe);
    // f(2x) - f(0) == 2 (f(x) - f(0)).
    Tensor2 x2 = x;
    for (auto& v : x2.data) v *= 2.0f;
    const Tensor2 f2x = dense.forward(x2, probe);
    for (u32 c = 0; c < 3; ++c) {
        EXPECT_NEAR(f2x.at(0, c) - f0.at(0, c),
                    2.0f * (fx.at(0, c) - f0.at(0, c)), 1e-4f);
    }
}

TEST(Layers, ReluClampsNegative)
{
    Tensor2 t(1, 4);
    t.data = {-1.0f, 0.0f, 2.0f, -3.0f};
    NullProbe probe;
    applyActivation(t, Activation::kRelu, probe);
    const std::vector<float> expected{0.0f, 0.0f, 2.0f, 0.0f};
    EXPECT_EQ(t.data, expected);
}

TEST(Layers, BiLstmShapeAndDirectionality)
{
    BiLstm lstm(4, 8, 17);
    Tensor2 x(12, 4);
    Rng rng(4);
    for (auto& v : x.data) v = static_cast<float>(rng.normal());
    NullProbe probe;
    const Tensor2 h = lstm.forward(x, probe);
    EXPECT_EQ(h.rows, 12u);
    EXPECT_EQ(h.cols, 16u);

    // Perturb the last timestep: forward outputs at t=0 must be
    // unchanged (causality), backward outputs at t=0 must change.
    Tensor2 x2 = x;
    x2.at(11, 0) += 10.0f;
    const Tensor2 h2 = lstm.forward(x2, probe);
    for (u32 c = 0; c < 8; ++c) {
        EXPECT_FLOAT_EQ(h.at(0, c), h2.at(0, c));
    }
    float back_delta = 0.0f;
    for (u32 c = 8; c < 16; ++c) {
        back_delta += std::abs(h.at(0, c) - h2.at(0, c));
    }
    EXPECT_GT(back_delta, 1e-4f);
}

TEST(Softmax, RowsSumToOne)
{
    Tensor2 t(3, 5);
    Rng rng(5);
    for (auto& v : t.data) v = static_cast<float>(rng.normal(0, 3));
    softmaxRows(t);
    for (u32 r = 0; r < 3; ++r) {
        float sum = 0.0f;
        for (u32 c = 0; c < 5; ++c) {
            sum += t.at(r, c);
            EXPECT_GE(t.at(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

/** Build a [T][5] tensor from a class index sequence (one-hot-ish). */
Tensor2
framesOf(const std::vector<u32>& classes, float confidence = 0.9f)
{
    Tensor2 t(static_cast<u32>(classes.size()), kCtcClasses);
    const float rest = (1.0f - confidence) / (kCtcClasses - 1);
    for (u32 r = 0; r < t.rows; ++r) {
        for (u32 c = 0; c < kCtcClasses; ++c) {
            t.at(r, c) = c == classes[r] ? confidence : rest;
        }
    }
    return t;
}

TEST(Ctc, GreedyCollapsesRepeatsAndBlanks)
{
    // blank A A blank C C C blank G T -> "ACGT".
    const Tensor2 probs =
        framesOf({0, 1, 1, 0, 2, 2, 2, 0, 3, 4});
    EXPECT_EQ(ctcGreedyDecode(probs), "ACGT");
}

TEST(Ctc, GreedyRepeatWithBlankSeparatorEmitsTwice)
{
    // A blank A -> "AA".
    EXPECT_EQ(ctcGreedyDecode(framesOf({1, 0, 1})), "AA");
}

TEST(Ctc, GreedyEmptyOnAllBlanks)
{
    EXPECT_EQ(ctcGreedyDecode(framesOf({0, 0, 0, 0})), "");
}

TEST(Ctc, BeamMatchesGreedyOnConfidentFrames)
{
    Rng rng(6);
    std::vector<u32> classes;
    for (int i = 0; i < 40; ++i) {
        classes.push_back(static_cast<u32>(rng.below(5)));
    }
    const Tensor2 probs = framesOf(classes, 0.95f);
    EXPECT_EQ(ctcBeamDecode(probs, 8), ctcGreedyDecode(probs));
}

TEST(Ctc, BeamBeatsGreedyOnMergedMass)
{
    // Classic CTC case: per-frame argmax is blank, but the summed
    // probability of "A" beats the blank path.
    Tensor2 probs(2, kCtcClasses);
    // frame 0: blank 0.4, A 0.35, C 0.25
    probs.at(0, 0) = 0.4f;
    probs.at(0, 1) = 0.35f;
    probs.at(0, 2) = 0.25f;
    // frame 1: blank 0.4, A 0.35, C 0.25
    probs.at(1, 0) = 0.4f;
    probs.at(1, 1) = 0.35f;
    probs.at(1, 2) = 0.25f;
    EXPECT_EQ(ctcGreedyDecode(probs), "");
    // P("") = 0.16; P("A") = 0.35*0.4 + 0.4*0.35 + 0.35*0.35 = 0.4025.
    EXPECT_EQ(ctcBeamDecode(probs, 4), "A");
}

TEST(Bonito, ForwardShapeAndDeterminism)
{
    BonitoModel model;
    Tensor2 chunk(999, 1);
    Rng rng(7);
    for (auto& v : chunk.data) v = static_cast<float>(rng.normal());
    NullProbe probe;
    const Tensor2 a = model.forward(chunk, probe);
    EXPECT_EQ(a.rows, 333u); // stride-3 downsample
    EXPECT_EQ(a.cols, kCtcClasses);
    for (u32 r = 0; r < a.rows; ++r) {
        float sum = 0.0f;
        for (u32 c = 0; c < a.cols; ++c) sum += a.at(r, c);
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
    }
    const Tensor2 b = model.forward(chunk, probe);
    EXPECT_EQ(a.data, b.data);
}

TEST(Bonito, BasecallChunksAndStitches)
{
    BonitoModel model;
    Rng rng(8);
    std::vector<float> samples(9000);
    for (auto& v : samples) {
        v = static_cast<float>(rng.normal(90, 12));
    }
    NullProbe probe;
    const std::string seq = model.basecall(samples, probe);
    // Untrained weights produce arbitrary but valid base strings.
    for (char c : seq) {
        EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
    }
    // Deterministic across calls.
    EXPECT_EQ(seq, model.basecall(samples, probe));
    EXPECT_GT(model.macsPerChunk(), 1'000'000u);
}

TEST(Bonito, BeamDecoderProducesValidSequence)
{
    BonitoModel model;
    Rng rng(12);
    std::vector<float> samples(4500);
    for (auto& v : samples) {
        v = static_cast<float>(rng.normal(90, 12));
    }
    NullProbe probe;
    const std::string beam = model.basecall(
        samples, probe, BonitoModel::Decoder::kBeam, 4);
    for (char c : beam) {
        EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
    }
    // Deterministic across calls.
    EXPECT_EQ(beam, model.basecall(samples, probe,
                                   BonitoModel::Decoder::kBeam, 4));
    // With near-uniform (untrained) frame probabilities, beam search
    // recovers sequence mass that greedy's blank-argmax collapses —
    // it must therefore never be shorter.
    const std::string greedy = model.basecall(
        samples, probe, BonitoModel::Decoder::kGreedy);
    EXPECT_GE(beam.size(), greedy.size());
}

TEST(Bonito, NormalizeSignalCentersAndScales)
{
    Rng rng(9);
    std::vector<float> samples(5000);
    for (auto& v : samples) {
        v = static_cast<float>(rng.normal(100, 15));
    }
    const auto norm = normalizeSignal(samples);
    double sum = 0.0;
    double sq = 0.0;
    for (float v : norm) {
        sum += v;
        sq += static_cast<double>(v) * v;
    }
    const double mean = sum / static_cast<double>(norm.size());
    const double sd = std::sqrt(sq / static_cast<double>(norm.size()) -
                                mean * mean);
    EXPECT_NEAR(mean, 0.0, 0.1);
    EXPECT_NEAR(sd, 1.0, 0.15);
}

TEST(Clair, PredictShapeAndValidity)
{
    ClairModel model;
    std::vector<float> features(kClairFeatureSize, 0.1f);
    NullProbe probe;
    const ClairOutput out = model.predict(features, probe);
    auto checkHead = [](const auto& head) {
        float sum = 0.0f;
        for (float v : head) {
            EXPECT_GE(v, 0.0f);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
    };
    checkHead(out.alt_base);
    checkHead(out.zygosity);
    checkHead(out.var_type);
    checkHead(out.indel_len);

    EXPECT_THROW(model.predict(std::vector<float>(10, 0.0f), probe),
                 InputError);
}

TEST(Clair, BatchMatchesSingle)
{
    ClairModel model;
    Rng rng(10);
    std::vector<std::vector<float>> batch;
    for (int i = 0; i < 5; ++i) {
        std::vector<float> f(kClairFeatureSize);
        for (auto& v : f) v = static_cast<float>(rng.uniform());
        batch.push_back(std::move(f));
    }
    NullProbe probe;
    const auto outs = model.predictBatch(batch, probe);
    ASSERT_EQ(outs.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
        const auto single = model.predict(batch[i], probe);
        EXPECT_EQ(outs[i].alt_base, single.alt_base);
    }
}

TEST(Clair, OutputDependsOnInput)
{
    ClairModel model;
    NullProbe probe;
    std::vector<float> a(kClairFeatureSize, 0.0f);
    std::vector<float> b(kClairFeatureSize, 0.9f);
    const auto oa = model.predict(a, probe);
    const auto ob = model.predict(b, probe);
    float delta = 0.0f;
    for (int i = 0; i < 4; ++i) {
        delta += std::abs(oa.alt_base[static_cast<size_t>(i)] -
                          ob.alt_base[static_cast<size_t>(i)]);
    }
    EXPECT_GT(delta, 1e-4f);
}

// ---- Golden outputs --------------------------------------------------
// Exact float bits and CountingProbe totals recorded before the layers
// moved onto the shared GEMM. A changed summation order, an FMA
// contraction or a changed probe stream moves one of these.

/** xxhash64 of the raw bits of a float buffer. */
u64
bitsHash(const std::vector<float>& v)
{
    return xxhash64(v.data(), v.size() * sizeof(float));
}

/** CountingProbe totals: op counts by class, then load/store bytes. */
std::vector<u64>
probeTotals(const CountingProbe& probe)
{
    std::vector<u64> out(probe.counts().by_class.begin(),
                         probe.counts().by_class.end());
    out.push_back(probe.loadBytes());
    out.push_back(probe.storeBytes());
    return out;
}

Tensor2
randomTensor(u32 rows, u32 cols, u64 seed)
{
    Tensor2 t(rows, cols);
    Rng rng(seed);
    for (auto& v : t.data) v = static_cast<float>(rng.normal());
    return t;
}

Tensor2
goldenChunk()
{
    return randomTensor(999, 1, 7);
}

std::vector<float>
goldenFeatures()
{
    Rng rng(10);
    std::vector<float> f(kClairFeatureSize);
    for (auto& v : f) v = static_cast<float>(rng.uniform());
    return f;
}

std::vector<float>
flatten(const ClairOutput& o)
{
    std::vector<float> v(o.alt_base.begin(), o.alt_base.end());
    v.insert(v.end(), o.zygosity.begin(), o.zygosity.end());
    v.insert(v.end(), o.var_type.begin(), o.var_type.end());
    v.insert(v.end(), o.indel_len.begin(), o.indel_len.end());
    return v;
}

/**
 * Every GEMM a layer can run on: the reference, each level this host
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

TEST(NnGolden, BonitoForwardBitsUnderEveryGemm)
{
    const BonitoModel model;
    const Tensor2 chunk = goldenChunk();
    NullProbe probe;
    for (const auto& [name, gemm] : gemmsUnderTest()) {
        EXPECT_EQ(bitsHash(model.forward(chunk, probe, gemm).data),
                  0xa0cf9184f7f34049ull)
            << name;
    }
}

TEST(NnGolden, ClairPredictBitsUnderEveryGemm)
{
    const ClairModel model;
    const std::vector<float> features = goldenFeatures();
    NullProbe probe;
    for (const auto& [name, gemm] : gemmsUnderTest()) {
        EXPECT_EQ(bitsHash(flatten(model.predict(features, probe, gemm))),
                  0x3a461adbf3478d34ull)
            << name;
    }
}

TEST(NnGolden, LayerBitsAndProbeTotalsUnderEveryGemm)
{
    struct Case
    {
        const char* name;
        std::function<Tensor2(CountingProbe&, simd::SgemmFn)> run;
        u64 bits;
        std::vector<u64> totals;
    };
    const Conv1d conv(6, 10, 5, 3, 1, Activation::kSwish, 21);
    const Conv1d depthwise(12, 12, 9, 1, 12, Activation::kSwish, 23);
    const Conv1d grouped(12, 6, 3, 2, 3, Activation::kNone, 25);
    const Dense dense(19, 13, Activation::kRelu, 27);
    const BiLstm lstm(7, 11, 29);
    const std::vector<Case> cases{
        {"conv",
         [&](CountingProbe& p, simd::SgemmFn g) {
             return conv.forward(randomTensor(101, 6, 22), p, g);
         },
         0xb80c4a488f729613ull,
         {136, 0, 1378, 1326, 68, 0, 0, 41616, 1360}},
        {"depthwise",
         [&](CountingProbe& p, simd::SgemmFn g) {
             return depthwise.forward(randomTensor(77, 12, 24), p, g);
         },
         0x7c21a0831c628b17ull,
         {308, 0, 1310, 1232, 154, 0, 0, 36960, 3696}},
        {"grouped",
         [&](CountingProbe& p, simd::SgemmFn g) {
             return grouped.forward(randomTensor(40, 12, 26), p, g);
         },
         0xfaa09f99a8f0d3abull,
         {80, 0, 180, 220, 20, 0, 0, 6720, 480}},
        {"dense",
         [&](CountingProbe& p, simd::SgemmFn g) {
             return dense.forward(randomTensor(5, 19, 28), p, g);
         },
         0xda4cdb3491d09719ull,
         {0, 0, 173, 170, 10, 0, 0, 5320, 260}},
        {"bilstm",
         [&](CountingProbe& p, simd::SgemmFn g) {
             return lstm.forward(randomTensor(9, 7, 30), p, g);
         },
         0x88ae606aa8d2c137ull,
         {0, 792, 1980, 1800, 36, 0, 0, 57528, 792}},
    };
    for (const auto& [gemm_name, gemm] : gemmsUnderTest()) {
        for (const Case& c : cases) {
            CountingProbe probe;
            EXPECT_EQ(bitsHash(c.run(probe, gemm).data), c.bits)
                << c.name << " on " << gemm_name;
            EXPECT_EQ(probeTotals(probe), c.totals)
                << c.name << " on " << gemm_name;
        }
    }
}

TEST(NnGolden, ModelProbeTotals)
{
    CountingProbe bonito_probe;
    BonitoModel().forward(goldenChunk(), bonito_probe);
    EXPECT_EQ(probeTotals(bonito_probe),
              (std::vector<u64>{17316, 4995, 556110, 537795, 18315, 0, 0,
                                17181468, 582084}));
    CountingProbe clair_probe;
    ClairModel().predict(goldenFeatures(), clair_probe);
    EXPECT_EQ(probeTotals(clair_probe),
              (std::vector<u64>{0, 25344, 362520, 264348, 808, 0, 0,
                                8459136, 25792}));
}
} // namespace
} // namespace gb
