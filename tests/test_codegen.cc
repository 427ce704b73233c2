/**
 * @file
 * Tests for the per-model capability rows: the readmem calibration
 * anchors, the Figure 11 feature matrix, and the modeled pathologies
 * (CoMD tiling, OpenACC vectorization collapse, AMP backend split).
 */

#include <gtest/gtest.h>

#include "kernelir/captable.hh"
#include "sim/device.hh"

namespace hetsim::ir
{
namespace
{

/** Compile @p desc through @p kind's capability row. */
Codegen
compile(ModelKind kind, const KernelDescriptor &desc,
        const OptHints &hints, const sim::DeviceSpec &spec)
{
    return compileWithCaps(capsFor(kind), desc, hints, spec);
}

KernelDescriptor
simpleStream()
{
    KernelDescriptor desc;
    desc.name = "readmem_like";
    desc.flopsPerItem = 64;
    desc.intOpsPerItem = 8;
    MemStream s;
    s.buffer = "in";
    s.bytesPerItemSp = 256;
    s.workingSetBytesSp = 64 * MiB;
    desc.streams.push_back(s);
    return desc;
}

KernelDescriptor
comdLike()
{
    KernelDescriptor desc = simpleStream();
    desc.name = "force_like";
    desc.loop.divergentControlFlow = true;
    desc.loop.variableTripCount = true;
    desc.loop.indirectAddressing = true;
    desc.loop.tileable = true;
    return desc;
}

TEST(Codegen, ReadmemCalibrationAnchors)
{
    // Kernel-only readmem: OpenCL 1x, C++ AMP 1.3x, OpenACC 2x
    // (paper Figures 8a/9a) - on a bandwidth-bound kernel the ratios
    // live in bwEfficiency.
    auto desc = simpleStream();
    sim::DeviceSpec gpu = sim::radeonR9_280X();
    auto ocl = compile(ModelKind::OpenCl, desc, {}, gpu);
    auto amp = compile(ModelKind::CppAmp, desc, {}, gpu);
    auto acc = compile(ModelKind::OpenAcc, desc, {}, gpu);
    EXPECT_NEAR(ocl.bwEfficiency / amp.bwEfficiency, 1.3, 0.01);
    EXPECT_NEAR(ocl.bwEfficiency / acc.bwEfficiency, 2.0, 0.01);
}

TEST(Codegen, Figure11FeatureMatrix)
{
    auto ocl = capsFor(ModelKind::OpenCl).features;
    EXPECT_TRUE(ocl.vectorization);
    EXPECT_TRUE(ocl.localDataStore);
    EXPECT_TRUE(ocl.fineGrainedSync);
    EXPECT_TRUE(ocl.explicitUnrolling);
    EXPECT_TRUE(ocl.reducedCodeMotion);

    auto acc = capsFor(ModelKind::OpenAcc).features;
    EXPECT_TRUE(acc.vectorization);
    EXPECT_FALSE(acc.localDataStore);
    EXPECT_FALSE(acc.fineGrainedSync);
    EXPECT_FALSE(acc.explicitUnrolling);
    EXPECT_FALSE(acc.reducedCodeMotion);

    auto amp = capsFor(ModelKind::CppAmp).features;
    EXPECT_TRUE(amp.vectorization);
    EXPECT_TRUE(amp.localDataStore);
    EXPECT_TRUE(amp.fineGrainedSync);
    EXPECT_FALSE(amp.explicitUnrolling);
    EXPECT_FALSE(amp.reducedCodeMotion);
}

TEST(Codegen, TableIIIToolchains)
{
    EXPECT_STREQ(capsFor(ModelKind::OpenCl).toolchain,
              "AMD Catalyst driver v14.6");
    EXPECT_STREQ(capsFor(ModelKind::CppAmp).toolchain,
              "CLAMP v0.6.0");
    EXPECT_STREQ(capsFor(ModelKind::OpenAcc).toolchain,
              "PGI v14.10 with AMD Catalyst driver v14.6");
}

TEST(Codegen, AmpTilingBuysAboutThreeX)
{
    // Paper Sec. VI-C: "exposing parallelism in the form of tiles
    // improved the performance of CoMD by almost 3x".
    auto desc = comdLike();
    sim::DeviceSpec gpu = sim::radeonR9_280X();
    OptHints flat, tiled;
    tiled.tiled = true;
    auto f = compile(ModelKind::CppAmp, desc, flat, gpu);
    auto t = compile(ModelKind::CppAmp, desc, tiled, gpu);
    EXPECT_NEAR(t.simdEfficiency / f.simdEfficiency, 3.0, 0.7);
}

TEST(Codegen, AccCollapsesOnGatherLoops)
{
    // Paper Sec. VI-A: the OpenACC compiler cannot expose vector
    // parallelism in the CoMD force loop.
    auto desc = comdLike();
    sim::DeviceSpec gpu = sim::radeonR9_280X();
    auto acc = compile(ModelKind::OpenAcc, desc, {}, gpu);
    OptHints tuned;
    tuned.tiled = true;
    tuned.useLds = true;
    auto ocl = compile(ModelKind::OpenCl, desc, tuned, gpu);
    EXPECT_LT(acc.simdEfficiency, ocl.simdEfficiency / 10);
}

TEST(Codegen, AccIgnoresLdsHint)
{
    auto desc = simpleStream();
    desc.ldsBytesPerItemIfUsed = 16;
    OptHints hints;
    hints.useLds = true;
    auto cg = compile(ModelKind::OpenAcc, desc, hints, sim::radeonR9_280X());
    EXPECT_FALSE(cg.usesLds);
}

TEST(Codegen, AmpBackendSplitOnIrregularKernels)
{
    // Irregular kernels: better than baseline on HSA (APU), worse on
    // the Catalyst dGPU path (the paper's XSBench observation).
    auto desc = comdLike();
    auto apu = compile(ModelKind::CppAmp, desc, {}, sim::a10_7850kGpu());
    auto dgpu = compile(ModelKind::CppAmp, desc, {}, sim::radeonR9_280X());
    EXPECT_GT(apu.chainEfficiency, 1.0);
    EXPECT_LT(dgpu.chainEfficiency, 0.5);
    EXPECT_GT(apu.bwEfficiency, dgpu.bwEfficiency);
}

TEST(Codegen, TransferManagement)
{
    EXPECT_FALSE(capsFor(ModelKind::OpenCl).managesTransfers);
    EXPECT_FALSE(capsFor(ModelKind::Hc).managesTransfers);
    EXPECT_TRUE(capsFor(ModelKind::CppAmp).managesTransfers);
    EXPECT_TRUE(capsFor(ModelKind::OpenAcc).managesTransfers);
    // Compiler-managed staging is slower than explicit pinned staging.
    EXPECT_LT(capsFor(ModelKind::CppAmp).transferEfficiency, 1.0);
    EXPECT_LT(capsFor(ModelKind::OpenAcc).transferEfficiency,
              1.0);
    EXPECT_DOUBLE_EQ(capsFor(ModelKind::OpenCl).transferEfficiency,
                     1.0);
}

TEST(Codegen, HandTuningHelpsOnlyOpenCl)
{
    auto desc = simpleStream();
    desc.loop.unrollableDepth = 1;
    OptHints tuned;
    tuned.unroll = 8;
    tuned.hoistedInvariants = true;
    sim::DeviceSpec gpu = sim::radeonR9_280X();

    auto ocl_base = compile(ModelKind::OpenCl, desc, {}, gpu);
    auto ocl_tuned = compile(ModelKind::OpenCl, desc, tuned, gpu);
    EXPECT_GT(ocl_tuned.simdEfficiency, ocl_base.simdEfficiency);

    auto acc_base = compile(ModelKind::OpenAcc, desc, {}, gpu);
    auto acc_tuned = compile(ModelKind::OpenAcc, desc, tuned, gpu);
    EXPECT_DOUBLE_EQ(acc_tuned.simdEfficiency, acc_base.simdEfficiency);
}

TEST(Codegen, EfficienciesStayInRange)
{
    // Property: every model/trait combination yields a sane efficiency.
    for (ModelKind kind : {ModelKind::Serial, ModelKind::OpenMp,
                           ModelKind::OpenCl, ModelKind::CppAmp,
                           ModelKind::OpenAcc, ModelKind::Hc}) {
        for (int mask = 0; mask < 32; ++mask) {
            KernelDescriptor desc = simpleStream();
            desc.loop.divergentControlFlow = mask & 1;
            desc.loop.variableTripCount = mask & 2;
            desc.loop.indirectAddressing = mask & 4;
            desc.loop.reduction = mask & 8;
            desc.loop.tileable = mask & 16;
            for (const sim::DeviceSpec &spec :
                 {sim::radeonR9_280X(), sim::a10_7850kGpu(),
                  sim::a10_7850kCpu()}) {
                auto cg = compile(kind, desc, {}, spec);
                ASSERT_GT(cg.simdEfficiency, 0.0);
                ASSERT_LE(cg.simdEfficiency, 1.0);
                ASSERT_GT(cg.bwEfficiency, 0.0);
                ASSERT_LE(cg.bwEfficiency, 1.25);
                ASSERT_GE(cg.launchOverheadUs, 0.0);
            }
        }
    }
}

TEST(Codegen, Names)
{
    EXPECT_STREQ(toString(ModelKind::CppAmp), "cppamp");
    EXPECT_STREQ(displayName(ModelKind::CppAmp), "C++ AMP");
    EXPECT_STREQ(displayName(ModelKind::OpenAcc), "OpenACC");
    EXPECT_STREQ(displayName(ModelKind::Hc), "HC");
}

} // namespace
} // namespace hetsim::ir
