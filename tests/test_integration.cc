/**
 * @file
 * Integration tests: the paper's headline *shapes* must hold end to
 * end (Figures 8/9 orderings, Section VI observations).  Absolute
 * numbers are recorded in EXPERIMENTS.md; these tests pin the
 * qualitative results so refactoring cannot silently break them.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/harness.hh"
#include "core/sloc.hh"
#include "core/workload.hh"

namespace hetsim::core
{
namespace
{

/** Per-workload scale: large enough that launch overheads do not
 *  swamp the kernels (the shapes below are about steady state). */
double
shapeScale(const Workload &wl)
{
    if (wl.name() == "read-benchmark")
        return 0.5;
    if (wl.name() == "LULESH")
        return 0.5;
    if (wl.name() == "CoMD")
        return 0.25;
    if (wl.name() == "XSBench")
        return 0.2;
    return 0.5; // miniFE
}

/** Speedups for one workload on one device at reduced scale. */
std::map<ModelKind, double>
speedupsOf(Workload &wl, const sim::DeviceSpec &device, double scale,
           Precision prec = Precision::Single)
{
    Harness harness(wl, scale, false);
    std::map<ModelKind, double> out;
    for (const auto &p : harness.speedups(device)) {
        if (p.precision == prec)
            out[p.model] = p.speedup;
    }
    return out;
}

TEST(PaperShapes, ReadmemKernelRatios)
{
    // Figures 8a/9a: OpenCL beats C++ AMP by 1.3x and OpenACC by 2x
    // on kernel time, on both machines.
    auto wl = workloadByName("readmem");
    for (const auto &dev :
         {sim::a10_7850kGpu(), sim::radeonR9_280X()}) {
        auto s = speedupsOf(*wl, dev, 0.5);
        EXPECT_NEAR(s[ModelKind::OpenCl] / s[ModelKind::CppAmp], 1.3,
                    0.1)
            << dev.name;
        EXPECT_NEAR(s[ModelKind::OpenCl] / s[ModelKind::OpenAcc], 2.0,
                    0.15)
            << dev.name;
    }
}

TEST(PaperShapes, OpenClWinsEverywhereOnDiscreteGpu)
{
    // Sec. VI-A: "OpenCL performs substantially better than both
    // OpenACC and C++ AMP [on the discrete GPU]".
    for (auto &wl : makeAllWorkloads()) {
        auto s = speedupsOf(*wl, sim::radeonR9_280X(),
                            shapeScale(*wl));
        EXPECT_GT(s[ModelKind::OpenCl], s[ModelKind::CppAmp])
            << wl->name();
        EXPECT_GT(s[ModelKind::OpenCl], s[ModelKind::OpenAcc])
            << wl->name();
    }
}

TEST(PaperShapes, AmpBeatsAccAlmostEverywhere)
{
    // "C++ AMP outperformed OpenACC in most cases."
    int amp_wins = 0, cases = 0;
    for (auto &wl : makeAllWorkloads()) {
        for (const auto &dev :
             {sim::a10_7850kGpu(), sim::radeonR9_280X()}) {
            auto s = speedupsOf(*wl, dev, shapeScale(*wl));
            ++cases;
            amp_wins += s[ModelKind::CppAmp] > s[ModelKind::OpenAcc];
        }
    }
    EXPECT_GE(amp_wins * 10, cases * 7); // >= 70% of cases
}

TEST(PaperShapes, AmpBestForXsbenchOnApu)
{
    // Fig. 8d: "C++ AMP resulted in the best performance on the APU."
    auto wl = workloadByName("xsbench");
    auto s = speedupsOf(*wl, sim::a10_7850kGpu(), 0.2);
    EXPECT_GT(s[ModelKind::CppAmp], s[ModelKind::OpenCl]);
    EXPECT_GT(s[ModelKind::CppAmp], s[ModelKind::OpenAcc]);
}

TEST(PaperShapes, AccWorstForComd)
{
    // Fig. 8c/9c: OpenACC's vectorization failure makes it by far the
    // slowest model for CoMD on both machines.
    auto wl = workloadByName("comd");
    for (const auto &dev :
         {sim::a10_7850kGpu(), sim::radeonR9_280X()}) {
        auto s = speedupsOf(*wl, dev, 0.25);
        EXPECT_LT(s[ModelKind::OpenAcc] * 4, s[ModelKind::OpenCl])
            << dev.name;
        EXPECT_LT(s[ModelKind::OpenAcc], s[ModelKind::CppAmp])
            << dev.name;
    }
}

TEST(PaperShapes, LuleshAmpCrippledOnDiscreteGpuOnly)
{
    // Fig. 9b: the 27-of-28-kernels fallback makes C++ AMP LULESH far
    // worse than OpenCL on the dGPU; on the APU they are comparable
    // (Fig. 8b: both emerging models within ~2x of OpenCL).
    auto wl = workloadByName("lulesh");
    auto dgpu = speedupsOf(*wl, sim::radeonR9_280X(), 0.5);
    auto apu = speedupsOf(*wl, sim::a10_7850kGpu(), 0.5);
    EXPECT_LT(dgpu[ModelKind::CppAmp] * 2.5, dgpu[ModelKind::OpenCl]);
    EXPECT_GT(apu[ModelKind::CppAmp] * 2.0, apu[ModelKind::OpenCl]);
}

TEST(PaperShapes, MinifeEmergingModelsNearOpenMpOnApu)
{
    // Fig. 8e: on the APU every model shares the same DDR3 bandwidth,
    // so nothing gets far from the OpenMP baseline - and OpenACC is a
    // slowdown.
    auto wl = workloadByName("minife");
    auto s = speedupsOf(*wl, sim::a10_7850kGpu(), 0.15);
    EXPECT_LT(s[ModelKind::OpenCl], 4.0);
    EXPECT_LT(s[ModelKind::OpenAcc], 1.1);
}

TEST(PaperShapes, DoublePrecisionSlowerForComputeBoundApps)
{
    // Sec. VI-A: 1/16 DP on the APU, 1/4 on the dGPU.
    auto wl = workloadByName("comd");
    Harness harness(*wl, 0.1, false);
    auto sp = harness.speedup(sim::a10_7850kGpu(), ModelKind::OpenCl,
                              Precision::Single);
    auto dp = harness.speedup(sim::a10_7850kGpu(), ModelKind::OpenCl,
                              Precision::Double);
    EXPECT_LT(dp.speedup, sp.speedup * 0.7);
}

TEST(PaperShapes, PortabilityApuToDiscreteGpu)
{
    // "performance improvement in all cases when moved from APU to
    // discrete GPU" (same unmodified code for emerging models).
    for (auto &wl : makeAllWorkloads()) {
        auto apu = speedupsOf(*wl, sim::a10_7850kGpu(),
                              shapeScale(*wl));
        auto dgpu = speedupsOf(*wl, sim::radeonR9_280X(),
                               shapeScale(*wl));
        for (ModelKind model :
             {ModelKind::OpenCl, ModelKind::CppAmp,
              ModelKind::OpenAcc}) {
            if (!apu.count(model))
                continue;
            EXPECT_GT(dgpu[model], apu[model])
                << wl->name() << " " << ir::displayName(model);
        }
    }
}

TEST(PaperShapes, HcBestOfBothWorlds)
{
    // Section VII: HC combines OpenCL's performance with the
    // emerging models' productivity.  Performance: within a few
    // percent of OpenCL everywhere (explicit transfers, same codegen
    // class, cheaper dispatch).  Productivity: far fewer changed
    // lines than OpenCL.
    for (auto &wl : makeAllWorkloads()) {
        for (const auto &dev :
             {sim::a10_7850kGpu(), sim::radeonR9_280X()}) {
            auto s = speedupsOf(*wl, dev, shapeScale(*wl));
            ASSERT_TRUE(s.count(ModelKind::Hc)) << wl->name();
            EXPECT_GE(s[ModelKind::Hc], s[ModelKind::OpenCl] * 0.95)
                << wl->name() << " on " << dev.name;
        }
        int hc_lines =
            SlocManifest::linesChanged(wl->name(), ModelKind::Hc);
        int ocl_lines =
            SlocManifest::linesChanged(wl->name(), ModelKind::OpenCl);
        EXPECT_LT(hc_lines, ocl_lines) << wl->name();
    }
}

TEST(PaperShapes, TableIKernelCounts)
{
    std::map<std::string, int> expect = {{"LULESH", 28},
                                         {"CoMD", 3},
                                         {"XSBench", 1},
                                         {"miniFE", 3}};
    for (auto &wl : makeAllWorkloads()) {
        if (!expect.count(wl->name()))
            continue;
        Harness harness(*wl, 0.1, false);
        auto chars = harness.characteristics(sim::radeonR9_280X(),
                                             Precision::Single);
        EXPECT_EQ(chars.kernels, expect[wl->name()]) << wl->name();
    }
}

TEST(PaperShapes, TableIBoundedness)
{
    std::map<std::string, std::string> expect = {
        {"LULESH", "Balanced"},
        {"CoMD", "Compute"},
        {"XSBench", "Compute"},
        {"miniFE", "Memory"}};
    for (auto &wl : makeAllWorkloads()) {
        if (!expect.count(wl->name()))
            continue;
        // Boundedness is classified at the paper's problem sizes.
        Harness harness(*wl, 1.0, false);
        auto chars = harness.characteristics(sim::radeonR9_280X(),
                                             Precision::Single);
        EXPECT_EQ(chars.boundedness, expect[wl->name()])
            << wl->name();
    }
}

TEST(PaperShapes, Figure7MonotoneInBothClocks)
{
    // Every application gets faster (never slower) with either clock.
    std::vector<double> cores{200, 500, 800, 1000};
    std::vector<double> mems{480, 810, 1250};
    for (auto &wl : makeAllWorkloads()) {
        Harness harness(*wl, 0.1, false);
        auto rows = harness.freqSweep(sim::radeonR9_280X(),
                                      ModelKind::OpenCl,
                                      Precision::Single, cores, mems);
        for (size_t m = 0; m < rows.size(); ++m) {
            for (size_t c = 1; c < rows[m].size(); ++c) {
                EXPECT_LE(rows[m][c].seconds,
                          rows[m][c - 1].seconds * 1.0001)
                    << wl->name();
            }
            if (m) {
                for (size_t c = 0; c < rows[m].size(); ++c) {
                    EXPECT_LE(rows[m][c].seconds,
                              rows[m - 1][c].seconds * 1.0001)
                        << wl->name();
                }
            }
        }
    }
}

} // namespace
} // namespace hetsim::core
