/**
 * @file
 * Tests for the CoMD proxy application.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/comd/comd_core.hh"
#include "core/workload.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;

TEST(ComdCore, LatticeAndCells)
{
    apps::comd::Problem<double> prob(6, 2);
    EXPECT_EQ(prob.numAtoms, 4u * 6 * 6 * 6);
    EXPECT_GE(prob.cellLen, prob.ps.cutoff); // cells cover the cutoff
    // Every atom binned exactly once.
    EXPECT_EQ(prob.cellAtoms.size(), prob.numAtoms);
    EXPECT_EQ(prob.cellStart.back(), prob.numAtoms);
}

TEST(ComdCore, InitialMomentumIsZero)
{
    apps::comd::Problem<double> prob(6, 2);
    double px = 0, py = 0, pz = 0;
    for (u64 i = 0; i < prob.numAtoms; ++i) {
        px += prob.vx[i];
        py += prob.vy[i];
        pz += prob.vz[i];
    }
    EXPECT_NEAR(px, 0.0, 1e-9);
    EXPECT_NEAR(py, 0.0, 1e-9);
    EXPECT_NEAR(pz, 0.0, 1e-9);
}

TEST(ComdCore, LatticeForcesNearlyCancel)
{
    // On a perfect fcc lattice the LJ forces on interior atoms cancel
    // by symmetry.
    apps::comd::Problem<double> prob(6, 2);
    double max_f = 0.0;
    for (u64 i = 0; i < prob.numAtoms; ++i) {
        max_f = std::max(max_f, std::fabs(double(prob.fx[i])));
    }
    EXPECT_LT(max_f, 1e-6);
}

TEST(ComdCore, EnergyApproximatelyConserved)
{
    apps::comd::Problem<double> prob(6, 20);
    double e0 = prob.checksum();
    runReference(prob);
    double e1 = prob.checksum();
    EXPECT_TRUE(prob.finite());
    // Velocity Verlet with a small dt: drift well under 1%.
    EXPECT_NEAR(e1, e0, std::fabs(e0) * 0.01 + 1e-6);
}

TEST(ComdCore, ForceDescriptorTraits)
{
    apps::comd::Problem<float> prob(6, 2);
    auto desc = prob.forceDescriptor();
    EXPECT_TRUE(desc.loop.divergentControlFlow);
    EXPECT_TRUE(desc.loop.variableTripCount);
    EXPECT_TRUE(desc.loop.indirectAddressing);
    EXPECT_TRUE(desc.loop.tileable);
    EXPECT_GT(desc.flopsPerItem, 1000.0);
}

class ComdModels
    : public testing::TestWithParam<std::tuple<ModelKind, Precision>>
{
};

TEST_P(ComdModels, ValidatesAgainstSerial)
{
    auto [model, prec] = GetParam();
    auto wl = core::workloadByName("comd");
    core::WorkloadConfig cfg;
    cfg.scale = 0.1; // 6^3 unit cells, 10 steps
    cfg.precision = prec;
    cfg.functional = true;
    auto result = wl->run(model, sim::radeonR9_280X(), cfg);
    EXPECT_TRUE(result.validated) << ir::displayName(model);
    EXPECT_EQ(result.uniqueKernels, 3); // Table I: "3 (LJ)"
}

INSTANTIATE_TEST_SUITE_P(
    All, ComdModels,
    testing::Combine(testing::Values(ModelKind::Serial,
                                     ModelKind::OpenMp,
                                     ModelKind::OpenCl,
                                     ModelKind::CppAmp,
                                     ModelKind::OpenAcc,
                                     ModelKind::Hc),
                     testing::Values(Precision::Single,
                                     Precision::Double)));

TEST(Comd, RebuildCostsTransfersOnDiscreteGpu)
{
    auto wl = core::workloadByName("comd");
    core::WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.functional = false;
    auto dgpu = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    auto apu = wl->run(ModelKind::OpenCl, sim::a10_7850kGpu(), cfg);
    EXPECT_GT(dgpu.transferSeconds, 0.0);
    EXPECT_DOUBLE_EQ(apu.transferSeconds, 0.0);
    EXPECT_GT(dgpu.hostSeconds, 0.0); // rebuild runs on the host
}

TEST(Comd, DoublePrecisionMuchSlowerOnApu)
{
    // 1/16 DP rate on the APU GPU (paper Sec. VI-A).
    auto wl = core::workloadByName("comd");
    core::WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.functional = false;
    auto sp = wl->run(ModelKind::OpenCl, sim::a10_7850kGpu(), cfg);
    cfg.precision = Precision::Double;
    auto dp = wl->run(ModelKind::OpenCl, sim::a10_7850kGpu(), cfg);
    EXPECT_GT(dp.kernelSeconds, sp.kernelSeconds * 4);
}

} // namespace
} // namespace hetsim
