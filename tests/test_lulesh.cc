/**
 * @file
 * Tests for the LULESH proxy application.
 */

#include <gtest/gtest.h>

#include "apps/lulesh/lulesh_core.hh"
#include "apps/lulesh/lulesh_meta.hh"
#include "core/workload.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;

TEST(LuleshCore, MeshConnectivityIsConsistent)
{
    apps::lulesh::Problem<double> prob(6, 2);
    EXPECT_EQ(prob.numElem, 216u);
    EXPECT_EQ(prob.numNode, 343u);
    // Every corner slot appears exactly once in the node adjacency.
    EXPECT_EQ(prob.nodeElemCorner.size(), 8 * prob.numElem);
    std::vector<int> seen(8 * prob.numElem, 0);
    for (u32 corner : prob.nodeElemCorner)
        ++seen[corner];
    for (int count : seen)
        ASSERT_EQ(count, 1);
    // Interior nodes touch 8 elements, corners of the box only 1.
    EXPECT_EQ(prob.nodeElemStart[1] - prob.nodeElemStart[0], 1u);
}

TEST(LuleshCore, HexVolumeOfUnitCubeMesh)
{
    apps::lulesh::Problem<double> prob(5, 2);
    double h = 1.125 / 5;
    for (u64 e = 0; e < prob.numElem; ++e)
        ASSERT_NEAR(prob.volo[e], h * h * h, 1e-12);
}

TEST(LuleshCore, MassConservedAcrossNodes)
{
    apps::lulesh::Problem<double> prob(6, 2);
    double elem_mass = 0.0, nodal_mass = 0.0;
    for (u64 e = 0; e < prob.numElem; ++e)
        elem_mass += prob.elemMass[e];
    for (u64 n = 0; n < prob.numNode; ++n)
        nodal_mass += prob.nodalMass[n];
    EXPECT_NEAR(elem_mass, nodal_mass, 1e-9);
    EXPECT_NEAR(elem_mass, 1.125 * 1.125 * 1.125, 1e-9);
}

TEST(LuleshCore, SedovEnergyDepositedAtOrigin)
{
    apps::lulesh::Problem<double> prob(6, 2);
    EXPECT_GT(prob.e[0], 1e6);
    for (u64 e = 1; e < prob.numElem; ++e)
        ASSERT_DOUBLE_EQ(prob.e[e], 0.0);
}

TEST(LuleshCore, ReferenceStaysFiniteAndShockExpands)
{
    apps::lulesh::Problem<double> prob(8, 10);
    runReference(prob);
    EXPECT_TRUE(prob.finite());
    EXPECT_GT(prob.simTime, 0.0);
    // The blast *expands* the origin element...
    EXPECT_GT(prob.v[0], 1.0);
    // ...and compresses at least one neighbour.
    double vmin = 1.0;
    for (u64 e = 1; e < prob.numElem; ++e)
        vmin = std::min(vmin, static_cast<double>(prob.v[e]));
    EXPECT_LT(vmin, 1.0);
    // Momentum was imparted to the mesh.
    double ke = 0.0;
    for (u64 n = 0; n < prob.numNode; ++n)
        ke += static_cast<double>(prob.xd[n]) * prob.xd[n];
    EXPECT_GT(ke, 0.0);
}

TEST(LuleshCore, TwentyEightKernelsDeclared)
{
    apps::lulesh::Problem<float> prob(6, 2);
    auto descs = apps::lulesh::buildDescriptors(prob);
    EXPECT_EQ(descs.size(),
              static_cast<size_t>(apps::lulesh::kernelCount));
    std::set<std::string> names;
    for (const auto &desc : descs) {
        EXPECT_FALSE(desc.streams.empty()) << desc.name;
        names.insert(desc.name);
    }
    EXPECT_EQ(names.size(), 28u); // all distinct
}

TEST(LuleshCore, ItemsForKernelsMatchDomains)
{
    apps::lulesh::Problem<float> prob(6, 2);
    EXPECT_EQ(prob.itemsFor(1), prob.numElem);
    EXPECT_EQ(prob.itemsFor(3), prob.numNode);
    EXPECT_EQ(prob.itemsFor(8), 49u); // (edge+1)^2 face nodes
    EXPECT_EQ(prob.itemsFor(28), prob.numElem);
}

class LuleshModels
    : public testing::TestWithParam<std::tuple<ModelKind, Precision>>
{
};

TEST_P(LuleshModels, ValidatesAgainstSerial)
{
    auto [model, prec] = GetParam();
    auto wl = core::workloadByName("lulesh");
    core::WorkloadConfig cfg;
    cfg.scale = 0.08; // edge 8, 8 iterations
    cfg.precision = prec;
    cfg.functional = true;
    auto result = wl->run(model, sim::radeonR9_280X(), cfg);
    EXPECT_TRUE(result.validated) << ir::displayName(model);
    // C++ AMP on the dGPU runs k16 on the host (27 of 28 kernels);
    // every other model - HC included - runs all 28 on the device.
    EXPECT_EQ(result.uniqueKernels,
              model == ModelKind::CppAmp ? 27 : 28);
}

INSTANTIATE_TEST_SUITE_P(
    All, LuleshModels,
    testing::Combine(testing::Values(ModelKind::Serial,
                                     ModelKind::OpenMp,
                                     ModelKind::OpenCl,
                                     ModelKind::CppAmp,
                                     ModelKind::OpenAcc,
                                     ModelKind::Hc),
                     testing::Values(Precision::Single,
                                     Precision::Double)));

TEST(Lulesh, AmpPaysHostFallbackOnDiscreteGpuOnly)
{
    // Paper: 27 of 28 kernels compiled; the fallback forces a per-
    // iteration PCIe round trip on the dGPU but not on the APU.
    auto wl = core::workloadByName("lulesh");
    core::WorkloadConfig cfg;
    cfg.scale = 0.08;
    cfg.functional = false;
    auto dgpu = wl->run(ModelKind::CppAmp, sim::radeonR9_280X(), cfg);
    auto apu = wl->run(ModelKind::CppAmp, sim::a10_7850kGpu(), cfg);
    EXPECT_EQ(dgpu.uniqueKernels, 27); // k16 ran on the host
    EXPECT_EQ(apu.uniqueKernels, 28);
    EXPECT_GT(dgpu.hostSeconds, 0.0);
    EXPECT_GT(dgpu.transferSeconds, 0.0);
}

TEST(Lulesh, DtReductionReadBackEveryIteration)
{
    auto wl = core::workloadByName("lulesh");
    core::WorkloadConfig cfg;
    cfg.scale = 0.08;
    cfg.functional = false;
    auto result = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    // One small d2h per iteration (the dt partials) plus final state.
    EXPECT_GE(result.stats.get("xfer.d2h.count"), 8.0);
}

} // namespace
} // namespace hetsim
