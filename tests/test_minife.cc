/**
 * @file
 * Tests for the miniFE proxy application.
 */

#include <gtest/gtest.h>

#include "apps/minife/minife_core.hh"
#include "core/workload.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;
using apps::minife::SpmvStyle;

TEST(MinifeCore, MatrixIs27PointStencil)
{
    apps::minife::Problem<double> prob(8, 4);
    EXPECT_EQ(prob.rows, 9u * 9 * 9);
    // Interior row has exactly 27 entries.
    u64 mid = 4 + 9 * (4 + 9 * 4);
    EXPECT_EQ(prob.rowStart[mid + 1] - prob.rowStart[mid], 27u);
    // Corner row has 8.
    EXPECT_EQ(prob.rowStart[1] - prob.rowStart[0], 8u);
}

TEST(MinifeCore, MatrixIsSymmetricDiagonallyDominant)
{
    apps::minife::Problem<double> prob(6, 4);
    for (u64 row = 0; row < prob.rows; row += 13) {
        double diag = 0.0, off = 0.0;
        for (u32 k = prob.rowStart[row]; k < prob.rowStart[row + 1];
             ++k) {
            if (prob.cols[k] == row)
                diag += prob.vals[k];
            else
                off += std::fabs(double(prob.vals[k]));
        }
        ASSERT_GT(diag, off); // strictly dominant -> SPD -> CG works
    }
}

TEST(MinifeCore, CgReducesResidual)
{
    apps::minife::Problem<double> prob(8, 40);
    double r0 = prob.residual;
    runReference(prob);
    EXPECT_TRUE(prob.finite());
    EXPECT_LT(prob.residual, r0 * 1e-6);
    // And the recurrence residual matches the true residual.
    EXPECT_NEAR(prob.trueResidual(), prob.residual,
                std::max(prob.residual, 1e-20) * 10);
}

TEST(MinifeCore, SpmvStylesDifferOnlyInSchedule)
{
    apps::minife::Problem<float> prob(6, 4);
    auto adaptive = prob.spmvDescriptor(SpmvStyle::CsrAdaptive);
    auto scalar = prob.spmvDescriptor(SpmvStyle::CsrScalar);
    auto serial = prob.spmvDescriptor(SpmvStyle::CsrRowSerial);
    EXPECT_TRUE(adaptive.loop.tileable);
    EXPECT_GT(adaptive.ldsBytesPerItemIfUsed, 0.0);
    EXPECT_TRUE(scalar.loop.divergentControlFlow);
    EXPECT_EQ(scalar.streams[0].pattern,
              sim::AccessPattern::Strided);
    EXPECT_EQ(serial.streams[0].pattern,
              sim::AccessPattern::Sequential);
    // Same arithmetic in all styles.
    EXPECT_DOUBLE_EQ(adaptive.flopsPerItem, scalar.flopsPerItem);
}

class MinifeModels
    : public testing::TestWithParam<std::tuple<ModelKind, Precision>>
{
};

TEST_P(MinifeModels, ValidatesAgainstSerial)
{
    auto [model, prec] = GetParam();
    auto wl = core::workloadByName("minife");
    core::WorkloadConfig cfg;
    cfg.scale = 0.1; // 10^3 mesh, 20 iterations
    cfg.precision = prec;
    cfg.functional = true;
    auto result = wl->run(model, sim::radeonR9_280X(), cfg);
    EXPECT_TRUE(result.validated) << ir::displayName(model);
    EXPECT_EQ(result.uniqueKernels, 3); // matvec, dot, waxpby
}

INSTANTIATE_TEST_SUITE_P(
    All, MinifeModels,
    testing::Combine(testing::Values(ModelKind::Serial,
                                     ModelKind::OpenMp,
                                     ModelKind::OpenCl,
                                     ModelKind::CppAmp,
                                     ModelKind::OpenAcc,
                                     ModelKind::Hc),
                     testing::Values(Precision::Single,
                                     Precision::Double)));

TEST(Minife, DotReadbacksEveryIterationOnDiscreteGpu)
{
    auto wl = core::workloadByName("minife");
    core::WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.functional = false;
    auto result = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    // Two dot partial read-backs per CG iteration.
    EXPECT_GE(result.stats.get("xfer.d2h.count"), 2.0 * 20);
}

TEST(Minife, AccScalarRowSpmvSlowerThanAdaptive)
{
    auto wl = core::workloadByName("minife");
    core::WorkloadConfig cfg;
    cfg.scale = 0.5;
    cfg.functional = false;
    auto ocl = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    auto acc = wl->run(ModelKind::OpenAcc, sim::radeonR9_280X(), cfg);
    // "specialized sparse matrix operations cannot be easily
    // expressed at a high level" - OpenACC pays heavily.
    EXPECT_GT(acc.kernelSeconds, ocl.kernelSeconds * 2.0);
}

} // namespace
} // namespace hetsim
