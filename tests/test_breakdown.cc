/**
 * @file
 * Tests for the per-kernel breakdown (profiler view) of run results.
 */

#include <gtest/gtest.h>

#include "core/workload.hh"

namespace hetsim::core
{
namespace
{

TEST(KernelBreakdown, AggregatesLulesh)
{
    auto wl = workloadByName("lulesh");
    WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.functional = false;
    auto result = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(),
                          cfg);
    auto rows = kernelBreakdown(result);
    ASSERT_EQ(rows.size(), 28u);

    double total_share = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].launches, 10u) << rows[i].name;
        EXPECT_GT(rows[i].seconds, 0.0);
        EXPECT_GE(rows[i].ipc, 0.0);
        EXPECT_LE(rows[i].ipc, 1.01);
        EXPECT_GE(rows[i].llcMissRatio, 0.0);
        EXPECT_LE(rows[i].llcMissRatio, 1.0);
        total_share += rows[i].share;
        if (i) {
            EXPECT_LE(rows[i].seconds, rows[i - 1].seconds); // sorted
        }
    }
    EXPECT_NEAR(total_share, 1.0, 1e-9);
}

TEST(KernelBreakdown, EmptyRunYieldsNothing)
{
    RunResult empty;
    EXPECT_TRUE(kernelBreakdown(empty).empty());
}

TEST(KernelBreakdown, SingleKernelTakesAllShare)
{
    auto wl = workloadByName("xsbench");
    WorkloadConfig cfg;
    cfg.scale = 0.02;
    cfg.functional = false;
    auto result = wl->run(ModelKind::OpenCl, sim::a10_7850kGpu(),
                          cfg);
    auto rows = kernelBreakdown(result);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].name, "macro_xs_lookup");
    EXPECT_DOUBLE_EQ(rows[0].share, 1.0);
}

} // namespace
} // namespace hetsim::core
