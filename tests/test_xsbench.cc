/**
 * @file
 * Tests for the XSBench proxy application.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "apps/xsbench/xsbench_core.hh"
#include "core/workload.hh"
#include "sim/cache.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;

TEST(XsbenchCore, UnionGridSortedAndIndexed)
{
    apps::xsbench::Problem<double> prob(512, 10000);
    EXPECT_TRUE(std::is_sorted(prob.unionEnergy.begin(),
                               prob.unionEnergy.end()));
    EXPECT_EQ(prob.unionIndex.size(),
              prob.unionSize * apps::xsbench::numNuclides);
    // Index invariant: nuclide gridpoint energy <= union energy.
    for (u64 u = 100; u < prob.unionSize; u += 9973) {
        for (int n = 0; n < apps::xsbench::numNuclides; n += 7) {
            u32 g = prob.unionIndex[u * apps::xsbench::numNuclides + n];
            // g == 0 also encodes "below this nuclide's first point".
            if (g > 0) {
                ASSERT_LE(prob.nuclideEnergy[u64(n) * 512 + g],
                          prob.unionEnergy[u] + 1e-12);
            }
        }
    }
}

TEST(XsbenchCore, PaperTableIsAboutRightSize)
{
    // -s small: ~240 MB (paper Sec. VI-A) in double precision.
    apps::xsbench::Problem<double> prob(apps::xsbench::baseGridpoints,
                                        1);
    double mb = static_cast<double>(prob.tableBytes()) / (1024 * 1024);
    EXPECT_GT(mb, 180.0);
    EXPECT_LT(mb, 320.0);
}

TEST(XsbenchCore, LookupsDeterministicPerIndex)
{
    apps::xsbench::Problem<float> prob(512, 1000);
    double e1, e2;
    u32 m1, m2;
    prob.samplePair(42, e1, m1);
    prob.samplePair(42, e2, m2);
    EXPECT_DOUBLE_EQ(e1, e2);
    EXPECT_EQ(m1, m2);
    EXPECT_LT(m1, u32(apps::xsbench::numMaterials));
}

TEST(XsbenchCore, ResultsPositiveAndBounded)
{
    apps::xsbench::Problem<float> prob(512, 5000);
    prob.macroXsLookup(0, prob.lookups);
    EXPECT_TRUE(prob.finite());
    for (float r : prob.results) {
        ASSERT_GE(r, 0.0f);
        // <= nuclides * channels * max_xs(=1).
        ASSERT_LE(r, 34.0f * 5.0f);
    }
    EXPECT_GT(prob.checksum(), 0.0);
}

TEST(XsbenchCore, DescriptorDeclaresDependentChain)
{
    apps::xsbench::Problem<float> prob(512, 1000);
    auto desc = prob.descriptor();
    double dep = 0.0;
    for (const auto &s : desc.streams)
        dep += s.dependentAccessesPerItem;
    EXPECT_GT(dep, 10.0); // the binary search
    EXPECT_LT(desc.chainConcurrencyPerCu, 64.0); // register pressure
}

template <typename T>
bool
bitwiseEqual(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <typename Real>
void
expectMemoMatchesFreshBuild(int gridpoints)
{
    using apps::xsbench::Tables;
    const Tables<Real> fresh(gridpoints);
    apps::xsbench::Problem<Real> prob(gridpoints, 100);
    EXPECT_EQ(prob.gridpointsPerNuclide, fresh.gridpointsPerNuclide);
    EXPECT_EQ(prob.unionSize, fresh.unionSize);
    EXPECT_TRUE(bitwiseEqual(prob.nuclideEnergy, fresh.nuclideEnergy));
    EXPECT_TRUE(bitwiseEqual(prob.nuclideXs, fresh.nuclideXs));
    EXPECT_TRUE(bitwiseEqual(prob.unionEnergy, fresh.unionEnergy));
    EXPECT_TRUE(bitwiseEqual(prob.unionIndex, fresh.unionIndex));
    EXPECT_TRUE(bitwiseEqual(prob.matStart, fresh.matStart));
    EXPECT_TRUE(bitwiseEqual(prob.matNuclide, fresh.matNuclide));
}

TEST(XsbenchMemo, TablesBitwiseEqualFreshBuild)
{
    expectMemoMatchesFreshBuild<float>(512);
    expectMemoMatchesFreshBuild<double>(512);
}

TEST(XsbenchMemo, SameSizeProblemsShareTablesNotResults)
{
    apps::xsbench::Problem<float> a(512, 1000);
    apps::xsbench::Problem<float> b(512, 2000);
    EXPECT_EQ(a.tables.get(), b.tables.get());
    EXPECT_EQ(a.unionEnergy.data(), b.unionEnergy.data());
    EXPECT_EQ(a.unionIndex.data(), b.unionIndex.data());
    EXPECT_EQ(a.nuclideXs.data(), b.nuclideXs.data());
    EXPECT_NE(a.results.data(), b.results.data());
    EXPECT_EQ(a.results.size(), 1000u);
    EXPECT_EQ(b.results.size(), 2000u);

    a.macroXsLookup(0, a.lookups);
    EXPECT_GT(a.results[0], 0.0f);
    EXPECT_EQ(b.results[0], 0.0f);
}

TEST(XsbenchMemo, OtherSizeOrPrecisionGetsItsOwnTables)
{
    using apps::xsbench::numNuclides;
    auto expect_sized = [](const auto &prob, int gridpoints) {
        const u64 points = u64(numNuclides) * u64(gridpoints);
        EXPECT_EQ(prob.gridpointsPerNuclide, gridpoints);
        EXPECT_EQ(prob.unionSize, points);
        EXPECT_EQ(prob.unionEnergy.size(), points);
        EXPECT_EQ(prob.unionIndex.size(), points * numNuclides);
        EXPECT_EQ(prob.nuclideXs.size(),
                  points * apps::xsbench::xsChannels);
    };
    apps::xsbench::Problem<float> small(512, 100);
    apps::xsbench::Problem<float> large(600, 100);
    apps::xsbench::Problem<double> dp(512, 100);
    EXPECT_NE(small.tables.get(), large.tables.get());
    // The 600-point build replaced the float slot; the 512-point
    // problem still reads its own tables.
    expect_sized(small, 512);
    expect_sized(large, 600);
    expect_sized(dp, 512);
}

TEST(XsbenchMemo, ConcurrentConstructionSharesOneBuild)
{
    constexpr int threads = 8;
    constexpr int gridpoints = 700;
    std::vector<const apps::xsbench::Tables<float> *> seen(threads);
    std::vector<double> sums(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            apps::xsbench::Problem<float> prob(gridpoints, 2000);
            prob.macroXsLookup(0, prob.lookups);
            seen[t] = prob.tables.get();
            sums[t] = prob.checksum();
        });
    }
    for (auto &thread : pool)
        thread.join();
    apps::xsbench::Problem<float> serial(gridpoints, 2000);
    apps::xsbench::runReference(serial);
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(seen[t], seen[0]);
        EXPECT_EQ(sums[t], serial.checksum());
    }
}

TEST(XsbenchMemo, DescriptorTraceOutlivesProblemAndSlot)
{
    ir::KernelDescriptor desc;
    {
        apps::xsbench::Problem<float> prob(512, 100);
        desc = prob.descriptor();
    }
    // Replace the float slot: only the descriptor now holds the
    // 512-point tables.
    apps::xsbench::Problem<float> other(800, 100);
    const ir::MemStream *search = nullptr;
    for (const auto &stream : desc.streams) {
        if (stream.buffer == "union-energy")
            search = &stream;
    }
    ASSERT_NE(search, nullptr);
    ASSERT_TRUE(search->trace);
    sim::SetAssocCache cache(64 * KiB, 64, 8);
    Rng rng(7);
    search->trace(cache, rng);
}

TEST(XsbenchMemo, RepeatedTimingRunsAreIdentical)
{
    auto wl = core::workloadByName("xsbench");
    core::WorkloadConfig cfg;
    cfg.scale = 0.02;
    cfg.functional = false;
    auto first = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    auto second = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    EXPECT_EQ(first.seconds, second.seconds);
    EXPECT_EQ(first.llcMissRatio, second.llcMissRatio);
    EXPECT_EQ(first.ipc, second.ipc);
    EXPECT_TRUE(first.records == second.records);
    EXPECT_FALSE(first.records.empty());
}

class XsbenchModels
    : public testing::TestWithParam<std::tuple<ModelKind, Precision>>
{
};

TEST_P(XsbenchModels, ValidatesAgainstSerial)
{
    auto [model, prec] = GetParam();
    auto wl = core::workloadByName("xsbench");
    core::WorkloadConfig cfg;
    cfg.scale = 0.02;
    cfg.precision = prec;
    cfg.functional = true;
    auto result = wl->run(model, sim::radeonR9_280X(), cfg);
    EXPECT_TRUE(result.validated) << ir::displayName(model);
    EXPECT_EQ(result.uniqueKernels, 1); // Table I
}

INSTANTIATE_TEST_SUITE_P(
    All, XsbenchModels,
    testing::Combine(testing::Values(ModelKind::Serial,
                                     ModelKind::OpenMp,
                                     ModelKind::OpenCl,
                                     ModelKind::CppAmp,
                                     ModelKind::OpenAcc,
                                     ModelKind::Hc),
                     testing::Values(Precision::Single,
                                     Precision::Double)));

TEST(Xsbench, TableStagingDominatesStartupOnDiscreteGpu)
{
    auto wl = core::workloadByName("xsbench");
    core::WorkloadConfig cfg;
    cfg.scale = 0.2;
    cfg.functional = false;
    auto result = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    // "Moving this lookup-table to the GPU memory accounts for a
    // significant amount of total execution time."
    EXPECT_GT(result.transferSeconds, 0.002);
}

} // namespace
} // namespace hetsim
