/**
 * @file
 * Determinism tests: every simulated experiment must be bit-identical
 * across repeated runs (the repository's reproducibility contract -
 * nothing depends on wall clock, thread scheduling, or global state).
 */

#include <gtest/gtest.h>

#include "core/harness.hh"
#include "core/workload.hh"
#include "cpu/threadpool.hh"
#include "kernelir/signature.hh"
#include "kernelir/tracegen.hh"
#include "sim/timing_cache.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;

class DeterministicRuns : public testing::TestWithParam<ModelKind>
{
};

TEST_P(DeterministicRuns, TimingAndChecksumRepeat)
{
    ModelKind model = GetParam();
    auto run_once = [&] {
        auto wl = core::workloadByName("comd");
        core::WorkloadConfig cfg;
        cfg.scale = 0.1;
        cfg.functional = true;
        return wl->run(model, sim::radeonR9_280X(), cfg);
    };
    auto first = run_once();
    auto second = run_once();
    EXPECT_DOUBLE_EQ(first.seconds, second.seconds);
    EXPECT_DOUBLE_EQ(first.kernelSeconds, second.kernelSeconds);
    EXPECT_DOUBLE_EQ(first.checksum, second.checksum);
    EXPECT_DOUBLE_EQ(first.llcMissRatio, second.llcMissRatio);
}

INSTANTIATE_TEST_SUITE_P(Models, DeterministicRuns,
                         testing::Values(ModelKind::OpenCl,
                                         ModelKind::CppAmp,
                                         ModelKind::OpenAcc,
                                         ModelKind::Hc));

TEST(Determinism, FunctionalModeDoesNotChangeTiming)
{
    // Simulated time comes from the timing model only: whether the
    // kernel bodies actually execute must not matter.
    auto wl = core::workloadByName("minife");
    core::WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.functional = true;
    auto functional = wl->run(ModelKind::OpenCl,
                              sim::radeonR9_280X(), cfg);
    cfg.functional = false;
    auto timing_only = wl->run(ModelKind::OpenCl,
                               sim::radeonR9_280X(), cfg);
    EXPECT_DOUBLE_EQ(functional.seconds, timing_only.seconds);
    EXPECT_EQ(functional.kernelLaunches, timing_only.kernelLaunches);
}

TEST(Determinism, PrecisionOnlyChangesWhatItShould)
{
    // SP and DP runs of a memory-bound app: DP moves twice the bytes,
    // so it is slower - but the kernel structure is identical.
    auto wl = core::workloadByName("readmem");
    core::WorkloadConfig cfg;
    cfg.scale = 0.5; // large enough that dispatch overhead is noise
    cfg.functional = false;
    auto sp = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    cfg.precision = Precision::Double;
    auto dp = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    EXPECT_EQ(sp.kernelLaunches, dp.kernelLaunches);
    EXPECT_NEAR(dp.kernelSeconds / sp.kernelSeconds, 2.0, 0.2);
}

TEST(Determinism, TimingCacheOnVsOffIsBitIdentical)
{
    // The timing cache is an optimization, not a semantic change:
    // cold (miss-filled), hot (pure hits), and disabled runs must
    // produce bit-identical simulated results.
    sim::TimingCache &cache = sim::TimingCache::global();
    const bool prior = cache.enabled();
    auto wl = core::workloadByName("readmem");
    core::WorkloadConfig cfg;
    cfg.scale = 0.25;
    cfg.functional = false;
    auto run = [&] {
        return wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    };

    cache.setEnabled(false);
    auto off = run();
    cache.setEnabled(true);
    cache.clear();
    auto cold = run();
    auto hot = run();
    const u64 hits = cache.hits();
    cache.setEnabled(prior);

    EXPECT_EQ(off.seconds, cold.seconds);
    EXPECT_EQ(off.seconds, hot.seconds);
    EXPECT_EQ(off.kernelSeconds, hot.kernelSeconds);
    EXPECT_EQ(off.llcMissRatio, hot.llcMissRatio);
    EXPECT_EQ(off.kernelLaunches, hot.kernelLaunches);
    // The hot run repeated the cold run's keys exactly.
    EXPECT_GT(hits, 0u);
}

namespace
{

/** Descriptor with several traced gather streams (Rng-independent, so
 *  equal content must produce equal ratios whatever thread runs it). */
ir::KernelDescriptor
tracedDescriptor(const std::string &tag)
{
    ir::KernelDescriptor desc;
    desc.name = "det-" + tag;
    desc.flopsPerItem = 2.0;
    for (int s = 0; s < 4; ++s) {
        ir::MemStream ms;
        ms.buffer = "buf" + std::to_string(s) + "-" + tag;
        ms.bytesPerItemSp = 4.0;
        ms.pattern = sim::AccessPattern::Gather;
        ms.workingSetBytesSp = 32u << 20;
        ms.trace = ir::gatherTrace(
            [s](u64 k) { return (k * 97 + u64(s) * 13) % (1u << 20); },
            1u << 18, 4);
        desc.streams.push_back(std::move(ms));
    }
    return desc;
}

} // namespace

TEST(Determinism, ShardedStreamTracingMatchesSerial)
{
    // resolve() shards sibling stream traces across the thread pool;
    // the resulting miss ratios must be bitwise-identical to running
    // each trace serially on one thread (1 vs N workers contract).
    sim::DeviceSpec spec = sim::radeonR9_280X();

    // Serial reference: trace each stream by hand, one at a time.
    ir::KernelDescriptor serial_desc = tracedDescriptor("serial");
    ir::ProfileResolver serial_resolver(spec);
    std::vector<double> serial_ratios;
    for (const auto &stream : serial_desc.streams) {
        serial_ratios.push_back(serial_resolver.streamMissRatio(
            serial_desc, stream, Precision::Single));
    }

    // Sharded: identical stream content under different memo keys, so
    // resolve() must re-run the traces (now across the pool).
    ir::KernelDescriptor par_desc = tracedDescriptor("parallel");
    ir::ProfileResolver par_resolver(spec);
    par_resolver.resolve(par_desc, 1u << 20, Precision::Single, false);
    std::vector<double> par_ratios;
    for (const auto &stream : par_desc.streams) {
        par_ratios.push_back(par_resolver.streamMissRatio(
            par_desc, stream, Precision::Single));
    }

    ASSERT_EQ(serial_ratios.size(), par_ratios.size());
    for (size_t s = 0; s < serial_ratios.size(); ++s)
        EXPECT_EQ(serial_ratios[s], par_ratios[s]) << "stream " << s;
}

TEST(Determinism, HarnessBaselineIsCached)
{
    auto wl = core::workloadByName("readmem");
    core::Harness harness(*wl, 0.1, false);
    double first = harness.baselineSeconds(Precision::Single);
    double second = harness.baselineSeconds(Precision::Single);
    EXPECT_DOUBLE_EQ(first, second);
    // DP baseline is distinct.
    EXPECT_NE(first, harness.baselineSeconds(Precision::Double));
}

} // namespace
} // namespace hetsim
