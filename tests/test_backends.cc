/**
 * @file
 * Backend-parity regression tests over the declarative capability
 * table (kernelir/captable.hh) and the energy model (power/power.hh):
 *
 *  - every workload produces byte-identical functional checksums
 *    under all five device backends (the timing model moves, the
 *    computed answer must not);
 *  - co-executed jobs are bit-identical at 1/2/7 workers for every
 *    --backend, including their energy-to-solution;
 *  - energy buckets tile makespan x power within 1e-9 on real
 *    timelines, idle draw is never zero, and --power-model parsing
 *    fails loudly with path:line context.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "apps/coexec_kernels.hh"
#include "coexec/coexec.hh"
#include "core/workload.hh"
#include "fault/fault.hh"
#include "kernelir/captable.hh"
#include "power/power.hh"
#include "serve/server.hh"
#include "sim/device.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;

// --- capability table ---------------------------------------------------

TEST(CapabilityTable, CoversEveryModelInFixedOrder)
{
    auto table = ir::backendTable();
    ASSERT_EQ(table.size(), 8u);
    // Fixed ModelKind order: the `hetsim backends` dump and every
    // capsFor() lookup depend on it.
    for (size_t i = 0; i < table.size(); ++i)
        EXPECT_EQ(static_cast<size_t>(table[i].kind), i) << i;
    for (const ir::BackendCaps &row : table) {
        EXPECT_EQ(&ir::capsFor(row.kind), &row) << row.name;
        EXPECT_STREQ(row.name, ir::toString(row.kind)) << row.name;
        EXPECT_GT(row.baseEfficiency, 0.0) << row.name;
        EXPECT_GT(row.transferEfficiency, 0.0) << row.name;
    }
}

TEST(CapabilityTable, FiveDeviceBackends)
{
    auto backends = ir::deviceBackends();
    ASSERT_EQ(backends.size(), 5u);
    EXPECT_EQ(backends[0], ModelKind::OpenCl);
    EXPECT_EQ(backends[1], ModelKind::CppAmp);
    EXPECT_EQ(backends[2], ModelKind::OpenAcc);
    EXPECT_EQ(backends[3], ModelKind::OmpTarget);
    EXPECT_EQ(backends[4], ModelKind::Cuda);
}

// --- backend parity -----------------------------------------------------

class BackendParity : public testing::TestWithParam<const char *>
{
};

TEST_P(BackendParity, FunctionalChecksumsAgreeAcrossBackends)
{
    auto wl = core::workloadByName(GetParam());
    ASSERT_NE(wl, nullptr);
    core::WorkloadConfig cfg;
    cfg.scale = 0.05;
    cfg.functional = true;

    double reference = 0.0;
    bool first = true;
    for (ModelKind backend : ir::deviceBackends()) {
        auto result = wl->run(backend, sim::radeonR9_280X(), cfg);
        EXPECT_TRUE(result.validated) << ir::toString(backend);
        EXPECT_GT(result.seconds, 0.0) << ir::toString(backend);
        EXPECT_GT(result.energyJoules, 0.0) << ir::toString(backend);
        if (first) {
            reference = result.checksum;
            first = false;
        } else {
            // Byte-identical, not approximately equal: the backends
            // share one functional execution path.
            EXPECT_EQ(result.checksum, reference)
                << ir::toString(backend);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllApps, BackendParity,
                         testing::Values("readmem", "lulesh", "comd",
                                         "xsbench", "minife"));

TEST(BackendParityTiming, CapabilityRowsActuallyDiffer)
{
    // The parity above is about answers; the rows must still encode
    // different toolchains - OpenACC's directive pipeline cannot
    // match the explicit models on the same kernel.
    auto wl = core::workloadByName("readmem");
    core::WorkloadConfig cfg;
    cfg.scale = 0.05;
    auto ocl = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    auto acc = wl->run(ModelKind::OpenAcc, sim::radeonR9_280X(), cfg);
    auto cuda = wl->run(ModelKind::Cuda, sim::radeonR9_280X(), cfg);
    EXPECT_NE(ocl.kernelSeconds, acc.kernelSeconds);
    EXPECT_NE(acc.kernelSeconds, cuda.kernelSeconds);
}

// --- co-execution under every backend -----------------------------------

TEST(CoexecBackends, GpuModelComesFromTheTable)
{
    auto kernel =
        apps::coex::coKernelByName("xsbench", 0.05, Precision::Single);
    ASSERT_TRUE(kernel.has_value());
    coexec::ExecOptions opts;
    opts.policy = coexec::Policy::Adaptive;
    opts.functional = true;

    auto run_with = [&](ModelKind backend) {
        auto pool = coexec::DevicePool::parse("cpu+dgpu");
        EXPECT_TRUE(pool.has_value());
        pool->setGpuModel(backend);
        coexec::CoExecutor executor(*pool, Precision::Single);
        return executor.execute(*kernel, opts);
    };

    auto hc = run_with(ModelKind::Hc);
    auto acc = run_with(ModelKind::OpenAcc);
    ASSERT_TRUE(hc.ok) << hc.error;
    ASSERT_TRUE(acc.ok) << acc.error;
    // Same answer, different schedule: the split re-balances around
    // the slower directive backend.
    EXPECT_EQ(hc.checksum, acc.checksum);
    EXPECT_NE(hc.seconds, acc.seconds);
    EXPECT_TRUE(hc.validated);
    EXPECT_TRUE(acc.validated);
}

TEST(CoexecBackends, ByteIdenticalResultsAtAnyWorkerCount)
{
    // One coexec job per backend alias, all through the serving
    // layer: the emitted JSONL (checksums, digests, energy) must not
    // depend on how many workers drained the queue.
    const char *backends[] = {"ocl", "amp", "acc", "hc", "omp",
                              "cuda"};
    std::vector<serve::JobSpec> jobs;
    u64 id = 0;
    for (const char *backend : backends) {
        serve::JobSpec spec;
        spec.id = ++id;
        spec.app = "xsbench";
        spec.devices = "cpu+dgpu";
        spec.policy = "adaptive";
        spec.backend = backend;
        spec.scale = 0.05;
        spec.functional = true;
        jobs.push_back(spec);
    }

    auto serialize = [&](u32 workers) {
        serve::ServerConfig cfg;
        cfg.workers = workers;
        std::string error;
        auto outcome = serve::runBatch(jobs, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        std::ostringstream os;
        serve::writeResultsJsonl(os, outcome->results);
        return os.str();
    };

    const std::string one = serialize(1);
    const std::string two = serialize(2);
    const std::string seven = serialize(7);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, seven);
    EXPECT_NE(one.find("\"energy_j\":"), std::string::npos);
}

// --- energy model -------------------------------------------------------

TEST(Energy, BucketsTileMakespanTimesPower)
{
    auto kernel =
        apps::coex::coKernelByName("xsbench", 0.05, Precision::Single);
    ASSERT_TRUE(kernel.has_value());
    auto pool = coexec::DevicePool::parse("cpu+dgpu");
    ASSERT_TRUE(pool.has_value());
    coexec::ExecOptions opts;
    opts.policy = coexec::Policy::Adaptive;
    fault::FaultConfig faultCfg;
    faultCfg.transferFailRate = 0.2;
    fault::FaultPlan plan(faultCfg);
    opts.faults = &plan;
    coexec::CoExecutor executor(*pool, Precision::Single);
    auto result = executor.execute(*kernel, opts);
    ASSERT_TRUE(result.ok) << result.error;

    const power::EnergyReport &energy = result.energy;
    ASSERT_FALSE(energy.buckets.empty());
    EXPECT_GT(energy.makespanSeconds, 0.0);
    EXPECT_GT(energy.busyJoules, 0.0);
    // Devices idle while others finish: idle draw is never zero on a
    // co-executed timeline.
    EXPECT_GT(energy.idleJoules, 0.0);
    // The tiling invariant: every bucket's busy + idle seconds equal
    // the makespan, and the bucket sum reproduces the differently-
    // associated total within 1e-9 relative.
    for (const power::EnergyBucket &bucket : energy.buckets) {
        EXPECT_NEAR(bucket.busySeconds + bucket.idleSeconds,
                    energy.makespanSeconds,
                    1e-12 * energy.makespanSeconds)
            << bucket.resource;
    }
    EXPECT_LE(energy.bucketError(), 1e-9);
    EXPECT_NEAR(energy.busyJoules + energy.idleJoules, energy.joules,
                1e-9 * energy.joules);

    // Energy is a pure function of the timeline: a rerun with a
    // fresh plan from the same fault config (the plan itself is a
    // stateful RNG) reproduces it bit-for-bit.
    fault::FaultPlan replayPlan(faultCfg);
    opts.faults = &replayPlan;
    auto again = executor.execute(*kernel, opts);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(result.energyJoules, again.energyJoules);
}

TEST(Energy, EnergyOfBusySplitsBusyAndIdleDraw)
{
    const power::PowerTable table;
    // R9 280X compute: 18 W idle, 250 W busy.
    EXPECT_DOUBLE_EQ(power::energyOfBusy(table, "dgpu", 2.0, 10.0),
                     2.0 * 250.0 + 8.0 * 18.0);
    // A dead node's clock stops at its finish time: busy == makespan
    // means no idle term.
    EXPECT_DOUBLE_EQ(power::energyOfBusy(table, "dgpu", 2.0, 2.0),
                     2.0 * 250.0);
}

TEST(Energy, PowerTableLoadIsStrict)
{
    auto load = [](const char *text, std::string &error) {
        std::istringstream is(text);
        return power::PowerTable::load(is, "watts.jsonl", error);
    };

    std::string error;
    // Empty file: no rows to serve.
    EXPECT_FALSE(load("", error).has_value());
    EXPECT_NE(error.find("watts.jsonl"), std::string::npos);

    // Malformed JSON carries path:line.
    EXPECT_FALSE(load("\n{not json}\n", error).has_value());
    EXPECT_NE(error.find("watts.jsonl:2"), std::string::npos) << error;

    // Unknown keys are typos, not extensions.
    EXPECT_FALSE(
        load(R"({"device": "dgpu", "compute_watts": 9})", error)
            .has_value());
    EXPECT_NE(error.find("compute_watts"), std::string::npos) << error;

    // Busy draw below idle draw is physically meaningless.
    EXPECT_FALSE(load(R"({"device": "dgpu", "compute_idle_w": 50,)"
                      R"( "compute_busy_w": 10})",
                      error)
                     .has_value());
    EXPECT_NE(error.find("busy watts below idle"), std::string::npos)
        << error;

    // Missing device key.
    EXPECT_FALSE(load(R"({"compute_busy_w": 10})", error).has_value());
    EXPECT_NE(error.find("device"), std::string::npos) << error;

    // A valid row overlays the built-in table; aliases map to spec
    // names so "dgpu" configures the R9 280X's resources.
    auto table = load(
        R"({"device": "dgpu", "compute_idle_w": 1, "compute_busy_w": 2})",
        error);
    ASSERT_TRUE(table.has_value()) << error;
    auto draw =
        table->resourcePower("AMD Radeon R9 280X/compute");
    EXPECT_DOUBLE_EQ(draw.idleWatts, 1.0);
    EXPECT_DOUBLE_EQ(draw.busyWatts, 2.0);
    // Untouched classes keep their built-in wattages.
    EXPECT_DOUBLE_EQ(
        table->resourcePower("AMD Radeon R9 280X/dma-h2d").busyWatts,
        12.0);

    // "default" replaces the fallback row for unknown devices.
    auto withDefault = load(
        R"({"device": "default", "compute_idle_w": 3, "compute_busy_w": 4})",
        error);
    ASSERT_TRUE(withDefault.has_value()) << error;
    EXPECT_DOUBLE_EQ(
        withDefault->resourcePower("mystery-device/compute").busyWatts,
        4.0);
}

} // namespace
} // namespace hetsim
