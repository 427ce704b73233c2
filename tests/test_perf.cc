/**
 * @file
 * Host-speed floors for the layers that run beside the simulator:
 * fleet placement and replay, surrogate predictions, surrogate fleet
 * costing and the critical-path analyzer.  Each floor is at least ten
 * times below what a 4-vCPU host measures, so a failure means an
 * algorithmic regression rather than noise.  ctest runs these under
 * the `perf` label with RUN_SERIAL, so no other test shares the cores;
 * host-speed numbers themselves come from perfbench.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "fleet/costing.hh"
#include "fleet/fleet.hh"
#include "fleet/topology.hh"
#include "model/surrogate.hh"
#include "obs/analyzer.hh"
#include "sim/timing_cache.hh"

#include "gate_fixtures.hh"

namespace hetsim
{
namespace
{

/** @return host wall seconds @p work takes. */
template <class F>
double
secondsOf(F &&work)
{
    const auto t0 = std::chrono::steady_clock::now();
    work();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** A job class with fixed service seconds on dgpu, apu and cpu. */
fleet::JobClass
fixedClass(const char *name, double dgpu, double apu, double cpu,
           u64 inputMiB, double weight)
{
    fleet::JobClass c;
    c.name = name;
    c.secondsByDevice = {{"dgpu", dgpu}, {"apu", apu}, {"cpu", cpu}};
    c.inputBytes = inputMiB << 20;
    c.weight = weight;
    return c;
}

TEST(PerfFloor, FleetReplaysAtLeast100kJobsPerSecond)
{
    // 250k jobs on the 1000-node paper mix, with node deaths and
    // transient faults; classes have fixed costs, so the fleet
    // simulator runs alone.
    fleet::FleetConfig cfg;
    cfg.jobs = 250000;
    cfg.policy = fleet::Policy::LeastLoaded;
    cfg.arrivalRate = 40.0 * 1000;
    cfg.sloSeconds = 0.25;
    cfg.nodeFailRate = 0.02;
    cfg.faults.transferFailRate = 0.01;
    cfg.faults.launchFailRate = 0.005;
    cfg.faults.stallRate = 0.002;
    cfg.classes = {fixedClass("readmem", 0.004, 0.006, 0.010, 256, 4.0),
                   fixedClass("xsbench", 0.020, 0.035, 0.060, 64, 2.0),
                   fixedClass("minife", 0.012, 0.018, 0.030, 128, 2.0)};
    fleet::JobClass gang =
        fixedClass("lulesh-gang", 0.050, 0.080, 0.130, 16, 0.5);
    gang.gangNodes = 4;
    gang.haloIters = 16;
    gang.haloBytesPerNeighbor = 8ull << 20;
    gang.reduceBytes = 1ull << 20;
    cfg.classes.push_back(gang);
    const fleet::Topology topo = fleet::mixedTopology(1000);

    std::string error;
    std::optional<fleet::FleetResult> res;
    const double seconds =
        secondsOf([&] { res = fleet::simulateFleet(topo, cfg, error); });
    ASSERT_TRUE(res.has_value()) << error;
    EXPECT_GE(static_cast<double>(cfg.jobs) / seconds, 1e5)
        << seconds << " s";
}

TEST(PerfFloor, SurrogatePredictsAtLeastOneMillionPerSecond)
{
    // Resolve each fit group once, then query its composed closed
    // forms: the pattern frequency sweeps and admission estimates use.
    const std::vector<obs::ObsRecord> records =
        fixtures::simulateClockGrid();
    model::Surrogate surrogate;
    ASSERT_GT(surrogate.fitFromObservations(records), 0u);
    struct Query
    {
        const model::KernelModel *group;
        double items;
        double coreMhz;
        double memMhz;
    };
    std::vector<Query> queries;
    for (const obs::ObsRecord &rec : records) {
        queries.push_back({surrogate.group(fixtures::groupKeyOf(rec)),
                           static_cast<double>(rec.items), rec.coreMhz,
                           rec.memMhz});
        ASSERT_NE(queries.back().group, nullptr) << rec.kernel;
    }

    constexpr u64 kPredictions = 4000000;
    double sink = 0.0;
    const double seconds = secondsOf([&] {
        for (u64 i = 0; i < kPredictions; ++i) {
            const Query &q = queries[i % queries.size()];
            sink += q.group->predict(q.items, q.coreMhz, q.memMhz).seconds;
        }
    });
    EXPECT_GT(sink, 0.0); // keeps the loop observable
    EXPECT_GE(static_cast<double>(kPredictions) / seconds, 1e6)
        << seconds << " s";
}

TEST(PerfFloor, SurrogateCostingIsTenTimesFasterThanProbing)
{
    // A cold probe of every (class, device kind) cell, then the same
    // table answered from the anchors the probe recorded.
    const std::vector<fleet::ClassDef> defs = fleet::paperClassMix();
    const std::vector<std::string> kinds =
        fleet::mixedTopology(64).deviceKinds();
    const fleet::ProbeFn probe = fixtures::servingProbe(0.05);
    model::Surrogate surrogate;
    std::string error;
    std::optional<fleet::CostingOutcome> probed, served;

    sim::TimingCache::global().clear();
    const double probeSeconds = secondsOf([&] {
        probed = fleet::costClasses(defs, kinds, &surrogate, probe, error);
    });
    ASSERT_TRUE(probed.has_value()) << error;
    const double servedSeconds = secondsOf([&] {
        served = fleet::costClasses(defs, kinds, &surrogate, probe, error);
    });
    ASSERT_TRUE(served.has_value()) << error;
    EXPECT_EQ(served->probed, 0u);
    EXPECT_GE(probeSeconds, 10.0 * servedSeconds)
        << probeSeconds << " s probing, " << servedSeconds << " s served";
}

TEST(PerfFloor, AnalyzerWalksAtLeast100kSpansPerSecond)
{
    const fixtures::Timeline tl = fixtures::queueTimeline(250000);
    obs::TraceAnalysis analysis;
    const double seconds = secondsOf(
        [&] { analysis = obs::analyzeSpans(tl.events, tl.tracks); });
    EXPECT_EQ(analysis.spansAnalyzed, tl.events.size());
    EXPECT_GE(static_cast<double>(tl.events.size()) / seconds, 1e5)
        << seconds << " s";
}

} // namespace
} // namespace hetsim
