/**
 * @file
 * Inputs shared by the correctness gates and the host-speed floors
 * (test_perf.cc): a simulated clock grid for surrogate fits, a probe
 * that costs fleet cells through the serving layer, and synthetic
 * per-queue span timelines for the critical-path analyzer.
 */

#ifndef HETSIM_TESTS_GATE_FIXTURES_HH
#define HETSIM_TESTS_GATE_FIXTURES_HH

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "fleet/costing.hh"
#include "model/surrogate.hh"
#include "obs/profile.hh"
#include "obs/tracer.hh"
#include "serve/server.hh"

namespace hetsim::fixtures
{

/** @return the fit group an observation record belongs to. */
inline model::GroupKey
groupKeyOf(const obs::ObsRecord &rec)
{
    return {rec.kernel, rec.device, rec.model, rec.precisionBits,
            rec.workgroup};
}

/**
 * Simulate readmem and XSBench (OpenCL, dGPU) over 5 scales x 4 core
 * x 2 memory clocks and @return the profiler's observation records.
 * The scales vary the item counts and the clocks the frequency
 * terms, so a fit sees every basis direction; 400 and 500 MHz sit
 * below the issue-limit roofline at mem 1250, so every binding
 * constraint appears in training after interior points are held out.
 */
inline std::vector<obs::ObsRecord>
simulateClockGrid()
{
    obs::Profiler &profiler = obs::Profiler::global();
    profiler.clear();
    profiler.setEnabled(true);
    for (const char *app : {"readmem", "xsbench"})
        for (double scale : {0.05, 0.0875, 0.125, 0.1625, 0.2})
            for (double core : {400.0, 500.0, 700.0, 925.0})
                for (double mem : {810.0, 1250.0}) {
                    serve::JobSpec spec;
                    spec.app = app;
                    spec.model = "opencl";
                    spec.device = "dgpu";
                    spec.scale = scale;
                    spec.freq = {core, mem};
                    EXPECT_EQ(serve::runJob(spec).status,
                              serve::JobStatus::Ok)
                        << app << " at scale " << scale;
                }
    std::vector<obs::ObsRecord> records = profiler.observations();
    profiler.setEnabled(false);
    profiler.clear();
    return records;
}

/** @return a fleet probe that runs each cell as one job at @p scale
 *  in one batch over the serving layer, as `hetsim fleet` does. */
inline fleet::ProbeFn
servingProbe(double scale)
{
    return [scale](const std::vector<fleet::ProbeCell> &cells,
                   std::string &error)
               -> std::optional<std::vector<double>> {
        std::vector<serve::JobSpec> probes;
        for (const fleet::ProbeCell &cell : cells) {
            serve::JobSpec spec;
            spec.id = probes.size() + 1;
            spec.app = cell.app;
            spec.model = cell.model;
            spec.device = cell.device;
            spec.scale = scale;
            probes.push_back(spec);
        }
        auto outcome = serve::runBatch(probes, serve::ServerConfig{}, error);
        if (!outcome)
            return std::nullopt;
        std::vector<double> seconds;
        for (const serve::JobResult &res : outcome->results) {
            if (res.status != serve::JobStatus::Ok) {
                error = "probe job " + std::to_string(res.id) + " failed";
                return std::nullopt;
            }
            seconds.push_back(res.simSeconds);
        }
        return seconds;
    };
}

/** A span timeline and the names of its tracks. */
struct Timeline
{
    std::vector<obs::TraceEvent> events;
    std::vector<std::string> tracks;
};

/**
 * @return @p spans seeded spans on five in-order device queues: each
 * span starts when its queue's previous one ended, with an occasional
 * bubble - the structure the analyzer's backward walk is built for.
 */
inline Timeline
queueTimeline(u64 spans)
{
    Timeline tl;
    tl.tracks = {"gpu0/compute", "gpu0/dma-h2d", "gpu0/dma-d2h",
                 "gpu1/compute", "cpu/compute"};
    std::vector<double> horizon(tl.tracks.size(), 0.0);
    u64 state = 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    tl.events.reserve(spans);
    for (u64 i = 0; i < spans; ++i) {
        const u32 track = static_cast<u32>(next() % tl.tracks.size());
        const double dur = 1e-6 + (next() % 1000) * 1e-6;
        if (next() % 16 == 0)
            horizon[track] += (next() % 100) * 1e-6;
        obs::TraceEvent event;
        event.track = track;
        event.tsUs = horizon[track] * 1e6;
        event.durUs = dur * 1e6;
        event.name = "s";
        event.cat = track == 1 || track == 2 ? "transfer" : "compute";
        horizon[track] += dur;
        tl.events.push_back(std::move(event));
    }
    return tl;
}

} // namespace hetsim::fixtures

#endif // HETSIM_TESTS_GATE_FIXTURES_HH
