/**
 * @file
 * Serving-layer throughput benchmark: one timing-cache-warm mixed
 * workload batch pushed through the job server at 1/2/4/8 workers.
 *
 * Two throughput figures come out of each configuration:
 *
 *  - sim throughput: Ok jobs per virtual-cluster second.  The batch's
 *    service order is re-played as a deterministic list schedule onto
 *    W virtual workers with each job's *simulated* seconds as its
 *    service time, so the scaling headline is machine-independent and
 *    exactly reproducible (see src/serve/server.hh).
 *  - wall throughput: Ok jobs per host wall second.  Reported for
 *    context only; on a small CI box the host-side scaling is bounded
 *    by real cores, not by the serving layer.
 *
 * The benchmark also re-checks the determinism contract end to end:
 * the results JSONL of every worker count must be byte-identical to
 * the single-worker reference.  The headline gate is sim throughput
 * at 8 workers >= 3x the 1-worker figure; both checks fail the run
 * loudly (non-zero exit).
 *
 * Options (on top of the common --scale/--quick):
 *   --out <path>   JSON output path (default BENCH_serve.json).
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "serve/server.hh"
#include "serve/stream.hh"
#include "sim/timing_cache.hh"

#include "benchsupport.hh"

namespace
{

using namespace hetsim;

/** Outcome of one worker-count configuration. */
struct ConfigResult
{
    u32 workers = 0;
    serve::ServerReport report;
    std::string resultsJsonl;
    double simThroughput = 0.0;
    double wallThroughput = 0.0;
    bool identical = false; ///< JSONL byte-equal to 1-worker run
};

/**
 * The mixed workload: every app x model x device flavour the serving
 * layer routes, including co-execution jobs with seeded faults so the
 * retry path is part of the measured mix.
 */
std::vector<serve::JobSpec>
mixedJobs(double scale, int repeats)
{
    struct Flavor
    {
        const char *app;
        const char *model;
        const char *device;
        const char *devices; ///< non-null = coexec job
        bool faults;
    };
    static const Flavor kMix[] = {
        {"readmem", "opencl", "dgpu", nullptr, false},
        {"xsbench", "opencl", "apu", nullptr, false},
        {"minife", "openmp", "cpu", nullptr, false},
        {"readmem", "hc", "apu", nullptr, false},
        {"xsbench", "", "", "cpu+dgpu", true},
        {"minife", "opencl", "dgpu", nullptr, false},
    };

    std::vector<serve::JobSpec> jobs;
    u64 id = 1;
    for (int rep = 0; rep < repeats; ++rep) {
        for (const Flavor &f : kMix) {
            serve::JobSpec spec;
            spec.id = id++;
            spec.app = f.app;
            spec.scale = scale;
            if (f.devices) {
                spec.devices = f.devices;
                if (f.faults) {
                    spec.faultConfig.transferFailRate = 0.2;
                    spec.faultConfig.seed = 40 + spec.id;
                    spec.faultsGiven = true;
                }
            } else {
                spec.model = f.model;
                spec.device = f.device;
            }
            jobs.push_back(spec);
        }
    }
    return jobs;
}

/** One JSONL job line for the streaming front-end. */
std::string
specLine(const serve::JobSpec &spec)
{
    std::ostringstream os;
    os << "{\"id\": " << spec.id << ", \"app\": \"" << spec.app
       << "\"";
    if (spec.coexec())
        os << ", \"devices\": \"" << spec.devices << "\"";
    else
        os << ", \"model\": \"" << spec.model << "\", \"device\": \""
           << spec.device << "\"";
    os << ", \"scale\": " << serve::formatG17(spec.scale);
    if (spec.faultsGiven)
        os << ", \"faults\": \"transfer:"
           << serve::formatG17(spec.faultConfig.transferFailRate)
           << "\", \"fault_seed\": " << spec.faultConfig.seed;
    if (spec.serviceDeadlineMs > 0.0)
        os << ", \"service_deadline_ms\": "
           << serve::formatG17(spec.serviceDeadlineMs);
    if (!spec.tenant.empty())
        os << ", \"tenant\": \"" << spec.tenant << "\"";
    os << "}";
    return os.str();
}

/**
 * The streaming variant of the mix: two tenants (weights 3:1) and a
 * simulated service deadline on the faulted co-execution jobs, so
 * fair-share dequeue and checkpoint/preemption are part of the
 * measured path.
 */
std::string
streamFeed(std::vector<serve::JobSpec> jobs)
{
    std::ostringstream feed;
    for (serve::JobSpec &spec : jobs) {
        spec.tenant.assign(1, spec.id % 2 ? 'a' : 'b');
        if (spec.faultsGiven)
            spec.serviceDeadlineMs = 10.0; // forces several slices
        feed << specLine(spec) << "\n";
    }
    feed << "end\n";
    return feed.str();
}

ConfigResult
runStreamConfig(const std::string &feed, u32 workers)
{
    serve::ServerConfig cfg;
    cfg.workers = workers;
    cfg.maxPreemptions = 1000; // measure slicing, never expire
    std::string err;
    cfg.tenants.applyWeights("a:3,b:1", err);
    std::istringstream in(feed);
    std::ostringstream live; // live protocol lines, discarded
    std::string error;
    auto outcome = serve::runStream(in, live, cfg, error);
    if (!outcome) {
        std::cerr << "runStream failed: " << error << "\n";
        std::exit(1);
    }
    ConfigResult r;
    r.workers = workers;
    r.report = outcome->report;
    std::ostringstream os;
    serve::writeResultsJsonl(os, outcome->results);
    r.resultsJsonl = os.str();
    r.simThroughput = r.report.simJobsPerSecond();
    r.wallThroughput = r.report.wallJobsPerSecond();
    return r;
}

ConfigResult
runConfig(const std::vector<serve::JobSpec> &jobs, u32 workers)
{
    serve::ServerConfig cfg;
    cfg.workers = workers;
    std::string error;
    auto outcome = serve::runBatch(jobs, cfg, error);
    if (!outcome) {
        std::cerr << "runBatch failed: " << error << "\n";
        std::exit(1);
    }
    ConfigResult r;
    r.workers = workers;
    r.report = outcome->report;
    std::ostringstream os;
    serve::writeResultsJsonl(os, outcome->results);
    r.resultsJsonl = os.str();
    r.simThroughput = r.report.simJobsPerSecond();
    r.wallThroughput = r.report.wallJobsPerSecond();
    return r;
}

void
appendJsonConfig(std::ostream &os, const ConfigResult &r, bool last)
{
    os << "    {\n"
       << "      \"workers\": " << r.workers << ",\n"
       << "      \"jobs_ok\": " << r.report.completed << ",\n"
       << "      \"jobs_error\": " << r.report.errors << ",\n"
       << "      \"virtual_makespan_s\": "
       << r.report.virtualMakespanSeconds << ",\n"
       << "      \"sim_busy_s\": " << r.report.simBusySeconds << ",\n"
       << "      \"sim_jobs_per_s\": " << r.simThroughput << ",\n"
       << "      \"wall_s\": " << r.report.wallSeconds << ",\n"
       << "      \"wall_jobs_per_s\": " << r.wallThroughput << ",\n"
       << "      \"queue_wait_ms_p50\": " << r.report.queueWaitMs.p50
       << ",\n"
       << "      \"queue_wait_ms_p95\": " << r.report.queueWaitMs.p95
       << ",\n"
       << "      \"queue_wait_ms_p99\": " << r.report.queueWaitMs.p99
       << ",\n"
       << "      \"service_ms_p50\": " << r.report.serviceMs.p50
       << ",\n"
       << "      \"service_ms_p95\": " << r.report.serviceMs.p95
       << ",\n"
       << "      \"service_ms_p99\": " << r.report.serviceMs.p99
       << ",\n"
       << "      \"results_identical\": "
       << (r.identical ? "true" : "false") << "\n"
       << "    }" << (last ? "\n" : ",\n");
}

void
writeJson(const std::string &path, double scale, size_t jobCount,
          double speedup, const std::vector<ConfigResult> &results,
          double streamSpeedup,
          const std::vector<ConfigResult> &streamResults)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        std::exit(1);
    }
    os << "{\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"jobs\": " << jobCount << ",\n"
       << "  \"sim_speedup_8v1\": " << speedup << ",\n"
       << "  \"configs\": [\n";
    for (size_t i = 0; i < results.size(); ++i)
        appendJsonConfig(os, results[i], i + 1 == results.size());
    os << "  ],\n"
       << "  \"stream_sim_speedup_8v1\": " << streamSpeedup << ",\n"
       << "  \"stream_preemptions\": "
       << (streamResults.empty() ? 0
                                 : streamResults[0].report.preemptions)
       << ",\n"
       << "  \"stream_configs\": [\n";
    for (size_t i = 0; i < streamResults.size(); ++i)
        appendJsonConfig(os, streamResults[i],
                         i + 1 == streamResults.size());
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 0.2);

    std::string out_path = "BENCH_serve.json";
    for (int i = 1; i < opts.argc; ++i) {
        if (std::strcmp(opts.argv[i], "--out") == 0 && i + 1 < opts.argc) {
            out_path = opts.argv[++i];
        } else {
            std::cerr << "unknown option " << opts.argv[i] << "\n";
            return 1;
        }
    }

    const std::vector<serve::JobSpec> jobs =
        mixedJobs(opts.scale, /*repeats=*/4);

    // Warm the shared timing cache so every measured configuration
    // serves the same memoized fast path (the serving layer's steady
    // state); the warm-up run itself is discarded.
    sim::TimingCache::global().setEnabled(true);
    runConfig(jobs, 1);

    std::vector<ConfigResult> results;
    for (u32 workers : {1u, 2u, 4u, 8u}) {
        ConfigResult r = runConfig(jobs, workers);
        r.identical = results.empty()
                          ? true
                          : r.resultsJsonl == results[0].resultsJsonl;
        results.push_back(std::move(r));
    }

    const double speedup =
        results.front().simThroughput > 0.0
            ? results.back().simThroughput /
                  results.front().simThroughput
            : 0.0;

    // The streaming front-end: same mix, fed as JSONL lines with two
    // tenants and service-deadline preemption in the measured path.
    const std::string feed = streamFeed(jobs);
    std::vector<ConfigResult> stream;
    for (u32 workers : {1u, 2u, 4u, 8u}) {
        ConfigResult r = runStreamConfig(feed, workers);
        r.identical = stream.empty()
                          ? true
                          : r.resultsJsonl == stream[0].resultsJsonl;
        stream.push_back(std::move(r));
    }
    const double streamSpeedup =
        stream.front().simThroughput > 0.0
            ? stream.back().simThroughput /
                  stream.front().simThroughput
            : 0.0;

    std::cout << "Serving layer: timing-cache-warm mixed batch of "
              << jobs.size() << " jobs at 1/2/4/8 workers\n"
              << std::string(79, '=') << "\n";
    Table table("scale " + Table::num(opts.scale, 2));
    table.setHeader({"workers", "ok", "makespan (s)", "sim jobs/s",
                     "wall jobs/s", "svc p95 (ms)", "wait p95 (ms)",
                     "identical"});
    for (const auto &r : results) {
        table.addRow({std::to_string(r.workers),
                      std::to_string(r.report.completed),
                      Table::num(r.report.virtualMakespanSeconds, 4),
                      Table::num(r.simThroughput, 2),
                      Table::num(r.wallThroughput, 2),
                      Table::num(r.report.serviceMs.p95, 2),
                      Table::num(r.report.queueWaitMs.p95, 2),
                      r.identical ? "yes" : "NO"});
    }
    table.print(std::cout);
    if (opts.csv)
        table.printCsv(std::cout);
    std::cout << "\nsim throughput speedup 8 vs 1 workers: "
              << Table::num(speedup, 2) << "x\n\n";

    Table streamTable("streaming (two tenants 3:1, preempting)");
    streamTable.setHeader({"workers", "ok", "preempted",
                           "makespan (s)", "sim jobs/s", "identical"});
    for (const auto &r : stream) {
        streamTable.addRow(
            {std::to_string(r.workers),
             std::to_string(r.report.completed),
             std::to_string(r.report.preemptions),
             Table::num(r.report.virtualMakespanSeconds, 4),
             Table::num(r.simThroughput, 2),
             r.identical ? "yes" : "NO"});
    }
    streamTable.print(std::cout);
    if (opts.csv)
        streamTable.printCsv(std::cout);
    std::cout << "\nstream sim throughput speedup 8 vs 1 workers: "
              << Table::num(streamSpeedup, 2) << "x\n";

    writeJson(out_path, opts.scale, jobs.size(), speedup, results,
              streamSpeedup, stream);
    std::cout << "wrote " << out_path << "\n";

    int failures = 0;
    for (const auto &r : results) {
        if (!r.identical) {
            std::cerr << "FAIL: results JSONL at " << r.workers
                      << " workers differs from the 1-worker run\n";
            ++failures;
        }
        if (r.report.completed != jobs.size()) {
            std::cerr << "FAIL: " << r.report.completed << "/"
                      << jobs.size() << " jobs Ok at " << r.workers
                      << " workers\n";
            ++failures;
        }
    }
    for (const auto &r : stream) {
        if (!r.identical) {
            std::cerr << "FAIL: streamed results JSONL at "
                      << r.workers
                      << " workers differs from the 1-worker run\n";
            ++failures;
        }
        if (r.report.completed != jobs.size()) {
            std::cerr << "FAIL: " << r.report.completed << "/"
                      << jobs.size() << " streamed jobs Ok at "
                      << r.workers << " workers\n";
            ++failures;
        }
        if (r.report.preemptions == 0) {
            std::cerr << "FAIL: streamed run at " << r.workers
                      << " workers never preempted\n";
            ++failures;
        }
    }
    // The acceptance headline is exact: the virtual schedule is
    // deterministic, so a shortfall is an algorithmic problem, not
    // host jitter.
    if (speedup < 3.0) {
        std::cerr << "FAIL: sim throughput speedup " << speedup
                  << "x at 8 workers (need >= 3x)\n";
        ++failures;
    }
    if (streamSpeedup < 3.0) {
        std::cerr << "FAIL: stream sim throughput speedup "
                  << streamSpeedup << "x at 8 workers (need >= 3x)\n";
        ++failures;
    }
    return failures ? 1 : 0;
}
