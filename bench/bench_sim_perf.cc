/**
 * @file
 * Simulator fast-path benchmark: end-to-end A/B of the kernel-timing
 * memoization layer (sim::TimingCache) on repeated-launch scenarios.
 *
 * Each scenario runs the same experiment twice: once with timing
 * memoization disabled (the --no-timing-cache path, which re-derives
 * stream miss ratios and roofline timing on every launch) and once
 * with the cache enabled from cold (traces are simulated once, then
 * every repeated launch hits).  The simulated results of both passes
 * must be bitwise identical (the cache is an optimization, not a
 * semantic change).
 *
 * Results are printed as a table and written machine-readably to
 * BENCH_sim_perf.json (per-scenario wall-clock, speedup, trace probe
 * counts, cache hit rates).
 *
 * Options (on top of the common --scale/--quick):
 *   --out <path>             JSON output path (default
 *                            BENCH_sim_perf.json in the CWD).
 *   --check-baseline <path>  compare against a committed baseline
 *                            JSON; exit non-zero if any scenario's
 *                            cached or uncached wall-clock regressed
 *                            more than 2x (CI perf-smoke gate).
 */

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/coexec_kernels.hh"
#include "coexec/coexec.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/harness.hh"
#include "core/workload.hh"
#include "obs/metrics.hh"
#include "sim/device.hh"
#include "sim/timing_cache.hh"

#include "benchsupport.hh"

namespace
{

using namespace hetsim;

/** A/B outcome of one repeated-launch scenario. */
struct ScenarioResult
{
    std::string name;
    std::string description;
    double wallOffSec = 0.0; ///< timing cache disabled
    double wallOnSec = 0.0;  ///< timing cache enabled, from cold
    double speedup = 0.0;
    bool identical = false; ///< simulated results bitwise equal
    double simFingerprint = 0.0;
    u64 cacheHits = 0;
    u64 cacheMisses = 0;
    double hitRate = 0.0;
    u64 traceProbesOff = 0; ///< cache-model probes, memoization off
    u64 traceProbesOn = 0;  ///< cache-model probes, cache-on cold run
};

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Run @p fn (which returns a deterministic simulated-time fingerprint)
 * through the warm-up / cache-off / cache-on protocol.
 */
ScenarioResult
measureScenario(const std::string &name, const std::string &description,
                const std::function<double()> &fn)
{
    sim::TimingCache &cache = sim::TimingCache::global();
    obs::Metrics &metrics = obs::Metrics::global();

    ScenarioResult r;
    r.name = name;
    r.description = description;

    metrics.setEnabled(true);
    cache.setEnabled(false);
    double probes0 = metrics.counterValue("sim.trace.probes");
    double t0 = nowSeconds();
    const double off = fn();
    r.wallOffSec = nowSeconds() - t0;
    r.traceProbesOff = static_cast<u64>(
        metrics.counterValue("sim.trace.probes") - probes0);

    cache.setEnabled(true);
    cache.clear();
    probes0 = metrics.counterValue("sim.trace.probes");
    t0 = nowSeconds();
    const double on = fn();
    r.wallOnSec = nowSeconds() - t0;
    r.traceProbesOn = static_cast<u64>(
        metrics.counterValue("sim.trace.probes") - probes0);

    r.cacheHits = cache.hits();
    r.cacheMisses = cache.misses();
    r.hitRate = r.cacheHits + r.cacheMisses
                    ? static_cast<double>(r.cacheHits) /
                          static_cast<double>(r.cacheHits + r.cacheMisses)
                    : 0.0;
    r.simFingerprint = on;
    r.identical = off == on;
    r.speedup = r.wallOnSec > 0.0 ? r.wallOffSec / r.wallOnSec : 0.0;
    return r;
}

/** Sum of simulated seconds over a Figure-7 style frequency sweep. */
double
sweepFingerprint(core::Workload &wl, double scale,
                 const std::vector<double> &core_mhz,
                 const std::vector<double> &mem_mhz)
{
    core::Harness harness(wl, scale, false);
    auto rows = harness.freqSweep(sim::radeonR9_280X(),
                                  core::ModelKind::OpenCl,
                                  Precision::Single, core_mhz, mem_mhz);
    double sum = 0.0;
    for (const auto &row : rows)
        for (const auto &point : row)
            sum += point.seconds;
    return sum;
}

void
appendJsonScenario(std::ostream &os, const ScenarioResult &r, bool last)
{
    os << "    {\n"
       << "      \"name\": \"" << r.name << "\",\n"
       << "      \"description\": \"" << r.description << "\",\n"
       << "      \"wall_off_s\": " << r.wallOffSec << ",\n"
       << "      \"wall_on_s\": " << r.wallOnSec << ",\n"
       << "      \"speedup\": " << r.speedup << ",\n"
       << "      \"identical_sim_times\": "
       << (r.identical ? "true" : "false") << ",\n"
       << "      \"sim_fingerprint_s\": " << r.simFingerprint << ",\n"
       << "      \"cache_hits\": " << r.cacheHits << ",\n"
       << "      \"cache_misses\": " << r.cacheMisses << ",\n"
       << "      \"hit_rate\": " << r.hitRate << ",\n"
       << "      \"trace_probes_off\": " << r.traceProbesOff << ",\n"
       << "      \"trace_probes_on\": " << r.traceProbesOn << "\n"
       << "    }" << (last ? "\n" : ",\n");
}

void
writeJson(const std::string &path, double scale,
          const std::vector<ScenarioResult> &results)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        std::exit(1);
    }
    os << "{\n"
       << "  \"bench\": \"sim_perf\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"scenarios\": [\n";
    for (size_t i = 0; i < results.size(); ++i)
        appendJsonScenario(os, results[i], i + 1 == results.size());
    os << "  ]\n}\n";
}

/**
 * Minimal reader for the JSON this benchmark writes: pulls the
 * @p key value (e.g. "wall_on_s") out of each scenario object by name.
 * Not a general JSON parser - the baseline file is under our control.
 */
std::map<std::string, double>
readBaseline(const std::string &path, const std::string &key)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "cannot read baseline " << path << "\n";
        std::exit(1);
    }
    std::stringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    const std::string field = "\"" + key + "\": ";
    std::map<std::string, double> wall;
    size_t pos = 0;
    while ((pos = text.find("\"name\": \"", pos)) != std::string::npos) {
        pos += std::strlen("\"name\": \"");
        const size_t name_end = text.find('"', pos);
        const std::string name = text.substr(pos, name_end - pos);
        const size_t at = text.find(field, name_end);
        if (at == std::string::npos)
            break;
        wall[name] = std::atof(text.c_str() + at + field.size());
        pos = name_end;
    }
    return wall;
}

/** @return non-zero when a scenario regressed past the 2x gate. */
int
checkBaseline(const std::string &path,
              const std::vector<ScenarioResult> &results)
{
    // Absolute slack absorbs scheduler noise on short scenarios; the
    // gate is meant to catch algorithmic regressions (the cached path
    // silently falling back to full re-simulation, or the uncached
    // path - almost all cache-model probing - slowing down), not
    // jitter.
    const double slack = 0.25;
    const struct
    {
        const char *key;
        double ScenarioResult::*wall;
    } gates[] = {{"wall_on_s", &ScenarioResult::wallOnSec},
                 {"wall_off_s", &ScenarioResult::wallOffSec}};
    int failures = 0;
    for (const auto &gate : gates) {
        const std::map<std::string, double> baseline =
            readBaseline(path, gate.key);
        for (const auto &r : results) {
            auto it = baseline.find(r.name);
            if (it == baseline.end()) {
                std::printf("BASELINE  %-28s %-10s no entry (new "
                            "scenario, ok)\n",
                            r.name.c_str(), gate.key);
                continue;
            }
            const double limit = 2.0 * it->second + slack;
            const bool ok = r.*gate.wall <= limit;
            std::printf("BASELINE  %-28s %-10s %8.3fs vs limit %8.3fs  "
                        "%s\n",
                        r.name.c_str(), gate.key, r.*gate.wall, limit,
                        ok ? "ok" : "REGRESSED");
            if (!ok)
                ++failures;
        }
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 0.5);

    std::string out_path = "BENCH_sim_perf.json";
    std::string baseline_path;
    for (int i = 1; i < opts.argc; ++i) {
        if (std::strcmp(opts.argv[i], "--out") == 0 &&
            i + 1 < opts.argc) {
            out_path = opts.argv[++i];
        } else if (std::strcmp(opts.argv[i], "--check-baseline") == 0 &&
                   i + 1 < opts.argc) {
            baseline_path = opts.argv[++i];
        } else {
            std::cerr << "unknown option " << opts.argv[i] << "\n";
            return 1;
        }
    }

    const std::vector<double> core_mhz{200, 300, 400, 500, 600,
                                       700, 800, 900, 1000};
    const std::vector<double> mem_mhz{480, 590, 700, 810,
                                      920, 1030, 1140, 1250};
    // The miniFE sweep launches hundreds of kernels per point; a
    // smaller grid keeps the benchmark brisk without changing what is
    // measured (per-launch timing evaluation).
    const std::vector<double> core_small{200, 400, 600, 800, 1000};
    const std::vector<double> mem_small{480, 810, 1250};

    std::vector<ScenarioResult> results;

    {
        auto wl = core::workloadByName("readmem");
        results.push_back(measureScenario(
            "fig7_sweep_readmem",
            "readmem 72-point frequency sweep (fig7)", [&] {
                return sweepFingerprint(*wl, opts.scale, core_mhz,
                                        mem_mhz);
            }));
    }
    {
        auto wl = core::workloadByName("minife");
        results.push_back(measureScenario(
            "fig7_sweep_minife",
            "miniFE 15-point frequency sweep (CG launch loop)", [&] {
                return sweepFingerprint(*wl, opts.scale, core_small,
                                        mem_small);
            }));
    }
    {
        // The adaptive scheduler re-times the kernel once per pulled
        // chunk; with memoization off every chunk re-simulates the
        // SpMV's gather traces.
        auto pool = coexec::DevicePool::parse("cpu+apu");
        coexec::CoKernel kernel = apps::coex::makeMinifeSpmvCoKernel(
            opts.scale, Precision::Single);
        results.push_back(measureScenario(
            "coexec_adaptive_minife",
            "hetsim coexec minife cpu+apu adaptive x4", [&] {
                coexec::CoExecutor executor(*pool, Precision::Single);
                coexec::ExecOptions exec_opts;
                exec_opts.policy = coexec::Policy::Adaptive;
                exec_opts.functional = false;
                double sum = 0.0;
                for (int rep = 0; rep < 4; ++rep)
                    sum += executor.execute(kernel, exec_opts).seconds;
                return sum;
            }));
    }
    {
        auto wl = core::workloadByName("xsbench");
        results.push_back(measureScenario(
            "repeated_runs_xsbench",
            "xsbench timing-only run x8 (replication study)", [&] {
                core::WorkloadConfig cfg;
                cfg.scale = opts.scale;
                cfg.functional = false;
                double sum = 0.0;
                for (int rep = 0; rep < 8; ++rep) {
                    sum += wl->run(core::ModelKind::OpenCl,
                                   sim::radeonR9_280X(), cfg)
                               .seconds;
                }
                return sum;
            }));
    }

    std::cout << "Simulator fast-path: timing memoization off vs on "
                 "(identical simulated times required)\n"
              << std::string(79, '=') << "\n";
    Table table("scale " + Table::num(opts.scale, 2));
    table.setHeader({"Scenario", "off (s)", "on (s)", "speedup",
                     "hit rate", "probes off", "probes on",
                     "identical"});
    for (const auto &r : results) {
        table.addRow({r.name, Table::num(r.wallOffSec, 3),
                      Table::num(r.wallOnSec, 3),
                      Table::num(r.speedup, 2) + "x",
                      Table::num(100.0 * r.hitRate, 1) + "%",
                      std::to_string(r.traceProbesOff),
                      std::to_string(r.traceProbesOn),
                      r.identical ? "yes" : "NO"});
    }
    table.print(std::cout);
    if (opts.csv)
        table.printCsv(std::cout);

    writeJson(out_path, opts.scale, results);
    std::cout << "\nwrote " << out_path << "\n";

    int failures = 0;
    for (const auto &r : results) {
        if (!r.identical) {
            std::cerr << "FAIL: " << r.name
                      << " simulated times differ between cache "
                         "off/on\n";
            ++failures;
        }
    }
    if (!baseline_path.empty())
        failures += checkBaseline(baseline_path, results);
    return failures ? 1 : 0;
}
