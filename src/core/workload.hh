/**
 * @file
 * The Workload: one proxy application, runnable under any programming
 * model on any device.  This layer is the paper's object of study -
 * it is what the experiment harness drives.
 */

#ifndef HETSIM_CORE_WORKLOAD_HH
#define HETSIM_CORE_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "kernelir/codegen.hh"
#include "power/power.hh"
#include "runtime/context.hh"
#include "sim/device.hh"

namespace hetsim::core
{

using ir::ModelKind;

/** How a workload should be built and run. */
struct WorkloadConfig
{
    /** Element precision of the build (the paper reports SP and DP). */
    Precision precision = Precision::Single;
    /**
     * Execute kernel bodies functionally (real results, validated
     * against the serial implementation).  The harness disables this
     * for paper-size timing runs; correctness is established at test
     * scale.
     */
    bool functional = true;
    /**
     * Problem-scale factor: 1.0 reproduces the paper's command line;
     * smaller values shrink the problem for functional validation.
     */
    double scale = 1.0;
    /** Clock override; {0, 0} selects the device's stock clocks. */
    sim::FreqDomain freq{0.0, 0.0};
};

/**
 * Largest problem-scale factor the CLI (`--scale`) and a JobSpec
 * ("scale") accept.  1.0 is the paper's command line; the bound keeps
 * every size an app derives from the scale far inside its integer
 * type (apps::sizeCast checks each conversion).
 */
constexpr double maxScale = 4.0;

/** Outcome of one workload run. */
struct RunResult
{
    /** Total simulated seconds (kernels + transfers + host work). */
    double seconds = 0.0;
    /** Simulated seconds spent in kernels (incl. launch overhead). */
    double kernelSeconds = 0.0;
    /** Simulated seconds spent in PCIe staging. */
    double transferSeconds = 0.0;
    /** Simulated seconds of host-side (fallback) work. */
    double hostSeconds = 0.0;
    /** Aggregate LLC miss ratio (Table I). */
    double llcMissRatio = 0.0;
    /** Aggregate issued-instructions per cycle per CU (Table I). */
    double ipc = 0.0;
    /** Total kernel launches. */
    u64 kernelLaunches = 0;
    /** Distinct kernels (Table I "Number of Kernels"). */
    int uniqueKernels = 0;
    /** Application-defined figure of merit for validation. */
    double checksum = 0.0;
    /** Whether the functional results matched the serial reference. */
    bool validated = false;
    /** Energy-to-solution (J) under the active power table. */
    double energyJoules = 0.0;
    /** Joules accrued while resources executed spans. */
    double busyJoules = 0.0;
    /** Joules accrued by idle draw over the makespan. */
    double idleJoules = 0.0;
    /** Per-resource energy buckets (tile makespan x power). */
    power::EnergyReport energy;
    /** Raw counters from the runtime. */
    Stats stats;
    /** Per-launch records (kernel name, profile, timing), in order. */
    std::vector<rt::KernelRecord> records;
};

/** Populate the generic RunResult fields from a finished runtime. */
RunResult summarize(const rt::RuntimeContext &rt);

/**
 * Per-kernel aggregate of a run's launch records (profiler view).
 */
struct KernelBreakdown
{
    std::string name;
    u64 launches = 0;
    double seconds = 0.0;      ///< total simulated kernel time
    double share = 0.0;        ///< fraction of total kernel time
    double ipc = 0.0;          ///< aggregate issued IPC
    double llcMissRatio = 0.0; ///< aggregate line-miss ratio
};

/**
 * Aggregate a run's records per kernel, sorted by total time
 * descending (the "top kernels" profiler table).
 */
std::vector<KernelBreakdown>
kernelBreakdown(const RunResult &result);

/** Entry point of a host build (Serial, OpenMP): runs on the CPU. */
using HostEntry = RunResult (*)(const WorkloadConfig &cfg);

/** Entry point of a device build. */
using DeviceEntry = RunResult (*)(const sim::DeviceSpec &device,
                                  const WorkloadConfig &cfg);

/**
 * One proxy application's registration row: its names and the eight
 * per-model entry points its <app>_variants.hh declares.  Every app
 * is one row of the registration table in src/apps/workloads.cc;
 * adding an app is adding a row.
 */
struct AppEntry
{
    /** CLI alias, e.g. "lulesh". */
    const char *alias;
    /** Display name, e.g. "LULESH". */
    const char *name;
    /** The paper's command line, e.g. "./LULESH -s 100 -i 100". */
    const char *cmdline;
    /**
     * Whether the paper compares this workload on kernel time only
     * (true for the read-memory micro-benchmark, whose figures
     * exclude data transfers).
     */
    bool kernelOnly;
    HostEntry serial;
    HostEntry openmp;
    DeviceEntry opencl;
    DeviceEntry cppamp;
    DeviceEntry openacc;
    DeviceEntry hc;
    DeviceEntry omptarget;
    DeviceEntry cuda;
};

/** One proxy application: a view of its registration row. */
class Workload
{
  public:
    explicit Workload(const AppEntry &entry) : entry(&entry) {}

    /** CLI alias, e.g. "lulesh". */
    std::string alias() const { return entry->alias; }

    /** Display name, e.g. "LULESH". */
    std::string name() const { return entry->name; }

    /** The paper's command line, e.g. "./LULESH -s 100 -i 100". */
    std::string cmdline() const { return entry->cmdline; }

    /** Models this workload is implemented in, in ModelKind order. */
    std::vector<ModelKind> supportedModels() const;

    /** See AppEntry::kernelOnly. */
    bool kernelOnlyComparison() const { return entry->kernelOnly; }

    /** Build and run under @p model on @p device. */
    RunResult run(ModelKind model, const sim::DeviceSpec &device,
                  const WorkloadConfig &cfg) const;

  private:
    const AppEntry *entry;
};

/** All five proxy applications, in the paper's order. */
std::vector<std::unique_ptr<Workload>> makeAllWorkloads();

/** @return the workload for a CLI alias (readmem, lulesh, comd,
 *  xsbench, minife), or null.  Shared by the CLI and the serve
 *  layer's JobSpec resolution. */
std::unique_ptr<Workload> workloadByName(const std::string &name);

} // namespace hetsim::core

#endif // HETSIM_CORE_WORKLOAD_HH
