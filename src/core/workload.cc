#include "workload.hh"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.hh"
#include "kernelir/captable.hh"

namespace hetsim::core
{

RunResult
summarize(const rt::RuntimeContext &rt)
{
    RunResult result;
    const Stats &stats = rt.stats();
    result.seconds = rt.elapsedSeconds();
    result.kernelSeconds = stats.get("kernel.seconds");
    result.transferSeconds =
        stats.get("xfer.h2d.seconds") + stats.get("xfer.d2h.seconds");
    result.hostSeconds = stats.get("host.seconds");
    result.llcMissRatio = rt.aggregateLlcMissRatio();
    result.ipc = rt.aggregateIpc();
    result.kernelLaunches =
        static_cast<u64>(stats.get("kernel.launches"));

    std::set<std::string> names;
    for (const auto &record : rt.records())
        names.insert(record.name);
    result.uniqueKernels = static_cast<int>(names.size());

    result.energy =
        power::energyOf(rt.timelineView(), power::PowerTable::active());
    result.energyJoules = result.energy.joules;
    result.busyJoules = result.energy.busyJoules;
    result.idleJoules = result.energy.idleJoules;

    result.stats = stats;
    result.records = rt.records();
    return result;
}

std::vector<KernelBreakdown>
kernelBreakdown(const RunResult &result)
{
    struct Acc
    {
        u64 launches = 0;
        double seconds = 0.0;
        double ipcCycles = 0.0; ///< sum of per-launch ipc * cycles
        double cycles = 0.0;
        double accesses = 0.0;
        double line_misses = 0.0;
    };
    std::map<std::string, Acc> by_name;
    for (const auto &record : result.records) {
        Acc &acc = by_name[record.name];
        double items = static_cast<double>(record.items);
        ++acc.launches;
        acc.seconds += record.timing.seconds;
        acc.ipcCycles += record.timing.ipc * record.timing.cycles;
        acc.cycles += record.timing.cycles;
        acc.accesses += record.profile.memInstrsPerItem * items;
        acc.line_misses += record.profile.dramBytesPerItem * items /
                           64.0;
    }

    double total = 0.0;
    for (const auto &[name, acc] : by_name)
        total += acc.seconds;

    std::vector<KernelBreakdown> rows;
    rows.reserve(by_name.size());
    for (const auto &[name, acc] : by_name) {
        KernelBreakdown row;
        row.name = name;
        row.launches = acc.launches;
        row.seconds = acc.seconds;
        row.share = total > 0.0 ? acc.seconds / total : 0.0;
        row.ipc =
            acc.cycles > 0.0 ? acc.ipcCycles / acc.cycles : 0.0;
        row.llcMissRatio =
            acc.accesses > 0.0 ? acc.line_misses / acc.accesses : 0.0;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const KernelBreakdown &a, const KernelBreakdown &b) {
                  return a.seconds > b.seconds;
              });
    return rows;
}

std::vector<ModelKind>
Workload::supportedModels() const
{
    // Every registration row carries all eight entry points.
    std::vector<ModelKind> models;
    for (const ir::BackendCaps &caps : ir::backendTable())
        models.push_back(caps.kind);
    return models;
}

RunResult
Workload::run(ModelKind model, const sim::DeviceSpec &device,
              const WorkloadConfig &cfg) const
{
    switch (model) {
      case ModelKind::Serial:
        return entry->serial(cfg);
      case ModelKind::OpenMp:
        return entry->openmp(cfg);
      case ModelKind::OpenCl:
        return entry->opencl(device, cfg);
      case ModelKind::CppAmp:
        return entry->cppamp(device, cfg);
      case ModelKind::OpenAcc:
        return entry->openacc(device, cfg);
      case ModelKind::Hc:
        return entry->hc(device, cfg);
      case ModelKind::OmpTarget:
        return entry->omptarget(device, cfg);
      case ModelKind::Cuda:
        return entry->cuda(device, cfg);
    }
    fatal("%s: unsupported model", entry->name);
}

} // namespace hetsim::core
