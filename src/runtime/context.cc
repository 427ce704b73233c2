#include "context.hh"

#include <algorithm>

#include "common/logging.hh"
#include "cpu/threadpool.hh"
#include "fault/fault.hh"
#include "kernelir/captable.hh"
#include "kernelir/signature.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"

namespace hetsim::rt
{

namespace
{

/** Per-thread session label; see rt::sessionLabel(). */
thread_local std::string threadSessionLabel;

} // namespace

const std::string &
sessionLabel()
{
    return threadSessionLabel;
}

ScopedSessionLabel::ScopedSessionLabel(std::string label)
    : prior(std::move(threadSessionLabel))
{
    threadSessionLabel = std::move(label);
}

ScopedSessionLabel::~ScopedSessionLabel()
{
    threadSessionLabel = std::move(prior);
}

RuntimeContext::RuntimeContext(sim::DeviceSpec spec_, ir::ModelKind model,
                               Precision prec)
    : spec(std::move(spec_)),
      modelKind(model),
      caps(&ir::capsFor(model)),
      prec(prec),
      clocks(spec.stockFreq()),
      resolver(spec)
{
    // Resources carry the device name so each queue gets its own
    // track in an emitted trace ("R9 280X/compute", ...).  On a
    // labelled serve-session thread they additionally carry the
    // session label ("w0/R9 280X/compute") so concurrent jobs land on
    // disjoint tracks.
    const std::string &label = sessionLabel();
    const std::string base =
        label.empty() ? spec.name : label + "/" + spec.name;
    dmaH2D = timeline.addResource(base + "/dma-h2d");
    dmaD2H = timeline.addResource(base + "/dma-d2h");
    computeQ = timeline.addResource(base + "/compute");
    hostQ = timeline.addResource(base + "/host");
    timeline.attachTracer(&obs::Tracer::global());
}

void
RuntimeContext::setFreq(const sim::FreqDomain &freq)
{
    if (freq.coreMhz <= 0.0 || freq.memMhz <= 0.0)
        fatal("invalid frequency domain (%g, %g)", freq.coreMhz,
              freq.memMhz);
    clocks = freq;
}

BufferId
RuntimeContext::createBuffer(std::string name, u64 bytes)
{
    if (bytes == 0)
        fatal("buffer %s has zero size", name.c_str());
    if (!spec.zeroCopy && bytes > spec.memoryBytes) {
        fatal("buffer %s (%llu bytes) exceeds device memory of %s",
              name.c_str(), static_cast<unsigned long long>(bytes),
              spec.name.c_str());
    }
    Buffer buf;
    buf.name = std::move(name);
    buf.bytes = bytes;
    buffers.push_back(std::move(buf));
    counters.add("buffers.created", 1);
    counters.add("buffers.bytes", static_cast<double>(bytes));
    return static_cast<BufferId>(buffers.size() - 1);
}

void
RuntimeContext::markHostDirty(BufferId buf)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    buffers[buf].hostOk = true;
    buffers[buf].deviceOk = spec.zeroCopy;
}

void
RuntimeContext::markDeviceDirty(BufferId buf)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    buffers[buf].deviceOk = true;
    buffers[buf].hostOk = spec.zeroCopy;
}

bool
RuntimeContext::deviceValid(BufferId buf) const
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    return spec.zeroCopy || buffers[buf].deviceOk;
}

bool
RuntimeContext::hostValid(BufferId buf) const
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    return spec.zeroCopy || buffers[buf].hostOk;
}

u64
RuntimeContext::bufferBytes(BufferId buf) const
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    return buffers[buf].bytes;
}

bool
RuntimeContext::deviceHealthy() const
{
    return faults == nullptr ||
           faults->health(spec.name) != fault::DeviceHealth::Dead;
}

void
RuntimeContext::killDevice(const char *why)
{
    faults->markDead(spec.name);
    counters.add("fault.dead_devices", 1);
    obs::Metrics::global().add("fault.dead_devices", 1);
    warn("runtime: %s marked dead (%s); further timeline work on it "
         "is dropped",
         spec.name.c_str(), why);
}

sim::TaskId
RuntimeContext::scheduleTransfer(BufferId buf, bool to_device,
                                 sim::TaskId dep)
{
    Buffer &info = buffers[buf];
    if (spec.zeroCopy) {
        info.hostOk = true;
        info.deviceOk = true;
        return sim::NoTask;
    }

    obs::Metrics &metrics = obs::Metrics::global();
    const bool faulty = faults != nullptr && faults->enabled();
    if (faulty && !deviceHealthy()) {
        // Dead device: the op never reaches the timeline.  Residency
        // flags still advance so functional execution (which runs on
        // the host regardless) keeps producing correct results.
        counters.add("fault.dropped_ops", 1);
        metrics.add("fault.dropped_ops", 1);
        if (to_device)
            info.deviceOk = true;
        else
            info.hostOk = true;
        return sim::NoTask;
    }

    double seconds = pcie.transferSeconds(info.bytes) /
                     caps->transferEfficiency;
    sim::ResourceId dma = to_device ? dmaH2D : dmaD2H;
    const std::string label =
        std::string(to_device ? "h2d " : "d2h ") + info.name;

    // Injected transfer failures cost the full transfer duration, then
    // retry after an exponential-backoff window held on the DMA engine;
    // an exhausted retry budget kills the device.
    sim::TaskId task = sim::NoTask;
    for (u32 attempt = 0;; ++attempt) {
        if (!faulty || !faults->failTransfer(spec.name)) {
            task = timeline.schedule(
                dma, seconds, dep,
                sim::Timeline::SpanInfo{label, "transfer", 0.0,
                                        info.bytes});
            break;
        }
        const std::string failed_label = label + " [failed]";
        const sim::TaskId failed = timeline.schedule(
            dma, seconds, dep,
            sim::Timeline::SpanInfo{failed_label, "fault", 0.0,
                                    info.bytes});
        counters.add("fault.transfer_failures", 1);
        metrics.add("fault.transfer_failures", 1);
        if (attempt >= faults->config().retryMax) {
            killDevice("transfer retries exhausted");
            task = failed;
            break;
        }
        const double gap = fault::backoffSeconds(
            attempt + 1, faults->config().backoffSeconds);
        timeline.blockResource(dma, timeline.finishTime(failed) + gap);
        faults->degrade(spec.name);
        counters.add("fault.transfer_retries", 1);
        metrics.add("fault.transfer_retries", 1);
        metrics.add("fault.backoff_seconds", gap);
    }
    if (to_device) {
        info.deviceOk = true;
        counters.add("xfer.h2d.bytes", static_cast<double>(info.bytes));
        counters.add("xfer.h2d.count", 1);
        counters.add("xfer.h2d.seconds", seconds);
        metrics.add("xfer.h2d.bytes", static_cast<double>(info.bytes));
        metrics.add("xfer.h2d.count", 1);
        metrics.add("xfer.h2d.seconds", seconds);
    } else {
        info.hostOk = true;
        counters.add("xfer.d2h.bytes", static_cast<double>(info.bytes));
        counters.add("xfer.d2h.count", 1);
        counters.add("xfer.d2h.seconds", seconds);
        metrics.add("xfer.d2h.bytes", static_cast<double>(info.bytes));
        metrics.add("xfer.d2h.count", 1);
        metrics.add("xfer.d2h.seconds", seconds);
    }
    return task;
}

sim::TaskId
RuntimeContext::copyToDevice(BufferId buf, sim::TaskId dep)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    return scheduleTransfer(buf, true, dep);
}

sim::TaskId
RuntimeContext::copyToHost(BufferId buf, sim::TaskId dep)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    return scheduleTransfer(buf, false, dep);
}

sim::TaskId
RuntimeContext::ensureOnDevice(BufferId buf, sim::TaskId dep)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    if (deviceValid(buf))
        return sim::NoTask;
    return scheduleTransfer(buf, true, dep);
}

sim::TaskId
RuntimeContext::ensureOnHost(BufferId buf, sim::TaskId dep)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    if (hostValid(buf))
        return sim::NoTask;
    return scheduleTransfer(buf, false, dep);
}

sim::TaskId
RuntimeContext::launch(const ir::KernelDescriptor &desc, u64 items,
                       const ir::OptHints &hints, const KernelBody &body,
                       std::span<const sim::TaskId> deps)
{
    if (items == 0)
        fatal("kernel %s launched with zero items", desc.name.c_str());

    if (desc.loop.needsBarriers &&
        !caps->features.fineGrainedSync) {
        fatal("kernel %s requires work-group barriers which %s cannot "
              "express; restructure the algorithm for this model",
              desc.name.c_str(), displayName(modelKind));
    }

    // Functional execution (real results) on the host pool.  This
    // runs even when the simulated device is dead, so applications
    // always compute correct results and only the timeline degrades.
    if (functional && body)
        cpu::ThreadPool::global().parallelFor(items, body);

    obs::Metrics &metrics_ = obs::Metrics::global();
    const bool faulty = faults != nullptr && faults->enabled();
    if (faulty && !deviceHealthy()) {
        counters.add("fault.dropped_ops", 1);
        metrics_.add("fault.dropped_ops", 1);
        return sim::NoTask;
    }

    // Temporal modeling (memoized across repeated launches).
    ir::Codegen cg = ir::compileWithCaps(*caps, desc, hints, spec);
    sim::TimingEntry eval =
        ir::memoizedTiming(resolver, spec, clocks, prec, desc, items,
                           hints.workgroupSize, cg);
    sim::KernelProfile &prof = eval.profile;
    const sim::KernelTiming timing = eval.timing;

    // Injected stall: the submission hangs and the per-queue watchdog
    // (setLaunchTimeout, or 10x the predicted duration) declares the
    // device dead instead of wedging the run.
    if (faulty && faults->stallDevice(spec.name)) {
        const double timeout =
            launchTimeout > 0.0 ? launchTimeout
                                : 10.0 * std::max(timing.seconds, 1e-6);
        const sim::TaskId stalled = timeline.schedule(
            computeQ, timeout, deps,
            sim::Timeline::SpanInfo{"stall [watchdog]", "fault", 0.0,
                                    0});
        counters.add("fault.stalls", 1);
        metrics_.add("fault.stalls", 1);
        killDevice("stall watchdog");
        return stalled;
    }

    // Injected launch rejection: each failed submission costs its
    // launch overhead, then retries after a backoff window held on
    // the compute queue.
    for (u32 attempt = 0; faulty && faults->failLaunch(spec.name);
         ++attempt) {
        const double cost = std::max(timing.launchSeconds, 1e-6);
        const sim::TaskId failed = timeline.schedule(
            computeQ, cost, deps,
            sim::Timeline::SpanInfo{"launch [failed]", "fault", cost,
                                    0});
        counters.add("fault.launch_failures", 1);
        metrics_.add("fault.launch_failures", 1);
        if (attempt >= faults->config().retryMax) {
            killDevice("launch retries exhausted");
            return failed;
        }
        timeline.blockResource(
            computeQ,
            timeline.finishTime(failed) +
                fault::backoffSeconds(attempt + 1,
                                      faults->config().backoffSeconds));
        faults->degrade(spec.name);
        counters.add("fault.launch_retries", 1);
        metrics_.add("fault.launch_retries", 1);
    }

    sim::TaskId task = timeline.schedule(
        computeQ, timing.seconds, deps,
        sim::Timeline::SpanInfo{desc.name, "compute",
                                timing.launchSeconds, 0});

    KernelRecord record;
    record.name = desc.name;
    record.items = items;
    record.profile = std::move(prof);
    record.codegen = std::move(cg);
    record.timing = timing;
    launches.push_back(std::move(record));

    counters.add("kernel.launches", 1);
    counters.add("kernel.seconds", timing.seconds);
    counters.add("kernel.launch_overhead_seconds", timing.launchSeconds);
    obs::Metrics &metrics = obs::Metrics::global();
    metrics.add("kernel.launches", 1);
    metrics.add("kernel.seconds", timing.seconds);
    metrics.add("kernel.launch_overhead_seconds", timing.launchSeconds);
    metrics.add("kernel.items", static_cast<double>(items));

    obs::Profiler &profiler = obs::Profiler::global();
    if (profiler.enabled()) {
        obs::ObsRecord obsRec;
        obsRec.kernel = desc.name;
        obsRec.device = spec.name;
        obsRec.model = ir::toString(modelKind);
        obsRec.precisionBits = prec == Precision::Double ? 64 : 32;
        obsRec.items = items;
        obsRec.coreMhz = clocks.coreMhz;
        obsRec.memMhz = clocks.memMhz;
        obsRec.workgroup = hints.workgroupSize;
        obsRec.launches = 1;
        obsRec.seconds = timing.seconds;
        obsRec.issueSeconds = timing.issueSeconds;
        obsRec.memSeconds = timing.memSeconds;
        obsRec.ldsSeconds = timing.ldsSeconds;
        obsRec.latencySeconds = timing.latencySeconds;
        obsRec.launchSeconds = timing.launchSeconds;
        obsRec.bound = sim::boundedness(timing);
        profiler.observe(obsRec);
    }
    return task;
}

sim::TaskId
RuntimeContext::hostWork(double seconds, sim::TaskId dep)
{
    if (seconds < 0.0)
        panic("negative host work");
    counters.add("host.seconds", seconds);
    obs::Metrics::global().add("host.seconds", seconds);
    return timeline.schedule(
        hostQ, seconds, dep,
        sim::Timeline::SpanInfo{"host-work", "host", 0.0, 0});
}

double
RuntimeContext::aggregateLlcMissRatio() const
{
    double accesses = 0.0;
    double misses = 0.0;
    for (const auto &record : launches) {
        double items = static_cast<double>(record.items);
        accesses += record.profile.memInstrsPerItem * items;
        misses += record.profile.dramBytesPerItem * items /
                  spec.l2LineBytes;
    }
    return accesses > 0.0 ? misses / accesses : 0.0;
}

double
RuntimeContext::aggregateIpc() const
{
    double instrs = 0.0;
    double cycles = 0.0;
    for (const auto &record : launches) {
        instrs += record.timing.waveInstructions;
        cycles += record.timing.cycles;
    }
    return cycles > 0.0 ? instrs / (cycles * spec.computeUnits) : 0.0;
}

void
RuntimeContext::resetTiming()
{
    timeline.clearTasks();
    launches.clear();
    counters.clear();
    for (auto &buf : buffers) {
        buf.hostOk = true;
        buf.deviceOk = false;
    }
}

} // namespace hetsim::rt
