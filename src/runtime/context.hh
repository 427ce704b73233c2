/**
 * @file
 * RuntimeContext: the shared device runtime all programming-model
 * frontends lower to.
 *
 * A context binds a device (sim::DeviceSpec), a programming model's
 * capability row (ir::BackendCaps), an element precision and a frequency
 * domain.  Frontends create buffers, move data (explicitly or through
 * the managed-residency helpers), and launch kernels.  A launch does
 * two things:
 *
 *  - functionally executes the kernel body on the host thread pool so
 *    the application computes its real results, and
 *  - resolves the kernel's descriptor against the device's cache model
 *    and timing model, scheduling the resulting duration on the
 *    discrete-event timeline (compute queue), with transfers occupying
 *    the DMA resources.
 *
 * Simulated elapsed time is the timeline makespan; it never depends on
 * host wall-clock.
 */

#ifndef HETSIM_RUNTIME_CONTEXT_HH
#define HETSIM_RUNTIME_CONTEXT_HH

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "kernelir/trace.hh"
#include "sim/device.hh"
#include "sim/pcie.hh"
#include "sim/timeline.hh"
#include "sim/timing.hh"

namespace hetsim::fault
{
class FaultPlan;
}

namespace hetsim::ir
{
struct BackendCaps;
}

namespace hetsim::rt
{

/** Handle to a runtime buffer. */
using BufferId = u32;

/**
 * @return the calling thread's session label ("" when unset).
 * Contexts constructed on a labelled thread prefix their timeline
 * resource names with "<label>/", so concurrent serve-layer sessions
 * emit disjoint per-worker trace tracks ("w0/R9 280X/compute", ...)
 * instead of interleaving spans on one shared device track.
 */
const std::string &sessionLabel();

/** RAII setter for the calling thread's session label. */
class ScopedSessionLabel
{
  public:
    explicit ScopedSessionLabel(std::string label);
    ~ScopedSessionLabel();

    ScopedSessionLabel(const ScopedSessionLabel &) = delete;
    ScopedSessionLabel &operator=(const ScopedSessionLabel &) = delete;

  private:
    std::string prior;
};

/** Functional kernel body over a contiguous work-item range. */
using KernelBody = std::function<void(u64 begin, u64 end)>;

/** Accounting record of one kernel launch. */
struct KernelRecord
{
    std::string name;
    u64 items = 0;
    sim::KernelProfile profile;
    ir::Codegen codegen;
    sim::KernelTiming timing;

    bool operator==(const KernelRecord &) const = default;
};

/** Execution + accounting context for one device and one model. */
class RuntimeContext
{
  public:
    /**
     * @param spec  device to model.
     * @param model programming model whose compiler/runtime to use.
     * @param prec  element precision of the workload build.
     */
    RuntimeContext(sim::DeviceSpec spec, ir::ModelKind model,
                   Precision prec);

    /** Override the clock domain (Figure 7 sweeps). */
    void setFreq(const sim::FreqDomain &freq);

    /** Override the PCIe link (defaults to Gen3 x16 at 50%). */
    void setPcie(const sim::PcieLink &link) { pcie = link; }

    /** Enable/disable functional execution of kernel bodies.  The
     *  harness disables it for timing-only re-runs (e.g. frequency
     *  sweeps) after results have been validated once. */
    void setFunctionalExecution(bool on) { functional = on; }

    /**
     * Attach a fault-injection plan (non-owning; nullptr detaches).
     * Transfers retry with exponential backoff on injected failures,
     * kernel submissions retry on launch rejections, and a device that
     * exhausts its retry budget (or stalls past the launch timeout) is
     * marked Dead: subsequent timeline work is dropped while
     * functional execution continues, so results stay correct and the
     * caller sees the health state instead of an abort.
     */
    void attachFaults(fault::FaultPlan *plan) { faults = plan; }

    /**
     * Straggler watchdog for the compute queue: a launch predicted to
     * run longer than @p seconds is declared stalled and the device
     * Dead (0 = disabled).
     */
    void setLaunchTimeout(double seconds) { launchTimeout = seconds; }

    /** @return whether the device is still in service (no fault plan
     *  attached, or plan says it is not Dead). */
    bool deviceHealthy() const;

    const sim::DeviceSpec &device() const { return spec; }
    ir::ModelKind model() const { return modelKind; }
    Precision precision() const { return prec; }
    const sim::FreqDomain &freq() const { return clocks; }

    // --- Buffers --------------------------------------------------------

    /** Create a buffer of @p bytes named @p name (host-valid). */
    BufferId createBuffer(std::string name, u64 bytes);

    /** Host wrote the buffer: device copy becomes stale. */
    void markHostDirty(BufferId buf);

    /** Kernel wrote the buffer: host copy becomes stale. */
    void markDeviceDirty(BufferId buf);

    /** @return whether the device copy is up to date. */
    bool deviceValid(BufferId buf) const;

    /** @return whether the host copy is up to date. */
    bool hostValid(BufferId buf) const;

    /** @return buffer size in bytes. */
    u64 bufferBytes(BufferId buf) const;

    // --- Transfers ------------------------------------------------------

    /**
     * Unconditionally stage a buffer to device memory (explicit
     * models).  Zero-copy devices complete immediately.
     *
     * @return the DMA task, or sim::NoTask when no copy was needed.
     */
    sim::TaskId copyToDevice(BufferId buf, sim::TaskId dep = sim::NoTask);

    /** Unconditionally copy a buffer back to the host. */
    sim::TaskId copyToHost(BufferId buf, sim::TaskId dep = sim::NoTask);

    /** Copy to device only when the device copy is stale (managed). */
    sim::TaskId ensureOnDevice(BufferId buf,
                               sim::TaskId dep = sim::NoTask);

    /** Copy to host only when the host copy is stale (managed). */
    sim::TaskId ensureOnHost(BufferId buf, sim::TaskId dep = sim::NoTask);

    // --- Kernels ---------------------------------------------------------

    /**
     * Launch a kernel.
     *
     * @param desc  descriptor (compiled through the model's compiler).
     * @param items work-items to execute.
     * @param hints the variant's hand-tuning decisions.
     * @param body  functional body (may be empty for timing-only use).
     * @param deps  timeline dependencies (defaults to queue order).
     * @return the compute task id.
     */
    sim::TaskId launch(const ir::KernelDescriptor &desc, u64 items,
                       const ir::OptHints &hints, const KernelBody &body,
                       std::span<const sim::TaskId> deps = {});

    /**
     * Account host-side (non-offloaded) work of @p seconds at the
     * device's host processor; used for CPU fallback kernels.
     */
    sim::TaskId hostWork(double seconds, sim::TaskId dep = sim::NoTask);

    // --- Results ----------------------------------------------------------

    /** @return simulated elapsed seconds (timeline makespan). */
    double elapsedSeconds() const { return timeline.makespan(); }

    /** @return the simulated timeline (read-only; energy accrual
     *  walks its resources post-hoc). */
    const sim::Timeline &timelineView() const { return timeline; }

    /** @return simulated finish time of a task. */
    double
    taskFinishSeconds(sim::TaskId task) const
    {
        return timeline.finishTime(task);
    }

    /** @return per-launch records, in launch order. */
    const std::vector<KernelRecord> &records() const { return launches; }

    /** @return accumulated counters. */
    const Stats &stats() const { return counters; }

    /** @return aggregate LLC miss ratio across all launches. */
    double aggregateLlcMissRatio() const;

    /** @return aggregate IPC across all launches (Table I). */
    double aggregateIpc() const;

    /** Reset the timeline and records (buffers survive). */
    void resetTiming();

  private:
    struct Buffer
    {
        std::string name;
        u64 bytes = 0;
        bool hostOk = true;
        bool deviceOk = false;
    };

    sim::TaskId scheduleTransfer(BufferId buf, bool to_device,
                                 sim::TaskId dep);

    sim::DeviceSpec spec;
    ir::ModelKind modelKind;
    const ir::BackendCaps *caps;
    Precision prec;
    sim::FreqDomain clocks;
    sim::PcieLink pcie;
    ir::ProfileResolver resolver;
    sim::Timeline timeline;
    sim::ResourceId dmaH2D;
    sim::ResourceId dmaD2H;
    sim::ResourceId computeQ;
    sim::ResourceId hostQ;
    /** Mark the device dead (records the event, warns once). */
    void killDevice(const char *why);

    std::vector<Buffer> buffers;
    std::vector<KernelRecord> launches;
    Stats counters;
    bool functional = true;
    fault::FaultPlan *faults = nullptr;
    double launchTimeout = 0.0;
};

} // namespace hetsim::rt

#endif // HETSIM_RUNTIME_CONTEXT_HH
