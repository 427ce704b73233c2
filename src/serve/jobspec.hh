/**
 * @file
 * hetsim::serve - job specifications and their JSONL wire format.
 *
 * A JobSpec describes one simulation configuration out of the paper's
 * experiment grid (app x model x device x precision x scale x clocks,
 * plus a fault plan), extended with the serving-layer knobs: a
 * priority, a deadline, and a per-job timing-cache switch.  Jobs enter
 * the server either from a JSONL file (`hetsim batch`, one JSON object
 * per line) or from the built-in closed-loop generator
 * (`hetsim serve --shots N`).
 *
 * The parser is strict: unknown keys, wrong value types, duplicate
 * ids, and malformed JSON are errors that carry the 1-based line
 * number, so a bad grid file fails loudly instead of silently running
 * a subset (the same contract as the CLI's strict flag validators).
 *
 * Result serialization writes only simulation-derived fields (status,
 * simulated seconds, checksum, fault schedule), never host wall-clock
 * latencies, so a batch result file is byte-identical regardless of
 * worker count or host scheduling.
 */

#ifndef HETSIM_SERVE_JOBSPEC_HH
#define HETSIM_SERVE_JOBSPEC_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "kernelir/codegen.hh"
#include "sim/device.hh"

namespace hetsim::serve
{

/** One simulation job submitted to the Server. */
struct JobSpec
{
    /** Unique job id; results are emitted in ascending id order. */
    u64 id = 0;
    std::string app = "readmem";
    /** Programming model (single-device jobs). */
    std::string model = "opencl";
    /** Device alias (single-device jobs). */
    std::string device = "dgpu";
    /** Non-empty ('+'-separated pool) selects a co-execution job. */
    std::string devices;
    /** Co-execution GPU-slot backend ("" = hc default). */
    std::string backend;
    /** Co-execution scheduling policy. */
    std::string policy = "adaptive";
    double scale = 1.0;
    bool doublePrecision = false;
    bool functional = false;
    /** Clock override; {0, 0} = stock clocks. */
    sim::FreqDomain freq{0.0, 0.0};
    /** Per-job timing-cache switch (false = this job bypasses the
     *  shared memo without disturbing concurrent jobs). */
    bool timingCache = true;
    /** Fault campaign; faultsGiven gates attachment. */
    fault::FaultConfig faultConfig;
    bool faultsGiven = false;
    /** Queue-wait deadline in host milliseconds (0 = none): a job
     *  still queued this long after submission is cancelled. */
    double deadlineMs = 0.0;
    /** The line carried an explicit "deadline_ms".  Only absent
     *  fields inherit the server's `--deadline-ms` default; an
     *  explicit 0 means "no deadline". */
    bool deadlineGiven = false;
    /**
     * Service deadline in *simulated* milliseconds (0 = none): a
     * running non-functional coexec job is preempted - checkpointed
     * at a chunk boundary and re-queued - whenever a dispatch slice
     * exhausts this budget.  Deterministic: the trigger reads only
     * simulated time, never the host clock.
     */
    double serviceDeadlineMs = 0.0;
    /** The line carried an explicit "service_deadline_ms" (same
     *  inheritance rule as deadlineGiven). */
    bool serviceDeadlineGiven = false;
    /** Higher priorities dequeue first (FIFO within a priority). */
    int priority = 0;
    /** Tenant label for fair-share scheduling ("" = anonymous). */
    std::string tenant;

    /** @return whether this is a co-execution job. */
    bool coexec() const { return !devices.empty(); }
};

/**
 * Canonical surrogate job-cost class of a spec: every field the
 * simulated seconds depend on except the device half, e.g.
 * "readmem|opencl|sp|scale=1" or "xsbench|coexec:adaptive|dp|
 * scale=0.5|freq=925:1375|faults=0x5eed:...".  Equal keys imply
 * bit-equal simulated seconds (the simulator is deterministic), which
 * is what lets a recorded cost stand in for a probe at admission
 * time.  Doubles are rendered round-trip exact.
 */
std::string jobClassKey(const JobSpec &spec);

/** Device half of the job-cost key: device alias or '+'-pool. */
std::string jobDeviceKey(const JobSpec &spec);

/** Terminal state of a job. */
enum class JobStatus : u8
{
    Ok,       ///< ran to completion
    Error,    ///< bad spec or failed run (see error)
    Rejected, ///< admission control: queue full (reject policy)
    Shed,     ///< admission control: evicted for a higher priority
    Expired,  ///< cancelled in the queue past its deadline
};

/** @return printable name, e.g. "ok". */
const char *toString(JobStatus status);

/** Outcome of one job. */
struct JobResult
{
    u64 id = 0;
    JobStatus status = JobStatus::Error;
    std::string error;

    // Spec echo (so a result line is self-describing).
    std::string app;
    std::string model;  ///< single-device jobs
    std::string device; ///< single-device jobs
    std::string devices; ///< co-execution jobs
    std::string policy;  ///< co-execution jobs
    std::string tenant;  ///< fair-share tenant ("" = anonymous)

    // --- Simulation-derived (deterministic; serialized) -------------
    double simSeconds = 0.0;
    double kernelSeconds = 0.0;
    double transferSeconds = 0.0;
    /** Energy-to-solution (J) under the active power table; computed
     *  from the job's own timeline, so it is worker-count invariant. */
    double energyJoules = 0.0;
    double checksum = 0.0;
    bool functionalRun = false;
    bool validated = false;
    u64 faultsInjected = 0;
    /** Order-sensitive hash of the job's FaultEvent schedule; equal
     *  seeds must reproduce it bitwise, served or standalone. */
    u64 faultScheduleHash = 0;
    /** Service-deadline preemptions the job survived (slices - 1);
     *  deterministic - the trigger reads only simulated time. */
    u64 preemptions = 0;

    // --- Host-side serving accounting (not serialized) --------------
    double hostQueueWaitMs = 0.0; ///< wall: submit -> dequeue
    double hostServiceMs = 0.0;   ///< wall: dequeue -> done
    /** Deterministic dequeue order (prefilled batches). */
    u64 serviceSeq = 0;
    /** Worker session that ran the job (-1 = never ran). */
    int worker = -1;
    /** Queue depth observed at submit (flight-recorder context). */
    u64 queueDepthAtSubmit = 0;
    /** Effective queue-wait deadline (after the server default). */
    double deadlineMs = 0.0;
    /** Effective service deadline (after the server default). */
    double serviceDeadlineMs = 0.0;
    /** Injected fault events the job saw, "<kind> <device> <seq>";
     *  filled only while the flight recorder is enabled. */
    std::vector<std::string> faultEvents;

    // --- Virtual-cluster accounting (computed post-hoc) -------------
    double simQueueWaitSeconds = 0.0; ///< start on the virtual cluster
    double simFinishSeconds = 0.0;    ///< finish on the virtual cluster
};

/**
 * Parse one JSONL job line (1-based @p lineno, for error messages).
 * Recognized keys:
 *
 *   id, app, model, device, devices, backend, policy, scale, dp,
 *   functional, freq ("core:mem"), timing_cache,
 *   faults ("kind:rate,..."), fault_seed, retry_max, fail_device,
 *   deadline_ms, service_deadline_ms, priority, tenant
 *
 * @return nullopt and set @p error on malformed JSON, an unknown key,
 * or a wrong value type.
 */
std::optional<JobSpec> parseJobLine(const std::string &line, size_t lineno,
                                    std::string &error);

/**
 * Parse a JSONL job stream.  Blank lines are skipped.  Jobs without an
 * explicit "id" get their 1-based line number as id; duplicate ids are
 * an error.  @return nullopt and set @p error (with line number) on
 * any malformed line.
 */
std::optional<std::vector<JobSpec>> parseJobs(std::istream &is,
                                              std::string &error);

/**
 * Write results as JSONL, one job per line in ascending id order.
 * Only deterministic fields are emitted; see the file comment.
 */
void writeResultsJsonl(std::ostream &os,
                       const std::vector<JobResult> &results);

/** Write one result line (the streaming front-end's live emission;
 *  byte-identical to the line writeResultsJsonl would produce). */
void writeResultLine(std::ostream &os, const JobResult &result);

/** Deterministic round-trip double formatting ("%.17g") - the wire
 *  convention of the result writer and the model layer. */
std::string formatG17(double value);

} // namespace hetsim::serve

#endif // HETSIM_SERVE_JOBSPEC_HH
