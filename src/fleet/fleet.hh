/**
 * @file
 * hetsim::fleet - the multi-node fleet simulator.
 *
 * Scales the single-node simulator's question ("how long does this
 * workload take on this device?") up to a cluster: N heterogeneous
 * nodes (topology.hh) serving a stream of jobs drawn from weighted
 * job classes, placed by a cluster scheduler (cluster.hh), paying
 * network transfer and collective costs (sim/network.hh), under
 * per-node fault injection.
 *
 * The timeline is simulated in two phases so that the result is
 * bitwise identical at any thread-pool worker count:
 *
 *  - phase 1 (sequential): the scheduler walks jobs in arrival order
 *    and fixes every placement decision - which node, gang members,
 *    node deaths, and the retry of the job that trips each death -
 *    from fault-free cost estimates.  This is the only phase with
 *    cross-node state, and it is cheap: O(jobs x log nodes).
 *  - phase 2 (sharded): each node replays its own placed job list
 *    independently - actual start/finish times, fabric transfers with
 *    per-node transient faults (retry + exponential backoff), stall
 *    watchdogs.  Nodes are sharded over the work-stealing ThreadPool;
 *    every per-job record has exactly one writer node and per-node
 *    RNG streams are seeded from (fleet seed, node index), so the
 *    merge is deterministic regardless of scheduling.
 *
 * The per-job (node, start, finish) stream is folded into a digest so
 * tests and CI can assert the serial and sharded timelines - and runs
 * at different worker counts - are bit-identical.
 */

#ifndef HETSIM_FLEET_FLEET_HH
#define HETSIM_FLEET_FLEET_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "fault/fault.hh"
#include "fleet/cluster.hh"
#include "fleet/topology.hh"

namespace hetsim::cpu
{
class ThreadPool;
}

namespace hetsim::fleet
{

/**
 * The most jobs one campaign may draw (`hetsim fleet --njobs`,
 * FleetConfig::jobs): ten times the 1000-node, one-million-job
 * campaign.  Per-job records cost about 60 bytes, so a campaign at
 * the bound needs well under a gigabyte.
 */
constexpr u64 maxJobs = 10000000;

/** One weighted class of jobs the fleet serves. */
struct JobClass
{
    std::string name;
    /** Service seconds per device alias at perf 1.0.  Must cover
     *  every device kind the topology uses. */
    std::map<std::string, double> secondsByDevice;
    /** Input bytes moved over the fabric when placed off-home. */
    u64 inputBytes = 0;
    /** Relative arrival weight (>0). */
    double weight = 1.0;
    /** Nodes a job of this class gangs across (1 = single-node). */
    u32 gangNodes = 1;
    /** Halo-exchange iterations per gang job. */
    u32 haloIters = 0;
    /** Bytes per neighbour per halo iteration. */
    u64 haloBytesPerNeighbor = 0;
    /** Final all-reduce payload per gang job. */
    u64 reduceBytes = 0;
};

/** One fleet-simulation campaign. */
struct FleetConfig
{
    /** Jobs to draw and place, in [1, maxJobs]. */
    u64 jobs = 10000;
    /** Seed of every stream: class draws, homes, deaths, faults. */
    u64 seed = 0x5eedULL;
    Policy policy = Policy::LeastLoaded;
    /** Arrival rate, jobs per simulated second (0 = all at t=0). */
    double arrivalRate = 0.0;
    /** Per-job latency SLO in simulated seconds (0 = none). */
    double sloSeconds = 0.0;
    /** Probability a node dies during the campaign. */
    double nodeFailRate = 0.0;
    /** Transient per-node fault rates (transfer/launch/stall); the
     *  plan seed is derived from `seed` and the node index. */
    fault::FaultConfig faults;
    /** Job classes (>= 1, weights > 0). */
    std::vector<JobClass> classes;
    /** Run phase 2 on the calling thread (reference timeline). */
    bool serialTimeline = false;
    /** Trace spans for only this many seed-sampled nodes (0 = every
     *  node).  Bounds trace memory on large campaigns: 1000 nodes of
     *  spans would evict each other out of the ring buffer anyway.
     *  The sample is drawn from (seed, kSeedTraceSample), so it is
     *  the same set at any worker count. */
    u64 traceSampleNodes = 0;
};

/** Per-node accounting after a campaign. */
struct NodeReport
{
    std::string name;
    std::string device;
    u64 jobs = 0;
    double busySeconds = 0.0;
    double finishSeconds = 0.0;
    /** Energy (J) over the campaign makespan: busy draw while running
     *  jobs, idle draw otherwise (per-device power table). */
    double energyJoules = 0.0;
    u64 faultsInjected = 0;
    bool died = false;
};

/** Aggregate outcome of one fleet campaign. */
struct FleetResult
{
    u64 jobs = 0;
    u64 gangJobs = 0;
    u64 retries = 0;         ///< jobs re-placed after a node death
    u64 nodeDeaths = 0;
    u64 faultsInjected = 0;  ///< transient faults survived in phase 2
    u64 sloViolations = 0;
    u64 offHome = 0;         ///< jobs that paid the fabric transfer
    double makespanSeconds = 0.0;
    double busySeconds = 0.0;
    double netSeconds = 0.0;  ///< fabric transfer time (retries incl.)
    double haloSeconds = 0.0; ///< collective time of gang jobs
    double utilization = 0.0; ///< busy / (nodes x makespan)
    /** Fleet energy-to-solution (J): per-node energy summed in node
     *  order, hence worker-count invariant. */
    double energyJoules = 0.0;
    double throughputJobsPerSec = 0.0;
    /** End-to-end latency (finish - arrival), milliseconds. */
    Percentiles latencyMs;
    /** Order-independent digest of every (node, start, finish). */
    u64 digest = 0;
    std::vector<NodeReport> nodes;
};

/**
 * Run one fleet campaign.  Phase 2 shards over @p pool (the global
 * pool when null) unless cfg.serialTimeline.  Records fleet.* metrics
 * and per-node "fleet/<node>" trace tracks when the observability
 * layer is enabled.  @return nullopt and set @p error on an invalid
 * config (no jobs, no classes, a class missing a device kind, ...).
 */
std::optional<FleetResult> simulateFleet(const Topology &topo,
                                         const FleetConfig &cfg,
                                         std::string &error,
                                         cpu::ThreadPool *pool = nullptr);

} // namespace hetsim::fleet

#endif // HETSIM_FLEET_FLEET_HH
