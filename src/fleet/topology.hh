/**
 * @file
 * hetsim::fleet - cluster topology descriptions and their JSONL wire
 * format.
 *
 * A Topology is the static half of the fleet model: N heterogeneous
 * nodes - each carrying one device configuration from the paper's
 * Table II (APU, discrete GPU, or CPU) - joined by one flat NetLink
 * fabric.  Topology files are JSONL, one flat JSON object per line,
 * parsed with the same strict line-numbered contract as serve job
 * files (common/flatjson.hh): unknown keys, wrong value types, and
 * malformed JSON fail loudly with the 1-based line number.
 *
 * Two record kinds share the stream:
 *
 *  - node groups: {"device": "dgpu", "count": 32, "name": "rack0",
 *                  "perf": 1.0} - expands to `count` nodes named
 *                  "rack0/0".."rack0/31", each a `device` node whose
 *                  service times scale by 1/perf;
 *  - the fabric:  {"net_gbs": 12.5, "net_latency_us": 5,
 *                  "net_efficiency": 0.9} - at most one per file,
 *                  no "device" key.
 */

#ifndef HETSIM_FLEET_TOPOLOGY_HH
#define HETSIM_FLEET_TOPOLOGY_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/device.hh"
#include "sim/network.hh"

namespace hetsim::fleet
{

/**
 * The most nodes a topology may hold: a topology file's node groups
 * together, or `hetsim fleet --nodes`.  A hundred times the 1000-node
 * campaigns the benchmarks run (`--sweep` replays up to 8x that).
 * Larger counts fail at parse time rather than growing the node list
 * until the host runs out of memory.
 */
constexpr u64 maxNodes = 100000;

/** One simulated node of the cluster. */
struct NodeSpec
{
    /** Display name, e.g. "rack0/3". */
    std::string name;
    /** Device alias the node runs (dgpu/apu/cpu/hd7950 or spec name). */
    std::string device;
    /** Relative speed multiplier (>0); service times divide by it. */
    double perf = 1.0;
};

/** The static cluster description: nodes plus one flat fabric. */
struct Topology
{
    std::vector<NodeSpec> nodes;
    sim::NetLink net;

    /** @return node count as the u32 the scheduler works in. */
    u32
    size() const
    {
        return static_cast<u32>(nodes.size());
    }

    /** @return the distinct device aliases, in first-seen order. */
    std::vector<std::string> deviceKinds() const;

    /** @return a copy with every node group repeated @p factor times
     *  (capacity sweeps: same mix, bigger fleet). */
    Topology scaled(u32 factor) const;
};

/**
 * Parse a JSONL topology stream.  Blank lines are skipped.  @return
 * nullopt and set @p error (with the 1-based line number) on any
 * malformed line, unknown key, unknown device alias, second fabric
 * line, or a stream with no nodes.
 */
std::optional<Topology> parseTopology(std::istream &is,
                                      std::string &error);

/**
 * Load a topology file.  @return nullopt and set @p error on an
 * unreadable path or any parse failure.
 */
std::optional<Topology> loadTopology(const std::string &path,
                                     std::string &error);

/** @return a uniform @p nodes x @p device topology (tests, serve). */
Topology uniformTopology(u32 nodes, const std::string &device = "dgpu");

/** @return the paper's device mix at @p nodes: half discrete GPUs, a
 *  quarter APUs, the rest CPU-only nodes (`hetsim fleet --nodes`). */
Topology mixedTopology(u32 nodes);

} // namespace hetsim::fleet

#endif // HETSIM_FLEET_TOPOLOGY_HH
