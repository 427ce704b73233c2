/**
 * @file
 * Set-associative LRU cache model.
 *
 * Used as the GPU last-level (L2) cache simulator that produces the
 * per-application miss rates of the paper's Table I.  The model is
 * trace-driven: workloads feed it sampled address streams generated
 * from their real data structures (CSR column indices, neighbor lists,
 * random lookup indices, ...) so locality emerges from the genuine
 * access patterns rather than from constants.
 */

#ifndef HETSIM_SIM_CACHE_HH
#define HETSIM_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hetsim::sim
{

/** A set-associative cache with true-LRU replacement. */
class SetAssocCache
{
  public:
    /**
     * Construct a cache.
     *
     * @param size_bytes total capacity; must be a multiple of
     *                   line_bytes * assoc.
     * @param line_bytes cache-line size (power of two).
     * @param assoc      associativity (>= 1).
     */
    SetAssocCache(u64 size_bytes, u32 line_bytes, u32 assoc);

    /**
     * Access one byte address.
     *
     * @return true on hit, false on miss (the line is then filled).
     */
    bool access(Addr addr);

    /**
     * Access a [addr, addr+bytes) range, one probe per touched line.
     */
    void accessRange(Addr addr, u64 bytes);

    /**
     * Access @p count addresses in order, as if access() had been
     * called once per element.  Counters and LRU state end up
     * bit-identical to the serial loop; consecutive same-line runs are
     * collapsed into one LRU probe (a run's trailing accesses are
     * guaranteed hits on the just-touched MRU line, which leave the
     * recency order as it is, so only the counters advance).
     */
    void accessBatch(const Addr *addrs, u64 count);

    /**
     * Access the strided sequence start, start+stride, ... (@p count
     * probes), equivalent to the serial access() loop.  Same-line runs
     * are collapsed arithmetically, so unit-stride streams cost one
     * LRU probe per touched *line* instead of one per element.
     */
    void accessStream(Addr start, u64 stride, u64 count);

    /** Invalidate all lines and reset statistics. */
    void reset();

    /** @return number of accesses so far. */
    u64 accesses() const { return numAccesses; }

    /** @return number of misses so far. */
    u64 misses() const { return numMisses; }

    /** @return miss ratio in [0, 1]; 1.0 when no accesses were made. */
    double
    missRatio() const
    {
        return numAccesses ? double(numMisses) / double(numAccesses) : 1.0;
    }

    /** @return number of sets. */
    u32 sets() const { return numSets; }

    /** @return line size in bytes. */
    u32 lineBytes() const { return lineSize; }

  private:
    /** Marker of an empty slot.  It is also the line number of address
     *  ~0 when lines are one byte wide; topLineResident tells the two
     *  apart. */
    static constexpr u64 emptySlot = ~0ULL;

    u64
    setIndex(u64 line) const
    {
        return pow2Sets ? (line & setMask) : (line % numSets);
    }

    /** One LRU probe of @p line.  @return true on hit. */
    bool probe(u64 line);

    /** probe() for line emptySlot, kept off the common path. */
    bool probeTopLine(u64 *set);

    /** Probe @p line once for a run of @p run accesses. */
    void
    probeRun(u64 line, u64 run)
    {
        numAccesses += run;
        probe(line);
    }

    u32 lineSize;
    u32 lineShift;
    u32 assoc;
    u32 numSets;
    u64 setMask; ///< numSets - 1 when numSets is a power of two
    bool pow2Sets;
    /** Line emptySlot is resident; it then sits in the first slot of
     *  its set that holds emptySlot. */
    bool topLineResident = false;
    u64 numAccesses = 0;
    u64 numMisses = 0;
    /** numSets * assoc resident line numbers, set-major.  Each set is
     *  in recency order: MRU first, empty slots (emptySlot) at the
     *  tail, so the LRU line is the last occupied slot. */
    std::vector<u64> lines;
};

} // namespace hetsim::sim

#endif // HETSIM_SIM_CACHE_HH
