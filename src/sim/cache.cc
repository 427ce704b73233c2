#include "cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace hetsim::sim
{

SetAssocCache::SetAssocCache(u64 size_bytes, u32 line_bytes, u32 assoc)
    : lineSize(line_bytes), assoc(assoc)
{
    if (line_bytes == 0 || !std::has_single_bit(line_bytes))
        fatal("cache line size %u is not a power of two", line_bytes);
    if (assoc == 0)
        fatal("cache associativity must be >= 1");
    if (size_bytes % (u64(line_bytes) * assoc) != 0)
        fatal("cache size %llu not divisible by line*assoc",
              static_cast<unsigned long long>(size_bytes));

    lineShift = static_cast<u32>(std::countr_zero(line_bytes));
    numSets = static_cast<u32>(size_bytes / (u64(line_bytes) * assoc));
    if (numSets == 0)
        fatal("cache has zero sets");
    pow2Sets = std::has_single_bit(numSets);
    setMask = pow2Sets ? numSets - 1 : 0;
    lines.assign(u64(numSets) * assoc, emptySlot);
}

// Each set lists its lines MRU first, so a hit moves the line to the
// front and a miss drops the tail slot (the LRU line, or an empty slot
// while the set is not full) and inserts in front.  That is the same
// victim as "an invalid way, else the least recently used one", so
// every outcome matches a timestamped true-LRU cache.
bool
SetAssocCache::probe(u64 line)
{
    const u64 set_index = setIndex(line);
    u64 *set = &lines[set_index * assoc];
    if (line == emptySlot) [[unlikely]]
        return probeTopLine(set);
    if (set[0] == line)
        return true;

    u32 w = 1;
    while (w < assoc && set[w] != line)
        ++w;
    if (w < assoc) {
        std::memmove(set + 1, set, w * sizeof(u64));
        set[0] = line;
        return true;
    }

    ++numMisses;
    // The tail is line emptySlot itself only in that line's set, and
    // only when every slot before it holds another line.
    if (topLineResident && set_index == setIndex(emptySlot) &&
        std::find(set, set + assoc, emptySlot) == set + assoc - 1)
        topLineResident = false;
    std::memmove(set + 1, set, (assoc - 1) * sizeof(u64));
    set[0] = line;
    return false;
}

bool
SetAssocCache::probeTopLine(u64 *set)
{
    // Occupied slots form a prefix of the set, so when the line is
    // resident it is the first slot reading emptySlot.
    const u64 w = topLineResident
                      ? u64(std::find(set, set + assoc, emptySlot) - set)
                      : assoc - 1;
    std::memmove(set + 1, set, w * sizeof(u64));
    set[0] = emptySlot;
    if (topLineResident)
        return true;
    ++numMisses;
    topLineResident = true;
    return false;
}

bool
SetAssocCache::access(Addr addr)
{
    ++numAccesses;
    return probe(addr >> lineShift);
}

void
SetAssocCache::accessRange(Addr addr, u64 bytes)
{
    if (bytes == 0)
        return;
    const Addr first = addr >> lineShift;
    const Addr last = (addr + bytes - 1) >> lineShift;
    if (last < first) // the range wraps past address ~0
        return;
    for (Addr line = first;; ++line) {
        access(line << lineShift);
        if (line == last) // not line <= last: the top line would wrap
            break;
    }
}

void
SetAssocCache::accessBatch(const Addr *addrs, u64 count)
{
    u64 i = 0;
    while (i < count) {
        const u64 line = addrs[i] >> lineShift;
        u64 run = 1;
        while (i + run < count && (addrs[i + run] >> lineShift) == line)
            ++run;
        probeRun(line, run);
        i += run;
    }
}

void
SetAssocCache::accessStream(Addr start, u64 stride, u64 count)
{
    Addr addr = start;
    u64 i = 0;
    while (i < count) {
        const u64 line = addr >> lineShift;
        u64 run = count - i;
        if (stride > 0) {
            // Accesses remaining inside this line at this stride (a
            // ceiling division that cannot overflow for huge strides).
            const u64 left = ((line + 1) << lineShift) - addr;
            run = std::min(run, left / stride + (left % stride != 0));
        }
        probeRun(line, run);
        addr += stride * run;
        i += run;
    }
}

void
SetAssocCache::reset()
{
    std::fill(lines.begin(), lines.end(), emptySlot);
    topLineResident = false;
    numAccesses = 0;
    numMisses = 0;
}

} // namespace hetsim::sim
