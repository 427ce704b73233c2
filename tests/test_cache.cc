/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hh"
#include "sim/cache.hh"

namespace hetsim::sim
{
namespace
{

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(1024, 64, 2);
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(63)); // same line
    EXPECT_FALSE(cache.access(64)); // next line
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2 ways, 1 set: capacity 2 lines.
    SetAssocCache cache(128, 64, 2);
    cache.access(0);     // A miss
    cache.access(64);    // B miss
    cache.access(0);     // A hit (B is now LRU)
    cache.access(128);   // C miss, evicts B
    EXPECT_TRUE(cache.access(0));    // A survived
    EXPECT_FALSE(cache.access(64));  // B was evicted
}

TEST(Cache, StreamingMissesEveryLine)
{
    SetAssocCache cache(64 * KiB, 64, 8);
    for (Addr addr = 0; addr < 1 * MiB; addr += 64)
        cache.access(addr);
    // Working set >> capacity: all compulsory misses.
    EXPECT_EQ(cache.misses(), cache.accesses());
}

TEST(Cache, ResidentSetHitsAfterWarmup)
{
    SetAssocCache cache(64 * KiB, 64, 8);
    auto sweep = [&] {
        for (Addr addr = 0; addr < 32 * KiB; addr += 64)
            cache.access(addr);
    };
    sweep(); // warm
    u64 misses_before = cache.misses();
    sweep();
    EXPECT_EQ(cache.misses(), misses_before); // all hits
}

TEST(Cache, AccessRangeTouchesEveryLine)
{
    SetAssocCache cache(4 * KiB, 64, 4);
    cache.accessRange(10, 200); // spans lines 0..3
    EXPECT_EQ(cache.accesses(), 4u);
    cache.accessRange(0, 0);
    EXPECT_EQ(cache.accesses(), 4u);
}

TEST(Cache, ResetClearsState)
{
    SetAssocCache cache(4 * KiB, 64, 4);
    cache.access(0);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 1.0); // no accesses
    EXPECT_FALSE(cache.access(0)); // cold again
}

TEST(CacheDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(SetAssocCache(1024, 48, 2),
                testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(SetAssocCache(1000, 64, 2),
                testing::ExitedWithCode(1), "not divisible");
    EXPECT_EXIT(SetAssocCache(1024, 64, 0),
                testing::ExitedWithCode(1), "associativity");
}

/** Property: for any geometry, a loop over a set fitting in the ways
 *  hits after warmup, and one exceeding the ways thrashes. */
class CacheGeometry
    : public testing::TestWithParam<std::tuple<u64, u32, u32>>
{
};

TEST_P(CacheGeometry, AssociativityBoundsConflicts)
{
    auto [size, line, assoc] = GetParam();
    SetAssocCache cache(size, line, assoc);
    const u64 set_stride = static_cast<u64>(cache.sets()) * line;

    // assoc distinct lines mapping to set 0: all fit.
    for (int pass = 0; pass < 3; ++pass)
        for (u32 w = 0; w < assoc; ++w)
            cache.access(w * set_stride);
    EXPECT_EQ(cache.misses(), assoc); // only compulsory

    cache.reset();
    // assoc+1 lines in LRU order: every access misses (classic thrash).
    for (int pass = 0; pass < 3; ++pass)
        for (u32 w = 0; w < assoc + 1; ++w)
            cache.access(w * set_stride);
    EXPECT_EQ(cache.misses(), cache.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    testing::Values(std::make_tuple(u64(4) * KiB, 64u, 2u),
                    std::make_tuple(u64(64) * KiB, 64u, 4u),
                    std::make_tuple(u64(512) * KiB, 64u, 16u),
                    std::make_tuple(u64(768) * KiB, 64u, 16u),
                    std::make_tuple(u64(16) * KiB, 128u, 8u)));

TEST(Cache, TopAddressWithByteLines)
{
    // With 1-byte lines, address ~0 has the line number that marks an
    // empty slot; it must still miss cold, hit warm and be evictable.
    SetAssocCache cache(2, 1, 2); // 1 set, 2 ways
    EXPECT_FALSE(cache.access(~0ULL));
    EXPECT_TRUE(cache.access(~0ULL));
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(~0ULL));
    EXPECT_FALSE(cache.access(1)); // evicts line 0
    EXPECT_FALSE(cache.access(2)); // evicts line ~0
    EXPECT_FALSE(cache.access(~0ULL));
    EXPECT_EQ(cache.misses(), 5u);

    SetAssocCache wide(64, 1, 16); // 4 sets
    EXPECT_FALSE(wide.access(~0ULL));
    cache.reset();
    EXPECT_FALSE(cache.access(~0ULL));
    cache.accessRange(~0ULL, 1);
    EXPECT_EQ(cache.accesses(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

/**
 * The stamp-based true-LRU model, kept as the differential reference:
 * each way holds {tag, lastUse, valid}, a hit restamps the way, and a
 * miss fills an invalid way or else the one with the smallest stamp.
 * Every bulk call is the serial loop of access().
 */
class ReferenceCache
{
  public:
    ReferenceCache(u64 size_bytes, u32 line_bytes, u32 assoc)
        : lineShift(static_cast<u32>(std::countr_zero(line_bytes))),
          assoc(assoc), numSets(size_bytes / (u64(line_bytes) * assoc)),
          ways(numSets * assoc)
    {
    }

    bool
    access(Addr addr)
    {
        ++accesses;
        ++useClock;
        const u64 line = addr >> lineShift;
        const u64 tag = line / numSets;
        Way *base = &ways[(line % numSets) * assoc];
        Way *victim = base;
        for (u32 w = 0; w < assoc; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == tag) {
                way.lastUse = useClock;
                return true;
            }
            if (!way.valid)
                victim = &way;
            else if (victim->valid && way.lastUse < victim->lastUse)
                victim = &way;
        }
        ++misses;
        *victim = Way{tag, useClock, true};
        return false;
    }

    void
    accessRange(Addr addr, u64 bytes)
    {
        if (bytes == 0)
            return;
        const u64 first = addr >> lineShift;
        const u64 last = (addr + bytes - 1) >> lineShift;
        if (last < first) // wraps past address ~0: no probe
            return;
        for (u64 line = first;; ++line) {
            access(line << lineShift);
            if (line == last)
                break;
        }
    }

    void
    accessStream(Addr start, u64 stride, u64 count)
    {
        for (u64 i = 0; i < count; ++i)
            access(start + i * stride);
    }

    void
    reset()
    {
        ways.assign(ways.size(), Way{});
        accesses = misses = useClock = 0;
    }

    u64 accesses = 0;
    u64 misses = 0;

  private:
    struct Way
    {
        u64 tag = ~0ULL;
        u64 lastUse = 0;
        bool valid = false;
    };

    u32 lineShift;
    u32 assoc;
    u64 numSets;
    u64 useClock = 0;
    std::vector<Way> ways;
};

/** {size_bytes, line_bytes, assoc} of one differential geometry. */
class CacheDifferential
    : public testing::TestWithParam<std::tuple<u64, u32, u32>>
{
};

TEST_P(CacheDifferential, MatchesStampedLru)
{
    const auto [size, line, assoc] = GetParam();
    for (u64 seed : {1u, 2u, 3u}) {
        SetAssocCache cache(size, line, assoc);
        ReferenceCache ref(size, line, assoc);
        Rng rng(seed);
        // Mostly a hot region about the cache's size, so hits, misses
        // and evictions all happen; one draw in eight comes from just
        // below address ~0, where line numbers and streams wrap.
        auto draw = [&]() -> Addr {
            const u64 span = rng.below(2) ? size : 4 * size;
            const u64 off = rng.below(span);
            return rng.below(8) == 0 ? ~0ULL - off : off;
        };
        for (int step = 0; step < 4000; ++step) {
            const u64 op = rng.below(16);
            if (op == 0) {
                cache.reset();
                ref.reset();
            } else if (op <= 2) {
                const Addr addr = draw();
                const u64 bytes = rng.below(4 * u64(line) + 2);
                cache.accessRange(addr, bytes);
                ref.accessRange(addr, bytes);
            } else if (op <= 5) {
                // Runs of repeated and same-line addresses.
                std::vector<Addr> addrs(rng.below(64));
                Addr prev = draw();
                for (Addr &a : addrs) {
                    const u64 how = rng.below(4);
                    a = how == 0 ? draw()
                        : how == 1 ? prev
                                   : prev + rng.below(line);
                    prev = a;
                }
                cache.accessBatch(addrs.data(), addrs.size());
                for (Addr a : addrs)
                    ref.access(a);
            } else if (op <= 8) {
                // Huge strides step backwards modulo 2^64.
                const u64 strides[] = {0, 1, 4, line / 2 + 1, line,
                                       3 * u64(line) + 1, rng.next(),
                                       ~0ULL, 0 - u64(line)};
                const Addr start = draw();
                const u64 stride = strides[rng.below(std::size(strides))];
                const u64 count = rng.below(200);
                cache.accessStream(start, stride, count);
                ref.accessStream(start, stride, count);
            } else {
                const Addr addr = draw();
                ASSERT_EQ(cache.access(addr), ref.access(addr))
                    << "seed " << seed << " step " << step << " addr "
                    << addr;
            }
            ASSERT_EQ(cache.accesses(), ref.accesses)
                << "seed " << seed << " step " << step << " op " << op;
            ASSERT_EQ(cache.misses(), ref.misses)
                << "seed " << seed << " step " << step << " op " << op;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    testing::Values(std::make_tuple(u64(768) * 16 * 64, 64u, 16u), // dGPU
                    std::make_tuple(u64(512) * 16 * 64, 64u, 16u), // APU
                    std::make_tuple(u64(64), 64u, 1u),  // 1 set x 1 way
                    std::make_tuple(u64(384), 64u, 2u), // 3 sets x 2 ways
                    std::make_tuple(u64(8), 1u, 2u),    // 1-byte lines
                    std::make_tuple(u64(6), 1u, 2u),    // 1 B, 3 sets
                    std::make_tuple(u64(2), 1u, 2u)));  // 1 B, 1 set

} // namespace
} // namespace hetsim::sim
