/**
 * @file
 * Tests for the worker thread pool (functional-execution substrate).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cpu/threadpool.hh"

namespace hetsim::cpu
{
namespace
{

TEST(ThreadPool, CoversEveryItemExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(10000);
    pool.parallelFor(10000, [&](u64 b, u64 e) {
        for (u64 i = b; i < e; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroItemsIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(0, [&](u64, u64) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, DeterministicResultRegardlessOfWorkers)
{
    auto run = [](unsigned workers) {
        ThreadPool pool(workers);
        std::vector<double> out(5000);
        pool.parallelFor(5000, [&](u64 b, u64 e) {
            for (u64 i = b; i < e; ++i)
                out[i] = static_cast<double>(i) * 0.5;
        });
        return std::accumulate(out.begin(), out.end(), 0.0);
    };
    EXPECT_DOUBLE_EQ(run(1), run(4));
}

TEST(ThreadPool, PropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(1000,
                                  [](u64 b, u64) {
                                      if (b == 0)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // Pool remains usable afterwards.
    std::atomic<u64> count{0};
    pool.parallelFor(100, [&](u64 b, u64 e) { count += e - b; });
    EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::atomic<u64> total{0};
    pool.parallelFor(16, [&](u64 b, u64 e) {
        for (u64 i = b; i < e; ++i) {
            ThreadPool::global().parallelFor(
                10, [&](u64 bb, u64 ee) { total += ee - bb; });
        }
    });
    EXPECT_EQ(total.load(), 160u);
}

TEST(ThreadPool, RespectsGrain)
{
    ThreadPool pool(4);
    std::atomic<int> chunks{0};
    pool.parallelFor(
        1000,
        [&](u64, u64) { chunks.fetch_add(1); },
        250);
    EXPECT_LE(chunks.load(), 4);
    EXPECT_GE(chunks.load(), 1);
}

TEST(ThreadPool, GlobalSingleton)
{
    EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
    EXPECT_GE(ThreadPool::global().workers(), 1u);
}

TEST(ThreadPool, TripCountSmallerThanWorkerCount)
{
    // The co-execution tail hands out chunks smaller than the pool;
    // every item must still run exactly once and no worker may see an
    // empty range.
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(3, [&](u64 b, u64 e) {
        ASSERT_LT(b, e);
        for (u64 i = b; i < e; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleItemRuns)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(1, [&](u64 b, u64 e) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 1u);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ZeroItemsWithExplicitGrainIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(0, [&](u64, u64) { called = true; }, 64);
    EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedDispatchCoversAndPropagatesErrors)
{
    // The dynamic scheduler runs chunk bodies through the global
    // pool while an outer functional dispatch may already be in
    // flight; nested coverage must stay exact and exceptions from a
    // nested dispatch must reach the outer caller.
    ThreadPool pool(4);
    constexpr u64 outer = 8;
    constexpr u64 inner = 1000;
    std::vector<std::atomic<int>> hits(outer * inner);
    pool.parallelFor(outer, [&](u64 b, u64 e) {
        for (u64 i = b; i < e; ++i) {
            ThreadPool::global().parallelFor(
                inner, [&, i](u64 bb, u64 ee) {
                    for (u64 j = bb; j < ee; ++j) {
                        hits[i * inner + j].fetch_add(
                            1, std::memory_order_relaxed);
                    }
                });
        }
    });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);

    EXPECT_THROW(
        pool.parallelFor(4,
                         [](u64, u64) {
                             ThreadPool::global().parallelFor(
                                 10, [](u64 bb, u64) {
                                     if (bb == 0) {
                                         throw std::runtime_error(
                                             "nested");
                                     }
                                 });
                         }),
        std::runtime_error);
    // Pool still usable after the nested throw.
    std::atomic<u64> count{0};
    pool.parallelFor(50, [&](u64 b, u64 e) { count += e - b; });
    EXPECT_EQ(count.load(), 50u);
}

TEST(ThreadPool, ManySequentialJobs)
{
    ThreadPool pool(3);
    for (int j = 0; j < 200; ++j) {
        std::atomic<u64> count{0};
        pool.parallelFor(97, [&](u64 b, u64 e) { count += e - b; });
        ASSERT_EQ(count.load(), 97u);
    }
}

TEST(ThreadPool, GrainLargerThanTripCount)
{
    // A grain exceeding n degenerates to one inline chunk covering
    // the whole range - never an empty or split range.
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    std::atomic<u64> covered{0};
    pool.parallelFor(
        7,
        [&](u64 b, u64 e) {
            EXPECT_EQ(b, 0u);
            EXPECT_EQ(e, 7u);
            calls.fetch_add(1);
            covered += e - b;
        },
        1000);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(covered.load(), 7u);
}

TEST(ThreadPool, ExceptionWhileChunksAreStolen)
{
    // Fine-grained jobs with uneven chunk costs force steals; a chunk
    // that throws mid-job must not lose items, wedge a thief, or leave
    // the pool unusable.  Every non-throwing item still runs exactly
    // once (first-exception-wins keeps draining remaining chunks).
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        constexpr u64 n = 4096;
        std::vector<std::atomic<int>> hits(n);
        bool threw = false;
        try {
            pool.parallelFor(
                n,
                [&](u64 b, u64 e) {
                    for (u64 i = b; i < e; ++i) {
                        if (i == 1777)
                            throw std::runtime_error("stolen");
                        // Uneven cost: the first blocks run long so
                        // idle participants must steal the tail.
                        if (i < 64) {
                            volatile u64 sink = 0;
                            for (u64 k = 0; k < 2000; ++k)
                                sink = sink + k;
                        }
                        hits[i].fetch_add(1,
                                          std::memory_order_relaxed);
                    }
                },
                1);
        } catch (const std::runtime_error &) {
            threw = true;
        }
        ASSERT_TRUE(threw);
        u64 ran = 0;
        for (u64 i = 0; i < n; ++i) {
            ASSERT_LE(hits[i].load(), 1);
            ran += static_cast<u64>(hits[i].load());
        }
        // Everything except the throwing chunk completed (grain 1:
        // the chunk holds at most 2 items after tail merging).
        ASSERT_GE(ran, n - 2);
        ASSERT_LT(ran, n);
    }
    // Pool remains fully usable after the throwing rounds.
    std::atomic<u64> count{0};
    pool.parallelFor(1234, [&](u64 b, u64 e) { count += e - b; });
    EXPECT_EQ(count.load(), 1234u);
}

TEST(ThreadPool, StealsPreserveExactCoverageUnderImbalance)
{
    // Heavily skewed chunk costs make thieves carve up the loaded
    // block repeatedly; coverage must stay exactly-once.
    ThreadPool pool(4);
    constexpr u64 n = 20000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(
        n,
        [&](u64 b, u64 e) {
            for (u64 i = b; i < e; ++i) {
                if (i < 32) {
                    volatile u64 sink = 0;
                    for (u64 k = 0; k < 20000; ++k)
                        sink = sink + k;
                }
                hits[i].fetch_add(1, std::memory_order_relaxed);
            }
        },
        16);
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

} // namespace
} // namespace hetsim::cpu
