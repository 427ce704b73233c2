/**
 * @file
 * Performance portability across GPU generations (paper Sec. I):
 * the same unmodified emerging-model code runs on an older Tahiti
 * board and scales with its capability.
 */

#include <gtest/gtest.h>

#include "core/harness.hh"
#include "core/workload.hh"

namespace hetsim::core
{
namespace
{

TEST(Generations, Hd7950SitsBetweenApuAnd280X)
{
    for (auto &wl : {workloadByName("readmem"), workloadByName("comd")}) {
        Harness harness(*wl, 0.25, false);
        for (ModelKind model :
             {ModelKind::OpenCl, ModelKind::CppAmp,
              ModelKind::OpenAcc}) {
            double apu = harness.speedup(sim::a10_7850kGpu(), model,
                                         Precision::Single)
                             .speedup;
            double old_gen = harness.speedup(sim::radeonHd7950(),
                                             model,
                                             Precision::Single)
                                 .speedup;
            double new_gen = harness.speedup(sim::radeonR9_280X(),
                                             model,
                                             Precision::Single)
                                 .speedup;
            EXPECT_GT(old_gen, apu)
                << wl->name() << " " << ir::displayName(model);
            EXPECT_GT(new_gen, old_gen)
                << wl->name() << " " << ir::displayName(model);
        }
    }
}

TEST(Generations, Hd7950SpecIsTahitiFamily)
{
    auto hd = sim::radeonHd7950();
    auto r9 = sim::radeonR9_280X();
    EXPECT_EQ(hd.l2Bytes, r9.l2Bytes); // same cache hierarchy
    EXPECT_EQ(hd.lanesPerCu, r9.lanesPerCu);
    EXPECT_LT(hd.computeUnits, r9.computeUnits);
    EXPECT_LT(hd.peakFlops(hd.coreClockMhz, Precision::Single),
              r9.peakFlops(r9.coreClockMhz, Precision::Single));
}

} // namespace
} // namespace hetsim::core
