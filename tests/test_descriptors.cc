/**
 * @file
 * Descriptor audit: every device kernel of every application must
 * publish a well-formed descriptor (named streams, positive work,
 * sane working sets, resolvable on every device).  This is the
 * contract the whole timing pipeline rests on.
 */

#include <gtest/gtest.h>

#include "apps/comd/comd_core.hh"
#include "apps/comd/comd_eam.hh"
#include "apps/lulesh/lulesh_core.hh"
#include "apps/lulesh/lulesh_meta.hh"
#include "apps/minife/minife_core.hh"
#include "apps/readmem/readmem_core.hh"
#include "apps/xsbench/xsbench_core.hh"
#include "kernelir/captable.hh"
#include "kernelir/trace.hh"

namespace hetsim
{
namespace
{

/** Every descriptor of every application, with its launch size. */
std::vector<std::pair<ir::KernelDescriptor, u64>>
allDescriptors()
{
    std::vector<std::pair<ir::KernelDescriptor, u64>> all;

    static apps::readmem::Problem<float> readmem(0.05);
    all.emplace_back(readmem.descriptor(), readmem.items());

    static apps::lulesh::Problem<float> lulesh(10, 2);
    auto lulesh_descs = apps::lulesh::buildDescriptors(lulesh);
    for (int k = 0; k < apps::lulesh::kernelCount; ++k)
        all.emplace_back(lulesh_descs[static_cast<size_t>(k)],
                         lulesh.itemsFor(k + 1));

    static apps::comd::Problem<float> comd(8, 2, false);
    all.emplace_back(comd.forceDescriptor(), comd.numAtoms);
    all.emplace_back(comd.advanceVelocityDescriptor(), comd.numAtoms);
    all.emplace_back(comd.advancePositionDescriptor(), comd.numAtoms);
    static apps::comd::EamState<float> eam(comd);
    all.emplace_back(eam.densityDescriptor(comd), comd.numAtoms);
    all.emplace_back(eam.embedDescriptor(comd), comd.numAtoms);
    all.emplace_back(eam.forceDescriptor(comd), comd.numAtoms);

    static apps::xsbench::Problem<float> xsbench(512, 10000);
    all.emplace_back(xsbench.descriptor(), xsbench.lookups);

    static apps::minife::Problem<float> minife(12, 2);
    for (auto style : {apps::minife::SpmvStyle::CsrAdaptive,
                       apps::minife::SpmvStyle::CsrVector,
                       apps::minife::SpmvStyle::CsrScalar,
                       apps::minife::SpmvStyle::CsrRowSerial})
        all.emplace_back(minife.spmvDescriptor(style), minife.rows);
    all.emplace_back(minife.dotDescriptor(), minife.rows);
    all.emplace_back(minife.waxpbyDescriptor(), minife.rows);

    return all;
}

TEST(Descriptors, AllWellFormed)
{
    for (const auto &[desc, items] : allDescriptors()) {
        SCOPED_TRACE(desc.name);
        EXPECT_FALSE(desc.name.empty());
        EXPECT_FALSE(desc.streams.empty());
        EXPECT_GE(desc.flopsPerItem, 0.0);
        EXPECT_GT(desc.flopsPerItem + desc.intOpsPerItem, 0.0);
        EXPECT_GT(items, 0u);
        EXPECT_GT(desc.preferredWorkgroup, 0u);
        EXPECT_GT(desc.chainConcurrencyPerCu, 0.0);
        for (const auto &stream : desc.streams) {
            SCOPED_TRACE(stream.buffer);
            EXPECT_FALSE(stream.buffer.empty());
            EXPECT_GT(stream.bytesPerItemSp, 0.0);
            EXPECT_GE(stream.dependentAccessesPerItem, 0.0);
            // A dependent chain can't exceed the stream's accesses.
            EXPECT_LE(stream.dependentAccessesPerItem,
                      stream.bytesPerItemSp / 4.0 + 1e-9);
        }
    }
}

TEST(Descriptors, ResolveOnEveryDevice)
{
    auto descriptors = allDescriptors();
    for (const sim::DeviceSpec &spec :
         {sim::radeonR9_280X(), sim::radeonHd7950(),
          sim::a10_7850kGpu(), sim::a10_7850kCpu()}) {
        ir::ProfileResolver resolver(spec);
        for (const auto &[desc, items] : descriptors) {
            SCOPED_TRACE(spec.name + " / " + desc.name);
            for (Precision prec :
                 {Precision::Single, Precision::Double}) {
                auto prof =
                    resolver.resolve(desc, items, prec, false, 0);
                EXPECT_GT(prof.memInstrsPerItem, 0.0);
                EXPECT_GE(prof.dramBytesPerItem, 0.0);
                EXPECT_GT(prof.l2BytesPerItem, 0.0);
                EXPECT_GT(prof.patternEff, 0.0);
                EXPECT_LE(prof.patternEff, 1.0);
                // And it must time to a positive, finite duration
                // under every compiler model.
                for (ir::ModelKind model :
                     {ir::ModelKind::OpenMp, ir::ModelKind::OpenCl,
                      ir::ModelKind::CppAmp, ir::ModelKind::OpenAcc,
                      ir::ModelKind::Hc}) {
                    auto cg = ir::compileWithCaps(ir::capsFor(model),
                                                  desc, {}, spec);
                    auto t = sim::timeKernel(spec, spec.stockFreq(),
                                             prec, prof, cg);
                    ASSERT_GT(t.seconds, 0.0);
                    ASSERT_TRUE(std::isfinite(t.seconds));
                }
            }
        }
    }
}

} // namespace
} // namespace hetsim
