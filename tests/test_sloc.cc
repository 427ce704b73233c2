/**
 * @file
 * Tests for the SLOC counter and the Table IV manifest.
 */

#include <gtest/gtest.h>

#include "core/sloc.hh"

namespace hetsim::core
{
namespace
{

TEST(Sloc, CountsCodeLinesOnly)
{
    EXPECT_EQ(slocOfSource("int x;\nint y;\n"), 2);
    EXPECT_EQ(slocOfSource(""), 0);
    EXPECT_EQ(slocOfSource("\n\n   \n"), 0);
}

TEST(Sloc, StripsLineComments)
{
    EXPECT_EQ(slocOfSource("// only a comment\n"), 0);
    EXPECT_EQ(slocOfSource("int x; // trailing\n"), 1);
}

TEST(Sloc, StripsBlockComments)
{
    EXPECT_EQ(slocOfSource("/* a\n * b\n */\n"), 0);
    EXPECT_EQ(slocOfSource("int x; /* inline */ int y;\n"), 1);
    EXPECT_EQ(slocOfSource("/* start\n   still */ int x;\n"), 1);
    EXPECT_EQ(slocOfSource("int a;\n/* c1 */\nint b;\n"), 2);
}

TEST(Sloc, SlashInCodeIsNotAComment)
{
    EXPECT_EQ(slocOfSource("int x = a / b;\n"), 1);
}

TEST(Sloc, ManifestListsAllApps)
{
    auto apps = SlocManifest::applications();
    ASSERT_EQ(apps.size(), 5u);
    EXPECT_EQ(apps[0], "read-benchmark");
    EXPECT_EQ(apps[4], "miniFE");
}

TEST(Sloc, VariantFilesExistAndCount)
{
    for (const std::string &app : SlocManifest::applications()) {
        for (ir::ModelKind model :
             {ir::ModelKind::Serial, ir::ModelKind::OpenMp,
              ir::ModelKind::OpenCl, ir::ModelKind::CppAmp,
              ir::ModelKind::OpenAcc, ir::ModelKind::Hc,
              ir::ModelKind::OmpTarget, ir::ModelKind::Cuda}) {
            int lines = SlocManifest::sloc(app, model);
            EXPECT_GT(lines, 10) << app << " "
                                 << ir::toString(model);
        }
    }
}

TEST(Sloc, TableIvOrderingHolds)
{
    // The reproduced Table IV shape: OpenCL needs the most changed
    // lines; the directive/lambda models need far fewer; OpenMP is
    // the smallest change.
    for (const std::string &app : SlocManifest::applications()) {
        int omp = SlocManifest::linesChanged(app, ir::ModelKind::OpenMp);
        int ocl = SlocManifest::linesChanged(app, ir::ModelKind::OpenCl);
        int amp = SlocManifest::linesChanged(app, ir::ModelKind::CppAmp);
        int acc =
            SlocManifest::linesChanged(app, ir::ModelKind::OpenAcc);
        EXPECT_GT(ocl, amp) << app;
        EXPECT_GT(ocl, acc) << app;
        EXPECT_LT(omp, amp) << app;
        EXPECT_LT(omp, acc) << app;
    }
}

TEST(Sloc, ReadmemOpenClRoughlyFourTimesEmergingModels)
{
    // Paper Table IV: readmem OpenCL needs ~4x the lines of C++ AMP
    // and OpenACC.  Our reproduction should keep the >2x spirit.
    int ocl = SlocManifest::linesChanged("read-benchmark",
                                         ir::ModelKind::OpenCl);
    int amp = SlocManifest::linesChanged("read-benchmark",
                                         ir::ModelKind::CppAmp);
    EXPECT_GT(static_cast<double>(ocl) / amp, 1.5);
}

} // namespace
} // namespace hetsim::core
